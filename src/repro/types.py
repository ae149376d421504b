"""Core label types and constants shared across the library.

The paper works primarily in the binary setting ``Y = {-1, +1}`` with a
distinguished *abstain* value for labeling functions that decline to vote.
Following the paper's notation we encode abstention as ``0`` inside label
matrices so that majority vote reduces to a sign of a sum.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

#: Value a labeling function returns (and that is stored in the label matrix)
#: when it declines to vote on a candidate.
ABSTAIN: int = 0

#: Positive class in the binary setting.
POSITIVE: int = 1

#: Negative class in the binary setting.
NEGATIVE: int = -1

#: The complete set of values a binary labeling function may emit.
BINARY_LABELS: tuple[int, ...] = (NEGATIVE, ABSTAIN, POSITIVE)


class Label(enum.IntEnum):
    """Symbolic names for the binary label vocabulary.

    ``Label`` members compare equal to their integer encodings, so code may
    freely mix ``Label.POSITIVE`` and ``1``.
    """

    NEGATIVE = -1
    ABSTAIN = 0
    POSITIVE = 1


def validate_label_matrix(label_matrix: np.ndarray, cardinality: int = 2) -> np.ndarray:
    """Validate and canonicalize a label matrix.

    Parameters
    ----------
    label_matrix:
        Array of shape ``(num_points, num_lfs)``.  For the binary setting the
        entries must lie in ``{-1, 0, +1}``; for multi-class (Dawid-Skene
        style models) entries lie in ``{0, 1, ..., cardinality}`` where ``0``
        is abstain.
    cardinality:
        Number of classes of the task.

    Returns
    -------
    numpy.ndarray
        The validated matrix as an ``int64`` array.

    Raises
    ------
    ValueError
        If the matrix has the wrong rank or contains out-of-vocabulary
        entries.
    """
    matrix = np.asarray(label_matrix)
    if matrix.ndim != 2:
        raise ValueError(f"label matrix must be 2-dimensional, got shape {matrix.shape}")
    matrix = matrix.astype(np.int64, copy=False)
    values = np.unique(matrix)
    if cardinality == 2:
        allowed = {NEGATIVE, ABSTAIN, POSITIVE}
    else:
        allowed = set(range(0, cardinality + 1))
    unexpected = [int(v) for v in values if int(v) not in allowed]
    if unexpected:
        raise ValueError(
            f"label matrix contains values {unexpected} outside the allowed set {sorted(allowed)}"
        )
    return matrix


def validate_ground_truth(labels: Sequence[int] | np.ndarray, cardinality: int = 2) -> np.ndarray:
    """Validate a ground-truth label vector (no abstentions allowed).

    Returns the labels as an ``int64`` numpy array.
    """
    array = np.asarray(labels).astype(np.int64, copy=False)
    if array.ndim != 1:
        raise ValueError(f"ground truth must be 1-dimensional, got shape {array.shape}")
    if cardinality == 2:
        allowed = {NEGATIVE, POSITIVE}
    else:
        allowed = set(range(1, cardinality + 1))
    values = set(int(v) for v in np.unique(array))
    unexpected = values - allowed
    if unexpected:
        raise ValueError(
            f"ground truth contains values {sorted(unexpected)} outside {sorted(allowed)}"
        )
    return array


def probs_to_labels(probs: np.ndarray, tie_value: int = NEGATIVE) -> np.ndarray:
    """Convert positive-class probabilities into hard binary labels.

    Probabilities above 0.5 become ``POSITIVE``, below 0.5 become
    ``NEGATIVE``; exact ties take ``tie_value`` (the paper counts emitted
    zero/tie labels as negatives due to class imbalance, see Appendix A.5).
    """
    probs = np.asarray(probs, dtype=float)
    labels = np.where(probs > 0.5, POSITIVE, NEGATIVE).astype(np.int64)
    labels[np.isclose(probs, 0.5)] = tie_value
    return labels


def labels_to_probs(labels: Sequence[int] | np.ndarray) -> np.ndarray:
    """Convert hard binary labels in ``{-1, +1}`` to probabilities in ``{0, 1}``."""
    array = validate_ground_truth(labels)
    return (array == POSITIVE).astype(float)
