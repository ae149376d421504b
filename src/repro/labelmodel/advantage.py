"""Modeling advantage: when does the generative model beat majority vote?

This module implements the quantities of paper Section 3.1:

* :func:`modeling_advantage` — the empirical advantage ``A_w(Λ, y)`` of a
  weighted majority vote with weights ``w`` over the unweighted vote
  (Definition 1),
* :func:`optimal_advantage` — ``A* = A_{w*}`` using the optimal (true
  log-odds) weights,
* :func:`estimate_advantage_bound` — the label-matrix-only upper bound
  ``Ã*(Λ)`` used by the Algorithm-1 optimizer (Proposition 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.labeling.matrix import LabelMatrix
from repro.labelmodel.majority import binary_storage
from repro.types import NEGATIVE, POSITIVE, validate_ground_truth
from repro.utils.mathutils import accuracy_to_log_odds, sigmoid

#: Default weight-range assumption of the optimizer: accuracies between 62%
#: and 82% with an average of 73% (paper Section 3.1.2, footnote 8).
DEFAULT_WEIGHT_RANGE: tuple[float, float, float] = (0.5, 1.0, 1.5)


def modeling_advantage(
    label_matrix: LabelMatrix | np.ndarray,
    gold_labels: Sequence[int] | np.ndarray,
    weights: Sequence[float] | np.ndarray,
) -> float:
    """Empirical modeling advantage ``A_w(Λ, y)`` (paper Definition 1).

    ``A_w`` counts, per data point, whether the weighted majority vote
    ``f_w(Λ_i) = Σ_j w_j Λ_{i,j}`` correctly disagrees with the unweighted
    vote ``f_1`` (a gain) or incorrectly disagrees (a loss), averaged over the
    dataset.
    """
    gold = validate_ground_truth(gold_labels).astype(float)
    weights = np.asarray(weights, dtype=float)
    sparse = binary_storage(label_matrix)
    num_rows, num_lfs = sparse.shape
    if num_rows != gold.shape[0]:
        raise ValueError(
            f"label matrix has {num_rows} rows but {gold.shape[0]} gold labels given"
        )
    if num_lfs != weights.shape[0]:
        raise ValueError(
            f"label matrix has {num_lfs} LFs but {weights.shape[0]} weights given"
        )
    weighted_correct = gold * sparse.matvec(weights) > 0
    unweighted_correct = gold * sparse.row_sums() > 0
    gains = np.logical_and(weighted_correct, ~unweighted_correct)
    losses = np.logical_and(~weighted_correct, unweighted_correct)
    return float(gains.mean() - losses.mean())


def optimal_advantage(
    label_matrix: LabelMatrix | np.ndarray,
    gold_labels: Sequence[int] | np.ndarray,
    lf_accuracies: Sequence[float] | np.ndarray,
) -> float:
    """Advantage ``A*`` of the optimally weighted vote (WMV*).

    The optimal weights are the true log-odds of the labeling-function
    accuracies, ``w*_j = 0.5 log(α_j / (1 - α_j))`` (paper Appendix A.1).
    """
    weights = np.asarray(accuracy_to_log_odds(np.asarray(lf_accuracies, dtype=float)))
    return modeling_advantage(label_matrix, gold_labels, weights)


@dataclass(frozen=True)
class AdvantageBoundDetail:
    """Per-dataset breakdown of the optimizer's advantage bound."""

    bound: float
    label_density: float
    num_candidates: int
    num_disagreement_rows: int


def estimate_advantage_bound(
    label_matrix: LabelMatrix | np.ndarray,
    weight_range: tuple[float, float, float] = DEFAULT_WEIGHT_RANGE,
) -> float:
    """The optimizer's upper bound ``Ã*(Λ)`` on the expected advantage.

    Implements the estimator of paper Section 3.1.2 / Proposition 2::

        Φ(Λ_i, y)  = 1{ c_y(Λ_i)·w_max  >  c_{-y}(Λ_i)·w_min }
        Ã*(Λ) = (1/m) Σ_i Σ_{y∈±1} 1{ y f_1(Λ_i) ≤ 0 } Φ(Λ_i, y) σ(2 f_w̄(Λ_i) y)

    where ``c_y`` counts the votes for class ``y``, ``f_1`` is the unweighted
    majority vote, and ``f_w̄`` is the vote with all weights set to the
    assumed mean ``w̄``.
    """
    return estimate_advantage_bound_detail(label_matrix, weight_range).bound


def estimate_advantage_bound_detail(
    label_matrix: LabelMatrix | np.ndarray,
    weight_range: tuple[float, float, float] = DEFAULT_WEIGHT_RANGE,
) -> AdvantageBoundDetail:
    """Like :func:`estimate_advantage_bound`, but with diagnostic detail."""
    w_min, w_mean, w_max = weight_range
    if not 0 < w_min <= w_mean <= w_max:
        raise ValueError(
            f"weight range must satisfy 0 < w_min <= w_mean <= w_max, got {weight_range}"
        )
    sparse = binary_storage(label_matrix)
    m = sparse.shape[0]
    if m == 0:
        return AdvantageBoundDetail(0.0, 0.0, 0, 0)
    positive_counts = sparse.count_per_row(POSITIVE).astype(float)
    negative_counts = sparse.count_per_row(NEGATIVE).astype(float)
    unweighted = positive_counts - negative_counts
    mean_weighted = w_mean * unweighted

    total = 0.0
    disagreement_rows = 0
    for y, own_counts, other_counts in (
        (POSITIVE, positive_counts, negative_counts),
        (NEGATIVE, negative_counts, positive_counts),
    ):
        mv_not_correct = y * unweighted <= 0
        could_flip = own_counts * w_max > other_counts * w_min
        eligible = np.logical_and(mv_not_correct, could_flip)
        disagreement_rows += int(eligible.sum())
        total += float(np.sum(eligible * sigmoid(2.0 * mean_weighted * y)))

    return AdvantageBoundDetail(
        bound=total / m,
        label_density=float(sparse.nnz / m),
        num_candidates=m,
        num_disagreement_rows=disagreement_rows,
    )
