"""The EM kernel of the generative label model — the only implementation.

Every EM consumer in the library drives the functions in this module:
``GenerativeModel.fit(method="em")`` and ``predict_proba``, and the online
model's ``update`` / ``drain``.  The kernel sees a label matrix only as its
non-abstain ``(row, col, value)`` triples in canonical CSR order
(:class:`Entries`, built once per matrix by :func:`build_entries`); any
other input — dense array, dense-backed ``LabelMatrix``, scipy matrix — is
lowered to CSR storage at the boundary
(:func:`repro.labeling.sparse.lower_to_sparse`), so work per epoch is
O(nnz) plus O(m·k) for the row posteriors.

Cardinality is a parameter.  Each labeling function has one accuracy
``a_j`` with errors uniform over the ``k - 1`` wrong classes, i.e. accuracy
weight ``w_j = 0.5·log(a_j (k-1)/(1-a_j))`` and posterior
``P(y_i = c | Λ_i) ∝ π_c · exp(2 Σ_{j: Λ_{i,j}=c} w_j / d_{i,j})`` with
``d_{i,j}`` the correlation discount.  For ``k = 2`` this is exactly the
signed binary model ``σ(2 Σ_j Λ_{i,j} w_j / d_{i,j})``, which keeps its own
arithmetic (and its ``(m,)`` positive-class output) behind the one
``k == 2`` branch of :func:`e_step`.

Class priors travel in the E-step's own encoding: half the log-odds of the
positive class for binary tasks, the log-prior vector for categorical ones
(:func:`balance_prior`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.exceptions import LabelModelError
from repro.labeling.sparse import SparseLabelMatrix, intersect_sorted
from repro.types import NEGATIVE, POSITIVE
from repro.utils.mathutils import sigmoid, softmax


@dataclass
class TrainingHistory:
    """Diagnostics recorded during training."""

    epochs: int = 0
    weight_deltas: list[float] = field(default_factory=list)
    mean_accuracy_weights: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class EMParams:
    """The validated hyper-parameters of the EM estimator.

    Field names and meanings are those of the same-named
    :class:`repro.labelmodel.generative.GenerativeModel` constructor
    parameters; the batch and the online model both hand the kernel one of
    these.
    """

    epochs: int = 30
    accuracy_init: float = 0.7
    smoothing: float = 2.0
    damping: float = 0.5
    max_accuracy: float = 0.95
    class_balance: Optional[float | Sequence[float]] = None
    non_adversarial: bool = True

    def __post_init__(self) -> None:
        epochs = self.epochs
        if isinstance(epochs, bool) or not isinstance(epochs, Integral) or epochs <= 0:
            raise LabelModelError(f"epochs must be a positive integer, got {epochs!r}")
        if not 0.5 < self.accuracy_init < 1.0:
            raise LabelModelError(
                f"accuracy_init must lie in (0.5, 1.0), got {self.accuracy_init}"
            )
        if self.smoothing < 0:
            raise LabelModelError(f"smoothing must be >= 0, got {self.smoothing}")
        if not 0.0 <= self.damping < 1.0:
            raise LabelModelError(f"damping must lie in [0, 1), got {self.damping}")
        if not 0.5 < self.max_accuracy < 1.0:
            raise LabelModelError(
                f"max_accuracy must lie in (0.5, 1), got {self.max_accuracy}"
            )
        if self.class_balance is None:
            return
        balance = np.asarray(self.class_balance, dtype=float)
        if balance.ndim == 0:
            if not 0.0 < float(balance) < 1.0:
                raise LabelModelError(
                    f"class_balance must lie in (0, 1) when given, got {self.class_balance}"
                )
        elif balance.ndim != 1 or balance.size < 2 or np.any(balance <= 0.0):
            raise LabelModelError(
                "class_balance must be a scalar in (0, 1) or a vector of positive "
                f"per-class weights, got {self.class_balance!r}"
            )


class Entries(NamedTuple):
    """A label matrix as the EM kernel sees it (see :func:`build_entries`).

    The per-entry arrays are aligned elementwise over the non-abstain
    entries in the storage's canonical CSR order (row-major, columns
    ascending within a row), which fixes the summation order of every
    reduction — and with it the bits of the fit — independently of how the
    matrix was assembled.
    """

    #: ``(num_rows, num_lfs)`` of the matrix the entries came from.
    shape: tuple[int, int]
    cardinality: int
    #: Column (labeling function) of each entry.
    cols: np.ndarray
    #: Score bin of each entry: its row for ``k = 2`` (one signed score per
    #: row), ``row·k + class`` into the flattened ``(m, k)`` table otherwise.
    bins: np.ndarray
    #: What the entry's vote contributes to its bin per unit of accuracy
    #: weight: ``1 / d_{i,j}`` — signed by the vote for ``k = 2`` — where
    #: ``d_{i,j}`` is one plus the number of LF ``j``'s modeled correlation
    #: partners casting the same vote on row ``i``, so a clique of
    #: near-duplicates counts roughly once.
    evidence: np.ndarray
    #: Per-LF number of votes, and the mask of rows with at least one vote.
    vote_counts: np.ndarray
    covered: np.ndarray
    #: Empirical agreement rate of each modeled pair on the rows where both
    #: vote (0.5 where they never do), aligned with the correlation list.
    pair_agreement: np.ndarray


def validate_label_values(values: np.ndarray, cardinality: int) -> None:
    """Cheap (min/max) vocabulary check so a mismatched matrix fails loudly."""
    if values.size == 0:
        return
    low, high = int(values.min()), int(values.max())
    if cardinality == 2:
        if low < NEGATIVE or high > POSITIVE:
            raise LabelModelError(
                f"binary label matrices use values in {{-1, 0, +1}}, got range "
                f"[{low}, {high}]; a categorical task declares its cardinality "
                "(LabelMatrix(values, cardinality=k), cardinality= on the label "
                "model) and votes with MultiClassMajorityVoter"
            )
    elif low < 0 or high > cardinality:
        raise LabelModelError(
            f"cardinality-{cardinality} label matrices use values in "
            f"{{0, 1, .., {cardinality}}}, got range [{low}, {high}]"
        )


def build_entries(
    sparse: SparseLabelMatrix,
    correlations: Sequence[tuple[int, int]],
    cardinality: int,
) -> Entries:
    """Everything the kernel needs from one matrix, computed once.

    ``correlations`` are canonical pairs (``FactorGraphSpec.correlations``);
    one sorted-column intersection per pair yields both the per-entry
    discounts and the pair's agreement rate.  Without modeled correlations
    the column-major view of the storage is never built.
    """
    discounts = np.ones(sparse.nnz)
    pair_agreement = np.full(len(correlations), 0.5)
    if correlations:
        col_indptr = sparse.csc()[0]
        csr_position = sparse.csc_order()
        for index, (j, k) in enumerate(correlations):
            rows_j, vals_j = sparse.column(j)
            rows_k, vals_k = sparse.column(k)
            in_j, in_k = intersect_sorted(rows_j, rows_k)
            same = vals_j[in_j] == vals_k[in_k]
            discounts[csr_position[int(col_indptr[j]) + in_j[same]]] += 1.0
            discounts[csr_position[int(col_indptr[k]) + in_k[same]]] += 1.0
            if same.size:
                pair_agreement[index] = same.mean()
    evidence = 1.0 / discounts
    if cardinality == 2:
        bins, evidence = sparse.entry_rows(), sparse.data * evidence
    else:
        bins = sparse.entry_rows() * cardinality + (sparse.data - 1)
    return Entries(
        shape=sparse.shape,
        cardinality=cardinality,
        cols=sparse.indices,
        bins=bins,
        evidence=evidence,
        vote_counts=sparse.col_nnz(),
        covered=sparse.row_nnz() > 0,
        pair_agreement=pair_agreement,
    )


def accuracy_to_weights(accuracies: np.ndarray, cardinality: int) -> np.ndarray:
    """Accuracy-factor weights ``0.5·log(a (k-1)/(1-a))`` of LF accuracies."""
    return 0.5 * np.log(accuracies * (cardinality - 1.0) / (1.0 - accuracies))


def balance_prior(balance: float | np.ndarray) -> float | np.ndarray:
    """A class balance in the E-step's prior encoding (see module docstring)."""
    if np.ndim(balance) == 0:
        return 0.5 * float(np.log(balance / (1.0 - balance)))
    return np.log(balance)


def initial_prior(
    class_balance: Optional[float | Sequence[float]], cardinality: int
) -> float | np.ndarray:
    """The prior a supplied ``class_balance`` fixes (neutral when ``None``)."""
    if class_balance is None:
        return 0.0 if cardinality == 2 else np.zeros(cardinality)
    balance = np.asarray(class_balance, dtype=float)
    if cardinality == 2:
        if balance.ndim != 0:
            raise LabelModelError(
                "binary tasks take a scalar class_balance, got a vector "
                f"of shape {balance.shape}"
            )
        return balance_prior(balance)
    if balance.ndim == 0:
        raise LabelModelError(
            f"cardinality-{cardinality} tasks need a length-{cardinality} "
            "class_balance vector, got a scalar"
        )
    if balance.shape != (cardinality,):
        raise LabelModelError(
            f"class_balance must have length {cardinality}, got shape {balance.shape}"
        )
    return balance_prior(balance / balance.sum())


def e_step(
    entries: Entries,
    weights: np.ndarray,
    prior: Optional[float | np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact label posteriors and per-LF expected-correct counts.

    ``weights`` are the accuracy-factor weights (:func:`accuracy_to_weights`);
    ``prior=None`` gives the evidence-only posterior.  Returns the
    posteriors — ``(m,)`` positive-class probabilities for ``k = 2``,
    ``(m, k)`` distributions otherwise — and, per LF, the posterior mass its
    votes agree with (the M-step's numerator).
    """
    num_rows, num_lfs = entries.shape
    k = entries.cardinality
    contributions = weights[entries.cols] * entries.evidence
    if k == 2:
        scores = np.bincount(entries.bins, weights=contributions, minlength=num_rows)
        posteriors = sigmoid(2.0 * (scores if prior is None else scores + prior))
        voted = posteriors[entries.bins]
        agreement = np.where(entries.evidence > 0, voted, 1.0 - voted)
    else:
        scores = np.bincount(
            entries.bins, weights=contributions, minlength=num_rows * k
        ).reshape(num_rows, k)
        logits = 2.0 * scores
        posteriors = softmax(logits if prior is None else logits + prior, axis=1)
        agreement = posteriors.reshape(-1)[entries.bins]
    expected_correct = np.bincount(entries.cols, weights=agreement, minlength=num_lfs)
    return posteriors, expected_correct


def damped_balance(
    previous: Optional[float | np.ndarray],
    mass: float | np.ndarray,
    covered_rows: int,
    cardinality: int,
    damping: float,
) -> float | np.ndarray:
    """One damped class-balance update from the covered rows' posterior mass.

    The estimate is the mean evidence-only posterior over the covered rows,
    clipped away from the simplex boundary (and renormalized for ``k > 2``),
    then mixed with the previous iteration's value.  Feeding prior-shifted
    posteriors back into this estimate is a positive-feedback loop that
    collapses to a single class on imbalanced data — callers pass the mass
    of :func:`e_step` with ``prior=None``.
    """
    if cardinality == 2:
        estimate = float(np.clip(mass / covered_rows, 1e-3, 1.0 - 1e-3)) if covered_rows else 0.5
        if previous is None:
            return estimate
        return damping * previous + (1.0 - damping) * estimate
    if covered_rows:
        estimate = np.clip(mass / covered_rows, 1e-3, None)
    else:
        estimate = np.full(cardinality, 1.0 / cardinality)
    estimate = estimate / estimate.sum()
    if previous is None:
        return estimate
    mixed = damping * previous + (1.0 - damping) * estimate
    return mixed / mixed.sum()


def m_step(
    params: EMParams,
    accuracies: np.ndarray,
    expected_correct: np.ndarray,
    vote_counts: np.ndarray,
    cardinality: int,
) -> np.ndarray:
    """Smoothed, clipped, damped accuracy re-estimate.

    Damping mixes the new estimate with the old one and accuracies are
    capped at ``max_accuracy``: regularization-by-early-stopping that keeps
    the estimator away from the degenerate optimum in which a few broad
    labeling functions are declared perfect.  The non-adversarial clamp
    keeps every LF at or above chance (``1/k``).
    """
    chance = 1.0 / cardinality
    new_accuracies = (expected_correct + params.smoothing * params.accuracy_init) / (
        np.maximum(vote_counts, 1) + params.smoothing
    )
    new_accuracies = np.clip(new_accuracies, min(0.05, chance), params.max_accuracy)
    if params.non_adversarial:
        new_accuracies = np.maximum(new_accuracies, chance)
    return params.damping * accuracies + (1.0 - params.damping) * new_accuracies


def run_em(
    entries: Entries, params: EMParams
) -> tuple[np.ndarray, float | np.ndarray, TrainingHistory]:
    """Damped, truncated EM over one matrix's entries.

    Returns the accuracies, the class prior (the supplied one, else the
    damped per-iteration estimate, in :func:`balance_prior` encoding) and
    the per-epoch diagnostics.
    """
    k = entries.cardinality
    history = TrainingHistory()
    accuracies = np.full(entries.shape[1], params.accuracy_init)
    prior = initial_prior(params.class_balance, k)
    estimate_balance = params.class_balance is None
    covered_rows = int(entries.covered.sum())
    balance = None
    for _ in range(params.epochs):
        posteriors, expected_correct = e_step(
            entries, accuracy_to_weights(accuracies, k), None if estimate_balance else prior
        )
        if estimate_balance:
            mass = posteriors[entries.covered].sum(axis=0)
            balance = damped_balance(balance, mass, covered_rows, k, params.damping)
            prior = balance_prior(balance)
        new_accuracies = m_step(params, accuracies, expected_correct, entries.vote_counts, k)
        delta = float(np.abs(new_accuracies - accuracies).sum())
        accuracies = new_accuracies
        history.epochs += 1
        history.weight_deltas.append(delta)
        # The diagnostic is on the binary log-odds scale for every cardinality.
        history.mean_accuracy_weights.append(float(accuracy_to_weights(accuracies, 2).mean()))
        if delta < 1e-10:
            break
    return accuracies, prior, history
