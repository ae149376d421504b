"""The EM kernel of the generative label model — its one estimator.

Every label-model fit in the library drives the functions in this module:
``GenerativeModel.fit`` and ``predict_proba``, and the online model's
``update`` / ``drain``.  The E-step is exact, so no fit samples.  The kernel
sees a label matrix only as its non-abstain ``(row, col, value)`` triples in
canonical CSR order (:class:`Entries`, built once per matrix by
:func:`build_entries`); any other input — dense array, dense-backed
``LabelMatrix``, scipy matrix — is lowered to CSR storage at the boundary
(:func:`repro.labeling.sparse.lower_to_sparse`), so work per epoch is
O(nnz) plus O(m·k) for the row posteriors.

What is fit.  Of the paper's three factor types (Section 2.2) only the
accuracy factor involves the latent label, so it is the only one the kernel
fits: one accuracy ``a_j`` per labeling function, with errors uniform over
the ``k - 1`` wrong classes, i.e. accuracy weight
``w_j = 0.5·log(a_j (k-1)/(1-a_j))`` and posterior
``P(y_i = c | Λ_i) ∝ π_c · exp(2 Σ_{j: Λ_{i,j}=c} w_j / d_{i,j})``.  The
labeling-propensity factor cancels out of every posterior and is not fit.
A modeled correlation pair carries no weight either: it acts through
``d_{i,j}``, one plus the number of LF ``j``'s modeled partners casting the
same vote on row ``i`` (:func:`build_entries`), so a clique of
near-duplicates counts roughly once.  For ``k = 2`` this is exactly the
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
from typing import Iterable, NamedTuple, Optional, Sequence

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


#: Prior labeling-function accuracy: the starting point of every estimate
#: and the center of the M-step's pseudo-count smoothing.
ACCURACY_INIT = 0.7
#: M-step pseudo-counts toward :data:`ACCURACY_INIT` (stabilizes LFs with
#: very few votes).
SMOOTHING = 2.0
#: Weight of the previous iterate in each damped accuracy and class-balance
#: update.
DAMPING = 0.5
#: Cap on every accuracy estimate.
MAX_ACCURACY = 0.95


@dataclass(frozen=True)
class EMParams:
    """The validated hyper-parameters of the EM estimator.

    Field names and meanings are those of the same-named
    :class:`repro.labelmodel.generative.GenerativeModel` constructor
    parameters; the batch and the online model both hand the kernel one of
    these.  The rest of the estimator is fixed: :data:`ACCURACY_INIT`,
    :data:`SMOOTHING`, :data:`DAMPING`, :data:`MAX_ACCURACY`, and accuracies
    clamped at or above chance.
    """

    epochs: int = 30
    class_balance: Optional[float | Sequence[float]] = None

    def __post_init__(self) -> None:
        epochs = self.epochs
        if isinstance(epochs, bool) or not isinstance(epochs, Integral) or epochs <= 0:
            raise LabelModelError(f"epochs must be a positive integer, got {epochs!r}")
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


def canonical_pairs(
    correlations: Iterable[tuple[int, int]], num_lfs: int
) -> list[tuple[int, int]]:
    """The modeled correlation pairs ``C`` of ``num_lfs`` labeling functions.

    Each pair is ordered ``j < k`` and only its first occurrence is kept; a
    self-pair or an index outside ``[0, num_lfs)`` raises.
    """
    pairs = []
    for j, k in correlations:
        if j == k:
            raise LabelModelError(f"correlation pair ({j}, {k}) is a self-pair")
        if not (0 <= j < num_lfs and 0 <= k < num_lfs):
            raise LabelModelError(
                f"correlation pair ({j}, {k}) out of range for {num_lfs} labeling functions"
            )
        pairs.append((j, k) if j < k else (k, j))
    return list(dict.fromkeys(pairs))


def build_entries(
    sparse: SparseLabelMatrix,
    correlations: Sequence[tuple[int, int]],
    cardinality: int,
) -> Entries:
    """Everything the kernel needs from one matrix, computed once.

    ``correlations`` are canonical pairs (:func:`canonical_pairs`); one
    sorted-column intersection per pair yields the per-entry discounts.
    Without modeled correlations the column-major view of the storage is
    never built.
    """
    discounts = np.ones(sparse.nnz)
    if correlations:
        col_indptr = sparse.csc()[0]
        csr_position = sparse.csc_order()
        for j, k in correlations:
            rows_j, vals_j = sparse.column(j)
            rows_k, vals_k = sparse.column(k)
            in_j, in_k = intersect_sorted(rows_j, rows_k)
            same = vals_j[in_j] == vals_k[in_k]
            discounts[csr_position[int(col_indptr[j]) + in_j[same]]] += 1.0
            discounts[csr_position[int(col_indptr[k]) + in_k[same]]] += 1.0
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
        return DAMPING * previous + (1.0 - DAMPING) * estimate
    if covered_rows:
        estimate = np.clip(mass / covered_rows, 1e-3, None)
    else:
        estimate = np.full(cardinality, 1.0 / cardinality)
    estimate = estimate / estimate.sum()
    if previous is None:
        return estimate
    mixed = DAMPING * previous + (1.0 - DAMPING) * estimate
    return mixed / mixed.sum()


def m_step(
    accuracies: np.ndarray,
    expected_correct: np.ndarray,
    vote_counts: np.ndarray,
    cardinality: int,
) -> np.ndarray:
    """Smoothed, clipped, damped accuracy re-estimate.

    Damping mixes the new estimate with the old one and accuracies are
    capped at :data:`MAX_ACCURACY`: regularization-by-early-stopping that
    keeps the estimator away from the degenerate optimum in which a few
    broad labeling functions are declared perfect.  The non-adversarial
    clamp keeps every LF at or above chance (``1/k``; the paper's standing
    assumption ``w*_j > 0``): an LF can be learned to be useless, not
    actively inverted.
    """
    chance = 1.0 / cardinality
    new_accuracies = (expected_correct + SMOOTHING * ACCURACY_INIT) / (
        np.maximum(vote_counts, 1) + SMOOTHING
    )
    new_accuracies = np.clip(new_accuracies, min(0.05, chance), MAX_ACCURACY)
    new_accuracies = np.maximum(new_accuracies, chance)
    return DAMPING * accuracies + (1.0 - DAMPING) * new_accuracies


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
    accuracies = np.full(entries.shape[1], ACCURACY_INIT)
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
            balance = damped_balance(balance, mass, covered_rows, k)
            prior = balance_prior(balance)
        new_accuracies = m_step(accuracies, expected_correct, entries.vote_counts, k)
        delta = float(np.abs(new_accuracies - accuracies).sum())
        accuracies = new_accuracies
        history.epochs += 1
        history.weight_deltas.append(delta)
        # The diagnostic is on the binary log-odds scale for every cardinality.
        history.mean_accuracy_weights.append(float(accuracy_to_weights(accuracies, 2).mean()))
        if delta < 1e-10:
            break
    return accuracies, prior, history
