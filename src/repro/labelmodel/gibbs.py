"""Gibbs sampling for the generative label model.

The paper optimizes the marginal likelihood "by interleaving stochastic
gradient descent steps with Gibbs sampling ones, similar to contrastive
divergence", using the Numbskull NUMBA sampler.  This module provides the
pure-numpy equivalent: block-Gibbs updates over the latent labels ``y_i``
and, for the model-expectation (negative) phase of the gradient, over the
labeling-function outputs ``Λ_{i,j}`` themselves.

Every method lowers its input through
:func:`repro.labeling.sparse.lower_to_sparse` and runs on the non-abstain
entries only: the LF-output resampling walks the column-major view (entry
positions are fixed once per call), so a sweep costs O(nnz) rather than
O(m·n), and ``label_posteriors`` is the CSR ``Λ @ w``.  What the caller
holds decides only the *return* type, once, at the public method: a plain
array in gives a plain array out, anything else a
:class:`~repro.labeling.sparse.SparseLabelMatrix` with the input's pattern.
Dense and CSR inputs therefore consume the same RNG stream and produce
identical draws under either kernel.

Both label vocabularies are supported, dispatched on the specification's
``cardinality``: the signed binary encoding ``{-1, 0, +1}`` runs the
original two-value updates (sigmoids of logit differences, bit-identical to
the binary-only implementation), while categorical labels ``{1..k}`` run
k-value block-Gibbs — the label conditional is a softmax over the per-class
accuracy-weight sums, and the LF-output conditional a softmax over the k
possible votes' factor energies.

Two sampling kernels are available, selected by the ``kernel`` argument:

* ``"vectorized"`` (the default behind ``"auto"``) — the graph-colored fused
  updates of :mod:`repro.labelmodel.kernels`: a :class:`SamplerPlan` is
  compiled once per chain (or passed in, e.g. by the contrastive-divergence
  loop, which compiles one per fit) and every sweep resamples whole color
  classes of columns in a handful of numpy calls.
* ``"reference"`` — the exact per-column loop over the column-major view,
  kept as the plainly-auditable oracle the vectorized kernel is validated
  against.

Both kernels sample from the same conditionals; ``label_posteriors`` (no
sampling involved) is kernel-independent and bit-identical.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.labeling.matrix import LabelMatrix
from repro.labeling.sparse import (
    SparseLabelMatrix,
    class_vote_counts,
    intersect_sorted,
    lower_to_sparse,
)
from repro.labelmodel.factor_graph import FactorGraphSpec
from repro.labelmodel.kernels import (
    SamplerPlan,
    SamplerWorkspace,
    resample_lf_entries,
    resolve_kernel,
    run_joint_chain,
)
from repro.types import ABSTAIN, NEGATIVE, POSITIVE
from repro.utils.mathutils import sigmoid, softmax
from repro.utils.rng import SeedLike, ensure_rng

MatrixLike = Union[np.ndarray, SparseLabelMatrix]


def _like_input(sample: SparseLabelMatrix, label_matrix) -> MatrixLike:
    """Dense in → dense out: the one place the input's form is looked at."""
    if isinstance(label_matrix, (SparseLabelMatrix, LabelMatrix)) or hasattr(label_matrix, "tocsr"):
        return sample
    return sample.to_dense()


def _signed_indicator(values: np.ndarray) -> np.ndarray:
    """``1{v = +1} - 1{v = -1}`` as floats (abstains contribute 0)."""
    return (values == POSITIVE).astype(float) - (values == NEGATIVE).astype(float)


def _categorical_draw(rng: np.random.Generator, probabilities: np.ndarray) -> np.ndarray:
    """Draw one class per row from ``(m, k)`` probabilities; returns ``1..k``."""
    cumulative = np.cumsum(probabilities, axis=1)
    uniforms = rng.random((probabilities.shape[0], 1)) * cumulative[:, -1:]
    return (uniforms < cumulative).argmax(axis=1).astype(np.int64) + 1


class GibbsSampler:
    """Gibbs sampler over ``(Λ, Y)`` for a fixed factor-graph specification.

    All methods operate on a weight vector laid out per
    :class:`repro.labelmodel.factor_graph.WeightLayout`.  ``kernel`` selects
    the sampling implementation (see the module docstring): ``"auto"``
    resolves to the vectorized plan-based kernel, ``"reference"`` forces the
    per-column loop.
    """

    def __init__(
        self, spec: FactorGraphSpec, seed: SeedLike = None, kernel: str = "auto"
    ) -> None:
        self.spec = spec
        self.rng = ensure_rng(seed)
        self.kernel = resolve_kernel(kernel)

    # ------------------------------------------------------------------- labels
    def label_posteriors(
        self,
        weights: np.ndarray,
        label_matrix: MatrixLike,
        class_prior_weight: float | np.ndarray = 0.0,
    ) -> np.ndarray:
        """Exact label posterior for every row.

        Because the correlation and propensity factors do not involve ``y``,
        the conditional depends only on the accuracy weights (plus an optional
        class-prior weight ``w_0``):
        ``P(y_i = +1 | Λ_i) = σ(2 (w_0 + Σ_j w_acc_j Λ_{i,j}))`` (paper
        Appendix A.4; the prior term is an extension for imbalanced tasks).
        The score is the CSR ``Λ @ w_acc`` over the non-abstain entries.

        Binary specs return the positive-class probability, shape ``(m,)``.
        Categorical specs (``cardinality = k > 2``) return the full
        distribution, shape ``(m, k)``:
        ``P(y_i = c | Λ_i) = softmax_c(2 (w_0,c + Σ_{j: Λ_{i,j}=c} w_acc_j))``
        with ``class_prior_weight`` a length-``k`` vector of half-log-priors
        (a scalar shifts every class equally, i.e. is a no-op).
        """
        _, accuracy_weights, _ = self.spec.split_weights(weights)
        if self.spec.cardinality > 2:
            scores = class_vote_counts(
                label_matrix, self.spec.cardinality, column_weights=accuracy_weights
            )
            return softmax(2.0 * (scores + np.asarray(class_prior_weight, dtype=float)), axis=1)
        scores = lower_to_sparse(label_matrix).matvec(accuracy_weights)
        return sigmoid(2.0 * (scores + class_prior_weight))

    def sample_labels(
        self,
        weights: np.ndarray,
        label_matrix: MatrixLike,
        class_prior_weight: float | np.ndarray = 0.0,
    ) -> np.ndarray:
        """Draw ``y_i ~ P(y_i | Λ_i, w)`` for every row.

        Binary specs return signed labels ``{-1, +1}``; categorical specs
        return classes ``1..k``.
        """
        posteriors = self.label_posteriors(weights, label_matrix, class_prior_weight)
        if posteriors.ndim == 2:
            return _categorical_draw(self.rng, posteriors)
        uniforms = self.rng.random(posteriors.shape[0])
        return np.where(uniforms < posteriors, POSITIVE, NEGATIVE).astype(np.int64)

    # -------------------------------------------------------------- LF outputs
    def sample_lf_outputs(
        self,
        weights: np.ndarray,
        label_matrix: MatrixLike,
        y: np.ndarray,
        sweeps: int = 1,
        plan: Optional[SamplerPlan] = None,
        workspace: Optional[SamplerWorkspace] = None,
    ) -> MatrixLike:
        """Resample the non-abstaining ``Λ_{i,j}`` values given ``y`` and the rest.

        The estimator conditions on the *abstention pattern* of the observed
        label matrix: whether an LF votes is governed by the labeling
        propensity factor, which does not involve ``y``, so it carries no
        information about accuracies or correlations and can be conditioned
        on.  For entries where the pattern says "votes", the conditional of
        ``Λ_{i,j} = λ ∈ {-1, +1}`` is proportional to::

            exp( w_acc_j·1{λ=y_i} + Σ_{k: (j,k)∈C} w_corr_{jk}·1{λ=Λ_{i,k}} )

        Entries where the pattern says "abstains" stay abstaining.  Used for
        the model-expectation phase of contrastive-divergence training; the
        chain starts from the observed label matrix.

        Each column update touches only the rows where that column votes (for
        binary specs the two-value conditional reduces to a sigmoid of the
        logit difference; categorical specs draw from the softmax over the
        ``k`` candidate votes' energies), so a sweep is O(nnz).  The result
        has the input's sparsity pattern and, per the module docstring, its
        form.

        Under the vectorized kernel a :class:`SamplerPlan` is compiled for
        the matrix (or reused when passed in — it must have been compiled
        from this matrix) and the sweep runs as fused per-color updates.
        """
        sparse = lower_to_sparse(label_matrix)
        if self.kernel == "vectorized":
            if plan is None:
                plan = SamplerPlan.compile(self.spec, sparse)
            values = resample_lf_entries(plan, workspace, self.rng, weights, y, sweeps)
        else:
            values, _ = self._reference_chain(weights, sparse, sweeps, y, None)
        return _like_input(sparse.with_csc_data(values), label_matrix)

    def _column_class_draws(
        self,
        accuracy_j: float,
        y_rows: np.ndarray,
        partner_terms: list[tuple[float, np.ndarray]],
    ) -> np.ndarray:
        """Categorical draws for one column's voting rows.

        The conditional of ``Λ_{i,j} = λ ∈ {1..k}`` is
        ``softmax_λ(w_acc_j·1{λ=y_i} + Σ_partners w_corr·1{λ=Λ_{i,partner}})``
        — the k-ary generalization of the binary sigmoid over the logit
        difference (for k = 2 the two coincide).
        """
        k = self.spec.cardinality
        scores = np.zeros((y_rows.size, k))
        scores[np.arange(y_rows.size), y_rows - 1] = accuracy_j
        for weight, values in partner_terms:
            voted = np.flatnonzero(values != ABSTAIN)
            scores[voted, values[voted] - 1] += weight
        return _categorical_draw(self.rng, softmax(scores, axis=1))

    def _column_alignments(
        self, col_indptr: np.ndarray, entry_rows: np.ndarray
    ) -> list[list[tuple[int, np.ndarray, np.ndarray]]]:
        """Per column, where its vote rows intersect each correlated partner's.

        Returns, for every column ``j`` and each of its modeled partners, the
        partner's weight index, the positions within ``j``'s CSC slice where
        both vote, and the matching absolute CSC positions of the partner's
        entries.  Depends only on the sparsity pattern, so it is computed
        once per chain and reused across sweeps.
        """
        alignments: list[list[tuple[int, np.ndarray, np.ndarray]]] = []
        for j in range(self.spec.num_lfs):
            rows_j = entry_rows[col_indptr[j] : col_indptr[j + 1]]
            per_column = []
            for partner, weight_index in self.spec.neighbors(j):
                rows_p = entry_rows[col_indptr[partner] : col_indptr[partner + 1]]
                in_j, in_p = intersect_sorted(rows_j, rows_p)
                per_column.append((weight_index, in_j, int(col_indptr[partner]) + in_p))
            alignments.append(per_column)
        return alignments

    def _resample_columns(
        self,
        accuracy: np.ndarray,
        weights: np.ndarray,
        col_indptr: np.ndarray,
        entry_rows: np.ndarray,
        data: np.ndarray,
        y: np.ndarray,
        alignments: list[list[tuple[int, np.ndarray, np.ndarray]]],
    ) -> None:
        """One sweep of column-wise resampling, mutating ``data`` in place."""
        categorical = self.spec.cardinality > 2
        for j in range(self.spec.num_lfs):
            start, stop = int(col_indptr[j]), int(col_indptr[j + 1])
            if start == stop:
                continue
            rows = entry_rows[start:stop]
            partner_terms = []
            for weight_index, in_j, partner_positions in alignments[j]:
                partner_values = np.zeros(rows.size, dtype=np.int64)
                partner_values[in_j] = data[partner_positions]
                partner_terms.append((weights[weight_index], partner_values))
            if categorical:
                draws = self._column_class_draws(accuracy[j], y[rows], partner_terms)
            else:
                logit_diff = accuracy[j] * _signed_indicator(y[rows])
                for weight, partner_values in partner_terms:
                    logit_diff += weight * _signed_indicator(partner_values)
                probability_positive = sigmoid(logit_diff)
                draws = np.where(
                    self.rng.random(rows.size) < probability_positive, POSITIVE, NEGATIVE
                ).astype(np.int64)
            data[start:stop] = draws

    def sample_joint(
        self,
        weights: np.ndarray,
        label_matrix: MatrixLike,
        sweeps: int = 1,
        initial_y: Optional[np.ndarray] = None,
        class_prior_weight: float | np.ndarray = 0.0,
        plan: Optional[SamplerPlan] = None,
        workspace: Optional[SamplerWorkspace] = None,
    ) -> tuple[MatrixLike, np.ndarray]:
        """Run ``sweeps`` rounds of block-Gibbs over ``(Y, Λ_values)`` starting at Λ.

        The abstention pattern of the observed matrix is held fixed (see
        :meth:`sample_lf_outputs`).  Returns the final ``(Λ_sample, y_sample)``
        pair; the sample has the input's pattern and form.

        Under the vectorized kernel the chain runs on a compiled
        :class:`SamplerPlan` — pass ``plan``/``workspace`` to amortize the
        compile and the scratch buffers across calls (the plan's entries must
        be this matrix's column-major view: ``SamplerPlan.compile`` of it, or
        ``select_rows`` over ascending rows); otherwise one is compiled for
        the call.
        """
        sparse = lower_to_sparse(label_matrix)
        if self.kernel == "vectorized":
            if plan is None:
                plan = SamplerPlan.compile(self.spec, sparse)
            values, y = run_joint_chain(
                plan,
                workspace,
                self.rng,
                weights,
                sweeps=sweeps,
                initial_y=initial_y,
                class_prior_weight=class_prior_weight,
            )
        else:
            values, y = self._reference_chain(
                weights, sparse, sweeps, initial_y, class_prior_weight
            )
        return _like_input(sparse.with_csc_data(values), label_matrix), y

    def _reference_chain(
        self,
        weights: np.ndarray,
        sparse: SparseLabelMatrix,
        sweeps: int,
        y: Optional[np.ndarray],
        class_prior_weight: Optional[float | np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The reference chain: per-column resampling over the CSC entries.

        Returns the final entry values (CSC order) and ``y``.  With a
        ``class_prior_weight`` the labels are redrawn after every sweep (and
        drawn from the observed matrix first when ``y`` is ``None``); with
        ``None`` the given ``y`` is held fixed.  The CSC view and the
        correlated-pair alignments depend only on the (fixed) abstention
        pattern, so they are computed once for the whole chain rather than
        per sweep.
        """
        _, accuracy, _ = self.spec.split_weights(weights)
        weights = np.asarray(weights, dtype=float)
        col_indptr, entry_rows, entry_vals = sparse.csc()
        data = entry_vals.copy()
        alignments = self._column_alignments(col_indptr, entry_rows)
        if y is None:
            y = self.sample_labels(weights, sparse, class_prior_weight)
        y = np.array(y, dtype=np.int64)
        for _ in range(sweeps):
            self._resample_columns(accuracy, weights, col_indptr, entry_rows, data, y, alignments)
            if class_prior_weight is not None:
                y = self.sample_labels(weights, sparse.with_csc_data(data), class_prior_weight)
        return data, y
