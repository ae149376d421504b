"""Structure learning: selecting which labeling-function correlations to model.

The paper (and Bach et al., ICML 2017) selects pairwise dependencies with an
ℓ1-regularized pseudolikelihood estimator over the labeling-function outputs
alone, then thresholds the resulting dependency weights at ε.  This module
implements the node-wise formulation of that estimator:

for every labeling function ``j`` we fit an ℓ1-regularized logistic
regression predicting the sign of ``Λ_{·,j}`` (restricted to rows where LF
``j`` votes) from the votes of all other labeling functions **plus a
majority-vote proxy for the latent label**.  The proxy for node ``j``
excludes LF ``j``'s own vote (``sign(Σ_{k≠j} Λ_{i,k})``) — including it
would leak the regression target into a feature and distort the dependency
scores.  Controlling for the label proxy means a large coefficient on LF
``k`` indicates dependence between ``j`` and ``k`` *beyond what the shared
true label explains* — exactly the "double-counting" correlations the
generative model needs to know about.  Node-wise ℓ1 logistic regression is
the standard consistent estimator for Ising/Markov-network structure
(Ravikumar et al.), so this is a faithful, pure-numpy substitute for the
pseudolikelihood SGD in the original system.

Every input is lowered to CSR storage and fitted from its CSC column slices:
each node's design matrix is assembled from the non-abstain entries of the
other columns restricted to the rows where the node votes, so memory stays
O(votes_j · n) per node and a dense Λ is never needed.

The selection threshold ε plays the paper's role exactly: a pair ``(j, k)``
is selected when ``max(|w_{j←k}|, |w_{k←j}|) ≥ ε``, and sweeping ε produces
the (ε, #correlations) curve whose elbow the optimizer picks.

Categorical label matrices (classes ``1..k``, ``0`` = abstain) are handled
by a per-node one-vs-rest reduction: node ``j`` is regressed against its
*anchor class* (its most frequent emitted class), with every other LF's vote
recoded to ``+1`` (voted the anchor class) / ``-1`` (voted any other class)
/ ``0`` (abstained) and the label proxy built from the same recoding.  This
is the Ising-style node-wise regression applied to the anchor-class
indicator field, so for ``cardinality = 2`` it coincides with the signed
formulation, and for ``k > 2`` a large coefficient still means "LF ``k``
agrees with LF ``j`` beyond what the shared label explains".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import LabelModelError, NotFittedError
from repro.labeling.matrix import LabelMatrix
from repro.labeling.sparse import (
    SparseLabelMatrix,
    class_vote_counts,
    intersect_sorted,
    lower_to_sparse,
)
from repro.utils.mathutils import sigmoid
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class StructureSweepPoint:
    """One point of the threshold sweep: ε and the correlations selected at ε."""

    threshold: float
    correlations: list[tuple[int, int]]

    @property
    def num_correlations(self) -> int:
        """Number of selected pairs at this threshold."""
        return len(self.correlations)


class StructureLearner:
    """Node-wise ℓ1 pseudolikelihood estimator of LF dependency weights.

    Parameters
    ----------
    l1_strength:
        ℓ1 penalty applied to the dependency coefficients during each
        node-wise regression (the label-proxy and bias terms are not
        penalized).
    max_iter:
        Proximal-gradient (ISTA) iterations per node.
    tol:
        Early-stopping tolerance on the coefficient update norm.
    min_votes:
        Nodes with fewer than this many non-abstaining rows are skipped
        (their dependency weights stay zero) — there is no signal to fit.
    seed:
        Seed for the randomized spectral-norm (power-iteration) estimate of
        each node's Lipschitz constant.
    """

    def __init__(
        self,
        l1_strength: float = 0.01,
        max_iter: int = 250,
        tol: float = 1e-6,
        min_votes: int = 10,
        seed: SeedLike = 0,
    ) -> None:
        if l1_strength < 0:
            raise LabelModelError(f"l1_strength must be >= 0, got {l1_strength}")
        self.l1_strength = l1_strength
        self.max_iter = max_iter
        self.tol = tol
        self.min_votes = min_votes
        self.seed = seed
        self.dependency_weights_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ fitting
    def _resolve_storage(
        self, label_matrix: LabelMatrix | np.ndarray
    ) -> tuple[SparseLabelMatrix, bool]:
        """``(storage, categorical)``: the CSR entries and which recoding applies.

        A :class:`LabelMatrix` selects the estimator by its declared
        ``cardinality``; raw arrays/storages fall back to sniffing the values
        (any label above 1 means categorical).
        """
        sparse = lower_to_sparse(label_matrix)
        if isinstance(label_matrix, LabelMatrix):
            categorical = label_matrix.cardinality > 2
        else:
            categorical = bool(sparse.nnz) and int(sparse.data.max()) > 1
        return sparse, categorical

    def fit(self, label_matrix: LabelMatrix | np.ndarray) -> "StructureLearner":
        """Estimate the (n, n) matrix of absolute dependency weights."""
        sparse, categorical = self._resolve_storage(label_matrix)
        n = sparse.shape[1]
        self.dependency_weights_ = np.zeros((n, n))
        if n >= 2:
            self._solve_nodes(sparse, categorical, range(n))
        return self

    def refit_nodes(
        self,
        label_matrix: LabelMatrix | np.ndarray,
        nodes: Sequence[int],
    ) -> "StructureLearner":
        """Re-solve only the given nodes' regressions, keeping the rest.

        The node-wise estimator decomposes per node: node ``j``'s row of
        ``dependency_weights_`` depends only on the label matrix (and the
        learner's seed), never on the other rows — so re-solving a subset
        is bit-identical to the corresponding rows of a full :meth:`fit`.
        This is the incremental path for an online model that added or
        edited a labeling function: re-solve the new node (and, if desired,
        its neighbors) instead of all ``n`` regressions.

        A matrix with *more* columns than the fitted state grows the weight
        matrix with zero-padded rows/columns at the end (append semantics,
        matching ``OnlineGenerativeModel.add_lf``).  A matrix with fewer
        columns is rejected — removal changes the column mapping, so the
        caller must realign ``dependency_weights_`` first (e.g. with
        ``np.delete`` on both axes).
        """
        sparse, categorical = self._resolve_storage(label_matrix)
        n = sparse.shape[1]
        nodes = sorted({int(j) for j in nodes})
        if nodes and (nodes[0] < 0 or nodes[-1] >= n):
            raise LabelModelError(
                f"nodes must lie in [0, {n}), got {nodes[0]}..{nodes[-1]}"
            )
        if self.dependency_weights_ is None:
            self.dependency_weights_ = np.zeros((n, n))
        elif self.dependency_weights_.shape[0] < n:
            grown = np.zeros((n, n))
            old = self.dependency_weights_.shape[0]
            grown[:old, :old] = self.dependency_weights_
            self.dependency_weights_ = grown
        elif self.dependency_weights_.shape[0] > n:
            raise LabelModelError(
                f"label matrix has {n} LFs but the fitted state has "
                f"{self.dependency_weights_.shape[0]}; realign "
                "dependency_weights_ (np.delete the removed row and column) "
                "before refitting nodes"
            )
        self.dependency_weights_[nodes, :] = 0.0
        if n >= 2 and nodes:
            self._solve_nodes(sparse, categorical, nodes)
        return self

    @staticmethod
    def _anchor_class(votes: np.ndarray) -> int:
        """The node's most frequent emitted class (lowest id on ties)."""
        values, counts = np.unique(votes, return_counts=True)
        return int(values[np.argmax(counts)])

    def _solve_nodes(
        self, sparse: SparseLabelMatrix, categorical: bool, nodes: Sequence[int]
    ) -> None:
        """Node-wise regressions assembled from CSC column slices.

        Node ``j``'s design matrix is the block of rows where LF ``j`` votes,
        gathered column by column from the stored entries.
        """
        m, n = sparse.shape
        col_indptr, entry_rows, entry_vals = sparse.csc()
        if categorical:
            # One O(nnz) pass: per-row counts of every class, so each node's
            # anchor-class totals are a column lookup rather than a rescan.
            cardinality = max(2, int(entry_vals.max())) if entry_vals.size else 2
            per_class_counts = class_vote_counts(sparse, cardinality)
            row_nnz = sparse.row_nnz()
            row_totals = None
        else:
            row_totals = sparse.row_sums()
        weights = self.dependency_weights_
        for j in nodes:
            rows_j = entry_rows[col_indptr[j] : col_indptr[j + 1]]
            vals_j = entry_vals[col_indptr[j] : col_indptr[j + 1]]
            if rows_j.size < self.min_votes:
                continue
            if categorical:
                # Anchor-class recoding (see module doc): the node's own
                # votes, every partner column, and the label proxy are all
                # mapped to +-1 against the node's most frequent class.
                anchor = self._anchor_class(vals_j)
                target = (vals_j == anchor).astype(float)
                own_signed = np.where(vals_j == anchor, 1.0, -1.0)
                signed_totals = 2.0 * per_class_counts[:, anchor - 1] - row_nnz
            else:
                anchor = None
                target = (vals_j > 0).astype(float)
                own_signed = vals_j
                signed_totals = row_totals
            others = [k for k in range(n) if k != j]
            design = np.zeros((rows_j.size, n))
            for k in others:
                rows_k = entry_rows[col_indptr[k] : col_indptr[k + 1]]
                vals_k = entry_vals[col_indptr[k] : col_indptr[k + 1]]
                # The shared alignment primitive of the kernel layer: both
                # slices are sorted and unique, so one searchsorted replaces
                # the concatenated sort of np.intersect1d in this O(n²)-pair
                # loop.
                in_j, in_k = intersect_sorted(rows_j, rows_k)
                if categorical:
                    design[in_j, k] = np.where(vals_k[in_k] == anchor, 1.0, -1.0)
                else:
                    design[in_j, k] = vals_k[in_k]
            mv_proxy = np.sign(signed_totals[rows_j] - own_signed)
            features = np.column_stack([design[:, others], mv_proxy, np.ones(rows_j.size)])
            coefficients = self._l1_logistic(features, target, num_penalized=len(others))
            weights[j, others] = np.abs(coefficients[: len(others)])

    def _l1_logistic(
        self, features: np.ndarray, target: np.ndarray, num_penalized: int
    ) -> np.ndarray:
        """ISTA for ℓ1-regularized logistic regression.

        Only the first ``num_penalized`` coefficients receive the ℓ1 penalty.
        """
        m, d = features.shape
        coefficients = np.zeros(d)
        lipschitz = 0.25 * self._spectral_norm_squared(features, seed=self.seed) / m
        step = 1.0 / max(lipschitz, 1e-8)
        penalty = np.zeros(d)
        penalty[:num_penalized] = self.l1_strength
        for _ in range(self.max_iter):
            predictions = sigmoid(features @ coefficients)
            gradient = features.T @ (predictions - target) / m
            updated = coefficients - step * gradient
            updated = np.sign(updated) * np.maximum(np.abs(updated) - step * penalty, 0.0)
            if np.linalg.norm(updated - coefficients) < self.tol:
                coefficients = updated
                break
            coefficients = updated
        return coefficients

    @staticmethod
    def _spectral_norm_squared(
        features: np.ndarray, iterations: int = 20, seed: SeedLike = 0
    ) -> float:
        """Estimate ``λ_max(XᵀX)`` with a few power iterations.

        The starting vector comes from the learner's configured ``seed`` (an
        integer seed yields the same start on every call, keeping repeated
        fits deterministic).
        """
        rng = ensure_rng(seed)
        vector = rng.standard_normal(features.shape[1])
        vector /= np.linalg.norm(vector) + 1e-12
        for _ in range(iterations):
            vector = features.T @ (features @ vector)
            norm = np.linalg.norm(vector)
            if norm < 1e-12:
                return 1.0
            vector /= norm
        return float(vector @ (features.T @ (features @ vector)))

    # ---------------------------------------------------------------- selection
    def _require_fitted(self) -> np.ndarray:
        if self.dependency_weights_ is None:
            raise NotFittedError("StructureLearner must be fit before selecting correlations")
        return self.dependency_weights_

    def pair_scores(self) -> dict[tuple[int, int], float]:
        """Symmetric dependency score per pair: ``max(|w_{j←k}|, |w_{k←j}|)``."""
        weights = self._require_fitted()
        n = weights.shape[0]
        scores = {}
        for j in range(n):
            for k in range(j + 1, n):
                scores[(j, k)] = float(max(weights[j, k], weights[k, j]))
        return scores

    def select(self, threshold: float) -> list[tuple[int, int]]:
        """Pairs whose dependency score reaches ``threshold`` (the paper's ε)."""
        if threshold < 0:
            raise LabelModelError(f"threshold must be >= 0, got {threshold}")
        return sorted(
            pair for pair, score in self.pair_scores().items() if score >= threshold
        )

    def sweep(self, thresholds: Sequence[float]) -> list[StructureSweepPoint]:
        """Evaluate :meth:`select` at several thresholds (one structure-learning fit)."""
        return [
            StructureSweepPoint(threshold=float(t), correlations=self.select(float(t)))
            for t in thresholds
        ]


def learn_structure(
    label_matrix: LabelMatrix | np.ndarray,
    threshold: float,
    l1_strength: float = 0.01,
    max_iter: int = 250,
    seed: SeedLike = 0,
) -> list[tuple[int, int]]:
    """One-shot convenience wrapper: fit a :class:`StructureLearner` and select pairs."""
    learner = StructureLearner(l1_strength=l1_strength, max_iter=max_iter, seed=seed)
    learner.fit(label_matrix)
    return learner.select(threshold)
