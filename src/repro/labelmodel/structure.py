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

Every input is lowered to CSR storage: a node's design matrix is the stored
entries of the rows where the node votes (its CSC column slice names the
rows, one gather of their CSR ranges fills the design), so memory stays
O(votes_j · n) per node and a dense Λ is never needed.

**Nodes are solved in groups.**  Every node's regression has the same width
``d = n + 1``, so the coefficients of a group of ``N`` nodes are one
``(N, d)`` block and the power iteration, the gradient step, the
soft-threshold and the ``tol`` test are row-wise operations on it — one
numpy call per step for the whole group instead of one per node, which is
what the many small regressions of a sparse suite were paying for (23 nodes
of 10–114 rows spent 5 937 iterations at ≈ 16 µs each on call overhead).  A
node that meets ``tol`` takes that last update and freezes; the loop ends
when every node of the group has.  Only the two products see the node
boundaries:

* a node whose design holds fewer than ``_GEMV_MIN_ELEMENTS`` elements
  (rows × ``d``) is stacked with other such nodes into one tall design:
  forward is each design row dotted with its own node's coefficient row,
  backward is ``np.add.reduceat(X * r[:, None], node_starts, axis=0)``.
  Groups close at ``_GROUP_BYTES`` so the working set stays bounded.
* a node at or above it is a group of one whose products are the BLAS gemv
  ``X @ w`` / ``X.T @ r``.

**A node's result does not depend on its group.**  Which products a node
gets is decided by its own size alone, and in the stacked form every
reduction runs either over ``d`` within one design row or sequentially over
one node's own rows, never across nodes — so :meth:`StructureLearner.refit_nodes`
on any subset is bitwise the corresponding rows of :meth:`StructureLearner.fit`
(zero-padding nodes to a common height and batching ``np.matmul`` is faster
still but breaks exactly this: BLAS results depend on the padded height).

The size constant is measured, not tuned per run: per node and iteration the
stacked products cost ≈ 3.6 ns per design element and a group of one ≈ 16–20
µs of numpy call overhead before any arithmetic, and the two lines cross at
≈ 4.2k–4.6k elements at every width tried (11, 23, 33, 65, 101 columns: 384,
≈ 200, ≈ 140, 64 and ≈ 40 rows).  4 096 keeps every node on the side that
wins; a row count alone would not, because the crossover row count moves
with the number of LFs.

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
    lower_to_sparse,
    ranges_gather,
)
from repro.utils.rng import SeedLike, ensure_rng

#: A node whose design (voted rows × columns) holds fewer elements than this
#: is solved together with other such nodes on one tall design with segmented
#: products; a node at or above it is a group of one on BLAS gemv.  See the
#: module docstring for the measured crossover.
_GEMV_MIN_ELEMENTS = 4096

#: A group of small nodes closes once its tall design would exceed this many
#: bytes, so the solver's working set — and peak RSS — stays where the
#: one-node-at-a-time loop had it.
_GROUP_BYTES = 1 << 20


@dataclass
class StructureSweepPoint:
    """One point of the threshold sweep: ε and the correlations selected at ε."""

    threshold: float
    correlations: list[tuple[int, int]]

    @property
    def num_correlations(self) -> int:
        """Number of selected pairs at this threshold."""
        return len(self.correlations)


class _NodeDesigns:
    """Node-wise regression designs, read off the CSR rows where a node votes.

    Node ``j``'s design has one row per candidate LF ``j`` votes on and
    ``n + 1`` columns: the other ``n - 1`` LFs' (recoded) votes in column
    order, the majority-vote proxy that excludes ``j``'s own vote, and the
    bias column of ones.
    """

    def __init__(self, sparse: SparseLabelMatrix, categorical: bool) -> None:
        self.sparse = sparse
        self.categorical = categorical
        if categorical:
            # One O(nnz) pass: per-row counts of every class, so each node's
            # anchor-class totals are a column lookup rather than a rescan.
            cardinality = max(2, int(sparse.data.max())) if sparse.nnz else 2
            self.per_class_counts = class_vote_counts(sparse, cardinality)
            self.row_nnz = sparse.row_nnz()
        else:
            self.row_totals = sparse.row_sums()

    def fill(self, j: int, design: np.ndarray, target: np.ndarray) -> None:
        """Write node ``j``'s design and 0/1 target into zero-initialized buffers."""
        sparse = self.sparse
        n = sparse.shape[1]
        rows_j, vals_j = sparse.column(j)
        if self.categorical:
            # Anchor-class recoding (see module doc): the node's own votes,
            # every partner column, and the label proxy are all mapped to
            # +-1 against the node's most frequent class.
            values, counts = np.unique(vals_j, return_counts=True)
            anchor = int(values[np.argmax(counts)])  # lowest id on ties
            target[:] = vals_j == anchor
            own_signed = np.where(vals_j == anchor, 1.0, -1.0)
            signed_totals = 2.0 * self.per_class_counts[rows_j, anchor - 1] - self.row_nnz[rows_j]
        else:
            target[:] = vals_j > 0
            own_signed = vals_j
            signed_totals = self.row_totals[rows_j]
        # Every stored entry of the rows where j votes, in one take; j's own
        # entries are dropped and the later columns shift down by one.
        starts = sparse.indptr[rows_j]
        counts = sparse.indptr[rows_j + 1] - starts
        positions = ranges_gather(starts, counts)
        local_rows = np.repeat(np.arange(rows_j.size), counts)
        cols, values = sparse.indices[positions], sparse.data[positions]
        partners = cols != j
        cols, values = cols[partners], values[partners]
        if self.categorical:
            values = np.where(values == anchor, 1.0, -1.0)
        design[local_rows[partners], cols - (cols > j)] = values
        design[:, n - 1] = np.sign(signed_totals - own_signed)
        design[:, n] = 1.0


def _solved_alone(rows: int, width: int) -> bool:
    """The size rule: does a node with this design get gemv products?"""
    return rows * width >= _GEMV_MIN_ELEMENTS


def _node_groups(nodes: Sequence[int], votes: np.ndarray, width: int) -> list[list[int]]:
    """Partition the nodes to solve into solver groups, by each node's own size."""
    groups: list[list[int]] = []
    small: list[int] = []
    small_bytes = 0
    for j in nodes:
        if _solved_alone(votes[j], width):
            groups.append([j])
            continue
        node_bytes = int(votes[j]) * width * 8
        if small and small_bytes + node_bytes > _GROUP_BYTES:
            groups.append(small)
            small, small_bytes = [], 0
        small.append(j)
        small_bytes += node_bytes
    if small:
        groups.append(small)
    return groups


def _row_norms(block: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(block * block, axis=1))


def _group_products(design: np.ndarray, sizes: np.ndarray):
    """``(forward, backward)`` products of a group's stacked ``design``.

    ``forward`` maps the ``(N, width)`` coefficient block to one score per
    design row (each row dotted with its own node's coefficients);
    ``backward`` maps one residual per design row to the ``(N, width)``
    block of per-node ``Xᵀr``.
    """
    if _solved_alone(sizes[0], design.shape[1]):  # and then it is the whole group

        def forward(block: np.ndarray) -> np.ndarray:
            return design @ block[0]

        def backward(residual: np.ndarray) -> np.ndarray:
            return (design.T @ residual)[None, :]

    else:
        offsets = np.cumsum(sizes) - sizes
        owner = np.repeat(np.arange(sizes.size), sizes)

        def forward(block: np.ndarray) -> np.ndarray:
            return np.einsum("ij,ij->i", design, block[owner])

        def backward(residual: np.ndarray) -> np.ndarray:
            return np.add.reduceat(design * residual[:, None], offsets, axis=0)

    return forward, backward


def _spectral_norms_squared(
    forward, backward, start_vectors: np.ndarray, iterations: int = 20
) -> np.ndarray:
    """Estimate each node's ``λ_max(XᵀX)`` with a few power iterations.

    One row of ``start_vectors`` per node; a node whose iterate vanishes
    reports 1.0.
    """
    vectors = start_vectors / (_row_norms(start_vectors) + 1e-12)[:, None]
    degenerate = np.zeros(vectors.shape[0], dtype=bool)
    for _ in range(iterations):
        vectors = backward(forward(vectors))
        norms = _row_norms(vectors)
        degenerate |= norms < 1e-12
        norms[degenerate] = 1.0
        vectors /= norms[:, None]
    estimates = np.add.reduce(vectors * backward(forward(vectors)), axis=1)
    estimates[degenerate] = 1.0
    return estimates


def _ista_group(
    design: np.ndarray,
    targets: np.ndarray,
    sizes: np.ndarray,
    start_vectors: np.ndarray,
    penalty: np.ndarray,
    max_iter: int,
    tol: float,
) -> np.ndarray:
    """ISTA for the ℓ1-regularized logistic regressions of one group of nodes.

    ``design`` stacks the nodes' designs (``sizes[g]`` rows each, same
    width), ``targets`` their 0/1 targets; returns the ``(len(sizes), width)``
    coefficient block.  Everything but the two products is row-wise on that
    block, and each product reduces only within one row or sequentially over
    one node's own rows, so a node's row is the same whatever else is in the
    group.  Only coefficients with a nonzero ``penalty`` entry are shrunk.
    """
    forward, backward = _group_products(design, sizes)
    num_rows = sizes[:, None].astype(float)
    lipschitz = 0.25 * _spectral_norms_squared(forward, backward, start_vectors)[:, None] / num_rows
    step = 1.0 / np.maximum(lipschitz, 1e-8)
    shrink = step * penalty

    coefficients = np.zeros(start_vectors.shape)
    active = np.ones((sizes.size, 1), dtype=bool)
    for _ in range(max_iter):
        scores = forward(coefficients)
        # The stable sigmoid (exp of a non-positive argument only), in ufuncs.
        decay = np.exp(-np.abs(scores))
        denominator = 1.0 + decay
        predictions = decay / denominator
        np.divide(1.0, denominator, out=predictions, where=scores >= 0)
        gradient = backward(predictions - targets) / num_rows
        updated = coefficients - step * gradient
        updated = np.sign(updated) * np.maximum(np.abs(updated) - shrink, 0.0)
        moved = updated - coefficients
        converged = np.sqrt(np.add.reduce(moved * moved, axis=1, keepdims=True)) < tol
        # A converged node takes this last update and freezes.
        np.copyto(coefficients, updated, where=active)
        active &= ~converged
        if not np.count_nonzero(active):
            break
    return coefficients


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

    def _solve_nodes(
        self, sparse: SparseLabelMatrix, categorical: bool, nodes: Sequence[int]
    ) -> None:
        """Solve the given nodes (ascending) group by group into their weight rows."""
        n = sparse.shape[1]
        votes = np.diff(sparse.csc()[0])
        # A node nobody voted on has no regression (and no 1/m), whatever
        # ``min_votes`` says.
        solved = [j for j in nodes if votes[j] >= max(self.min_votes, 1)]
        if not solved:
            return
        width = n + 1
        start_vectors = self._start_vectors(len(solved), width)
        designs = _NodeDesigns(sparse, categorical)
        penalty = np.zeros(width)
        penalty[: n - 1] = self.l1_strength
        for group in _node_groups(solved, votes, width):
            sizes = votes[group]
            offsets = np.cumsum(sizes) - sizes
            design = np.zeros((int(sizes.sum()), width))
            targets = np.empty(design.shape[0])
            for j, offset, size in zip(group, offsets, sizes):
                designs.fill(j, design[offset : offset + size], targets[offset : offset + size])
            coefficients = _ista_group(
                design,
                targets,
                sizes,
                start_vectors[np.searchsorted(solved, group)],
                penalty,
                self.max_iter,
                self.tol,
            )
            for j, row in zip(group, np.abs(coefficients)):
                self.dependency_weights_[j, :j] = row[:j]
                self.dependency_weights_[j, j + 1 :] = row[j : n - 1]

    def _start_vectors(self, count: int, width: int) -> np.ndarray:
        """One power-iteration start per solved node, in ascending node order.

        Each is a fresh draw of the configured ``seed``: an integer seed gives
        every node the same start on every call (repeated fits stay
        deterministic), a ``Generator`` is consumed one node at a time.
        """
        return np.stack([ensure_rng(self.seed).standard_normal(width) for _ in range(count)])

    # ---------------------------------------------------------------- selection
    def _require_fitted(self) -> np.ndarray:
        if self.dependency_weights_ is None:
            raise NotFittedError("StructureLearner must be fit before selecting correlations")
        return self.dependency_weights_

    def _scores(self) -> np.ndarray:
        """Symmetric ``(n, n)`` dependency scores ``max(|w_{j←k}|, |w_{k←j}|)``."""
        weights = self._require_fitted()
        return np.maximum(weights, weights.T)

    @staticmethod
    def _select(scores: np.ndarray, threshold: float) -> list[tuple[int, int]]:
        if threshold < 0:
            raise LabelModelError(f"threshold must be >= 0, got {threshold}")
        pairs = np.argwhere(np.triu(scores >= threshold, 1))  # row-major: sorted
        return list(map(tuple, pairs.tolist()))

    def pair_scores(self) -> dict[tuple[int, int], float]:
        """Symmetric dependency score per pair: ``max(|w_{j←k}|, |w_{k←j}|)``."""
        scores = self._scores()
        n = scores.shape[0]
        return {(j, k): float(scores[j, k]) for j in range(n) for k in range(j + 1, n)}

    def select(self, threshold: float) -> list[tuple[int, int]]:
        """Pairs whose dependency score reaches ``threshold`` (the paper's ε)."""
        return self._select(self._scores(), threshold)

    def sweep(self, thresholds: Sequence[float]) -> list[StructureSweepPoint]:
        """Evaluate :meth:`select` at several thresholds (one structure-learning fit)."""
        scores = self._scores()
        return [
            StructureSweepPoint(threshold=float(t), correlations=self._select(scores, float(t)))
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
