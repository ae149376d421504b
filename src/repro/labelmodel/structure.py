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

**Nodes are solved in batches of product groups.**  Every node's regression
has the same width ``d = n + 1``, so the coefficients of ``N`` nodes are one
``(N, d)`` block, and the power iteration, the sigmoid, the gradient step,
the soft-threshold and the ``tol`` test are row-wise on it or elementwise on
the concatenated scores and residuals — one numpy call per step for a whole
batch instead of one per node, which is what the many small regressions of
a sparse suite were paying for.  A node that meets ``tol`` takes that last
update and freezes; the loop ends when every node of the batch has.  Only
the two products see node boundaries, and which products a node gets is
decided by its own size alone (``_node_groups``):

* a node whose design holds fewer than ``_GEMV_MIN_ELEMENTS`` elements
  (rows × ``d``) is stacked with other such nodes into one *product group*
  (closed at ``_GROUP_BYTES`` of design), and the group keeps only its
  design's stored nonzeros in row-major order: ``rows_e``, ``cols_e``,
  ``data_e`` and the flat cell ``flat_e = owner[rows_e] · d + cols_e``.
  Forward is ``bincount(rows_e, data_e · W.ravel()[flat_e])``, backward
  ``bincount(flat_e, data_e · r[rows_e]).reshape(N, d)`` — on the cdr
  suite ≈ 3.1 nonzeros of 33 per row, a tenth of the dense elements.
* a node at or above it is a product group of one on its own design, whose
  products are the BLAS gemv ``X @ w`` / ``X.T @ r``.

Consecutive product groups are solved in one ISTA loop, a *batch*, until
their designs reach ``_GROUP_BYTES``, so a loop holds at most that much
design or one larger node on its own.  In a batch every gemv node makes its
own two BLAS calls into its slice of the scores and its row of the
gradient until it freezes (then the slice and row read 0, as nothing reads
them), the stacked entries are one ``bincount`` each way, and a batch of one
product group uses that group's products directly.  Skipping frozen gemv
nodes matters where convergence spreads: on a synthetic 22-LF × 5 000-row
edit-loop shape whose nodes freeze after 62–216 iterations, a batch that
kept computing them read 0.119 s against 0.108 s for one loop per node, and
0.102 s skipping them.

**A node's result does not depend on its batch.**  ``bincount`` accumulates
sequentially in input order.  A design row's entries are contiguous with
ascending columns, so a forward value is a fixed-order sum over that row's
nonzeros (explicit zeros are skipped; every row holds the bias, so no row's
sum is empty), and backward cell ``(k, c)`` sums node ``k``'s own rows in
order.  A gemv node's BLAS calls see only its own design, coefficient row
and residual slice (bitwise what a node solved alone gets, whatever the
slice's offset).  Every other step is row-wise or elementwise.  So
:meth:`StructureLearner.refit_nodes` on any subset is bitwise the
corresponding rows of :meth:`StructureLearner.fit` under any grouping and
batching (zero-padding nodes to a common height and batching ``np.matmul``
is faster still but breaks exactly this: BLAS results depend on the padded
height).

The size constant is measured, not tuned per run.  With sparse stacked
products the crossover depends on the design's density as well as its
size.  Cost per node and ISTA iteration in µs, stacked / gemv, for designs
of ≈ 15 % nonzeros (synthetic Λ with every node the same size, all nodes of
a fit on one side; 2-vCPU x86-64, numpy 2.4.6, OpenBLAS 0.3.31):

    ``d``   rows × d: stacked / gemv          crossover
    11      1 408: 6.1 / 7.1    2 816: 9.4 / 9.0     ≈ 2.6k
    23      2 944: 6.6 / 7.0    5 888: 11.5 / 10.4   ≈ 3.4k
    33      4 224: 7.5 / 7.7    8 448: 13.9 / 11.6   ≈ 4.4k
    65      4 160: 6.3 / 6.9    8 320: 11.6 / 9.6    ≈ 5.0k

At ≈ 35 % nonzeros (the edit loop's density) the lines cross at ≈ 1.1k–1.3k
elements at every width.  Whole fits, best of 9, by rule: the cdr Λ takes
0.0166 s at 2 048, 0.0145 at 4 096, 0.0146 at 6 300 and 0.0144 at 16 384;
the edit-loop Λ 0.187 s at 4 096, 0.185 at 6 300, 0.205 at 16 384 and
0.563 at 65 536, where its dense gemv nodes go stacked.  So 4 096 stays: it
is on the winning side for the sparse suites the stacked path exists for,
and a row count alone would not be, because the crossover row count moves
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
from numbers import Integral
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
#: is stacked with other such nodes into one group on sparse products; a node
#: at or above it is a group of one on BLAS gemv.  See the module docstring
#: for the measured crossover.
_GEMV_MIN_ELEMENTS = 4096

#: A group of small nodes, and a batch of groups sharing one ISTA loop, closes
#: once its designs would exceed this many bytes, so the solver's working set
#: — and peak RSS — stays where the one-node-at-a-time loop had it.
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


def _batches(groups: list[list[int]], votes: np.ndarray, width: int) -> list[list[list[int]]]:
    """Consecutive product groups solved in one loop, closed at ``_GROUP_BYTES`` of designs."""
    batches, batch_bytes = [], 0
    for group in groups:
        group_bytes = int(votes[group].sum()) * width * 8
        if not batches or batch_bytes + group_bytes > _GROUP_BYTES:
            batches.append([])
            batch_bytes = 0
        batches[-1].append(group)
        batch_bytes += group_bytes
    return batches


def _row_norms(block: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(block * block, axis=1))


def _group_products(design: np.ndarray, sizes: np.ndarray):
    """``(forward, backward)`` products of one product group's stacked ``design``.

    ``forward`` maps the ``(N, width)`` coefficient block to one score per
    design row (each row dotted with its own node's coefficients);
    ``backward`` maps one residual per design row to the ``(N, width)``
    block of per-node ``Xᵀr``.  A gemv node (then the whole group) is two
    BLAS calls; stacked small nodes are the sparse products of
    :func:`_batch_products`.
    """
    if not _solved_alone(sizes[0], design.shape[1]):
        return _batch_products([(design, sizes)], np.ones(sizes.size, dtype=bool))

    def forward(block: np.ndarray) -> np.ndarray:
        return design @ block[0]

    def backward(residual: np.ndarray) -> np.ndarray:
        return (design.T @ residual)[None, :]

    return forward, backward


def _batch_products(parts: list[tuple[np.ndarray, np.ndarray]], active: np.ndarray):
    """``(forward, backward)`` over the ``(design, sizes)`` product groups of one batch.

    Nodes and design rows are numbered in the groups' order.  A stacked
    group keeps only its design's stored nonzeros, in row-major order: the
    batch row ``rows_e``, the coefficient cell ``flat_e = owner · width +
    column`` and the value ``data_e``, so forward and backward are one
    ``bincount`` each over all stacked entries of the batch.  A gemv node
    writes its own two BLAS products into its slice of the result while its
    flag in ``active`` (one per node, read at every product) is set; a frozen
    gemv node's slice reads 0, as its result no longer needs it.
    """
    width = parts[0][0].shape[1]
    rows, flat, data, gemv = [], [], [], []
    height = count = 0
    for design, sizes in parts:
        if _solved_alone(sizes[0], width):
            gemv.append((count, design, design.T, height, height + design.shape[0]))
        else:
            local_rows, cols = np.nonzero(design)
            owner = np.repeat(np.arange(count, count + sizes.size), sizes)
            rows.append(height + local_rows)
            flat.append(owner[local_rows] * width + cols)
            data.append(design[local_rows, cols])
        height, count = height + design.shape[0], count + sizes.size
    stacked = bool(rows)
    if stacked:
        rows_e, flat_e, data_e = map(np.concatenate, (rows, flat, data))

    def forward(block: np.ndarray) -> np.ndarray:
        if stacked:
            scores = np.bincount(rows_e, data_e * block.ravel()[flat_e], minlength=height)
        else:
            scores = np.zeros(height)
        for k, design, _, start, stop in gemv:
            if active[k]:
                np.matmul(design, block[k], out=scores[start:stop])
        return scores

    def backward(residual: np.ndarray) -> np.ndarray:
        if stacked:
            gradient = np.bincount(flat_e, data_e * residual[rows_e], minlength=count * width)
            gradient = gradient.reshape(count, width)
        else:
            gradient = np.zeros((count, width))
        for k, _, transposed, start, stop in gemv:
            if active[k]:
                np.matmul(transposed, residual[start:stop], out=gradient[k])
        return gradient

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


def _ista_batch(
    parts: list[tuple[np.ndarray, np.ndarray]],
    targets: np.ndarray,
    sizes: np.ndarray,
    start_vectors: np.ndarray,
    penalty: np.ndarray,
    max_iter: int,
    tol: float,
) -> np.ndarray:
    """ISTA for the ℓ1-regularized logistic regressions of one batch of nodes.

    ``parts`` holds the batch's product groups as ``(design, sizes)``,
    ``targets`` the nodes' 0/1 targets (``sizes[g]`` rows each, in node
    order); returns the ``(len(sizes), width)`` coefficient block.
    Everything but the two products is row-wise on that block or elementwise
    on the residual, and each product reduces only within one row or
    sequentially over one node's own rows, so a node's row is the same
    whatever else is in the batch.  Only coefficients with a nonzero
    ``penalty`` entry are shrunk.
    """
    active = np.ones((sizes.size, 1), dtype=bool)
    if len(parts) == 1:
        forward, backward = _group_products(*parts[0])
    else:
        forward, backward = _batch_products(parts, active[:, 0])
    num_rows = sizes[:, None].astype(float)
    lipschitz = 0.25 * _spectral_norms_squared(forward, backward, start_vectors)[:, None] / num_rows
    step = 1.0 / np.maximum(lipschitz, 1e-8)
    shrink = step * penalty

    coefficients = np.zeros(start_vectors.shape)
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
        for name, value in (("l1_strength", l1_strength), ("tol", tol)):
            if not (np.isfinite(value) and value >= 0):
                raise LabelModelError(f"{name} must be finite and >= 0, got {value!r}")
        for name, value, low in (("max_iter", max_iter, 1), ("min_votes", min_votes, 0)):
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise LabelModelError(f"{name} must be an integer >= {low}, got {value!r}")
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
        """Solve the given nodes (ascending) batch by batch into their weight rows."""
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
        for batch in _batches(_node_groups(solved, votes, width), votes, width):
            parts, targets = [], []
            for group in batch:
                sizes = votes[group]
                design, target = np.zeros((int(sizes.sum()), width)), np.empty(int(sizes.sum()))
                for j, stop, size in zip(group, np.cumsum(sizes), sizes):
                    designs.fill(j, design[stop - size : stop], target[stop - size : stop])
                parts.append((design, sizes))
                targets.append(target)
            members = [j for group in batch for j in group]
            coefficients = _ista_batch(
                parts,
                np.concatenate(targets),
                votes[members],
                start_vectors[np.searchsorted(solved, members)],
                penalty,
                self.max_iter,
                self.tol,
            )
            for j, row in zip(members, np.abs(coefficients)):
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
        if not threshold >= 0:  # NaN too
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

