"""Sparse (CSR-style) storage of label matrices.

Real labeling-function suites have low coverage: most entries of Λ are the
abstain value, so dense ``(m, n)`` storage wastes both memory and FLOPs on
zeros.  :class:`SparseLabelMatrix` stores only the non-abstain entries in
compressed-sparse-row form — ``indptr`` / ``indices`` / ``data`` exactly as in
``scipy.sparse.csr_matrix`` — plus a cached column-major (CSC) view for the
column-sliced access patterns of the label model and structure learner.

The representation is three numpy arrays in canonical order (row-major,
column ids strictly increasing within a row), shared with :mod:`scipy.sparse`
without a copy (``to_scipy``); row/column selection and the matvec are scipy's.

This is the one form Λ is computed on.  :func:`lower_to_sparse` is the
boundary: every statistic, voter, bound, structure fit, LF summary and EM
fit takes whatever the caller holds — dense array, ``LabelMatrix`` of either
backing, scipy matrix — through it and reads the entries.  Only the Gibbs
sampler stack and Dawid-Skene still ask for a particular backing
(:func:`as_sparse_storage` / :func:`as_dense_array`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.sparse as scipy_sparse

from repro.exceptions import LabelingError, LabelModelError
from repro.types import ABSTAIN


def ranges_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]`` vectorized.

    The workhorse behind CSC slice gathers: with ``starts = col_indptr[cols]``
    and ``counts = col_indptr[cols + 1] - starts`` it yields the absolute CSC
    positions of every entry of the given columns, in column order — e.g. one
    color class of the sampler-plan graph coloring
    (:mod:`repro.labelmodel.kernels`) in a single call.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)


def intersect_sorted(values_a: np.ndarray, values_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the common values of two sorted, duplicate-free arrays.

    Returns ``(in_a, in_b)`` with ``values_a[in_a] == values_b[in_b]`` — the
    same contract as ``np.intersect1d(..., assume_unique=True,
    return_indices=True)`` minus the values themselves, but via a single
    ``searchsorted`` instead of a concatenated sort.  This is the alignment
    primitive shared by the sampler-plan compiler, the correlation-discount
    computation, and the structure learner's node-wise design assembly: all
    of them intersect per-column CSC row slices, which are sorted and unique
    by construction.
    """
    values_a = np.asarray(values_a)
    values_b = np.asarray(values_b)
    if values_a.size == 0 or values_b.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    positions = np.searchsorted(values_b, values_a)
    bounded = np.minimum(positions, values_b.size - 1)
    in_a = np.flatnonzero(values_b[bounded] == values_a)
    return in_a, positions[in_a]


class SparseLabelMatrix:
    """CSR storage of the non-abstain entries of a label matrix Λ.

    Parameters
    ----------
    indptr, indices, data:
        Standard CSR arrays: row ``i``'s entries live at positions
        ``indptr[i]:indptr[i + 1]``, with column ids ``indices`` and label
        values ``data`` (never ``ABSTAIN``; column ids strictly increasing
        within each row).
    shape:
        ``(num_candidates, num_lfs)``.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._validate()
        self._csc_cache: Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None
        self._entry_rows: Optional[np.ndarray] = None
        self._entry_cols_csc: Optional[np.ndarray] = None

    def _validate(self) -> None:
        m, n = self.shape
        if self.indptr.shape != (m + 1,):
            raise LabelingError(
                f"indptr must have length {m + 1} for {m} rows, got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise LabelingError("indptr must start at 0 and be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise LabelingError(
                f"indices/data must have length {nnz}, got {self.indices.shape}/{self.data.shape}"
            )
        if nnz and (self.indices.min() < 0 or self.indices.max() >= n):
            raise LabelingError(f"column indices out of range for {n} labeling functions")
        if np.any(self.data == ABSTAIN):
            raise LabelingError("sparse label storage must not contain abstain entries")
        # Canonical order is what the EM bit-identity, the sorted-slice
        # intersections and the per-row reductions rest on.
        ascending = np.ones(nnz, dtype=bool)
        ascending[1:] = np.diff(self.indices) > 0
        ascending[self.indptr[:-1][self.indptr[:-1] < nnz]] = True  # row starts
        if not ascending.all():
            entry = int(np.argmin(ascending))
            row = int(np.searchsorted(self.indptr, entry, side="right")) - 1
            raise LabelingError(
                "column ids must be strictly increasing within each row; row "
                f"{row} repeats or descends at column {int(self.indices[entry])}"
            )

    # ------------------------------------------------------------- construction
    @classmethod
    def from_dense(cls, values: np.ndarray) -> "SparseLabelMatrix":
        """Compress a dense label matrix (abstains dropped)."""
        values = np.asarray(values)
        if values.ndim != 2:
            raise LabelingError(f"label matrix must be 2-dimensional, got shape {values.shape}")
        rows, cols = np.nonzero(values != ABSTAIN)
        data = values[rows, cols].astype(np.int64)
        indptr = np.zeros(values.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=values.shape[0]), out=indptr[1:])
        return cls(indptr, cols.astype(np.int64), data, values.shape)

    @classmethod
    def from_triples(
        cls,
        rows: Sequence[int] | np.ndarray,
        cols: Sequence[int] | np.ndarray,
        values: Sequence[int] | np.ndarray,
        shape: tuple[int, int],
    ) -> "SparseLabelMatrix":
        """Build from ``(row, col, value)`` triples (any order; abstains dropped).

        A repeated ``(row, col)`` is rejected by the constructor's order check.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise LabelingError("rows, cols and values must be 1-D arrays of equal length")
        m, n = int(shape[0]), int(shape[1])
        keep = values != ABSTAIN
        rows, cols, values = rows[keep], cols[keep], values[keep]
        if rows.size:
            if rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n:
                raise LabelingError(f"triples out of range for shape {(m, n)}")
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
        return cls(indptr, cols, values, (m, n))

    @classmethod
    def from_scipy(cls, matrix) -> "SparseLabelMatrix":
        """Convert any scipy sparse matrix (zeros pruned away)."""
        csr = matrix.tocsr().astype(np.int64)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        return cls(csr.indptr, csr.indices, csr.data, csr.shape)

    def to_scipy(self):
        """View as a ``scipy.sparse.csr_matrix`` (shares the underlying arrays)."""
        return scipy_sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def to_dense(self) -> np.ndarray:
        """Materialize the dense ``(m, n)`` integer matrix (abstains as 0)."""
        dense = np.full(self.shape, ABSTAIN, dtype=np.int64)
        dense[self.entry_rows(), self.indices] = self.data
        return dense

    # ------------------------------------------------------------------- basics
    @property
    def nnz(self) -> int:
        """Number of stored (non-abstain) entries."""
        return int(self.indptr[-1])

    def entry_rows(self) -> np.ndarray:
        """Row id of every stored entry, in CSR order (cached)."""
        if self._entry_rows is None:
            self._entry_rows = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
            )
        return self._entry_rows

    def row_nnz(self) -> np.ndarray:
        """Per-row count of non-abstain entries."""
        return np.diff(self.indptr)

    def col_nnz(self) -> np.ndarray:
        """Per-column count of non-abstain entries."""
        return np.bincount(self.indices, minlength=self.shape[1]).astype(np.int64)

    # ---------------------------------------------------------------- CSC view
    def csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column-major view: ``(col_indptr, rows, values)``.

        Column ``j``'s entries live at ``col_indptr[j]:col_indptr[j + 1]``,
        with row ids sorted ascending.  The view is computed once and cached.
        """
        col_indptr, rows, values, _ = self._csc_full()
        return col_indptr, rows, values

    def _csc_full(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._csc_cache is None:
            order = np.argsort(self.indices, kind="stable")
            col_indptr = np.zeros(self.shape[1] + 1, dtype=np.int64)
            np.cumsum(self.col_nnz(), out=col_indptr[1:])
            self._csc_cache = (
                col_indptr,
                self.entry_rows()[order],
                self.data[order],
                order,
            )
        return self._csc_cache

    def csc_order(self) -> np.ndarray:
        """Storage (CSR) position of every entry of the column-major view.

        With ``(col_indptr, rows, values) = csc()``, CSC position ``p`` holds
        the entry stored at CSR position ``csc_order()[p]`` — the map that
        carries per-entry quantities computed on column slices back to the
        storage order.
        """
        return self._csc_full()[3]

    def entry_cols(self) -> np.ndarray:
        """Column id of every stored entry, in CSC order (cached).

        The companion of :meth:`entry_rows` for the column-major view: with
        ``(col_indptr, rows, values) = csc()``, ``entry_cols()[p]`` is the
        column that owns CSC position ``p``.  Shared by the EM estimators,
        the Gibbs sampler, and the sampler-plan compiler, which all need
        per-entry column lookups (weight gathers, per-column reductions).
        """
        if self._entry_cols_csc is None:
            col_indptr, _, _ = self.csc()
            self._entry_cols_csc = np.repeat(
                np.arange(self.shape[1], dtype=np.int64), np.diff(col_indptr)
            )
        return self._entry_cols_csc

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Non-abstain entries of column ``j`` as ``(row_ids, values)``."""
        col_indptr, rows, values = self.csc()
        window = slice(int(col_indptr[j]), int(col_indptr[j + 1]))
        return rows[window], values[window]

    def with_csc_data(self, new_values: np.ndarray) -> "SparseLabelMatrix":
        """Same sparsity pattern with new entry values given in CSC order."""
        col_indptr, rows, _, order = self._csc_full()
        new_values = np.asarray(new_values, dtype=np.int64)
        if new_values.shape != (self.nnz,):
            raise LabelingError(
                f"expected {self.nnz} values, got shape {new_values.shape}"
            )
        if np.any(new_values == ABSTAIN):
            raise LabelingError("sparse label storage must not contain abstain entries")
        csr_data = np.empty_like(new_values)
        csr_data[order] = new_values
        # The pattern arrays are this matrix's own (already validated), and
        # the values were just checked, so skip the full constructor scan —
        # the samplers call this once per chain.
        result = SparseLabelMatrix.__new__(SparseLabelMatrix)
        result.indptr = self.indptr
        result.indices = self.indices
        result.data = csr_data
        result.shape = self.shape
        # The pattern is unchanged, so the CSC view carries over — pre-seed
        # the cache to spare the next consumer the O(nnz log nnz) argsort.
        result._csc_cache = (col_indptr, rows, new_values, order)
        result._entry_rows = self._entry_rows
        result._entry_cols_csc = self._entry_cols_csc
        return result

    # ------------------------------------------------------------- linear algebra
    def matvec(self, column_weights: np.ndarray) -> np.ndarray:
        """Per-row sums ``Σ_j data_{i,j} · w_j`` (the sparse ``Λ @ w``)."""
        column_weights = np.asarray(column_weights, dtype=float)
        if column_weights.shape != (self.shape[1],):
            raise LabelingError(
                f"expected {self.shape[1]} weights, got shape {column_weights.shape}"
            )
        return self.to_scipy() @ column_weights

    def row_sums(self) -> np.ndarray:
        """Per-row sum of the stored entries (the unweighted vote ``f_1``)."""
        return np.bincount(
            self.entry_rows(), weights=self.data, minlength=self.shape[0]
        ).astype(float)

    def count_per_row(self, value: int) -> np.ndarray:
        """Per-row count of entries equal to ``value``."""
        mask = self.data == value
        return np.bincount(self.entry_rows()[mask], minlength=self.shape[0])

    # ------------------------------------------------------------------ slicing
    @staticmethod
    def _normalize_indices(indices, length: int) -> np.ndarray:
        """Index list from either integer indices or a boolean mask."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            if indices.shape != (length,):
                raise LabelingError(
                    f"boolean index mask must have length {length}, got shape {indices.shape}"
                )
            return np.flatnonzero(indices)
        return indices.astype(np.int64)

    def select_rows(self, row_indices: Sequence[int] | np.ndarray) -> "SparseLabelMatrix":
        """Restrict (and reorder) to the given rows (indices or boolean mask)."""
        row_indices = self._normalize_indices(row_indices, self.shape[0])
        return SparseLabelMatrix.from_scipy(self.to_scipy()[row_indices])

    def select_columns(self, col_indices: Sequence[int] | np.ndarray) -> "SparseLabelMatrix":
        """Restrict (and reorder) to the given columns (indices or boolean mask)."""
        col_indices = self._normalize_indices(col_indices, self.shape[1])
        return SparseLabelMatrix.from_scipy(self.to_scipy()[:, col_indices])

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        m, n = self.shape
        density = self.nnz / (m * n) if m and n else 0.0
        return f"SparseLabelMatrix(shape={self.shape}, nnz={self.nnz}, density={density:.4f})"


def class_vote_counts(
    label_matrix,
    cardinality: int,
    column_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-row, per-class vote counts (or weighted vote sums) in a single pass.

    Returns an ``(m, cardinality)`` float array whose ``[i, c - 1]`` entry is
    the number of labeling functions voting class ``c`` on row ``i`` — or,
    with ``column_weights`` given, the sum of their weights.  The reduction is
    one flattened ``bincount`` over the non-abstain entries instead of one
    pass per class.  Shared by the multi-class majority voter and the
    structure learner's anchor-class recoding.

    Labels must be categorical (``1..cardinality``; ``0`` = abstain) — signed
    binary matrices are rejected rather than silently miscounted.
    """
    if cardinality < 2:
        raise LabelingError(f"cardinality must be >= 2, got {cardinality}")
    sparse = lower_to_sparse(label_matrix)
    num_rows = sparse.shape[0]
    rows, cols, vals = sparse.entry_rows(), sparse.indices, sparse.data
    if vals.size and (vals.min() < 1 or vals.max() > cardinality):
        raise LabelingError(
            f"class_vote_counts expects categorical labels in 1..{cardinality} "
            f"(0 = abstain), got values in [{int(vals.min())}, {int(vals.max())}]"
        )
    weights = None if column_weights is None else np.asarray(column_weights, dtype=float)[cols]
    flat = np.bincount(
        rows * cardinality + (vals - 1), weights=weights, minlength=num_rows * cardinality
    )
    return flat.reshape(num_rows, cardinality).astype(float)


def lower_to_sparse(label_matrix) -> SparseLabelMatrix:
    """Lower any accepted label-matrix input to CSR storage.

    A :class:`repro.labeling.matrix.LabelMatrix` hands out its own lowering
    (a dense-backed one compresses on first use and keeps the result, so a
    chain of consumers lowers once); raw sparse inputs pass through; raw
    dense arrays are compressed to their non-abstain entries (a non-2-D one
    raises the :class:`LabelModelError` of the consumers this is the entry of).
    """
    from repro.labeling.matrix import LabelMatrix  # local import: avoid a cycle

    if isinstance(label_matrix, LabelMatrix):
        return label_matrix.csr
    sparse = as_sparse_storage(label_matrix)
    if sparse is not None:
        return sparse
    values = as_dense_array(label_matrix)
    if values.ndim != 2:
        raise LabelModelError(f"label matrix must be 2-D, got shape {values.shape}")
    return SparseLabelMatrix.from_dense(values)


def as_sparse_storage(label_matrix) -> Optional[SparseLabelMatrix]:
    """Return the :class:`SparseLabelMatrix` behind ``label_matrix``, if any.

    Accepts a sparse-backed :class:`repro.labeling.matrix.LabelMatrix`, a raw
    :class:`SparseLabelMatrix`, or a scipy sparse matrix; returns ``None`` for
    dense inputs.  For the samplers, which keep dense inputs dense; every
    other consumer uses :func:`lower_to_sparse`.
    """
    from repro.labeling.matrix import LabelMatrix  # local import: avoid a cycle

    if isinstance(label_matrix, SparseLabelMatrix):
        return label_matrix
    if isinstance(label_matrix, LabelMatrix):
        return label_matrix.storage if label_matrix.is_sparse else None
    if scipy_sparse.issparse(label_matrix):
        return SparseLabelMatrix.from_scipy(label_matrix)
    return None


def as_dense_array(label_matrix) -> np.ndarray:
    """The dense integer array behind ``label_matrix``.

    A :class:`repro.labeling.matrix.LabelMatrix` yields its ``values`` (a
    sparse-backed one materializes a dense copy); anything else is coerced
    with ``np.asarray(..., dtype=np.int64)``.
    """
    from repro.labeling.matrix import LabelMatrix  # local import: avoid a cycle

    if isinstance(label_matrix, LabelMatrix):
        return label_matrix.values
    return np.asarray(label_matrix, dtype=np.int64)
