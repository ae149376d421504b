"""Sparse (CSR-style) storage of label matrices.

Real labeling-function suites have low coverage: most entries of Λ are the
abstain value, so dense ``(m, n)`` storage wastes both memory and FLOPs on
zeros.  :class:`SparseLabelMatrix` stores only the non-abstain entries in
compressed-sparse-row form — ``indptr`` / ``indices`` / ``data`` exactly as in
``scipy.sparse.csr_matrix`` — plus a cached column-major (CSC) view for the
column-sliced access patterns of the label model and structure learner.

The representation is three numpy arrays in canonical order (row-major,
column ids strictly increasing within a row).  The container itself —
validating constructor, conversions, row gather, ``Λ @ w`` — is
:class:`repro.utils.csr.CSRMatrix`, shared with the feature matrix; this
module adds what is Λ's own: no stored abstains, the canonical order check,
the CSC view and column selection.  Nothing here imports scipy:
``to_scipy`` / ``from_scipy`` convert for callers who hold scipy matrices.

This is the one form Λ is computed on.  :func:`lower_to_sparse` is the
boundary: every statistic, voter, bound, structure fit, LF summary, EM fit
and Dawid–Skene fit takes whatever the caller holds — dense
array, ``LabelMatrix`` of either backing, scipy matrix — through it and
reads the entries.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import LabelingError, LabelModelError
from repro.types import ABSTAIN
from repro.utils.csr import CSRMatrix


def ranges_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]`` vectorized.

    The workhorse behind CSC slice gathers: with ``starts = col_indptr[cols]``
    and ``counts = col_indptr[cols + 1] - starts`` it yields the absolute CSC
    positions of every entry of the given columns, in column order, in a
    single call.
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
    primitive shared by the correlation-discount computation and the
    structure learner's node-wise design assembly: both intersect per-column
    CSC row slices, which are sorted and unique by construction.
    """
    values_a = np.asarray(values_a)
    values_b = np.asarray(values_b)
    if values_a.size == 0 or values_b.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    positions = np.searchsorted(values_b, values_a)
    bounded = np.minimum(positions, values_b.size - 1)
    in_a = np.flatnonzero(values_b[bounded] == values_a)
    return in_a, positions[in_a]


class SparseLabelMatrix(CSRMatrix):
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

    _dtype = np.int64
    _error = LabelingError
    _matrix_noun = "label matrix"
    _column_noun = "labeling functions"

    #: The cached column-major view; a class-level default so results carved
    #: by the shared core start without one.
    _csc_cache: Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None

    def __init__(self, indptr, indices, data, shape: tuple[int, int]) -> None:
        CSRMatrix.__init__(self, indptr, indices, data, shape)
        nnz = self.indices.size
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
    def from_triples(
        cls,
        rows: Sequence[int] | np.ndarray,
        cols: Sequence[int] | np.ndarray,
        values: Sequence[int] | np.ndarray,
        shape: tuple[int, int],
    ) -> "SparseLabelMatrix":
        """Build from ``(row, col, value)`` triples (any order; abstains dropped).

        Triples already in strict ``(row, col)`` order — the engine's merged
        ones always are — are taken as they come; anything else is sorted
        first.  A repeated ``(row, col)`` is rejected by the constructor's
        order check.
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
        step = np.diff(rows)
        if (step < 0).any() or ((step == 0) & (np.diff(cols) <= 0)).any():
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

    # ------------------------------------------------------------------- basics
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

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Non-abstain entries of column ``j`` as ``(row_ids, values)``."""
        col_indptr, rows, values = self.csc()
        window = slice(int(col_indptr[j]), int(col_indptr[j + 1]))
        return rows[window], values[window]

    # ------------------------------------------------------------- linear algebra
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
    def select_columns(self, col_indices: Sequence[int] | np.ndarray) -> "SparseLabelMatrix":
        """Restrict (and reorder) to the given columns (indices or boolean mask).

        Column ``p`` of the result is this matrix's column ``col_indices[p]``
        (repeats allowed), gathered from the column-major view.
        """
        m, n = self.shape
        col_indices = np.asarray(col_indices)
        if col_indices.dtype != bool:
            col_indices = col_indices.astype(np.int64)  # an empty list arrives as floats
        elif col_indices.shape != (n,):
            raise LabelingError(
                f"boolean index mask must have length {n}, got shape {col_indices.shape}"
            )
        # Indexing an arange resolves masks and negative ids and raises
        # numpy's IndexError out of range.
        chosen = np.arange(n, dtype=np.int64)[col_indices].reshape(-1)
        col_indptr, rows, values = self.csc()
        starts = col_indptr[chosen]
        counts = col_indptr[chosen + 1] - starts
        positions = ranges_gather(starts, counts)
        new_cols = np.repeat(np.arange(chosen.size, dtype=np.int64), counts)
        return SparseLabelMatrix.from_triples(
            rows[positions], new_cols, values[positions], (m, chosen.size)
        )


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
    chain of consumers lowers once); a :class:`SparseLabelMatrix` passes
    through; a foreign sparse matrix (anything with ``tocsr``, i.e. scipy's)
    is converted; anything else is read as a dense integer array and
    compressed to its non-abstain entries (a non-2-D one raises the
    :class:`LabelModelError` of the consumers this is the entry of).
    """
    from repro.labeling.matrix import LabelMatrix  # local import: avoid a cycle

    if isinstance(label_matrix, LabelMatrix):
        return label_matrix.csr
    if isinstance(label_matrix, SparseLabelMatrix):
        return label_matrix
    if hasattr(label_matrix, "tocsr"):
        return SparseLabelMatrix.from_scipy(label_matrix)
    values = np.asarray(label_matrix, dtype=np.int64)
    if values.ndim != 2:
        raise LabelModelError(f"label matrix must be 2-D, got shape {values.shape}")
    return SparseLabelMatrix.from_dense(values)
