"""The one CSR container behind the label matrix Λ and the feature matrix X.

:class:`CSRMatrix` is three canonical numpy arrays — ``indptr`` /
``indices`` / ``data``, laid out exactly as ``scipy.sparse.csr_matrix`` —
and everything :class:`repro.labeling.sparse.SparseLabelMatrix` (int64
votes) and :class:`repro.discriminative.sparse_features.CSRFeatureMatrix`
(float64 features) have in common.  A subclass names its ``data`` dtype, the
exception it raises and what it calls its columns, and adds what is its own.

Everything runs on the stored arrays; scipy is imported only inside
:meth:`CSRMatrix.to_scipy`, the public conversion and the tests' oracle.
Both products are one ``np.bincount`` over the entries, which accumulates in
stored-entry order exactly as scipy's ``csr_matvec`` / ``csc_matvec`` loops
do, so results are bitwise scipy's; row selection is a numpy gather of the
selected rows' entry ranges with scipy's indexing semantics.

The constructor is the validation boundary.  ``row_range`` / ``select_rows``
/ ``vstack`` carve their results out of matrices that already passed it and
skip the re-check (:meth:`CSRMatrix._carved`); the end-model trainer reaches
them per minibatch by inheritance, with no helper frame in between.
``keep_rows`` is ``select_rows`` done inside the matrix's own arrays, for an
owner that is done with the other rows (the pipeline's train blocks, built in
RAM or read back from a checkpointed run's store).  The arrays need not be
int64 / float64: a feature block's column ids and values are held in the
narrowest dtypes that keep them bit-exactly (:func:`narrowed`; int16 and int8
for hashed n-gram counts, whether the block was built in RAM or read back
from a checkpointed run's store) and carried as they are — carves gather
them unchanged, and products, ``to_dense`` and ``to_scipy`` widen them into
the class dtype, which holds any stored integer exactly.  A block's dtypes
are storage, not values.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: The dtypes an array may be narrowed to, narrowest first.
_NARROW = tuple(np.dtype(f"<i{size}") for size in (1, 2, 4, 8))


def narrowed(array: np.ndarray) -> np.ndarray:
    """``array`` in the narrowest signed int dtype that holds it bit-exactly,
    or ``array`` itself when no narrower dtype does.

    Ints need only their range.  Floats must also come back bit-equal from
    the round trip, which keeps ``-0.0``, NaN, ∞ and fractions wide.  The
    one narrowing rule: the block store stores arrays by it and
    ``CSRFeatureMatrix.from_chunk`` holds a chunk's features by it, so a
    block has the same dtypes and bytes in RAM and read back from a store.
    """
    kind, itemsize = array.dtype.kind, array.dtype.itemsize
    if kind not in "iuf" or itemsize == 1 or not array.size:
        return array
    low, high = array.min().item(), array.max().item()  # exact Python numbers
    if kind == "f" and not (-(2.0**63) <= low and high < 2.0**63):
        return array  # NaN, ±∞ or beyond int64
    for dtype in _NARROW:
        if dtype.itemsize >= itemsize:
            return array
        bound = 1 << 8 * dtype.itemsize - 1  # the dtype holds [-bound, bound)
        if -bound <= low and high < bound:
            break
    narrow = array.astype(dtype)
    if kind == "f":
        bits = np.dtype(f"u{itemsize}")
        if (narrow.astype(array.dtype).view(bits) != array.view(bits)).any():
            return array
    return narrow


class CSRMatrix:
    """CSR storage of an ``(m, n)`` matrix; zero is the value not stored.

    Parameters
    ----------
    indptr, indices, data:
        Standard CSR arrays: row ``i``'s entries live at positions
        ``indptr[i]:indptr[i + 1]``, with column ids ``indices`` and values
        ``data``.
    shape:
        ``(num_rows, num_columns)``.
    """

    #: Set by each subclass: the ``data`` dtype, the exception malformed
    #: input raises, and the nouns its messages use.
    _dtype: type = np.float64
    _error: type = ValueError
    _matrix_noun = "matrix"
    _column_noun = "columns"

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=self._dtype)
        self.shape = (int(shape[0]), int(shape[1]))
        m, n = self.shape
        if self.indptr.shape != (m + 1,):
            raise self._error(
                f"indptr must have length {m + 1} for {m} rows, got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise self._error("indptr must start at 0 and be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise self._error(
                f"indices/data must have length {nnz}, got {self.indices.shape}/{self.data.shape}"
            )
        if nnz and (self.indices.min() < 0 or self.indices.max() >= n):
            raise self._error(f"column indices out of range for {n} {self._column_noun}")
        self._entry_rows: Optional[np.ndarray] = None

    # ------------------------------------------------------------- construction
    @classmethod
    def _carved(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
        entry_rows: Optional[np.ndarray] = None,
    ):
        """Wrap arrays carved from an already validated matrix, unchecked.

        For internal results only (row ranges, row gathers, stacks): their
        arrays are well-formed by construction and typed like their source's,
        and the per-minibatch callers cannot afford the O(nnz) re-check.
        """
        matrix = object.__new__(cls)
        matrix.indptr, matrix.indices, matrix.data = indptr, indices, data
        matrix.shape = shape
        matrix._entry_rows = entry_rows
        return matrix

    @classmethod
    def from_dense(cls, values: np.ndarray):
        """Compress a dense matrix (zeros dropped)."""
        values = np.asarray(values)
        if values.ndim != 2:
            raise cls._error(f"{cls._matrix_noun} must be 2-D, got shape {values.shape}")
        rows, cols = np.nonzero(values)
        indptr = np.zeros(values.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=values.shape[0]), out=indptr[1:])
        return cls(indptr, cols, values[rows, cols], values.shape)

    @classmethod
    def vstack(cls, blocks: Sequence["CSRMatrix"]):
        """Stack row blocks vertically (all blocks must share the width)."""
        if not blocks:
            raise cls._error("vstack requires at least one block")
        width = blocks[0].shape[1]
        for block in blocks:
            if block.shape[1] != width:
                raise cls._error(f"cannot vstack blocks of widths {width} and {block.shape[1]}")
        num_rows = sum(block.shape[0] for block in blocks)
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        offset_row, offset_nnz = 0, 0
        for block in blocks:
            m = block.shape[0]
            indptr[offset_row + 1 : offset_row + m + 1] = block.indptr[1:] + offset_nnz
            offset_row += m
            offset_nnz += block.nnz
        return cls._carved(
            indptr,
            np.concatenate([block.indices for block in blocks]),
            np.concatenate([block.data for block in blocks]),
            (num_rows, width),
        )

    def to_scipy(self):
        """As a ``scipy.sparse.csr_matrix`` of the class dtype: shares the
        underlying arrays when ``data`` is already of it, and widens narrow
        ``data`` (scipy keeps an int8 dtype through products, and wraps)."""
        from scipy.sparse import csr_matrix  # the only scipy import in the package

        data = np.asarray(self.data, dtype=self._dtype)
        return csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    def to_dense(self) -> np.ndarray:
        """Materialize the dense ``(m, n)`` matrix (zero where nothing is stored)."""
        dense = np.zeros(self.shape, dtype=self._dtype)
        dense[self.entry_rows(), self.indices] = self.data
        return dense

    # ------------------------------------------------------------------- basics
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    def entry_rows(self) -> np.ndarray:
        """Row id of every stored entry, in storage order (computed once)."""
        if self._entry_rows is None:
            self._entry_rows = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
            )
        return self._entry_rows

    # ------------------------------------------------------------------ slicing
    def row_range(self, start: int, stop: int):
        """Contiguous row slice ``[start, stop)`` — pure array slicing, O(rows).

        The minibatch re-batcher's workhorse: no index gather, and the
        sliced block's entries are the parent's entries verbatim.
        """
        m = self.shape[0]
        if not (0 <= start <= stop <= m):
            raise self._error(f"row range [{start}, {stop}) invalid for {m} rows")
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        entry_rows = self._entry_rows
        return self._carved(
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.data[lo:hi],
            (stop - start, self.shape[1]),
            None if entry_rows is None else entry_rows[lo:hi] - start,
        )

    def select_rows(self, row_indices):
        """Restrict (and reorder) to the given rows (indices or boolean mask).

        scipy's semantics: negative indices count from the end, repeats and
        any order are kept, a scalar selects one row, out of range is an
        ``IndexError``.
        """
        row_indices = np.asarray(row_indices)
        m = self.shape[0]
        if row_indices.dtype == bool:
            if row_indices.shape != (m,):
                raise self._error(
                    f"boolean index mask must have length {m}, got shape {row_indices.shape}"
                )
            row_indices = np.flatnonzero(row_indices)
        else:
            row_indices = row_indices.astype(np.int64)
        if row_indices.ndim > 1:
            raise IndexError("row selection takes a 1-D index array or boolean mask")
        row_indices = row_indices.reshape(-1)  # a scalar selects one row
        if row_indices.size:
            lowest, highest = int(row_indices.min()), int(row_indices.max())
            if lowest < -m or highest >= m:
                raise IndexError(
                    f"index ({lowest if lowest < -m else highest}) out of range for {m} rows"
                )
            if lowest < 0:
                row_indices = np.where(row_indices < 0, row_indices + m, row_indices)
        indptr, positions, entry_rows = self._row_positions(row_indices)
        return self._carved(
            indptr,
            self.indices[positions],
            self.data[positions],
            (row_indices.size, self.shape[1]),
            entry_rows,
        )

    def keep_rows(self, rows: np.ndarray):
        """Shrink this matrix, in place, to the ascending row ids ``rows``;
        returns it.

        :meth:`select_rows` without the copy: the kept entries move to the
        front of this matrix's own ``indices`` / ``data`` (the one temporary
        is their gather), which the matrix then views.  For the owner of the
        matrix only — any other view of its arrays is spoiled.
        """
        indptr, positions, _ = self._row_positions(rows)
        nnz = int(indptr[-1])
        self.indices[:nnz] = self.indices[positions]
        self.data[:nnz] = self.data[positions]
        self.indptr, self.indices, self.data = indptr, self.indices[:nnz], self.data[:nnz]
        self.shape, self._entry_rows = (rows.size, self.shape[1]), None
        return self

    def _row_positions(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``indptr`` of the selection of ``rows``, the source position of
        each of its entries, and each entry's row in the selection."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # Entry t of the result, in row `entry_rows[t]`, is the source's entry
        # at the same offset into that row's range.
        entry_rows = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
        positions = (starts - indptr[:-1])[entry_rows]
        positions += np.arange(indptr[-1], dtype=np.int64)
        return indptr, positions, entry_rows

    # ------------------------------------------------------------------ algebra
    def matvec(self, weights: np.ndarray) -> np.ndarray:
        """``A @ w`` — per-row sums ``Σ_j data_{i,j} · w_j``."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.shape[1],):
            raise self._error(f"expected {self.shape[1]} weights, got shape {weights.shape}")
        return np.bincount(
            self.entry_rows(), self.data * weights[self.indices], minlength=self.shape[0]
        )

    def rmatvec(self, values: np.ndarray) -> np.ndarray:
        """``A.T @ v`` — per-column sums weighted by per-row values."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.shape[0],):
            raise self._error(f"expected {self.shape[0]} values, got shape {values.shape}")
        return np.bincount(
            self.indices, self.data * values[self.entry_rows()], minlength=self.shape[1]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        m, n = self.shape
        density = self.nnz / (m * n) if m and n else 0.0
        return f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, density={density:.4f})"
