"""Sparse (CSR) storage of discriminative feature matrices.

Hashed bag-of-n-gram features are naturally sparse — a candidate touches a
few hundred of the ``num_features`` hash buckets — yet the featurizers
historically materialized dense ``(m, num_features)`` float arrays.
:class:`CSRFeatureMatrix` is the float analogue of
:class:`repro.labeling.sparse.SparseLabelMatrix`: canonical numpy
``indptr`` / ``indices`` / ``data`` arrays shared with :mod:`scipy.sparse`
without a copy (``to_scipy``, the public conversion and the tests' oracle).

The class implements exactly the operations the noise-aware end models use —
row selection (``X[rows]``), matrix-vector products (``X @ w``), and
transposed products (``X.T @ v``) — so
:class:`repro.discriminative.logistic.NoiseAwareLogisticRegression` trains on
sparse features without densifying anything beyond one minibatch's scores.
All three run on the stored arrays: a minibatch is ~64 rows, where building
a scipy wrapper per product cost more than the product.  Both products are
one ``np.bincount`` over the entries (``X @ w`` bins ``data * w[indices]``
by entry row, ``X.T @ v`` bins ``data * v[entry row]`` by column), which
accumulates in stored-entry order exactly as scipy's ``csr_matvec`` /
``csc_matvec`` loops do, so results are bitwise scipy's; row selection is a
numpy gather of the selected rows' entry ranges.

The constructor is the validation boundary: it rejects arrays that are not
well-formed CSR.  ``row_range`` / ``X[rows]`` / ``vstack`` carve their
results out of matrices that already passed it and skip the re-check
(:meth:`CSRFeatureMatrix._carved`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as scipy_sparse

from repro.exceptions import ConfigurationError


class CSRFeatureMatrix:
    """CSR storage of a float feature matrix.

    Parameters
    ----------
    indptr, indices, data:
        Standard CSR arrays; column ids strictly increasing within each row.
    shape:
        ``(num_examples, num_features)``.
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
        self.data = np.asarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        m, n = self.shape
        if self.indptr.shape != (m + 1,):
            raise ConfigurationError(
                f"indptr must have length {m + 1} for {m} rows, got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise ConfigurationError("indptr must start at 0 and be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise ConfigurationError(
                f"indices/data must have length {nnz}, got {self.indices.shape}/{self.data.shape}"
            )
        if nnz and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ConfigurationError(f"column indices out of range for {n} features")
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
    ) -> "CSRFeatureMatrix":
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
    def from_triples(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: tuple[int, int],
    ) -> "CSRFeatureMatrix":
        """Build from row-major ``(row, col, value)`` triples.

        ``rows`` must be non-decreasing (the engine accumulator's merge
        order); columns are assumed ascending within each row, exactly what
        :func:`repro.labeling.engine.tasks.featurize_chunk` emits.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and np.any(np.diff(rows) < 0):
            raise ConfigurationError("triple rows must be non-decreasing (row-major order)")
        if rows.size and (rows[0] < 0 or rows[-1] >= shape[0]):
            raise ConfigurationError(f"triple rows out of range for {shape[0]} rows")
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(
            indptr, np.asarray(cols, dtype=np.int64), np.asarray(values, dtype=np.float64), shape
        )

    @classmethod
    def vstack(cls, blocks: Sequence["CSRFeatureMatrix"]) -> "CSRFeatureMatrix":
        """Stack row blocks vertically (all blocks must share the width)."""
        if not blocks:
            raise ConfigurationError("vstack requires at least one block")
        width = blocks[0].shape[1]
        for block in blocks:
            if block.shape[1] != width:
                raise ConfigurationError(
                    f"cannot vstack feature blocks of widths {width} and {block.shape[1]}"
                )
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

    @classmethod
    def from_dense(cls, values: np.ndarray) -> "CSRFeatureMatrix":
        """Compress a dense float matrix (zeros dropped)."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ConfigurationError(f"feature matrix must be 2-D, got shape {values.shape}")
        rows, cols = np.nonzero(values != 0.0)
        indptr = np.zeros(values.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=values.shape[0]), out=indptr[1:])
        return cls(indptr, cols.astype(np.int64), values[rows, cols], values.shape)

    def to_scipy(self):
        """View as ``scipy.sparse.csr_matrix`` (shares the underlying arrays)."""
        return scipy_sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def toarray(self) -> np.ndarray:
        """Materialize the dense ``(m, num_features)`` float matrix."""
        dense = np.zeros(self.shape)
        dense[self.entry_rows(), self.indices] = self.data
        return dense

    # ------------------------------------------------------------------- basics
    ndim = 2

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

    def row_range(self, start: int, stop: int) -> "CSRFeatureMatrix":
        """Contiguous row slice ``[start, stop)`` — pure array slicing, O(rows).

        The minibatch re-batcher's workhorse: no index gather, and the
        sliced block's entries are the parent's entries verbatim.
        """
        m = self.shape[0]
        if not (0 <= start <= stop <= m):
            raise ConfigurationError(f"row range [{start}, {stop}) invalid for {m} rows")
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        return self._carved(
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.data[lo:hi],
            (stop - start, self.shape[1]),
            self.entry_rows()[lo:hi] - start,
        )

    # ------------------------------------------------------------------ algebra
    def __getitem__(self, row_indices) -> "CSRFeatureMatrix":
        """Restrict (and reorder) to the given rows (indices or boolean mask)."""
        row_indices = np.asarray(row_indices)
        if row_indices.dtype == bool:
            row_indices = np.flatnonzero(row_indices)
        else:
            row_indices = row_indices.astype(np.int64)
        if row_indices.ndim > 1:
            raise IndexError("row selection takes a 1-D index array or boolean mask")
        row_indices = row_indices.reshape(-1)  # a scalar selects one row
        m = self.shape[0]
        if row_indices.size:
            lowest, highest = int(row_indices.min()), int(row_indices.max())
            if lowest < -m or highest >= m:
                raise IndexError(
                    f"index ({lowest if lowest < -m else highest}) out of range for {m} rows"
                )
            if lowest < 0:
                row_indices = np.where(row_indices < 0, row_indices + m, row_indices)
        starts = self.indptr[row_indices]
        counts = self.indptr[row_indices + 1] - starts
        indptr = np.zeros(row_indices.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # Entry t of the result, in row `entry_rows[t]`, is the source's entry
        # at the same offset into that row's range.
        entry_rows = np.repeat(np.arange(row_indices.size, dtype=np.int64), counts)
        positions = (starts - indptr[:-1])[entry_rows]
        positions += np.arange(indptr[-1], dtype=np.int64)
        return self._carved(
            indptr,
            self.indices[positions],
            self.data[positions],
            (row_indices.size, self.shape[1]),
            entry_rows,
        )

    def __matmul__(self, weights: np.ndarray) -> np.ndarray:
        """``X @ w`` — per-example weighted feature sums."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.shape[1],):
            raise ConfigurationError(
                f"expected {self.shape[1]} weights, got shape {weights.shape}"
            )
        return np.bincount(
            self.entry_rows(), self.data * weights[self.indices], minlength=self.shape[0]
        )

    def rmatvec(self, values: np.ndarray) -> np.ndarray:
        """``X.T @ v`` — per-feature sums weighted by per-example values."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.shape[0],):
            raise ConfigurationError(
                f"expected {self.shape[0]} values, got shape {values.shape}"
            )
        return np.bincount(
            self.indices, self.data * values[self.entry_rows()], minlength=self.shape[1]
        )

    @property
    def T(self) -> "_TransposedFeatureMatrix":
        """Transposed view supporting ``X.T @ v`` (no data movement)."""
        return _TransposedFeatureMatrix(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        m, n = self.shape
        density = self.nnz / (m * n) if m and n else 0.0
        return f"CSRFeatureMatrix(shape={self.shape}, nnz={self.nnz}, density={density:.4f})"


class _TransposedFeatureMatrix:
    """Lightweight ``X.T`` wrapper: only ``@ vector`` is supported."""

    def __init__(self, base: CSRFeatureMatrix) -> None:
        self._base = base

    @property
    def shape(self) -> tuple[int, int]:
        return (self._base.shape[1], self._base.shape[0])

    def __matmul__(self, values: np.ndarray) -> np.ndarray:
        return self._base.rmatvec(values)


FeatureMatrixLike = Union[np.ndarray, CSRFeatureMatrix]


def as_float_features(features) -> FeatureMatrixLike:
    """Normalize a feature-matrix argument for the end models.

    Dense inputs become float ndarrays (the historical behavior); a
    :class:`CSRFeatureMatrix` or scipy sparse matrix passes through in CSR
    form, so the minibatch loop's ``X[rows]`` / ``X @ w`` / ``X.T @ v``
    operations run sparsely.
    """
    if isinstance(features, CSRFeatureMatrix):
        return features
    if scipy_sparse.issparse(features):
        csr = features.tocsr().astype(np.float64)
        return CSRFeatureMatrix(csr.indptr, csr.indices, csr.data, csr.shape)
    return np.asarray(features, dtype=float)


def as_dense_features(features) -> np.ndarray:
    """A dense float feature matrix, densifying sparse inputs.

    For end models whose math has no sparse path (the MLP's hidden layers,
    the softmax classifier): sparse inputs still *work* — the trainer
    hands them over one minibatch at a time — rather than failing inside
    ``np.asarray``.
    """
    if isinstance(features, CSRFeatureMatrix):
        return features.toarray()
    if scipy_sparse.issparse(features):
        return np.asarray(features.todense(), dtype=float)
    return np.asarray(features, dtype=float)
