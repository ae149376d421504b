"""Sparse (CSR) storage of discriminative feature matrices.

Hashed bag-of-n-gram features are naturally sparse — a candidate touches a
few hundred of the ``num_features`` hash buckets — yet the featurizers
historically materialized dense ``(m, num_features)`` float arrays.
:class:`CSRFeatureMatrix` is the float analogue of
:class:`repro.labeling.sparse.SparseLabelMatrix`: both are typed subclasses
of the one container in :mod:`repro.utils.csr`, which owns the validating
constructor, the conversions and the stored-array kernels.

The class offers exactly the operations the noise-aware end models use —
row selection (``X[rows]``), matrix-vector products (``X @ w``), and
transposed products (``X.T @ v``) — so
:class:`repro.discriminative.logistic.NoiseAwareLogisticRegression` trains on
sparse features without densifying anything beyond one minibatch's scores.
All three are the inherited ``select_rows`` / ``matvec`` / ``rmatvec`` under
their operator names (a minibatch is ~64 rows, so an operator costs one
frame and never builds a wrapper object); they are bitwise scipy's, with
``to_scipy`` as the tests' oracle.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.csr import CSRMatrix, narrowed


class CSRFeatureMatrix(CSRMatrix):
    """CSR storage of a float feature matrix.

    Parameters
    ----------
    indptr, indices, data:
        Standard CSR arrays; column ids strictly increasing within each row.
    shape:
        ``(num_examples, num_features)``.
    """

    _dtype = np.float64
    _error = ConfigurationError
    _matrix_noun = "feature matrix"
    _column_noun = "features"

    ndim = 2
    toarray = CSRMatrix.to_dense
    __getitem__ = CSRMatrix.select_rows
    __matmul__ = CSRMatrix.matvec

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
        return cls(indptr, cols, values, shape)  # the constructor types cols and values

    @classmethod
    def from_chunk(cls, block, num_features: int) -> "CSRFeatureMatrix":
        """One chunk's feature triples (a ``featurize_chunk`` result) as that
        chunk's CSR block, its column ids and values held narrow
        (:func:`repro.utils.csr.narrowed`, the block store's rule): the
        dtypes and bytes a checkpointed run reads the block back in."""
        shape = (block.num_candidates, num_features)
        matrix = cls.from_triples(block.row_offsets, block.cols, block.values, shape)
        matrix.indices, matrix.data = narrowed(matrix.indices), narrowed(matrix.data)
        return matrix

    @property
    def T(self) -> "_TransposedFeatureMatrix":
        """Transposed view supporting ``X.T @ v`` (no data movement)."""
        return _TransposedFeatureMatrix(self)


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
    :class:`CSRFeatureMatrix` or a foreign sparse matrix (anything with
    ``tocsr``, i.e. scipy's) passes through in CSR form, so the minibatch
    loop's ``X[rows]`` / ``X @ w`` / ``X.T @ v`` operations run sparsely.
    """
    if isinstance(features, CSRFeatureMatrix):
        return features
    if hasattr(features, "tocsr"):
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
    if hasattr(features, "tocsr"):
        return np.asarray(features.todense(), dtype=float)
    return np.asarray(features, dtype=float)
