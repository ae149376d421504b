"""The label matrix Λ: labeling-function outputs over a candidate set.

``LabelMatrix`` is a thin, validated wrapper around the labeling-function
output matrix of shape ``(num_candidates, num_lfs)`` with named columns, plus
the summary quantities the paper's analysis and optimizer rely on — most
importantly the label density ``d_Λ`` (mean number of non-abstaining labels
per data point).

A matrix is *held* either as a dense integer array or as a
:class:`repro.labeling.sparse.SparseLabelMatrix` (CSR, non-abstain entries
only) — a memory-layout choice, preserved by the slicing methods and
converted by ``to_sparse()`` / ``to_dense()``.  It is *computed on* in one
form, :attr:`LabelMatrix.csr`: a dense-backed matrix lowers itself on first
use and keeps the result, so the statistics here and a whole chain of
downstream consumers — every label model included — read the same entries
and lower once.  A dense view keeps the entries it came from: ``to_dense()``
of a CSR-held matrix (what ``LFApplier.apply(sparse=False)`` returns) hands
its CSR to the dense-held wrapper and is never lowered at all.  A scipy
sparse matrix is accepted by duck type (``tocsr``)
and converted on the way in; this module never imports scipy.  The wrapper
therefore treats its array as immutable — ``.values`` is a read-only view
(on a sparse-backed matrix a fresh dense copy: compatibility, not hot paths).
That binds the caller too: an ``int64`` array is wrapped without a copy, and
a write to it after wrapping is neither re-validated nor seen by the kept
lowering — wrap ``array.copy()`` to keep editing the original.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.exceptions import LabelingError
from repro.labeling.sparse import SparseLabelMatrix
from repro.types import ABSTAIN, NEGATIVE, POSITIVE, validate_label_matrix


def _validate_sparse_labels(storage: SparseLabelMatrix, cardinality: int) -> None:
    """Check that the stored (non-abstain) values fit the task's vocabulary."""
    if storage.nnz == 0:
        return
    values = np.unique(storage.data)
    if cardinality == 2:
        allowed = {NEGATIVE, POSITIVE}
    else:
        allowed = set(range(1, cardinality + 1))
    unexpected = [int(v) for v in values if int(v) not in allowed]
    if unexpected:
        raise LabelingError(
            f"sparse label matrix contains values {unexpected} outside {sorted(allowed)}"
        )


class LabelMatrix:
    """A validated, immutable label matrix with named labeling-function columns."""

    def __init__(
        self,
        values: Union[np.ndarray, SparseLabelMatrix],
        lf_names: Optional[Sequence[str]] = None,
        cardinality: int = 2,
    ) -> None:
        if hasattr(values, "tocsr"):  # a foreign sparse matrix (scipy's), by duck type
            values = SparseLabelMatrix.from_scipy(values)
        # ``_csr`` is the form every computation reads; ``_dense`` is set only
        # for dense-backed matrices, whose ``_csr`` is filled in on first use.
        if isinstance(values, SparseLabelMatrix):
            _validate_sparse_labels(values, cardinality)
            self._csr: Optional[SparseLabelMatrix] = values
            self._dense: Optional[np.ndarray] = None
        else:
            self._dense = validate_label_matrix(values, cardinality=cardinality).view()
            self._dense.flags.writeable = False
            self._csr = None
        self.cardinality = cardinality
        if lf_names is None:
            lf_names = [f"lf_{j}" for j in range(self.shape[1])]
        if len(lf_names) != self.shape[1]:
            raise LabelingError(
                f"got {len(lf_names)} LF names for a matrix with {self.shape[1]} columns"
            )
        self.lf_names = list(lf_names)

    # ----------------------------------------------------------------- storage
    @property
    def is_sparse(self) -> bool:
        """Whether this matrix is stored sparsely (non-abstain entries only)."""
        return self._dense is None

    @property
    def storage(self) -> Union[np.ndarray, SparseLabelMatrix]:
        """The backing storage object (ndarray or :class:`SparseLabelMatrix`)."""
        return self._csr if self._dense is None else self._dense

    @property
    def csr(self) -> SparseLabelMatrix:
        """Λ as CSR entries, the form every statistic and consumer reads
        (a dense-backed matrix compresses itself on first use and keeps it)."""
        if self._csr is None:
            self._csr = SparseLabelMatrix.from_dense(self._dense)
        return self._csr

    @property
    def values(self) -> np.ndarray:
        """The dense integer array (a read-only view).

        For sparse storage this materializes a dense copy on every access;
        prefer :attr:`csr` in performance-sensitive code.
        """
        if self._dense is not None:
            return self._dense
        return self._csr.to_dense()

    def to_sparse(self) -> "LabelMatrix":
        """This matrix with sparse (CSR) storage (self if already sparse)."""
        if self.is_sparse:
            return self
        return LabelMatrix(self.csr, lf_names=self.lf_names, cardinality=self.cardinality)

    def to_dense(self) -> "LabelMatrix":
        """This matrix with dense storage (self if already dense).

        The dense view keeps the CSR entries it came from as its
        :attr:`csr`, so it is never lowered again.
        """
        if not self.is_sparse:
            return self
        dense = LabelMatrix(
            self._csr.to_dense(), lf_names=self.lf_names, cardinality=self.cardinality
        )
        dense._csr = self._csr
        return dense

    # ------------------------------------------------------------------ basics
    @property
    def shape(self) -> tuple[int, int]:
        """``(num_candidates, num_lfs)``."""
        return self.storage.shape

    @property
    def num_candidates(self) -> int:
        """Number of data points (rows)."""
        return self.shape[0]

    @property
    def num_lfs(self) -> int:
        """Number of labeling functions (columns)."""
        return self.shape[1]

    def __getitem__(self, item):
        return self.values[item]

    def column(self, lf_name: str) -> np.ndarray:
        """Return the (dense) label vector of the LF called ``lf_name``."""
        try:
            index = self.lf_names.index(lf_name)
        except ValueError:
            raise LabelingError(f"no labeling function named {lf_name!r}") from None
        if self._dense is not None:
            return self._dense[:, index]
        rows, vals = self._csr.column(index)
        column = np.full(self.num_candidates, ABSTAIN, dtype=np.int64)
        column[rows] = vals
        return column

    def select_lfs(self, names_or_indices: Iterable) -> "LabelMatrix":
        """Return a new matrix restricted to the given LFs (by name or index).

        The storage backend (dense or sparse) is preserved.
        """
        indices = []
        for item in names_or_indices:
            if isinstance(item, str):
                if item not in self.lf_names:
                    raise LabelingError(f"no labeling function named {item!r}")
                indices.append(self.lf_names.index(item))
            else:
                indices.append(int(item))
        if self._dense is not None:
            selected: Union[np.ndarray, SparseLabelMatrix] = self._dense[:, indices]
        else:
            selected = self._csr.select_columns(indices)
        return LabelMatrix(
            selected,
            lf_names=[self.lf_names[i] for i in indices],
            cardinality=self.cardinality,
        )

    def select_rows(self, row_indices: Sequence[int] | np.ndarray) -> "LabelMatrix":
        """Return a new matrix restricted to the given rows (storage preserved)."""
        row_indices = np.asarray(row_indices)
        if self._dense is not None:
            selected: Union[np.ndarray, SparseLabelMatrix] = self._dense[row_indices]
        else:
            selected = self._csr.select_rows(row_indices)
        return LabelMatrix(selected, lf_names=self.lf_names, cardinality=self.cardinality)

    # --------------------------------------------------------------- statistics
    def label_density(self) -> float:
        """Mean number of non-abstaining labels per data point (paper's d_Λ)."""
        if self.num_candidates == 0:
            return 0.0
        return float(self.csr.nnz / self.num_candidates)

    def coverage(self) -> float:
        """Fraction of data points with at least one non-abstaining label."""
        if self.num_candidates == 0:
            return 0.0
        return float(self.covered_rows().mean())

    def lf_coverage(self) -> np.ndarray:
        """Per-LF fraction of data points it labels."""
        if self.num_candidates == 0:
            return np.zeros(self.num_lfs)
        return self.csr.col_nnz() / self.num_candidates

    def lf_polarity(self) -> list[list[int]]:
        """Per-LF sorted list of distinct non-abstain labels it emits."""
        csr = self.csr
        polarities: list[list[int]] = [[] for _ in range(self.num_lfs)]
        if csr.nnz:
            # One sort over (column, label) codes; the loop below visits the
            # distinct pairs (at most n·k), never the votes.
            low = int(csr.data.min())
            span = int(csr.data.max()) - low + 1
            cols, labels = np.divmod(np.unique(csr.indices * span + (csr.data - low)), span)
            for col, label in zip(cols.tolist(), (labels + low).tolist()):
                polarities[col].append(label)
        return polarities

    def class_balance(self) -> dict[int, float]:
        """Distribution of emitted (non-abstain) labels across the matrix."""
        labels, counts = np.unique(self.csr.data, return_counts=True)
        total = counts.sum()
        return {int(label): float(count) / total for label, count in zip(labels, counts)}

    def vote_counts(self, label: int) -> np.ndarray:
        """Per-row counts of LFs voting exactly ``label`` (the paper's c_y(Λ_i))."""
        return self.csr.count_per_row(label)

    def covered_rows(self) -> np.ndarray:
        """Boolean mask of rows with at least one non-abstaining label."""
        return self.csr.row_nnz() > 0

    def row_sums(self) -> np.ndarray:
        """Per-row sum of the entries (the unweighted vote score ``f_1(Λ_i)``)."""
        return self.csr.row_sums()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        backend = "sparse" if self.is_sparse else "dense"
        return (
            f"LabelMatrix(shape={self.shape}, storage={backend}, "
            f"density={self.label_density():.2f}, coverage={self.coverage():.2f})"
        )
