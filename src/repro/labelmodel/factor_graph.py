"""Factor-graph specification for the generative label model.

The paper encodes the generative model ``p_w(Λ, Y)`` with three factor
types per data point ``i`` (Section 2.2):

* labeling propensity   ``φ_Lab_{i,j}(Λ, Y)  = 1{Λ_{i,j} ≠ ∅}``
* accuracy              ``φ_Acc_{i,j}(Λ, Y)  = 1{Λ_{i,j} = y_i}``
* pairwise correlation  ``φ_Corr_{i,j,k}(Λ, Y) = 1{Λ_{i,j} = Λ_{i,k}}`` for (j, k) ∈ C

The concatenated factor vector has dimension ``2 n + |C|`` and the model is
``p_w(Λ, Y) = Z_w^{-1} exp(Σ_i wᵀ φ_i(Λ_i, y_i))``.

All three factor types are *equality indicators*, so the same specification
covers both label vocabularies: the paper's signed binary encoding
(``Λ_{i,j}, y_i ∈ {-1, +1}`` with ``0`` = abstain) and the categorical
encoding of multi-class tasks (``Λ_{i,j}, y_i ∈ {1..k}`` with ``0`` =
abstain).  ``cardinality`` records which vocabulary the graph is defined
over; it changes no factor definition, only the label domain the samplers
and estimators range over and the chance level implied by a zero accuracy
weight (``1/k`` rather than ``1/2``).

:class:`FactorGraphSpec` owns the bookkeeping: which correlation pairs are
modeled, how the weight vector is laid out, and how to evaluate the factor
vectors of observed or sampled assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.exceptions import LabelModelError
from repro.types import ABSTAIN


@dataclass(frozen=True)
class WeightLayout:
    """Index ranges of the flat weight vector ``w ∈ R^{2n + |C|}``."""

    num_lfs: int
    num_correlations: int

    @property
    def size(self) -> int:
        """Total number of parameters."""
        return 2 * self.num_lfs + self.num_correlations

    @property
    def propensity_slice(self) -> slice:
        """Slice of the labeling-propensity weights (length ``n``)."""
        return slice(0, self.num_lfs)

    @property
    def accuracy_slice(self) -> slice:
        """Slice of the accuracy weights (length ``n``)."""
        return slice(self.num_lfs, 2 * self.num_lfs)

    @property
    def correlation_slice(self) -> slice:
        """Slice of the correlation weights (length ``|C|``)."""
        return slice(2 * self.num_lfs, 2 * self.num_lfs + self.num_correlations)


class FactorGraphSpec:
    """The factor structure of the generative model for one task.

    Parameters
    ----------
    num_lfs:
        Number of labeling functions ``n``.
    correlations:
        Iterable of ``(j, k)`` labeling-function index pairs to model as
        correlated (the set ``C``).  Pairs are canonicalized to ``j < k`` and
        de-duplicated.
    cardinality:
        Number of classes of the task's label vocabulary: ``2`` for the
        signed binary encoding ``{-1, 0, +1}`` (the default), ``k > 2`` for
        categorical labels ``{0, 1, .., k}`` with ``0`` = abstain.
    """

    def __init__(
        self,
        num_lfs: int,
        correlations: Iterable[tuple[int, int]] = (),
        cardinality: int = 2,
    ) -> None:
        if num_lfs <= 0:
            raise LabelModelError(f"num_lfs must be positive, got {num_lfs}")
        if cardinality < 2:
            raise LabelModelError(f"cardinality must be >= 2, got {cardinality}")
        self.num_lfs = num_lfs
        self.cardinality = cardinality
        canonical: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for j, k in correlations:
            if j == k:
                raise LabelModelError(f"correlation pair ({j}, {k}) is a self-pair")
            if not (0 <= j < num_lfs and 0 <= k < num_lfs):
                raise LabelModelError(
                    f"correlation pair ({j}, {k}) out of range for {num_lfs} labeling functions"
                )
            pair = (min(j, k), max(j, k))
            if pair not in seen:
                seen.add(pair)
                canonical.append(pair)
        self.correlations: list[tuple[int, int]] = canonical
        self.layout = WeightLayout(num_lfs=num_lfs, num_correlations=len(canonical))
        self._neighbor_cache: list[list[tuple[int, int]]] | None = None

    # ------------------------------------------------------------------ weights
    def initial_weights(
        self, accuracy_init: float = 0.7, propensity_init: float = 0.0
    ) -> np.ndarray:
        """A sensible starting weight vector.

        Accuracy weights start at the log-odds implied by ``accuracy_init``
        (the paper's prior that LFs are better than random); propensity and
        correlation weights start at ``propensity_init`` / zero.  For
        ``cardinality > 2`` the accuracy weight is the symmetric
        (Dawid–Skene-style) log-odds against the ``k - 1`` uniform wrong
        classes, ``0.5·log(a·(k-1)/(1-a))`` — a zero weight means chance
        (``a = 1/k``) in both vocabularies.
        """
        weights = np.zeros(self.layout.size)
        weights[self.layout.propensity_slice] = propensity_init
        accuracy_weight = 0.5 * np.log(
            accuracy_init * (self.cardinality - 1) / (1.0 - accuracy_init)
        )
        weights[self.layout.accuracy_slice] = accuracy_weight
        return weights

    def split_weights(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split a flat weight vector into (propensity, accuracy, correlation)."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.layout.size,):
            raise LabelModelError(
                f"expected weight vector of length {self.layout.size}, got shape {weights.shape}"
            )
        return (
            weights[self.layout.propensity_slice],
            weights[self.layout.accuracy_slice],
            weights[self.layout.correlation_slice],
        )

    # ------------------------------------------------------------------ factors
    def factor_matrix(self, label_matrix: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate factor vectors for every row; returns shape ``(m, 2n+|C|)``."""
        label_matrix = np.asarray(label_matrix)
        y = np.asarray(y)
        m = label_matrix.shape[0]
        phi = np.zeros((m, self.layout.size))
        phi[:, self.layout.propensity_slice] = (label_matrix != ABSTAIN).astype(float)
        phi[:, self.layout.accuracy_slice] = (label_matrix == y[:, None]).astype(float)
        for index, (j, k) in enumerate(self.correlations):
            phi[:, 2 * self.num_lfs + index] = (
                label_matrix[:, j] == label_matrix[:, k]
            ).astype(float)
        return phi

    # ----------------------------------------------------------------- topology
    def neighbors(self, j: int) -> list[tuple[int, int]]:
        """Correlation partners of LF ``j`` as ``(partner_index, weight_index)``.

        The adjacency is built once and cached — the samplers query it per
        column per sweep, and an O(|C|) rescan per call turns quadratic on
        wide suites.
        """
        if self._neighbor_cache is None:
            adjacency: list[list[tuple[int, int]]] = [[] for _ in range(self.num_lfs)]
            for offset, (a, b) in enumerate(self.correlations):
                weight_index = 2 * self.num_lfs + offset
                adjacency[a].append((b, weight_index))
                adjacency[b].append((a, weight_index))
            self._neighbor_cache = adjacency
        return self._neighbor_cache[j]

    def neighbor_sets(self) -> list[set[int]]:
        """Correlation partners of every LF as index sets (no weight indices).

        The adjacency view the sampler-plan graph coloring runs over.
        """
        return [{partner for partner, _ in self.neighbors(j)} for j in range(self.num_lfs)]

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"FactorGraphSpec(num_lfs={self.num_lfs}, "
            f"num_correlations={len(self.correlations)}, "
            f"cardinality={self.cardinality})"
        )
