"""The Algorithm-1 modeling-strategy optimizer.

Given only the label matrix Λ, the optimizer decides (paper Section 3):

1. whether fitting the generative model is worth it at all, by comparing the
   advantage upper bound ``Ã*(Λ)`` against the user's advantage tolerance γ —
   if the bound is below the tolerance, the unweighted majority vote (MV) is
   selected and generative-model training is skipped entirely,
2. and, when the generative model (GM) is selected, which correlation
   threshold ε (and hence which correlation pairs) to model, by sweeping the
   structure-learning threshold and picking the elbow point of the
   (ε, #correlations) curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.labeling.matrix import LabelMatrix
from repro.labeling.sparse import lower_to_sparse
from repro.labelmodel.advantage import DEFAULT_WEIGHT_RANGE, estimate_advantage_bound
from repro.labelmodel.elbow import select_elbow_point
from repro.labelmodel.structure import StructureLearner, StructureSweepPoint


@dataclass
class ModelingStrategy:
    """The optimizer's decision.

    Attributes
    ----------
    strategy:
        ``"MV"`` (skip generative training, use unweighted majority vote) or
        ``"GM"`` (train the generative model).
    advantage_bound:
        The computed ``Ã*(Λ)``.
    correlation_threshold:
        Selected ε (``None`` when the strategy is MV or no sweep was run).
    correlations:
        Correlation pairs to include in the generative model.
    sweep:
        The full (ε, #correlations) sweep used for elbow selection.
    """

    strategy: str
    advantage_bound: float
    correlation_threshold: Optional[float] = None
    correlations: list[tuple[int, int]] = field(default_factory=list)
    sweep: list[StructureSweepPoint] = field(default_factory=list)

    @property
    def use_generative_model(self) -> bool:
        """True when the generative model should be trained."""
        return self.strategy == "GM"


class ModelingStrategyOptimizer:
    """Algorithm 1: choose MV vs GM and, for GM, the correlation structure.

    Parameters
    ----------
    advantage_tolerance:
        γ — the minimum predicted advantage that justifies training the
        generative model.
    search_resolution:
        η — the step of the ε sweep; thresholds ``ε = i·η`` for
        ``i = 1 .. 1/(2η)`` are evaluated (so the sweep covers (0, 0.5]).
    learn_correlations:
        When ``False`` the optimizer only decides MV vs GM and models no
        correlations (the independent model); this matches the ablation in
        Table 1, which uses accuracy factors only.
    weight_range:
        ``(w_min, w̄, w_max)`` assumption for the advantage bound.
    structure_learner:
        Optionally, a pre-configured :class:`StructureLearner`.
    """

    def __init__(
        self,
        advantage_tolerance: float = 0.01,
        search_resolution: float = 0.05,
        learn_correlations: bool = True,
        weight_range: tuple[float, float, float] = DEFAULT_WEIGHT_RANGE,
        structure_learner: Optional[StructureLearner] = None,
    ) -> None:
        if not 0 <= advantage_tolerance < np.inf:  # NaN too
            raise ConfigurationError(
                f"advantage_tolerance must be finite and >= 0, got {advantage_tolerance}"
            )
        if not 0 < search_resolution <= 0.5:
            raise ConfigurationError(
                f"search_resolution must lie in (0, 0.5], got {search_resolution}"
            )
        self.advantage_tolerance = advantage_tolerance
        self.search_resolution = search_resolution
        self.learn_correlations = learn_correlations
        self.weight_range = weight_range
        self.structure_learner = structure_learner or StructureLearner()

    def choose(self, label_matrix: LabelMatrix | np.ndarray) -> ModelingStrategy:
        """Run Algorithm 1 on a label matrix and return the chosen strategy.

        The MV-vs-GM decision rests on the binary modeling-advantage theory
        (Section 3), so categorical matrices (a :class:`LabelMatrix` with
        ``cardinality > 2``) skip it: the generative model is always
        selected (``advantage_bound`` is recorded as NaN) and only the
        correlation-structure sweep runs, via the structure learner's
        anchor-class reduction.
        """
        if isinstance(label_matrix, LabelMatrix):
            cardinality = label_matrix.cardinality
        else:
            # A raw input is binary (the bound refuses class ids) and is
            # lowered here, once, for the bound and the sweep.
            cardinality, label_matrix = 2, lower_to_sparse(label_matrix)
        if cardinality > 2:
            advantage_bound = float("nan")
        else:
            advantage_bound = estimate_advantage_bound(label_matrix, self.weight_range)
            if advantage_bound < self.advantage_tolerance:
                return ModelingStrategy(strategy="MV", advantage_bound=advantage_bound)
        if not self.learn_correlations:
            return ModelingStrategy(strategy="GM", advantage_bound=advantage_bound)
        thresholds = self._sweep_thresholds()
        self.structure_learner.fit(label_matrix)
        sweep = self.structure_learner.sweep(thresholds)
        elbow = select_elbow_point(
            [point.threshold for point in sweep],
            [point.num_correlations for point in sweep],
        )
        selected = next(point for point in sweep if np.isclose(point.threshold, elbow))
        return ModelingStrategy(
            strategy="GM",
            advantage_bound=advantage_bound,
            correlation_threshold=float(elbow),
            correlations=list(selected.correlations),
            sweep=sweep,
        )

    def _sweep_thresholds(self) -> list[float]:
        """The ε grid: ``i · η`` for ``i = 1 .. floor(1 / (2η))``."""
        count = int(np.floor(1.0 / (2.0 * self.search_resolution)))
        return [round((i + 1) * self.search_resolution, 10) for i in range(count)]
