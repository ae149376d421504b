"""Figure 5: structure-learning threshold tradeoff.

For a label matrix with correlated labeling functions, sweep the selection
threshold ε, record the number of correlations selected and the generative
model's predictive performance when those correlations are modeled, and mark
the elbow point Algorithm 1 would select.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.base import load_task
from repro.datasets.synthetic import generate_correlated_label_matrix
from repro.evaluation.metrics import f1_score
from repro.labeling.applier import LFApplier
from repro.labeling.matrix import LabelMatrix
from repro.labelmodel.elbow import select_elbow_point
from repro.labelmodel.generative import GenerativeModel
from repro.labelmodel.structure import StructureLearner


@dataclass
class StructureSweepResult:
    """One panel of Figure 5."""

    panel: str
    thresholds: list[float]
    correlation_counts: list[int]
    f1_scores: list[float]
    elbow_threshold: float


def _sweep(
    panel: str,
    label_matrix: LabelMatrix,
    gold: np.ndarray,
    thresholds: list[float],
    epochs: int,
) -> StructureSweepResult:
    learner = StructureLearner().fit(label_matrix)
    counts = []
    scores = []
    for threshold in thresholds:
        correlations = learner.select(threshold)
        counts.append(len(correlations))
        model = GenerativeModel(epochs=epochs).fit(label_matrix, correlations=correlations)
        scores.append(f1_score(gold, model.predict(label_matrix)))
    elbow = select_elbow_point(thresholds, counts)
    return StructureSweepResult(
        panel=panel,
        thresholds=list(thresholds),
        correlation_counts=counts,
        f1_scores=scores,
        elbow_threshold=float(elbow),
    )


def run_simulation_panel(
    thresholds: list[float] | None = None, epochs: int = 10, seed: int = 0
) -> StructureSweepResult:
    """Figure 5 (left): simulated correlated labeling functions."""
    thresholds = thresholds or [0.3, 0.25, 0.2, 0.15, 0.1, 0.05, 0.02]
    data = generate_correlated_label_matrix(
        num_points=800, num_independent=8, num_groups=6, group_size=3, seed=seed
    )
    return _sweep("simulation", data.label_matrix, data.gold_labels, thresholds, epochs)


def run_task_panel(
    task_name: str = "cdr",
    scale: float = 0.15,
    thresholds: list[float] | None = None,
    epochs: int = 10,
    seed: int = 0,
) -> StructureSweepResult:
    """Figure 5 (middle / right): a real task's LF suite."""
    thresholds = thresholds or [0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.02]
    task = load_task(task_name, scale=scale, seed=seed)
    matrix = LFApplier(task.lfs).apply(task.split_candidates("train"))
    gold = task.split_gold("train")
    return _sweep(task_name, matrix, gold, thresholds, epochs)


def format_table(result: StructureSweepResult) -> str:
    """Render one sweep panel as text."""
    header = f"Panel: {result.panel} (elbow at eps={result.elbow_threshold})"
    lines = [header, f"{'eps':>8}{'# corr':>8}{'F1':>8}", "-" * 24]
    for threshold, count, score in zip(
        result.thresholds, result.correlation_counts, result.f1_scores
    ):
        lines.append(f"{threshold:>8.2f}{count:>8}{100 * score:>8.1f}")
    return "\n".join(lines)
