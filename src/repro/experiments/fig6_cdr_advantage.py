"""Figure 6: modeling advantage vs number of CDR labeling functions.

Random subsets of the CDR LF suite of increasing size are drawn; for each,
the empirical advantage of the trained generative model and the optimizer's
upper bound Ã* are computed, showing the optimizer switching from MV to GM as
development matures (more LFs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.base import load_task
from repro.labeling.applier import LFApplier
from repro.labelmodel.advantage import estimate_advantage_bound, modeling_advantage
from repro.labelmodel.generative import GenerativeModel


@dataclass
class Fig6Point:
    """One subset size of the Figure-6 sweep."""

    num_lfs: int
    empirical_advantage: float
    optimizer_bound: float


def run(
    scale: float = 0.15,
    subset_sizes: tuple[int, ...] = (5, 10, 15, 20, 25, 30),
    repeats: int = 2,
    epochs: int = 10,
    seed: int = 0,
) -> list[Fig6Point]:
    """Compute advantage and bound for random LF subsets of increasing size."""
    task = load_task("cdr", scale=scale, seed=seed)
    full_matrix = LFApplier(task.lfs).apply(task.split_candidates("train"))
    gold = task.split_gold("train")
    rng = np.random.default_rng(seed)
    points = []
    for size in subset_sizes:
        size = min(size, full_matrix.num_lfs)
        advantages = []
        bounds = []
        for _ in range(repeats):
            columns = rng.choice(full_matrix.num_lfs, size=size, replace=False)
            subset = full_matrix.select_lfs(sorted(int(c) for c in columns))
            model = GenerativeModel(epochs=epochs).fit(subset)
            advantages.append(modeling_advantage(subset, gold, model.accuracy_weights))
            bounds.append(estimate_advantage_bound(subset))
        points.append(
            Fig6Point(
                num_lfs=size,
                empirical_advantage=float(np.mean(advantages)),
                optimizer_bound=float(np.mean(bounds)),
            )
        )
    return points


def format_table(points: list[Fig6Point]) -> str:
    """Render the Figure-6 series as text."""
    header = f"{'# LFs':>6}{'A_w':>10}{'A~*':>10}"
    lines = [header, "-" * len(header)]
    for point in points:
        lines.append(
            f"{point.num_lfs:>6}{point.empirical_advantage:>10.3f}{point.optimizer_bound:>10.3f}"
        )
    return "\n".join(lines)
