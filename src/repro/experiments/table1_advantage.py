"""Table 1: modeling advantage, optimizer bound, chosen strategy, label density.

For each task we compute the empirical advantage A_w of the trained
generative model over majority vote (on the training split, against gold
labels used for evaluation only), the optimizer's upper bound Ã*, the
strategy Algorithm 1 selects, and the label density d_Λ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.base import load_task
from repro.labeling.applier import LFApplier
from repro.labelmodel.advantage import estimate_advantage_bound, modeling_advantage
from repro.labelmodel.generative import GenerativeModel
from repro.labelmodel.optimizer import ModelingStrategyOptimizer

#: Default (task, scale) pairs; scales keep each task to a few hundred to a
#: couple thousand training candidates.
DEFAULT_TASKS: tuple[tuple[str, float], ...] = (
    ("radiology", 0.08),
    ("cdr", 0.15),
    ("spouses", 0.1),
    ("chem", 0.1),
    ("ehr", 0.008),
)


@dataclass
class Table1Row:
    """One row of Table 1."""

    task: str
    empirical_advantage: float
    optimizer_bound: float
    strategy: str
    label_density: float


def run(
    tasks: tuple[tuple[str, float], ...] = DEFAULT_TASKS,
    epochs: int = 10,
    advantage_tolerance: float = 0.01,
    seed: int = 0,
) -> list[Table1Row]:
    """Compute the Table-1 rows for the given tasks."""
    rows = []
    for task_name, scale in tasks:
        task = load_task(task_name, scale=scale, seed=seed)
        matrix = LFApplier(task.lfs).apply(task.split_candidates("train"))
        gold = task.split_gold("train")
        model = GenerativeModel(epochs=epochs).fit(matrix)
        advantage = modeling_advantage(matrix, gold, model.accuracy_weights)
        bound = estimate_advantage_bound(matrix)
        optimizer = ModelingStrategyOptimizer(
            advantage_tolerance=advantage_tolerance, learn_correlations=False
        )
        strategy = optimizer.choose(matrix)
        rows.append(
            Table1Row(
                task=task_name,
                empirical_advantage=advantage,
                optimizer_bound=bound,
                strategy=strategy.strategy,
                label_density=matrix.label_density(),
            )
        )
    return rows


def format_table(rows: list[Table1Row]) -> str:
    """Render Table 1 as text."""
    header = f"{'Task':<12}{'A_w (%)':>10}{'A~* (%)':>10}{'Strategy':>10}{'d_L':>8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.task:<12}{100 * row.empirical_advantage:>10.1f}"
            f"{100 * row.optimizer_bound:>10.1f}{row.strategy:>10}{row.label_density:>8.1f}"
        )
    return "\n".join(lines)
