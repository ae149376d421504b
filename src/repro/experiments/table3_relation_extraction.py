"""Table 3: relation-extraction evaluation.

For each relation task, compare distant supervision, Snorkel's generative
stage, Snorkel's discriminative stage, and hand supervision on the held-out
test split (precision / recall / F1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.distant_supervision import distant_supervision_baseline
from repro.baselines.hand_supervision import hand_supervision_baseline
from repro.datasets.base import load_task
from repro.evaluation.scorer import ScoreReport
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

DEFAULT_TASKS: tuple[tuple[str, float], ...] = (
    ("chem", 0.1),
    ("ehr", 0.008),
    ("cdr", 0.15),
    ("spouses", 0.1),
)


@dataclass
class Table3Row:
    """One task's Table-3 row: the four compared systems."""

    task: str
    distant_supervision: ScoreReport
    snorkel_generative: ScoreReport
    snorkel_discriminative: ScoreReport
    hand_supervision: Optional[ScoreReport]


def run(
    tasks: tuple[tuple[str, float], ...] = DEFAULT_TASKS,
    seed: int = 0,
    generative_epochs: int = 10,
    discriminative_epochs: int = 30,
    applier_backend: str = "sequential",
    applier_workers: Optional[int] = 1,
    chunk_size: int = 1024,
) -> list[Table3Row]:
    """Run the four systems on each task and collect test-split score reports.

    ``applier_backend`` / ``applier_workers`` select the labeling execution
    engine's executor (see :mod:`repro.labeling.engine`); the label matrices
    — and therefore every score in the table — are identical across
    backends.  The Snorkel pipeline runs out-of-core (one fused pass per
    split over ``task.stream_candidates``, ``chunk_size`` candidates per
    engine work unit); the baselines are materialized.
    """
    rows = []
    for task_name, scale in tasks:
        task = load_task(task_name, scale=scale, seed=seed)
        config = PipelineConfig(
            generative_epochs=generative_epochs,
            discriminative_epochs=discriminative_epochs,
            learn_correlations=False,
            applier_backend=applier_backend,
            applier_workers=applier_workers,
            chunk_size=chunk_size,
            seed=seed,
        )
        result = SnorkelPipeline(config=config).run(task)
        distant = distant_supervision_baseline(task, epochs=discriminative_epochs, seed=seed)
        hand = hand_supervision_baseline(task, epochs=discriminative_epochs, seed=seed)
        rows.append(
            Table3Row(
                task=task_name,
                distant_supervision=distant,
                snorkel_generative=result.generative_test_report,
                snorkel_discriminative=result.discriminative_test_report,
                hand_supervision=hand,
            )
        )
    return rows


def format_table(rows: list[Table3Row]) -> str:
    """Render Table 3 as text (P / R / F1 per system)."""
    header = (
        f"{'Task':<10}"
        f"{'DS P':>7}{'DS R':>7}{'DS F1':>7}"
        f"{'Gen P':>7}{'Gen R':>7}{'Gen F1':>8}"
        f"{'Disc P':>8}{'Disc R':>8}{'Disc F1':>9}"
        f"{'Hand F1':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        hand_f1 = row.hand_supervision.f1 if row.hand_supervision else float("nan")
        lines.append(
            f"{row.task:<10}"
            f"{100 * row.distant_supervision.precision:>7.1f}"
            f"{100 * row.distant_supervision.recall:>7.1f}"
            f"{100 * row.distant_supervision.f1:>7.1f}"
            f"{100 * row.snorkel_generative.precision:>7.1f}"
            f"{100 * row.snorkel_generative.recall:>7.1f}"
            f"{100 * row.snorkel_generative.f1:>8.1f}"
            f"{100 * row.snorkel_discriminative.precision:>8.1f}"
            f"{100 * row.snorkel_discriminative.recall:>8.1f}"
            f"{100 * row.snorkel_discriminative.f1:>9.1f}"
            f"{100 * hand_f1:>9.1f}"
        )
    return "\n".join(lines)
