"""Experiment registry: maps each paper artifact to its driver and bench target."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper table or figure and how this repository regenerates it."""

    experiment_id: str
    paper_artifact: str
    description: str
    driver: str
    bench_target: str


EXPERIMENTS: list[ExperimentSpec] = [
    ExperimentSpec(
        "fig4", "Figure 4", "Modeling advantage vs number of LFs on synthetic data",
        "repro.experiments.fig4_advantage.run", "benchmarks/bench_fig4_modeling_advantage.py",
    ),
    ExperimentSpec(
        "fig5", "Figure 5", "Performance and correlation count vs threshold epsilon",
        "repro.experiments.fig5_structure.run_simulation_panel",
        "benchmarks/bench_fig5_structure_tradeoff.py",
    ),
    ExperimentSpec(
        "fig6", "Figure 6", "Advantage and optimizer bound vs number of CDR LFs",
        "repro.experiments.fig6_cdr_advantage.run", "benchmarks/bench_fig6_cdr_advantage.py",
    ),
    ExperimentSpec(
        "table1",
        "Table 1",
        "Modeling advantage, optimizer bound, strategy, label density per task",
        "repro.experiments.table1_advantage.run", "benchmarks/bench_table1_advantage.py",
    ),
    ExperimentSpec(
        "table2", "Table 2", "Task summary statistics",
        "repro.experiments.table2_stats.run", "benchmarks/bench_table2_task_stats.py",
    ),
    ExperimentSpec(
        "table3", "Table 3", "Relation extraction: DS vs Snorkel (gen/disc) vs hand supervision",
        "repro.experiments.table3_relation_extraction.run",
        "benchmarks/bench_table3_relation_extraction.py",
    ),
    ExperimentSpec(
        "table4", "Table 4", "Cross-modal tasks: radiology AUC and crowd accuracy",
        "repro.experiments.table4_crossmodal.run", "benchmarks/bench_table4_crossmodal.py",
    ),
    ExperimentSpec(
        "table5", "Table 5", "Discriminative model on unweighted LFs vs Snorkel labels",
        "repro.experiments.table5_generative_effect.run",
        "benchmarks/bench_table5_generative_effect.py",
    ),
    ExperimentSpec(
        "table6", "Table 6", "Labeling-function type ablation on CDR",
        "repro.experiments.table6_lf_ablation.run", "benchmarks/bench_table6_lf_ablation.py",
    ),
    ExperimentSpec(
        "table7", "Table 7", "Candidate counts per split",
        "repro.experiments.table2_stats.run", "benchmarks/bench_table7_splits.py",
    ),
    ExperimentSpec(
        "userstudy", "Figures 7-8 / Table 8", "Simulated user study vs hand-label baselines",
        "repro.userstudy.simulate.run", "benchmarks/bench_user_study.py",
    ),
]


def describe_experiments() -> str:
    """Human-readable experiment index."""
    lines = ["Experiment index (paper artifact -> driver -> bench target)", "-" * 60]
    for spec in EXPERIMENTS:
        lines.append(f"{spec.experiment_id:10s} {spec.paper_artifact:18s} {spec.bench_target}")
    return "\n".join(lines)
