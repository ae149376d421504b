"""Smoke tests for the experiment drivers (tiny configurations)."""

import importlib
import inspect
from pathlib import Path

from repro.experiments import EXPERIMENTS, describe_experiments
from repro.experiments import fig4_advantage, table1_advantage, table2_stats


def test_registry_covers_all_paper_artifacts():
    ids = {spec.experiment_id for spec in EXPERIMENTS}
    assert {"fig4", "fig5", "fig6", "table1", "table2", "table3", "table4",
            "table5", "table6", "table7", "userstudy"} <= ids
    assert "Experiment index" in describe_experiments()
    # Every entry points at something real: the driver resolves by import
    # (fig5 once named a function that did not exist), runs at its defaults
    # (userstudy once needed a task) and the bench file is there.
    repo_root = Path(__file__).resolve().parent.parent
    for spec in EXPERIMENTS:
        module_name, _, function_name = spec.driver.rpartition(".")
        driver = getattr(importlib.import_module(module_name), function_name)
        inspect.signature(driver).bind()
        assert (repo_root / spec.bench_target).is_file(), spec


def test_fig4_small_run():
    points = fig4_advantage.run(num_points=200, lf_counts=(2, 10, 50), epochs=5)
    assert len(points) == 3
    assert fig4_advantage.format_table(points)


def test_fig4_sparse_path_matches_dense():
    dense = fig4_advantage.run(num_points=200, lf_counts=(2, 10, 50), epochs=5)
    sparse = fig4_advantage.run(num_points=200, lf_counts=(2, 10, 50), epochs=5, sparse=True)
    for dense_point, sparse_point in zip(dense, sparse):
        assert sparse_point.label_density == dense_point.label_density
        assert abs(sparse_point.learned_advantage - dense_point.learned_advantage) < 1e-10
        assert abs(sparse_point.optimizer_bound - dense_point.optimizer_bound) < 1e-10


def test_table1_small_run():
    rows = table1_advantage.run(tasks=(("cdr", 0.05), ("chem", 0.05)), epochs=5)
    assert {row.task for row in rows} == {"cdr", "chem"}
    assert table1_advantage.format_table(rows)


def test_table2_small_run():
    summaries = table2_stats.run(tasks=(("cdr", 0.05), ("crowd", 0.2)))
    assert table2_stats.format_table2(summaries)
    assert table2_stats.format_table7(summaries)
