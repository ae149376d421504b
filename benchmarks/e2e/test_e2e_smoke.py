"""Tier-1 smoke test of the end-to-end benchmark at ``--quick`` sizes.

Runs the harness in this process (no children): every workload must pass its
correctness checks, report exactly the metrics ``BENCHMARK.json`` declares,
and profile to the same call count twice.
"""

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("e2e_run", os.path.join(HERE, "run.py"))
e2e_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_run)
e2e_run.bootstrap()

from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402  (needs bootstrap)

with open(os.path.join(e2e_run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)


def _quick(workload: str, trace: int) -> dict:
    args = e2e_run.parse_args(["--workload", workload, "--quick", "--trace", str(trace)])
    return e2e_run.run_workload(args, in_process=True)["result"]


def test_declared_names_match_the_harness():
    assert [entry["name"] for entry in DECLARED["workloads"]] == list(WORKLOADS)
    assert [
        (entry["name"], entry["unit"], entry["better"], entry["bound"])
        for entry in DECLARED["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (entry["name"], entry["unit"], entry["better"]) for entry in DECLARED["per_layer"]
    ] == list(PER_LAYER)
    assert DECLARED["run_seconds"] == e2e_run.DEFAULT_SECONDS
    assert DECLARED["paths"] == [os.path.relpath(HERE, e2e_run.ROOT)]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run_is_correct_and_repeats(workload):
    first, second = _quick(workload, 0), _quick(workload, 0)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [name for name, *_rest in END_TO_END]
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert (
        first["metrics"]["py_calls_per_cand"]["value"]
        == second["metrics"]["py_calls_per_cand"]["value"]
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_traced_run_reports_every_layer(workload):
    result = _quick(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, *_rest in PER_LAYER]
    assert result["metrics"]["pipeline.overhead_s"]["value"] > 0
