#!/usr/bin/env python
"""Execute the benchmark suite and write a perf snapshot for trajectory tracking.

Runs the ``benchmarks/bench_*.py`` pytest suite (the paper-artifact harness)
and then the importable perf measurements, writing one multi-section JSON
snapshot (default ``BENCH_sparse.json`` in the repository root):

* ``sparse_scaling`` — dense vs sparse label-model fits
  (``benchmarks/bench_sparse_scaling.py``);
* ``applier_throughput`` — sequential vs threads vs processes LF execution
  on streamed candidates (``benchmarks/bench_applier_engine.py``);
* ``gibbs`` — dense vs sparse Gibbs-sampler timings
  (``benchmarks/bench_gibbs_timing.py``);
* ``gibbs_kernels`` — reference per-column loop vs vectorized plan-based
  kernels, binary and cardinality-4, on the 20k x 200-LF crowd-style suite
  (``benchmarks/bench_gibbs_kernels.py``);
* ``structure_learning`` — structure-learning plus correlation-count fit
  costs, and the structure fit alone on a cdr-shaped (all nodes stacked)
  and an edit-loop-shaped (gemv nodes) Λ with its ISTA loop count and
  stacked nonzero share (``benchmarks/bench_structure_timing.py``);
* ``em_epoch`` — per-epoch EM time, binary and cardinality-4, dense vs
  sparse (``benchmarks/bench_em_epoch.py``);
* ``online_em`` — the online incremental label model: per-chunk ``update``
  cost early vs late in the stream (must stay flat as rows accumulate),
  drain vs batch fit time, with drain-equals-batch parity asserted
  (``benchmarks/bench_online_em.py``);
* ``featurizer_throughput`` — dense vs CSR relation-featurizer batch
  transforms, and fourteen chunks through one fitted featurizer on three
  corpora (high, Zipf and zero key repeats between chunks), with exact
  parity against the per-candidate specification asserted
  (``benchmarks/bench_featurizer_throughput.py``);
* ``discriminative_streaming`` — the pipeline's one out-of-core path (fused
  apply+featurize engine pass, CSR-block minibatch end-model training) on a
  50k-candidate synthetic text task, fed from a ``TaskDataset`` holding
  lists (``run(task)``) and from generators (``run_streams``): throughput,
  peak traced memory, and outputs asserted equal (difference exactly 0)
  (``benchmarks/bench_discriminative_streaming.py``);
* ``lf_analysis`` — static-analysis amortization: the analyze-call count is
  per-suite rather than per-candidate (asserted structurally), plus the
  one-time validation cost relative to the apply itself
  (``benchmarks/bench_lf_analysis.py``);
* ``lf_pushdown`` — compiled columnar LF kernels vs the interpreted
  per-candidate loop on the CDR ``lf_library`` suite, with bit-identity
  asserted on every measurement, including a mixed compiled/fallback suite
  (``benchmarks/bench_lf_pushdown.py``);
* ``engine_transport`` — threads vs the persistent worker processes (chunks
  pickled over each worker's pipe) on the CDR ``lf_library`` suite at chunk
  sizes 64/512/4096, with bit-identity and a clean shutdown (no surviving
  worker processes, no ``/dev/shm`` segments) asserted on every
  measurement (``benchmarks/bench_engine_transport.py``);
* ``block_store`` — the crash-safe block store's mmap replay vs recompute:
  a plain streaming run, the same run paying the checkpoint write
  amplification, and a resume over the complete store (zero LF executions,
  zero training epochs), with bit-identity asserted between all three
  (``benchmarks/bench_block_store.py``).

``--compare`` re-measures and checks every ``*_seconds`` metric against the
committed snapshot, failing (exit code 1) on a more-than-``--threshold``-fold
slowdown — the regression gate future perf PRs run against.  ``--quick``
shrinks every workload to smoke-test size: useful in CI to exercise the
whole measurement (and its parity assertions) in seconds.  Because the
shrunken runs are far faster than any committed baseline, ``--compare
--quick`` degrades into exactly that smoke test — it validates the pipeline
end-to-end but cannot flag slowdowns.

Usage::

    python scripts/run_benchmarks.py                 # suite + snapshot
    python scripts/run_benchmarks.py --skip-suite    # snapshot only
    python scripts/run_benchmarks.py --output /tmp/bench.json
    python scripts/run_benchmarks.py --compare       # regression gate
    python scripts/run_benchmarks.py --compare --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Metric keys compared by ``--compare`` (every key with this suffix).
TIMING_SUFFIX = "_seconds"

#: Baselines below this are padded up to it before applying the threshold:
#: single-digit-millisecond measurements routinely jitter by more than 2x
#: (cache state, first-call dispatch), which is noise, not regression.
MIN_COMPARE_SECONDS = 0.05


def _load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_suite() -> int:
    """Run the full ``benchmarks/`` pytest collection; return its exit code.

    ``bench_*.py`` does not match pytest's default ``python_files`` pattern,
    so the collection override is passed explicitly (keeping the tier-1
    ``pytest tests/`` collection untouched).
    """
    return subprocess.call(
        [
            sys.executable,
            "-m",
            "pytest",
            str(REPO_ROOT / "benchmarks"),
            "-q",
            "-o",
            "python_files=bench_*.py",
        ],
        cwd=REPO_ROOT,
    )


def measure(quick: bool = False) -> dict:
    """Run every importable perf measurement; return the snapshot document.

    ``quick`` shrinks every workload by roughly an order of magnitude — the
    measurements exercise the full machinery (including the dense/sparse and
    kernel parity checks baked into the records) but their timings are smoke
    values, not comparable to a full snapshot.
    """
    import numpy as np
    import scipy

    scaling = _load_bench_module("bench_sparse_scaling")
    applier = _load_bench_module("bench_applier_engine")
    gibbs = _load_bench_module("bench_gibbs_timing")
    gibbs_kernels = _load_bench_module("bench_gibbs_kernels")
    structure = _load_bench_module("bench_structure_timing")
    em_epoch = _load_bench_module("bench_em_epoch")
    online_em = _load_bench_module("bench_online_em")
    featurizer = _load_bench_module("bench_featurizer_throughput")
    streaming = _load_bench_module("bench_discriminative_streaming")
    lf_analysis = _load_bench_module("bench_lf_analysis")
    lf_pushdown = _load_bench_module("bench_lf_pushdown")
    engine_transport = _load_bench_module("bench_engine_transport")
    block_store = _load_bench_module("bench_block_store")

    print("[sparse_scaling]")
    scaling_records = scaling.run_scaling(
        configs=((2_000, 20, 0.05),) if quick else scaling.DEFAULT_CONFIGS
    )
    print(scaling.format_records(scaling_records))
    print("\n[applier_throughput]")
    applier_records = applier.run_applier_throughput(
        configs={"cpu": (300, 8), "latency": (120, 4)} if quick else None
    )
    print(applier.format_records(applier_records))
    print("\n[gibbs]")
    gibbs_record = gibbs.run_gibbs_benchmark(
        config=(2_000, 20, 0.05) if quick else gibbs.DEFAULT_CONFIG
    )
    print(gibbs.format_record(gibbs_record))
    print("\n[gibbs_kernels]")
    gibbs_kernel_records = gibbs_kernels.run_gibbs_kernels_benchmark(
        configs=(
            (("binary", 2, 2_000, 40, 0.05), ("k4", 4, 2_000, 40, 0.05))
            if quick
            else gibbs_kernels.DEFAULT_CONFIGS
        ),
        repeats=1 if quick else 3,
    )
    print(gibbs_kernels.format_records(gibbs_kernel_records))
    print("\n[structure_learning]")
    structure_record = structure.run_structure_benchmark(
        **({"num_points": 150, "num_groups": 3, "epochs": 4} if quick else {})
    )
    print(structure.format_record(structure_record))
    structure_shapes = structure.run_solver_shapes(
        **({"repeats": 1, "edit_points": 1_000} if quick else {})
    )
    print(structure.format_shapes(structure_shapes))
    print("\n[em_epoch]")
    em_epoch_records = em_epoch.run_em_epoch_benchmark(
        configs=(
            (("binary", 2, 2_000, 20, 0.05), ("k4", 4, 2_000, 20, 0.05))
            if quick
            else em_epoch.DEFAULT_CONFIGS
        )
    )
    print(em_epoch.format_records(em_epoch_records))
    print("\n[online_em]")
    online_em_record = online_em.run_online_em_benchmark(
        **(
            {"num_points": 2_000, "num_lfs": 20, "chunk_size": 200, "epochs": 6}
            if quick
            else {}
        )
    )
    print(online_em.format_record(online_em_record))
    # The online model's cardinal rules, asserted on every snapshot (quick
    # or full): draining the stream reproduces the batch sparse fit bit for
    # bit (and the dense fit to 1e-8), and folding a chunk does not get
    # slower as rows accumulate.
    assert online_em_record["max_weight_diff"] == 0, "drained weights diverged"
    assert online_em_record["max_prob_diff"] <= 1e-8, "drained posteriors diverged"
    assert (
        online_em_record["flatness_ratio"] < online_em.MAX_FLATNESS_RATIO
    ), "per-chunk update cost grew with accumulated rows"
    print("\n[featurizer_throughput]")
    featurizer_record = featurizer.run_featurizer_benchmark(
        num_candidates=150 if quick else featurizer.DEFAULT_NUM_CANDIDATES,
        chunk_rows=64 if quick else featurizer.DEFAULT_CHUNK_ROWS,
    )
    print(featurizer.format_record(featurizer_record))
    # Asserted on every snapshot and every --compare run: the chunk kernel
    # emits exactly the per-candidate specification's feature values — from
    # a cold featurizer and from one that has featurized thirteen chunks.
    assert (
        featurizer_record["max_value_diff"] == 0
        and not any(part["max_value_diff"] for part in featurizer_record["chunked"].values())
    ), "featurization kernel diverged from the candidate_entries specification"
    print("\n[discriminative_streaming]")
    streaming_record = streaming.run_discriminative_streaming_benchmark(
        **(
            {"num_candidates": 2_000, "num_test": 500, "discriminative_epochs": 4}
            if quick
            else {}
        )
    )
    print(streaming.format_record(streaming_record))
    # Asserted on every snapshot and every --compare run: the two feedings
    # are one path, so their outputs are equal, not merely close.
    assert (
        streaming_record["max_training_prob_diff"] == 0
        and streaming_record["max_end_model_weight_diff"] == 0
    ), "list-fed run(task) and generator-fed run_streams diverged"
    print("\n[lf_analysis]")
    lf_analysis_record = lf_analysis.run_lf_analysis_benchmark(
        **({"small_corpus": 100, "large_corpus": 1_000} if quick else {})
    )
    print(lf_analysis.format_record(lf_analysis_record))
    # The subsystem's cost-model claim, asserted on every snapshot: analysis
    # is per-suite, not per-candidate — the 10x corpus performs the same
    # number of analyze calls.
    assert (
        lf_analysis_record["analyze_calls_small_corpus"]
        == lf_analysis_record["analyze_calls_large_corpus"]
    ), "LF analysis ran per-candidate, not per-suite"
    print("\n[lf_pushdown]")
    lf_pushdown_record = lf_pushdown.run_lf_pushdown_benchmark(
        num_candidates=1_000 if quick else lf_pushdown.DEFAULT_NUM_CANDIDATES
    )
    print(lf_pushdown.format_record(lf_pushdown_record))
    # The subsystem's cardinal rule, asserted on every snapshot (quick or
    # full): compiled labels are bit-identical to interpreted, including
    # with an uncompilable LF planted next to the compiled columns.
    assert lf_pushdown_record["max_abs_diff"] == 0, "pushdown labels diverged"
    assert (
        lf_pushdown_record["mixed_max_abs_diff"] == 0
    ), "mixed compiled/fallback labels diverged"
    print("\n[engine_transport]")
    engine_transport_records = engine_transport.run_engine_transport_benchmark(
        num_candidates=1_000 if quick else engine_transport.DEFAULT_NUM_CANDIDATES
    )
    print(engine_transport.format_records(engine_transport_records))
    # The runtime's cardinal rules, asserted on every snapshot (quick or
    # full): every backend emits the sequential label matrix bit for bit,
    # and shutting the pools down leaves no segments or worker processes.
    assert all(
        record["identical"] for record in engine_transport_records
    ), "parallel labels diverged"
    from repro.labeling.engine.runtime import shutdown_pools

    shutdown_pools()
    assert (
        engine_transport.leftover_segments() == []
    ), "engine shared-memory segments appeared"
    print("\n[block_store]")
    block_store_record = block_store.run_block_store_benchmark(
        **(
            {"num_candidates": 1_500, "num_test": 400, "discriminative_epochs": 4}
            if quick
            else {}
        )
    )
    print(block_store.format_record(block_store_record))
    # The store's cardinal rule, asserted on every snapshot (quick or full):
    # a run replayed from durable blocks is bit-identical to recomputing.
    assert block_store_record["max_training_prob_diff"] == 0, "replayed probs diverged"
    assert (
        block_store_record["max_end_model_weight_diff"] == 0
    ), "replayed end-model weights diverged"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "quick": quick,
        "benchmarks": {
            "sparse_scaling": {"records": scaling_records},
            "applier_throughput": {"records": applier_records},
            "gibbs": {"record": gibbs_record},
            "gibbs_kernels": {"records": gibbs_kernel_records},
            "structure_learning": {"record": structure_record, "shapes": structure_shapes},
            "em_epoch": {"records": em_epoch_records},
            "online_em": {"record": online_em_record},
            "featurizer_throughput": {"record": featurizer_record},
            "discriminative_streaming": {"record": streaming_record},
            "lf_analysis": {"record": lf_analysis_record},
            "lf_pushdown": {"record": lf_pushdown_record},
            "engine_transport": {"records": engine_transport_records},
            "block_store": {"record": block_store_record},
        },
    }


def write_snapshot(output: Path, quick: bool = False) -> dict:
    """Measure everything and write the JSON snapshot."""
    snapshot = measure(quick=quick)
    output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"\nwrote {output}")
    return snapshot


def _flatten_timings(node, path: str = "") -> dict[str, float]:
    """All ``*_seconds`` metrics in a snapshot, keyed by their JSON path."""
    timings: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            child = f"{path}.{key}" if path else str(key)
            if key.endswith(TIMING_SUFFIX) and isinstance(value, (int, float)):
                timings[child] = float(value)
            else:
                timings.update(_flatten_timings(value, child))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            timings.update(_flatten_timings(value, f"{path}[{index}]"))
    return timings


def compare_snapshots(baseline: dict, current: dict, threshold: float) -> list[str]:
    """Return one regression message per metric slower than ``threshold``-fold."""
    baseline_timings = _flatten_timings(baseline)
    current_timings = _flatten_timings(current)
    regressions = []
    for path, base_value in sorted(baseline_timings.items()):
        if path not in current_timings or base_value <= 0:
            continue
        ratio = current_timings[path] / max(base_value, MIN_COMPARE_SECONDS)
        if ratio > threshold:
            regressions.append(
                f"{path}: {current_timings[path]:.3f}s vs baseline "
                f"{base_value:.3f}s ({ratio:.1f}x > {threshold:.1f}x)"
            )
    return regressions


def run_compare(snapshot_path: Path, threshold: float, quick: bool = False) -> int:
    """Re-measure and gate against the committed snapshot.

    With ``quick`` the re-measurement runs the shrunken workloads: the gate
    cannot flag slowdowns (quick timings undershoot any full baseline) but
    still fails on measurement errors and parity violations — the CI smoke
    mode.
    """
    if not snapshot_path.exists():
        print(f"no baseline snapshot at {snapshot_path}; run without --compare first")
        return 2
    baseline = json.loads(snapshot_path.read_text())
    current = measure(quick=quick)
    regressions = compare_snapshots(baseline, current, threshold)
    compared = len(set(_flatten_timings(baseline)) & set(_flatten_timings(current)))
    if regressions:
        print(f"\n{len(regressions)} timing regression(s) vs {snapshot_path}:")
        for message in regressions:
            print(f"  {message}")
        return 1
    print(f"\nno >{threshold:.1f}x regressions across {compared} timings vs {snapshot_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_sparse.json",
        help="snapshot path (default: BENCH_sparse.json in the repo root)",
    )
    parser.add_argument(
        "--skip-suite",
        action="store_true",
        help="skip the pytest benchmark suite, only write the perf snapshot",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="re-measure and fail on regressions vs the snapshot at --output "
        "(does not overwrite it)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="slowdown factor that counts as a regression (default: 2.0)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink every workload to smoke-test size (CI); timings are not "
        "comparable to a full snapshot",
    )
    args = parser.parse_args(argv)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    if args.compare:
        return run_compare(args.output, args.threshold, quick=args.quick)

    if args.quick and args.output == parser.get_default("output"):
        # A quick snapshot at the committed baseline path would poison every
        # subsequent full --compare run with ~10x-smaller-workload timings.
        print(
            "--quick measurements are not comparable to the committed baseline; "
            "pass an explicit --output (or use --compare --quick for the smoke)"
        )
        return 2

    exit_code = 0
    if not args.skip_suite:
        exit_code = run_suite()
    write_snapshot(args.output, quick=args.quick)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
