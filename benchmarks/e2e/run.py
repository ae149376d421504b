#!/usr/bin/env python3
"""End-to-end benchmark driver: one command, every metric by name.

    python benchmarks/e2e/run.py [--workload W] [--seed 0] [--seconds 12]
                                 [--trace [0|1]] [--selfcheck] [--quick]

Per workload the driver (this process: load generator and oracle) makes the
inputs from ``--seed``, computes the expected outputs, and hands both to fresh
child processes, one at a time.  Each child pins BLAS/OpenMP to one thread,
imports ``repro``, sets the workload up and runs one complete warm-up op;
that is ``setup_s``, sampled in ``SETUP_REPEATS`` children and reported as
their median.  The last child then repeats the identical op, ``gc.collect()``
between ops, until ``--seconds`` of timed ops and ``MIN_OPS`` ops are in, and
runs one more op under ``cProfile`` for ``py_calls_per_cand``.  The warm-up
and the timed ops tick a reference clock as they go (``spans.ReferenceClock``),
and their seconds are divided by the clock level it reads.  With
``--trace 1`` it instead runs one op with a span around every layer call plus
the isolated-layer probes (see ``spans.py``, ``workloads.py``) and reports
the per-layer metrics; the timed ops always run untraced.

The last line of standard output per workload is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the
run writes (inputs for the children, checkpoint stores, trace files) goes
under ``.bench_build/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SCRATCH_ROOT = os.path.join(ROOT, ".bench_build")

#: Set before numpy is imported, in the driver and in every child.  Three
#: identical ``lf_edit_loop`` runs spread 22 % with BLAS threads unpinned on
#: the shared 2-core host, 5 % pinned.  The hash seed makes set and dict
#: order, and with it the profiled call count, repeat across processes.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Reference-clock ticks between the imports and set-up, so that the level
#: ``setup_s`` is divided by is not read over the warm-up op alone.
START_TICKS = 16
SETUP_REPEATS = 3
MIN_OPS = 5
MIN_OPS_TRACED = 3
MAX_OPS = 40
DEFAULT_SECONDS = 12


# ------------------------------------------------------------- child process
def measure(workload, inputs, scratch, started_at, untimed_s, args) -> dict:
    """Set up, warm up, then time (or trace) the workload's op.

    ``started_at`` is the ``time.time()`` at which this measurement's
    process was spawned and ``untimed_s`` how much of the time since then
    went into loading the generated inputs.
    """
    from spans import NULL, ReferenceClock, Tracer
    from workloads import span_metrics

    start = time.time()
    clock = ReferenceClock()
    untimed_s += time.time() - start
    for _ in range(START_TICKS):
        clock.tick()
    state = workload.setup(inputs, scratch)
    warm = workload.op(state, clock)
    tick_s, level = clock.read()
    setup_raw_s = time.time() - started_at - untimed_s - tick_s
    report = {"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s / level, "setup_level": level}
    if args.setup_only:
        return report

    failures = []

    def verdict(result) -> bool:
        problems = workload.check(state, result)
        if result.digest != warm.digest:
            problems.append("output differs from the warm-up op's")
        failures.extend(problems)
        return not problems

    attempted, failed = 1, 0 if verdict(warm) else 1
    budget = 0 if args.quick else args.seconds / 2 if args.trace else args.seconds
    min_ops = 2 if args.quick else MIN_OPS_TRACED if args.trace else MIN_OPS
    # The traced run reports layer seconds, so its timed ops run without ticks.
    pacer = NULL if args.trace else clock
    samples, levels, edit_seconds, timings, spent = [], [], [], {}, 0.0
    while (spent < budget or len(samples) < min_ops) and attempted < MAX_OPS:
        gc.collect()
        clock.start()
        start = time.perf_counter()
        result = workload.op(state, pacer)
        elapsed = time.perf_counter() - start
        spent += elapsed
        tick_s, level = (0.0, 1.0) if args.trace else clock.read()
        attempted += 1
        if verdict(result):
            samples.append(elapsed - tick_s)
            levels.append(level)
            edit_seconds += result.edit_seconds
            timings = result.timings
        else:
            failed += 1
    if not samples:
        raise SystemExit(f"{workload.name}: every op failed: {failures}")
    median = statistics.median(samples)
    quartiles = statistics.quantiles(samples, n=4)
    metrics = {}

    gc.collect()
    attempted += 1
    if not args.trace:
        profile = cProfile.Profile()
        profile.enable()
        counted = workload.op(state)
        profile.disable()
        failed += not verdict(counted)
        calls = sum(entry.callcount for entry in profile.getstats())
        nominal = [seconds / level for seconds, level in zip(samples, levels)]
        metrics["cand_per_s"] = warm.candidates / statistics.median(nominal)
        metrics["py_calls_per_cand"] = calls / warm.candidates
    else:
        tracer = Tracer()
        with tracer.op(workload.name):
            traced = workload.traced_op(state, tracer)
        failed += not verdict(traced)
        traced_s = tracer.seconds(workload.name)
        report["traced_op_s"] = [traced_s, tracer.children_seconds(workload.name)]
        metrics["pipeline.overhead_s"] = traced_s - report["traced_op_s"][1]
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / median - 1.0)
        probe_failures = workload.probe_layers(state, tracer, metrics, scratch)
        if probe_failures:
            failed += 1
            failures += probe_failures
        span_metrics(tracer, metrics)
        for stage, seconds in timings.items():
            metrics[f"pipeline.stage_{stage}_s"] = seconds
        if edit_seconds:
            ordered = sorted(edit_seconds)
            # The highest percentile with ten samples beyond it, if there are that many.
            beyond = 10 if len(ordered) >= 20 else 0
            metrics["edit_ms_p50"] = 1e3 * statistics.median(ordered)
            metrics["edit_ms_hi"] = 1e3 * ordered[-1 - beyond]
            report["edit_hi_percentile"] = 100.0 * (1 - (beyond + 1) / len(ordered))
        os.makedirs(args.trace_out, exist_ok=True)
        report["trace_file"] = os.path.join(args.trace_out, f"{workload.name}.json")
        tracer.dump(
            report["trace_file"],
            {"workload": workload.name, "untraced_op_s": median, "traced_op_s": traced_s},
        )
    metrics["peak_rss_mb"] = _peak_rss_mb()
    report.update(
        attempted=attempted,
        failed=failed,
        failures=failures,
        metrics=metrics,
        candidates=warm.candidates,
        ops=len(samples),
        op_s=[quartiles[0], median, quartiles[2]],
        samples=samples,
        levels=levels,
    )
    return report


def _peak_rss_mb() -> float:
    """High-water RSS of this process's own address space.

    Not ``ru_maxrss``: across fork+exec Linux carries the parent's peak into
    the child's ``ru_maxrss``, so it would report the driver's memory.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def child_main(args) -> int:
    """Entry point of a spawned child: load the inputs, measure, print JSON."""
    from workloads import WORKLOADS  # imports repro: part of the timed set-up

    start = time.time()
    with open(args.child, "rb") as handle:
        inputs = pickle.load(handle)
    untimed_s = time.time() - start
    scratch = tempfile.mkdtemp(prefix="child-", dir=os.path.dirname(args.child))
    report = measure(WORKLOADS[args.workload], inputs, scratch, args.spawned_at, untimed_s, args)
    print(json.dumps(report))
    return 0


# ------------------------------------------------------------------- driver
def _wait_for_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait until no process of the child's group is left (engine workers,
    multiprocessing's resource tracker); kill what outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.01)


def _spawn(inputs_path: str, args, setup_only: bool) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--child", inputs_path,
        "--workload", args.workload,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-out", args.trace_out,
        "--spawned-at", repr(time.time()),
    ]  # fmt: skip
    command += ["--quick"] * args.quick + ["--setup-only"] * setup_only
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": SRC}
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True
    )
    try:
        output, _ = child.communicate()
    finally:
        _wait_for_group(child.pid)
    if child.returncode:
        raise SystemExit(f"{args.workload}: child exited with code {child.returncode}")
    return json.loads(output.splitlines()[-1])


def run_workload(args, in_process: bool = False) -> dict:
    """Generate inputs, measure in children (or in this process), assemble."""
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"e2e-{workload.name}-", dir=SCRATCH_ROOT)
    try:
        start = time.perf_counter()
        inputs = workload.generate(args.seed, args.quick)
        inputgen_s = time.perf_counter() - start
        if in_process:
            report = measure(workload, inputs, scratch, time.time(), 0.0, args)
            setups = [report]
        else:
            inputs_path = os.path.join(scratch, "inputs.pkl")
            with open(inputs_path, "wb") as handle:
                pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
            del inputs
            repeats = 1 if args.trace else SETUP_REPEATS
            setups = [_spawn(inputs_path, args, True) for _ in range(repeats - 1)]
            report = _spawn(inputs_path, args, False)
            setups.append(report)
    finally:
        shutil.rmtree(scratch)

    measured = {
        **report["metrics"],
        "setup_s": statistics.median(child["setup_s"] for child in setups),
    }
    if args.trace:
        metrics = {
            name: {"value": measured.get(name, 0.0), "unit": unit}
            for name, unit, _better in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": measured[name], "unit": unit}
            for name, unit, _better, _bound in END_TO_END
        }
    return {
        "result": {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        },
        "report": report,
        "setups": [(child["setup_raw_s"], child["setup_level"]) for child in setups],
        "inputgen_s": inputgen_s,
        "why": workload.why,
    }


def _host_facts() -> str:
    import numpy
    import scipy

    return (
        f"nproc={os.cpu_count()} loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__}"
    )


def print_run(args, run: dict) -> None:
    report, result = run["report"], run["result"]
    q1, median, q3 = report["op_s"]
    print(f"== {args.workload} (seed {args.seed}, {args.seconds} s, trace {args.trace}) ==")
    print(f"why: {run['why']}")
    print(f"host: {_host_facts()}")
    print(f"inputgen_s {run['inputgen_s']:.3f} s (informational: the load generator)")
    print(
        "unnormalised setup seconds (clock level) "
        + " ".join(f"{seconds:.3f} ({level:.2f})" for seconds, level in run["setups"])
    )
    print(
        f"ops: {report['ops']} timed of {report['candidates']} candidates, "
        f"median {median:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}); "
        f"ops_attempted={result['attempted']} ops_failed={result['failed']}"
    )
    print("op seconds " + " ".join(f"{value:.3f}" for value in report["samples"]))
    print("clock levels during them " + " ".join(f"{value:.2f}" for value in report["levels"]))
    print(f"unnormalised throughput {report['candidates'] / median:.6g} 1/s")
    for failure in report["failures"]:
        print(f"FAILED CHECK: {failure}")
    for name, entry in result["metrics"].items():
        if entry["value"] or not args.trace:
            print(f"{name:<42} {entry['value']:>16.6g} {entry['unit']}")
    if "edit_hi_percentile" in report:
        print(f"edit_ms_hi is percentile {report['edit_hi_percentile']:.1f} of the edits")
    if args.trace:
        traced_s, children_s = report["traced_op_s"]
        print(
            f"traced op {traced_s:.4f} s = child spans {children_s:.4f} s + "
            f"pipeline.overhead_s {traced_s - children_s:.4f} s; trace file {report['trace_file']}"
        )
    print(json.dumps(result))


def selfcheck(args, names) -> int:
    """Two full sets back to back; fail if any pair disagrees beyond its bound."""
    from workloads import END_TO_END

    sets = []
    for _ in range(2):
        current = {}
        for name in names:
            args.workload = name
            current[name] = run_workload(args)
            print_run(args, current[name])
        sets.append(current)
    disagreements = 0
    print("== selfcheck: set A vs set B ==")
    for name in names:
        first, second = (run[name] for run in sets)
        for run in (first, second):
            q1, median, q3 = run["report"]["op_s"]
            print(f"{name:<20} op_s median {median:.4f} (q1 {q1:.4f}, q3 {q3:.4f})")
            disagreements += not run["result"]["correct"]
        for metric, unit, _better, bound in END_TO_END:
            a = first["result"]["metrics"][metric]["value"]
            b = second["result"]["metrics"][metric]["value"]
            exact = metric == "py_calls_per_cand"
            differs = a != b if exact else abs(b - a) / a > bound
            disagreements += differs
            allowed = "exact" if exact else f"{100 * bound:.0f} %"
            print(
                f"{name:<20} {metric:<18} {a:>14.6g} {b:>14.6g} {unit:<6} "
                f"{100 * (b - a) / a:+7.2f} % (bound {allowed})"
                + ("  DISAGREE" if differs else "")
            )
    print(f"selfcheck: {disagreements} disagreement(s)")
    return 1 if disagreements else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload by name (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="reaches input generation only")
    parser.add_argument(
        "--seconds", "--budget-s", type=float, default=DEFAULT_SECONDS,
        help="seconds of timed ops per workload",
    )  # fmt: skip
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument(
        "--trace-out", default=os.path.join(SCRATCH_ROOT, "e2e-traces"),
        help="directory for the per-workload trace JSON files",
    )  # fmt: skip
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--quick", action="store_true", help="tiny inputs, two ops")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def bootstrap() -> None:
    """Make ``repro`` and the sibling modules importable."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"no program to benchmark: {SRC}/repro is missing")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    os.environ.update(PINNED_ENV)
    if args.child:
        return child_main(args)
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.selfcheck:
        return selfcheck(args, names)
    correct = True
    for name in names:
        args.workload = name
        run = run_workload(args)
        print_run(args, run)
        correct &= run["result"]["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
