"""Engine parallel backends: threads vs the persistent worker processes.

Times LF application of the CDR ``lf_library`` suite (32 real labeling
functions: keyword patterns, regex variants, distant-supervision banks) —
a CPU-bound, GIL-bound workload — under two execution modes at several
chunk sizes:

* ``threads`` — the ``concurrent.futures`` thread pool (the pre-runtime
  parallel baseline; the GIL serializes the LF work);
* ``processes`` — the persistent worker pool moving chunks/results as
  pickled bytes over each worker's pipe.

Every mode must emit a label matrix bit-identical to the sequential
reference — asserted on every measurement, quick or full — and the pool
must leave no worker processes (and create no ``/dev/shm`` segments) by
shutdown.  The records feed the ``engine_transport`` section of the
``BENCH_*.json`` snapshot written by ``scripts/run_benchmarks.py``; the
speedup assertions in the pytest entry point are gated on actually having
more than one core (and on ``REPRO_BENCH_SKIP_SPEEDUP``), because processes
cannot beat threads on a single CPU.
"""

import glob
import os
import time

import numpy as np

from repro.datasets.cdr import build_cdr_task
from repro.datasets.synthetic import stream_relation_candidates
from repro.labeling.applier import LFApplier
from repro.labeling.engine import available_workers
from repro.labeling.engine.runtime import shutdown_pools

DEFAULT_NUM_CANDIDATES = 8_000
CHUNK_SIZES = (64, 512, 4096)


def run_engine_transport_benchmark(
    num_candidates: int = DEFAULT_NUM_CANDIDATES,
    workers: int = 2,
    chunk_sizes=CHUNK_SIZES,
    seed: int = 0,
):
    """Time each mode at each chunk size; one record per chunk size.

    One applier per mode is reused across every chunk size, so the process
    modes attach their spec to the persistent pool exactly once — the
    timings then measure steady-state transport + compute, not worker
    startup (which a per-call pool design would re-pay on every run).
    """
    lfs = build_cdr_task().lfs
    candidates = list(stream_relation_candidates(num_points=num_candidates, seed=seed))
    reference = LFApplier(lfs).apply(candidates)

    modes = {
        backend: LFApplier(lfs, backend=backend, num_workers=workers)
        for backend in ("threads", "processes")
    }

    records = []
    for chunk_size in chunk_sizes:
        record = {
            "num_candidates": num_candidates,
            "num_lfs": len(lfs),
            "workers": workers,
            "chunk_size": chunk_size,
            "available_cpus": available_workers(),
            "identical": True,
        }
        for mode, applier in modes.items():
            applier.chunk_size = chunk_size
            start = time.perf_counter()
            matrix = applier.apply(candidates, sparse=True)
            record[f"{mode}_seconds"] = time.perf_counter() - start
            record[f"{mode}_transport_share"] = (
                applier.last_report.transport.transport_fraction
            )
            record["identical"] &= bool(
                np.array_equal(matrix.to_dense().values, reference.values)
            )
        record["processes_vs_threads_speedup"] = record["threads_seconds"] / max(
            record["processes_seconds"], 1e-12
        )
        records.append(record)
    return records


def leftover_segments() -> list[str]:
    """Engine shared-memory segments present in ``/dev/shm`` (none expected:
    the pool creates none)."""
    return glob.glob("/dev/shm/repro-eng-*")


def format_records(records) -> str:
    header = f"{'chunk':>6} {'thr s':>8} {'proc s':>8} {'proc/thr x':>10} {'proc tx%':>8}"
    lines = [header, "-" * len(header)]
    for r in records:
        lines.append(
            f"{r['chunk_size']:>6} {r['threads_seconds']:>8.3f} "
            f"{r['processes_seconds']:>8.3f} {r['processes_vs_threads_speedup']:>10.2f} "
            f"{100 * r['processes_transport_share']:>7.1f}%"
        )
    return "\n".join(lines)


def test_engine_transport(run_once):
    records = run_once(run_engine_transport_benchmark)
    print("\n[Engine transport]\n" + format_records(records))
    for record in records:
        # Hard invariant: every mode emits the same label matrix.
        assert record["identical"], record
    # Hard invariant: shutting the pools down leaves nothing — no surviving
    # worker processes, no shared-memory segments.
    shutdown_pools()
    assert leftover_segments() == []
    import multiprocessing

    workers_alive = [
        p for p in multiprocessing.active_children() if "engine-worker" in p.name
    ]
    assert workers_alive == []
    if os.environ.get("REPRO_BENCH_SKIP_SPEEDUP") == "1":
        return
    if records[0]["available_cpus"] < 2:
        return
    # The acceptance claim: on a CPU-bound suite, persistent processes beat
    # the GIL-bound thread pool at every chunk size.
    for record in records:
        assert record["processes_vs_threads_speedup"] > 1.0, record
