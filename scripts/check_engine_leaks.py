#!/usr/bin/env python
"""Engine runtime leak gate: no surviving workers, no segments.

The persistent worker runtime owns real operating-system resources — child
processes and their pipes — whose leaks a test suite can mask (each test
cleans up after itself) but a long-lived process cannot.  This script is the
CI gate on the runtime's ownership discipline: it drives the pool through
every lifecycle edge that has ever leaked in a process-pool design, then
asserts the operating system is back to where it started:

* plain runs, list- and generator-fed, at a small chunk size and at one
  chunk holding the whole stream, and the fused label+featurize pass twice,
  so the second runs on the workers' warm featurizer tables;
* a chunk raising mid-stream while others are in flight (the run drains
  them and raises; the same workers must serve the next run);
* a worker crash mid-run (the master must reap the dead worker and its
  replacement, not just the happy path's);
* a fault-tolerant crash-with-resubmission run;
* pool shutdown via :func:`repro.labeling.engine.runtime.shutdown_pools`.

After all of that: zero worker processes among this interpreter's children,
and zero ``repro-eng-*`` entries in ``/dev/shm`` (chunks travel over the
workers' pipes, so nothing should create one).  Exit status 1 on any
leftover, with the leftovers named.

    PYTHONPATH=src python scripts/check_engine_leaks.py
"""

from __future__ import annotations

import glob
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _segments() -> list[str]:
    return sorted(glob.glob("/dev/shm/repro-eng-*"))


def _crash_task(payload, fault_tolerant, index, start_row, candidates):
    from repro.labeling.engine.accumulator import apply_chunk

    flag, lfs, crash_index = payload
    if index == crash_index and (flag is None or not os.path.exists(flag)):
        if flag is not None:
            open(flag, "w").close()
        os._exit(3)
    return apply_chunk(lfs, fault_tolerant, index, start_row, candidates)


def _pid_task(payload, fault_tolerant, index, start_row, candidates):
    """One triple per chunk, valued with the pid of the worker that ran it."""
    import numpy as np

    from repro.labeling.engine.accumulator import ChunkResult

    zero = np.zeros(1, dtype=np.int64)
    pid = np.array([os.getpid()], dtype=np.int64)
    return ChunkResult(index, start_row, len(candidates), zero, zero, pid)


def _raise_task(payload, fault_tolerant, index, start_row, candidates):
    """Chunk ``payload`` raises at once; every other chunk sleeps first."""
    import time

    if index == payload:
        raise ValueError(f"chunk {index} raised")
    time.sleep(0.02)
    return _pid_task(payload, fault_tolerant, index, start_row, candidates)


def main() -> int:
    import multiprocessing
    import tempfile

    import numpy as np

    from repro.datasets.synthetic import (
        stream_synthetic_candidates,
        stream_text_candidates,
        synthetic_vote_lfs,
        text_vote_lfs,
    )
    from repro.discriminative import RelationFeaturizer
    from repro.labeling import LFApplier
    from repro.labeling.engine import (
        CSRAccumulator,
        TaskSpec,
        WorkerCrashError,
        iter_chunks,
    )
    from repro.labeling.engine.runtime import get_global_pool, shutdown_pools

    preexisting = _segments()
    if preexisting:
        print(f"warning: segments present before the run: {preexisting}")

    lfs = synthetic_vote_lfs(6)
    candidates = list(
        stream_synthetic_candidates(num_points=800, num_lfs=6, propensity=0.4, seed=0)
    )
    reference = LFApplier(lfs).apply(candidates)

    # Plain runs, list- and generator-fed; chunk size 7 sends many small
    # messages, 4096 the whole stream in one.
    for chunk_size in (7, 4096):
        applier = LFApplier(lfs, chunk_size=chunk_size, backend="processes", num_workers=2)
        matrix = applier.apply(candidates)
        assert np.array_equal(matrix.values, reference.values), chunk_size
        matrix = applier.apply(iter(candidates), sparse=True)
        assert np.array_equal(matrix.to_dense().values, reference.values), chunk_size

    # The fused label+featurize pass: each worker grows its own featurizer
    # tables (plain heap, nothing the master must reclaim) and the second
    # pass runs on them warm; blocks must equal the sequential pass's.
    text_lfs = text_vote_lfs(4)
    text = list(stream_text_candidates(num_points=400, num_lfs=4, seed=0))
    featurizer = RelationFeaturizer(num_features=64).fit()
    _, expected = LFApplier(text_lfs, chunk_size=64).apply_with_features(text, featurizer)
    applier = LFApplier(text_lfs, chunk_size=64, backend="processes", num_workers=2)
    for _ in range(2):
        _, blocks = applier.apply_with_features(iter(text), featurizer)
        for block, reference_block in zip(blocks, expected, strict=True):
            assert block.data.tobytes() == reference_block.data.tobytes()
            assert block.indices.tobytes() == reference_block.indices.tobytes()

    # A chunk raising mid-stream with others in flight, not fault tolerant:
    # the run drains and raises, and the same workers serve the next run.
    pool = get_global_pool(2)

    def worker_pids() -> set:
        accumulator = CSRAccumulator()
        pool.run(TaskSpec(task=_pid_task), iter_chunks(candidates, 50), accumulator)
        return set(accumulator.merge().values.tolist())

    pids, spawned = worker_pids(), pool.total_spawned
    try:
        pool.run(
            spec=TaskSpec(task=_raise_task, payload=5),
            chunks=iter_chunks(candidates, 50),
            accumulator=CSRAccumulator(),
        )
        raise AssertionError("failing run unexpectedly succeeded")
    except ValueError as exc:
        assert str(exc) == "chunk 5 raised", exc
    assert worker_pids() == pids and len(pids) == 2, pids
    assert pool.total_spawned == spawned, (pool.total_spawned, spawned)

    # A worker crash mid-run: the pool must reap the dead worker and stay
    # serviceable.
    accumulator = CSRAccumulator()
    try:
        pool.run(
            spec=TaskSpec(task=_crash_task, payload=(None, lfs, 2)),
            chunks=iter_chunks(candidates, 50),
            accumulator=accumulator,
        )
        raise AssertionError("crash run unexpectedly succeeded")
    except WorkerCrashError as exc:
        assert exc.chunk_index >= 0

    # Fault-tolerant crash + resubmission, then a clean verifying run.
    with tempfile.TemporaryDirectory() as tmp:
        flag = os.path.join(tmp, "crashed-once")
        accumulator = CSRAccumulator()
        pool.run(
            spec=TaskSpec(
                task=_crash_task, payload=(flag, lfs, 3), fault_tolerant=True
            ),
            chunks=iter_chunks(candidates, 50),
            accumulator=accumulator,
        )
        merged = accumulator.merge()
        matrix = np.zeros((len(candidates), len(lfs)), dtype=np.int64)
        matrix[merged.rows, merged.cols] = merged.values
        assert np.array_equal(matrix, reference.values)

    shutdown_pools()

    problems: list[str] = []
    leftovers = [name for name in _segments() if name not in preexisting]
    if leftovers:
        problems.append(f"shared-memory segments appeared: {leftovers}")
    workers = [
        f"{child.name} (pid {child.pid})"
        for child in multiprocessing.active_children()
        if "engine-worker" in child.name
    ]
    if workers:
        problems.append(f"surviving worker processes: {workers}")

    if problems:
        print("engine leak check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        "engine leak check passed: plain + fused + mid-stream failure + crash + "
        "resubmission runs, 0 segments, 0 surviving workers"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
