"""The persistent worker runtime: pool lifecycle, crashes, resubmission.

What this suite pins down:

* **Single spawn** — a pool spawns its workers once; repeated runs (and
  repeated applies through the global pool, and a full streaming pipeline
  run) reuse the same processes, observed via a worker-pid probe task.
* **Crash surfacing** — a worker dying mid-run raises the coded engine
  error (``EN100``) naming the lost chunk, and the pool replaces the dead
  worker so subsequent runs still work.
* **Fault-tolerant resubmission** — a crash in a fault-tolerant run
  resubmits the lost chunk and the merged triples match the sequential
  reference; a chunk that kills its worker on every attempt fails after
  ``MAX_CHUNK_ATTEMPTS``.
* **Clean shutdown** — ``close()`` reaps every worker process and creates
  no shared-memory segments.
* **Coded errors** — a chunk result that cannot be pickled is a task error,
  not a worker crash; a malformed fault spec is refused at install (EN103).
"""

import glob
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.datasets.synthetic import (
    stream_synthetic_candidates,
    stream_text_candidates,
    stream_text_gold,
    synthetic_vote_lfs,
    text_vote_lfs,
)
from repro.exceptions import LabelingError
from repro.labeling import LabelingFunction, LFApplier
from repro.labeling.engine import (
    CSRAccumulator,
    TaskSpec,
    WorkerCrashError,
    WorkerPool,
    WorkerTimeoutError,
    apply_chunk,
    iter_chunks,
)
from repro.labeling.engine import faults, runtime
from repro.labeling.engine.accumulator import ChunkResult
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline


def make_candidates(num_points=200, num_lfs=4, seed=1):
    return list(
        stream_synthetic_candidates(
            num_points=num_points, num_lfs=num_lfs, propensity=0.4, seed=seed
        )
    )


def _pid_probe_task(payload, fault_tolerant, index, start_row, candidates):
    """Emit one triple per chunk whose value is the executing worker's pid."""
    return ChunkResult(
        index=index,
        start_row=start_row,
        num_candidates=len(candidates),
        row_offsets=np.zeros(1, dtype=np.int64),
        cols=np.zeros(1, dtype=np.int64),
        values=np.array([os.getpid()], dtype=np.int64),
    )


def _crash_task(payload, fault_tolerant, index, start_row, candidates):
    """Kill the worker outright on chunk ``payload`` (no flag: every attempt)."""
    if index == payload:
        os._exit(3)
    return _pid_probe_task(None, fault_tolerant, index, start_row, candidates)


def _crash_once_task(payload, fault_tolerant, index, start_row, candidates):
    """Kill the worker on chunk ``crash_index`` the first time only."""
    lfs, flag, crash_index = payload
    if index == crash_index and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(5)
    return apply_chunk(lfs, fault_tolerant, index, start_row, candidates)


def _probe_pids(pool, candidates, chunk_size=25):
    accumulator = CSRAccumulator()
    spec = TaskSpec(task=_pid_probe_task)
    pool.run(spec, iter_chunks(candidates, chunk_size), accumulator)
    return set(accumulator.merge().values.tolist())


# ------------------------------------------------------------------ single spawn
def test_pool_spawns_workers_exactly_once():
    candidates = make_candidates()
    pool = WorkerPool(num_workers=2)
    try:
        first = _probe_pids(pool, candidates)
        assert len(first) == 2  # both workers took chunks
        assert pool.total_spawned == 2
        # Repeat runs — at another chunk size too — reuse the same pids.
        assert _probe_pids(pool, candidates) == first
        assert _probe_pids(pool, candidates, chunk_size=10) == first
        assert pool.total_spawned == 2
    finally:
        pool.close()


@pytest.mark.parametrize("num_workers", [0, -1, 2.5, True, "2"])
def test_pool_refuses_what_the_plan_refuses(num_workers):
    # WorkerPool(2.5) used to be kept and then spawned three processes.
    with pytest.raises(LabelingError, match="num_workers must be an integer >= 1"):
        WorkerPool(num_workers)


def test_applier_reuses_global_pool_across_applies():
    runtime.shutdown_pools()
    lfs = synthetic_vote_lfs(4)
    candidates = make_candidates()
    reference = LFApplier(lfs).apply(candidates)
    applier = LFApplier(lfs, chunk_size=32, backend="processes", num_workers=2)
    for sparse in (False, True, False):
        matrix = applier.apply(candidates, sparse=sparse)
        assert np.array_equal(matrix.to_dense().values, reference.values)
    assert runtime.get_global_pool(2).total_spawned == 2


def test_pipeline_run_spawns_workers_exactly_once():
    """One streaming pipeline run — apply + fused featurize over two splits —
    on a picklable suite spawns each worker once, total."""
    runtime.shutdown_pools()
    lfs = text_vote_lfs(6)
    config = PipelineConfig(
        seed=0,
        chunk_size=32,
        applier_backend="processes",
        applier_workers=2,
        generative_epochs=3,
        discriminative_epochs=3,
        num_features=128,
    )
    result = SnorkelPipeline(lfs=lfs, config=config).run_streams(
        stream_text_candidates(num_points=150, num_lfs=6, seed=0),
        stream_text_candidates(num_points=60, num_lfs=6, seed=1),
        stream_text_gold(60, seed=1),
    )
    assert result.label_matrix.shape == (150, 6)
    assert runtime.get_global_pool(2).total_spawned == 2


def test_unpicklable_closure_suite_runs_via_fork_respawn():
    def make_lf(j):
        def closure_body(candidate):
            return int(candidate.votes[j])

        return LabelingFunction(f"closure_{j}", closure_body)

    lfs = [make_lf(j) for j in range(3)]
    candidates = make_candidates(num_lfs=3)
    reference = LFApplier(lfs).apply(candidates)
    applier = LFApplier(lfs, chunk_size=32, backend="processes", num_workers=2)
    matrix = applier.apply(candidates)
    assert np.array_equal(matrix.values, reference.values)


# ------------------------------------------------------------------ crash paths
def test_worker_crash_raises_coded_error_naming_chunk():
    candidates = make_candidates(num_points=120)
    pool = WorkerPool(num_workers=2)
    try:
        accumulator = CSRAccumulator()
        with pytest.raises(WorkerCrashError) as err:
            pool.run(
                spec=TaskSpec(task=_crash_task, payload=2),
                chunks=iter_chunks(candidates, 20),
                accumulator=accumulator,
            )
        assert err.value.code == "EN100"
        assert err.value.chunk_index == 2
        assert err.value.exit_code == 3
        assert "chunk 2" in str(err.value)
        # The pool replaced the dead worker and keeps serving runs.
        assert len(_probe_pids(pool, candidates)) == 2
    finally:
        pool.close()


def test_fault_tolerant_run_resubmits_after_crash(tmp_path):
    lfs = synthetic_vote_lfs(4)
    candidates = make_candidates()
    reference = LFApplier(lfs, fault_tolerant=True).apply(candidates)
    pool = WorkerPool(num_workers=2)
    try:
        flag = str(tmp_path / "crashed-once")
        accumulator = CSRAccumulator()
        pool.run(
            spec=TaskSpec(
                task=_crash_once_task,
                payload=(lfs, flag, 3),
                fault_tolerant=True,
            ),
            chunks=iter_chunks(candidates, 25),
            accumulator=accumulator,
        )
        assert os.path.exists(flag)  # the crash really happened
        merged = accumulator.merge()
        matrix = np.zeros((len(candidates), 4), dtype=np.int64)
        matrix[merged.rows, merged.cols] = merged.values
        assert np.array_equal(matrix, reference.values)
    finally:
        pool.close()


def test_fault_tolerant_gives_up_after_max_attempts():
    pool = WorkerPool(num_workers=2)
    try:
        accumulator = CSRAccumulator()
        with pytest.raises(WorkerCrashError) as err:
            pool.run(
                spec=TaskSpec(task=_crash_task, payload=0, fault_tolerant=True),
                chunks=iter_chunks(make_candidates(num_points=60), 20),
                accumulator=accumulator,
            )
        assert err.value.attempts == runtime.MAX_CHUNK_ATTEMPTS
    finally:
        pool.close()


# ------------------------------------------------------------- hung workers
def _hang_once_task(payload, fault_tolerant, index, start_row, candidates):
    """Sleep far past any deadline on chunk ``hang_index``, first time only."""
    flag, hang_index = payload
    if index == hang_index and not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(60)
    return _pid_probe_task(None, fault_tolerant, index, start_row, candidates)


def _hang_task(payload, fault_tolerant, index, start_row, candidates):
    """Sleep far past any deadline on chunk ``payload``, every attempt."""
    if index == payload:
        time.sleep(60)
    return _pid_probe_task(None, fault_tolerant, index, start_row, candidates)


def test_hung_worker_raises_coded_timeout_error():
    """Without fault tolerance a chunk past 2x its deadline kills the worker
    and raises EN101 — the run ends instead of deadlocking forever."""
    pool = WorkerPool(num_workers=2)
    try:
        with pytest.warns(RuntimeWarning, match="deadline"):
            with pytest.raises(WorkerTimeoutError) as err:
                pool.run(
                    spec=TaskSpec(task=_hang_task, payload=1),
                    chunks=iter_chunks(make_candidates(num_points=100), 20),
                    accumulator=CSRAccumulator(),
                    chunk_timeout=0.3,
                )
        assert err.value.code == "EN101"
        assert err.value.chunk_index == 1
        assert "deadline" in str(err.value)
        # The pool replaced the killed worker and keeps serving runs.
        assert len(_probe_pids(pool, make_candidates())) == 2
    finally:
        pool.close()


def test_hung_worker_resubmitted_when_fault_tolerant(tmp_path):
    """A one-off hang under fault tolerance: the worker is killed at the
    escalation deadline, the chunk resubmits, and the run completes whole."""
    pool = WorkerPool(num_workers=2)
    try:
        flag = str(tmp_path / "hung-once")
        accumulator = CSRAccumulator()
        with pytest.warns(RuntimeWarning, match="deadline"):
            pool.run(
                spec=TaskSpec(
                    task=_hang_once_task, payload=(flag, 2), fault_tolerant=True
                ),
                chunks=iter_chunks(make_candidates(num_points=160), 20),
                accumulator=accumulator,
                chunk_timeout=0.3,
            )
        assert os.path.exists(flag)  # the hang really happened
        merged = accumulator.merge()
        assert merged.num_chunks == 8  # every chunk arrived exactly once
        assert merged.num_candidates == 160
    finally:
        pool.close()


def test_hang_forever_gives_up_after_max_attempts():
    pool = WorkerPool(num_workers=2)
    try:
        with pytest.warns(RuntimeWarning, match="deadline"):
            with pytest.raises(WorkerTimeoutError) as err:
                pool.run(
                    spec=TaskSpec(task=_hang_task, payload=0, fault_tolerant=True),
                    chunks=iter_chunks(make_candidates(num_points=60), 20),
                    accumulator=CSRAccumulator(),
                    chunk_timeout=0.3,
                )
        assert err.value.attempts == runtime.MAX_CHUNK_ATTEMPTS
    finally:
        pool.close()


# ---------------------------------------------------------------- clean shutdown
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm to inspect")
def test_close_reaps_processes_and_segments():
    candidates = make_candidates()
    pool = WorkerPool(num_workers=2)
    pids = _probe_pids(pool, candidates)
    pool.close()
    assert glob.glob(f"/dev/shm/repro-eng-{os.getpid()}-*") == []
    for pid in pids:
        with pytest.raises(OSError):
            os.kill(pid, 0)


def test_close_is_idempotent_and_pool_respawns_after_close():
    pool = WorkerPool(num_workers=2)
    try:
        first = _probe_pids(pool, make_candidates())
        assert len(first) == 2
        pool.close()
        pool.close()  # second close is a no-op, not an error
        # The pool stays usable: the next run respawns fresh workers.
        second = _probe_pids(pool, make_candidates())
        assert len(second) == 2
        assert first.isdisjoint(second)
    finally:
        pool.close()
        pool.close()


# ------------------------------------------------------------ pool-state leaks
def _raise_on_load():
    raise RuntimeError("decode boom")


class _ExplodesOnLoad:
    """Pickles fine master-side; raises when a worker unpickles it."""

    def __reduce__(self):
        return (_raise_on_load, ())


class _ExplodesOnDump:
    """Raises inside master-side pickle.dumps (mid-run submit failure)."""

    def __reduce__(self):
        raise TypeError("cannot pickle this candidate")


def _sleep_probe_task(payload, fault_tolerant, index, start_row, candidates):
    """Pid probe that sleeps ``candidates[0]`` seconds first (keeps a worker
    busy so a later submit failure happens with a chunk still in flight)."""
    time.sleep(float(candidates[0]))
    return _pid_probe_task(payload, fault_tolerant, index, start_row, candidates)


def test_inplace_suite_mutation_reaches_pool_workers():
    """Mutating ``applier.lfs`` in place (same list id) must re-attach: the
    pool dedups attaches on payload identity, and reusing the stale
    worker-side suite would silently label with the old LFs."""
    runtime.shutdown_pools()
    lfs = synthetic_vote_lfs(4)
    candidates = make_candidates()
    applier = LFApplier(lfs, chunk_size=32, backend="processes", num_workers=2)
    first = applier.apply(candidates)
    # Swap two LFs in place: the list object keeps its id, the suite changes.
    applier.lfs[0], applier.lfs[1] = applier.lfs[1], applier.lfs[0]
    mutated = applier.apply(candidates)
    reference = LFApplier(applier.lfs).apply(candidates)
    assert np.array_equal(mutated.values, reference.values)
    assert np.array_equal(mutated.values, first.values[:, [1, 0, 2, 3]])


def test_candidate_decode_failure_is_a_task_error_not_a_crash():
    """A candidate that fails to unpickle worker-side surfaces as a per-chunk
    task error naming the cause, not an opaque EN100 worker crash."""
    pool = WorkerPool(num_workers=2)
    try:
        with pytest.raises(RuntimeError, match="decode boom"):
            pool.run(
                spec=TaskSpec(task=_pid_probe_task),
                chunks=iter_chunks([_ExplodesOnLoad()] * 40, 20),
                accumulator=CSRAccumulator(),
            )
        # The workers survived the failed decode: same generation serves on.
        assert pool.total_spawned == 2
        assert len(_probe_pids(pool, make_candidates())) == 2
        assert pool.total_spawned == 2
    finally:
        pool.close()


def _unpicklable_result_task(payload, fault_tolerant, index, start_row, candidates):
    """A pid probe whose result carries a lock, which no pickle encodes."""
    result = _pid_probe_task(payload, fault_tolerant, index, start_row, candidates)
    result.errors = {"lock": threading.Lock()}
    return result


@pytest.mark.parametrize("fault_tolerant", [False, True])
def test_result_encode_failure_is_a_task_error_not_a_crash(fault_tolerant):
    """A chunk result that fails to pickle worker-side surfaces as the
    original TypeError, not an EN100 crash with a doomed resubmission."""
    pool = WorkerPool(num_workers=2)
    try:
        with pytest.raises(TypeError, match="pickle"):
            pool.run(
                spec=TaskSpec(task=_unpicklable_result_task, fault_tolerant=fault_tolerant),
                chunks=iter_chunks(make_candidates(num_points=40), 20),
                accumulator=CSRAccumulator(),
            )
        # The workers survived the failed encode: same generation serves on.
        assert len(_probe_pids(pool, make_candidates())) == 2
        assert pool.total_spawned == 2
    finally:
        pool.close()


@pytest.mark.parametrize(
    "spec",
    [
        "hang@0:seconds=-1",
        "hang@0:seconds=nan",
        "hang@0:seconds=inf",
        "hang@0:seconds=1e9",
        "hang@0:seconds=abc",
        "hang@0:seconds=",
        "kill@-2",
        "kill@x",
        "kill@1:seconds=5",
        "die_block@1:seconds=5",
        "kill@1:flag=",
        "kill@1:color=red",
        "corrupt_shm@1",
        "kill",
    ],
)
def test_malformed_fault_spec_is_refused_at_install(spec):
    """Every spec outside the grammar fails at install with a coded error,
    never later as a crash inside a worker (or as a rule that cannot fire)."""
    with pytest.raises(faults.FaultSpecError) as err:
        faults.install(spec)
    assert isinstance(err.value, LabelingError)
    assert err.value.code == "EN103"
    assert str(err.value).startswith("[EN103]")
    assert os.environ.get(faults.ENV_VAR) is None
    with pytest.raises(faults.FaultSpecError):
        faults.parse_plan(spec)


def test_well_formed_fault_specs_parse():
    plan = faults.parse_plan("hang@0:seconds=0;hang@3:seconds=2.5:flag=/x;die_epoch@0")
    assert [(rule.action, rule.at, rule.seconds) for rule in plan.rules] == [
        ("hang", 0, 0.0),
        ("hang", 3, 2.5),
        ("die_epoch", 0, faults.DEFAULT_HANG_SECONDS),
    ]


def test_attach_heals_silently_dead_worker():
    """A worker that died between runs must not raise a raw BrokenPipeError
    out of attach(); the pool destroys it and the next run respawns."""
    candidates = make_candidates()
    pool = WorkerPool(num_workers=2)
    try:
        assert len(_probe_pids(pool, candidates)) == 2
        victim = pool._workers[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=5)
        # A fresh payload object forces attach() to send to every worker.
        accumulator = CSRAccumulator()
        pool.run(
            TaskSpec(task=_pid_probe_task, payload=("fresh",)),
            iter_chunks(candidates, 10),
            accumulator,
        )
        assert len(set(accumulator.merge().values.tolist())) == 2
    finally:
        pool.close()


_FORKED_AFTER_WARMUP = False


def _load_only_in_late_forks(value):
    if not _FORKED_AFTER_WARMUP:
        raise RuntimeError("defined after this worker was forked")
    return value


class _LateDefinition:
    """Pickles master-side; loads only in workers forked after the flag."""

    def __reduce__(self):
        return (_load_only_in_late_forks, ("late",))


def _refuse_to_build(payload):
    raise KeyError("the builder always fails")


def test_attach_failure_heals_once_by_respawn(monkeypatch):
    """A spec the warm workers cannot load respawns the generation once,
    which inherits it by memory and runs every chunk; a spec that no worker
    can build raises its builder's exception after that one respawn."""
    candidates = make_candidates(num_points=100)
    pool = WorkerPool(num_workers=2)
    try:
        pids = _probe_pids(pool, candidates)
        monkeypatch.setattr(f"{__name__}._FORKED_AFTER_WARMUP", True)
        accumulator = CSRAccumulator()
        pool.run(
            TaskSpec(task=_pid_probe_task, payload=_LateDefinition()),
            iter_chunks(candidates, 10),
            accumulator,
        )
        merged = accumulator.merge()
        assert merged.num_chunks == 10
        assert pool.total_spawned == 4
        assert pids.isdisjoint(merged.values.tolist())
        with pytest.raises(KeyError, match="builder always fails"):
            pool.run(
                TaskSpec(task=_pid_probe_task, payload=("x",), builder=_refuse_to_build),
                iter_chunks(candidates, 10),
                CSRAccumulator(),
            )
        assert pool.total_spawned == 6
    finally:
        pool.close()


def test_escaped_run_exception_quarantines_in_flight_state():
    """An exception escaping run() with chunks in flight (here: unpicklable
    candidates hit submit() while a worker is busy) must not leak pending
    entries into the next run on the shared pool."""
    pool = WorkerPool(num_workers=2)
    try:
        bad = [0.0] * 20 + [1.0] * 20 + [_ExplodesOnDump()] * 20
        with pytest.raises(TypeError, match="cannot pickle"):
            pool.run(
                spec=TaskSpec(task=_sleep_probe_task),
                chunks=iter_chunks(bad, 20),
                accumulator=CSRAccumulator(),
            )
        # The quarantined generation is gone; the next runs start clean and
        # agree with each other (no duplicate-chunk or stale-result errors).
        candidates = make_candidates()
        assert len(_probe_pids(pool, candidates)) == 2
        assert _probe_pids(pool, candidates) == _probe_pids(pool, candidates)
    finally:
        pool.close()
