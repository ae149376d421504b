"""The engine's top-level ``run_plan`` and its one scheduler.

:func:`run_plan` consumes a lazy chunk stream, runs a **chunk task** on each
unit, and feeds every result into a :class:`CSRAccumulator`.  A chunk task is
any picklable callable with the
:func:`repro.labeling.engine.accumulator.apply_chunk` signature
``task(payload, fault_tolerant, index, start_row, candidates) ->
ChunkResult``; ``apply_chunk`` (the LF suite) is the default, and
:mod:`repro.labeling.engine.tasks` adds featurization and the fused
label+featurize task.  Where the chunks run is ``plan.backend``:

* ``"sequential"`` — the in-process loop (no pool overhead);
* ``"threads"`` — a ``concurrent.futures.ThreadPoolExecutor``, the right
  choice for latency-bound LFs (I/O, external services) where workers
  overlap waiting rather than computation;
* ``"processes"`` — CPU-bound work on the **persistent worker runtime**
  (:mod:`repro.labeling.engine.runtime`): a pool of long-lived processes
  shared by every run in this master process.  The task payload (LF list,
  featurizer, ...) is attached once as a
  :class:`~repro.labeling.engine.runtime.TaskSpec` (pickled when possible,
  inherited via ``fork`` respawn otherwise, so closures still work); the
  candidate chunks then travel as pickled bytes over each worker's pipe
  and must be picklable.

Both pool backends run under one scheduler, :func:`schedule`.  It draws
chunks lazily, keeps at most the backend's window in flight
(``plan.pending_limit()``: two chunks per thread, one per worker process),
and merges each result as it completes, so a generator-fed run holds
bounded memory however long the stream is.  On a chunk failure it draws
nothing more, lets the chunks in flight finish, and raises the failure of
the lowest chunk index — the one the sequential loop raises.  A backend
supplies only ``submit(chunk)`` and ``completed()``; retries, deadlines and
worker health stay inside the process pool.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from queue import SimpleQueue
from typing import TYPE_CHECKING, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import cycle guard
    from repro.labeling.blockstore import ChunkCheckpointer
    from repro.labeling.engine.runtime import TaskSpec

from repro.labeling.engine.accumulator import (
    ChunkResult,
    CSRAccumulator,
    EngineResult,
    apply_chunk,
)
from repro.labeling.engine.plan import Chunk, ExecutionPlan, iter_chunks


#: Signature of a chunk task: ``(payload, fault_tolerant, index, start_row,
#: candidates) -> ChunkResult``.  Must be picklable (a module-level function)
#: for the process backend.
ChunkTask = Callable[[object, bool, int, int, list], ChunkResult]


def schedule(
    submit: Callable[[Chunk], None],
    completed: Callable[[], Iterable[tuple[int, object]]],
    window: int,
    chunks: Iterable[Chunk],
    accumulator: CSRAccumulator,
) -> None:
    """Run ``chunks`` on a backend, at most ``window`` of them in flight.

    ``submit`` starts one chunk; ``completed`` blocks until at least one
    has finished and returns ``(index, result or exception)`` for each.
    Results are merged on arrival; after a failure nothing more is drawn,
    the chunks in flight finish (their results still merge), and the
    failure of the lowest chunk index is raised.
    """
    chunks = iter(chunks)
    in_flight = 0
    drawing = True
    failure: Optional[tuple[int, BaseException]] = None
    while True:
        while drawing and in_flight < window:
            chunk = next(chunks, None)
            if chunk is None:
                drawing = False
            else:
                submit(chunk)
                in_flight += 1
        if not in_flight:
            break
        for index, outcome in completed():
            in_flight -= 1
            if not isinstance(outcome, BaseException):
                accumulator.add(outcome)
            elif failure is None or index < failure[0]:
                failure, drawing = (index, outcome), False
    if failure is not None:
        raise failure[1]


def _run_on_thread(done: SimpleQueue, task: ChunkTask, payload, fault_tolerant, chunk) -> None:
    """A pool thread's job: one chunk, posted to ``done`` as it completes."""
    try:
        outcome = task(payload, fault_tolerant, chunk.index, chunk.start_row, chunk.candidates)
    except BaseException as exc:
        # Posted, never swallowed: the scheduler raises it in the master,
        # which would otherwise wait forever for this chunk.
        outcome = exc
    done.put((chunk.index, outcome))


def run_plan(
    payload: object,
    candidates: Iterable,
    plan: ExecutionPlan,
    transform: Callable[[ChunkResult], ChunkResult] | None = None,
    task: ChunkTask = apply_chunk,
    spec: Optional["TaskSpec"] = None,
    checkpoint: Optional["ChunkCheckpointer"] = None,
) -> EngineResult:
    """Execute a chunk task over a candidate iterable under ``plan``.

    ``task`` defaults to :func:`apply_chunk` (the LF suite, with ``payload``
    the LF list); :mod:`repro.labeling.engine.tasks` provides featurization
    and the fused label+featurize task for the same backends.  The
    candidate iterable is consumed lazily (chunk in, CSR triple block out);
    only the emitted triples, per-chunk statistics, and the bounded
    in-flight window are held in memory.  ``transform`` (see
    :class:`CSRAccumulator`) sees each block on arrival, in the master.

    ``spec`` is the worker-shippable description of the task for the
    processes backend (see :class:`~repro.labeling.engine.runtime.TaskSpec`)
    — callers whose master-side ``payload`` cannot cross a pipe (e.g. a
    compiled pushdown plan) pass a spec whose ``builder`` re-derives the
    payload worker-side from shipped configuration.  In-process backends run
    ``task(payload, ...)`` directly and ignore it.

    ``checkpoint`` (a :class:`repro.labeling.blockstore.ChunkCheckpointer`)
    makes the run crash-safe and resumable: every fresh result is recorded
    durably *before* ``transform`` consumes it, and chunks the store already
    holds are never handed to a worker — their label triples are replayed
    from disk into the accumulator, through the same ``transform``, which
    is what makes a resumed run bit-identical to an uninterrupted one (a
    replayed chunk carries no feature block: the store serves those).
    Chunking is deterministic (fixed ``chunk_size`` over the same stream),
    so chunk indices are stable identities across runs.
    """
    if checkpoint is not None:
        inner = transform

        def transform(result: ChunkResult) -> ChunkResult:
            checkpoint.record(result)
            return inner(result) if inner is not None else result

    accumulator = CSRAccumulator(transform=transform)
    chunks = iter_chunks(candidates, plan.chunk_size)
    if checkpoint is not None and checkpoint.completed:

        def replay_or_yield(stream):
            # Replayed results enter through accumulator.add, so they run
            # the identical transform chain as fresh ones (record() is a
            # no-op for indices already durable).
            for chunk in stream:
                if chunk.index in checkpoint.completed:
                    accumulator.add(checkpoint.replay(chunk.index))
                else:
                    yield chunk

        chunks = replay_or_yield(chunks)
    if plan.backend == "sequential":
        for chunk in chunks:
            accumulator.add(
                task(payload, plan.fault_tolerant, chunk.index, chunk.start_row, chunk.candidates)
            )
    elif plan.backend == "threads":
        done: SimpleQueue = SimpleQueue()
        pool = ThreadPoolExecutor(max_workers=plan.effective_workers())
        try:
            schedule(
                lambda chunk: pool.submit(
                    _run_on_thread, done, task, payload, plan.fault_tolerant, chunk
                ),
                lambda: (done.get(),),
                plan.pending_limit(),
                chunks,
                accumulator,
            )
        finally:
            # Only an escaping exception leaves chunks queued here.
            pool.shutdown(cancel_futures=True)
    else:
        # Workers are not created per call: the per-process pool is borrowed
        # and the spec attached (a no-op when the same payload object was
        # attached before), so only chunk payloads travel.  An unpicklable
        # spec (closure LFs) still works under ``fork`` — the pool respawns
        # its workers once to inherit it; under ``spawn`` it must pickle.
        from repro.labeling.engine import runtime

        if spec is None:
            spec = runtime.TaskSpec(task=task, payload=payload)
        runtime.get_global_pool(plan.effective_workers()).run(
            replace(spec, fault_tolerant=plan.fault_tolerant),
            chunks,
            accumulator,
            chunk_timeout=plan.chunk_timeout,
        )
    result = accumulator.merge()
    result.backend = plan.backend
    result.num_workers = plan.effective_workers()
    result.transport = "pickle" if plan.backend == "processes" else "inline"
    return result
