"""The persistent worker runtime: long-lived processes fed over their pipes.

Before this module, the ``processes`` backend built a fresh
``ProcessPoolExecutor`` inside every ``apply`` call — even back-to-back
applies on the same suite paid full worker startup, and every chunk paid a
pickle round-trip through the pool's task queue.  The runtime replaces that
with a :class:`WorkerPool` of long-lived processes that is created once per
master process (see :func:`get_global_pool`), shared across pipeline stages
(apply → fused apply+featurize → featurize), and reaped at interpreter exit.

The pool ships *configuration, not objects*: a :class:`TaskSpec` describes a
chunk task once — the task function, its payload (LF suite, featurizer, …),
and an optional worker-side ``builder`` that derives the actual payload from
shipped configuration (e.g. compiling a pushdown plan from the LF list,
since compiled plans hold closures and cannot cross a pipe).  Workers build
the payload **once at attach time** and afterwards receive only chunk
payloads.  Attach is warm when the spec pickles; when it does not (LF
closures under the ``fork`` start method), the pool respawns its workers so
the spec is inherited by memory — the same trick the old executor played
with initializer args, but amortized across every subsequent run.

Chunks travel over each worker's duplex pipe: the master pickles a chunk's
candidates and sends the bytes, the worker sends back its pickled
:class:`ChunkResult`.  Each worker has at most one chunk in flight — with
two, a large candidate send could fill the pipe while the worker blocks
sending a large result the master is not reading, a deadlock.  A message
on the pipe is length-framed and arrives whole or not at all (the worker is
then dead), so nothing can be torn in transit; results are bit-identical to
the sequential run (``tests/test_engine_transport.py``).

The pool does not schedule: :meth:`WorkerPool.run` hands two hooks — submit
a chunk to an idle worker, report the chunks that finished — to the
engine's one scheduler (:func:`repro.labeling.engine.executors.schedule`),
the loop that also drives the thread backend and decides the window, the
draw order and which failure is raised.  What only a pool of processes has
stays behind the completion hook: the master waits on each worker's pipe
*and* process sentinel.  A worker that dies mid-run surfaces as
:class:`WorkerCrashError` (coded ``EN100``) naming the in-flight chunk; in
fault-tolerant mode the pool respawns a replacement and resubmits the lost
chunk (bounded by :data:`MAX_CHUNK_ATTEMPTS`), so to the scheduler the chunk
simply stays in flight.  The accumulator's duplicate-index guard means a
resubmitted chunk can never be merged twice, so the deterministic merge
survives crashes unchanged.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import time
import traceback
import warnings
from dataclasses import dataclass
from multiprocessing import connection, get_context
from typing import Callable, Iterable, Optional

from repro.exceptions import LabelingError
from repro.labeling.engine import faults
from repro.labeling.engine.accumulator import ChunkResult, CSRAccumulator
from repro.labeling.engine.executors import schedule
from repro.labeling.engine.plan import Chunk, check_count

__all__ = [
    "MAX_CHUNK_ATTEMPTS",
    "TaskSpec",
    "WorkerCrashError",
    "WorkerPool",
    "WorkerTimeoutError",
    "get_global_pool",
    "run_attached_chunk",
    "shutdown_pools",
]

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Times one chunk may be submitted before a worker crash becomes fatal even
#: in fault-tolerant mode (first attempt + one resubmission).
MAX_CHUNK_ATTEMPTS = 2

#: A chunk in flight past ``chunk_timeout`` seconds draws a warning; past
#: ``chunk_timeout * TIMEOUT_ESCALATION`` its worker is killed and the chunk
#: resubmitted (:class:`WorkerTimeoutError`, EN101).
TIMEOUT_ESCALATION = 2.0

#: Specs kept attached per pool before the least-recently-attached one is
#: detached (workers drop the built payload; the master forgets the spec id).
MAX_ATTACHED_SPECS = 8

class WorkerCrashError(LabelingError):
    """A pool worker died while chunks were in flight (engine error EN100).

    Unlike ``concurrent.futures.BrokenProcessPool`` this names the lost
    chunk, so the failure is actionable (which data, which attempt) and a
    fault-tolerant run knows exactly what to resubmit.
    """

    code = "EN100"

    def __init__(
        self, chunk_index: int, worker_pid: Optional[int], exit_code, attempts: int
    ) -> None:
        self.chunk_index = chunk_index
        self.worker_pid = worker_pid
        self.exit_code = exit_code
        self.attempts = attempts
        super().__init__(
            f"[{self.code}] worker process {worker_pid} (exit code {exit_code}) "
            f"died while chunk {chunk_index} was in flight "
            f"(attempt {attempts}/{MAX_CHUNK_ATTEMPTS})"
        )


class WorkerTimeoutError(WorkerCrashError):
    """A worker exceeded the per-chunk deadline and was killed (EN101).

    Raised (or, in fault-tolerant mode, retried) when a chunk stays in
    flight past ``chunk_timeout × `` :data:`TIMEOUT_ESCALATION` — the hung
    worker is SIGKILLed and handled through the same resubmission machinery
    as a crash, so a stuck LF (deadlocked I/O, runaway regex) can stall a
    run by at most the escalated deadline instead of forever.
    """

    code = "EN101"

    def __init__(
        self, chunk_index: int, worker_pid: Optional[int], timeout: float, attempts: int
    ) -> None:
        # Build the base message, then override with the timeout story.
        super().__init__(chunk_index, worker_pid, None, attempts)
        self.timeout = timeout
        self.args = (
            f"[{self.code}] worker process {worker_pid} exceeded the "
            f"{timeout:g}s chunk deadline on chunk {chunk_index} and was "
            f"killed (attempt {attempts}/{MAX_CHUNK_ATTEMPTS})",
        )


@dataclass(frozen=True)
class TaskSpec:
    """What a worker needs to run one kind of chunk task, shipped once.

    ``task`` is a chunk task (``apply_chunk`` signature).  ``payload`` is its
    first argument — or, when ``builder`` is given, the *configuration* from
    which each worker derives the first argument at attach time
    (``builder(payload)``), e.g. compiling a pushdown plan from the LF list.
    Workers cache the built payload, so attach cost is paid once per worker
    per spec, not per chunk.
    """

    task: Callable
    payload: object = None
    builder: Optional[Callable[[object], object]] = None
    fault_tolerant: bool = False


@dataclass
class _AttachedSpec:
    """A spec after worker-side attach: the task plus its built payload."""

    task: Callable
    payload: object
    fault_tolerant: bool


def run_attached_chunk(
    attached: _AttachedSpec,
    fault_tolerant: bool,
    index: int,
    start_row: int,
    candidates: list,
) -> ChunkResult:
    """Run one chunk against an attached spec (the pool's worker kernel).

    A pure dispatch with the standard chunk-task signature: it reads the
    attached spec and writes nothing, so the pool's hot path is as pure as
    the tasks it dispatches to (the ``processes == threads == sequential``
    contract row holds it to their outputs).
    """
    return attached.task(attached.payload, fault_tolerant, index, start_row, candidates)


def _build_attached(spec: TaskSpec) -> _AttachedSpec:
    payload = spec.builder(spec.payload) if spec.builder is not None else spec.payload
    return _AttachedSpec(
        task=spec.task, payload=payload, fault_tolerant=spec.fault_tolerant
    )


def _exc_payload(exc: BaseException) -> tuple:
    """Pack an exception for the pipe (picklable or not)."""
    try:
        blob = pickle.dumps(exc, _PICKLE_PROTOCOL)
    except Exception:
        blob = None
    return (blob, type(exc).__name__, str(exc), traceback.format_exc())


def _rebuild_exc(payload: tuple) -> BaseException:
    """Reconstruct a worker exception master-side.

    Picklable exceptions (the common case — ``LabelingError`` wrapping, user
    ``ZeroDivisionError``s, …) come back as the same type with the same
    message, so the exception a pool run raises matches the sequential run's
    bit for bit; the worker traceback rides along as ``remote_traceback``.
    """
    blob, type_name, message, remote_tb = payload
    if blob is not None:
        try:
            exc = pickle.loads(blob)
            exc.remote_traceback = remote_tb
            return exc
        except Exception:
            pass
    exc = LabelingError(f"worker task raised {type_name}: {message}\n{remote_tb}")
    exc.remote_traceback = remote_tb
    return exc


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def _worker_main(conn, inherited_specs: dict) -> None:
    """The worker loop: attach specs, run chunks, ship results back.

    ``inherited_specs`` arrived through the ``fork`` start method (by
    memory, never pickled) so closure-built payloads work; later specs
    arrive as ``("attach", sid, bytes)`` messages when they pickle.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    master_pid = os.getppid()
    attached: dict[int, _AttachedSpec] = {}
    broken: dict[int, tuple] = {}

    def build(sid, spec) -> None:
        try:
            attached[sid] = _build_attached(spec)
        except Exception as exc:
            broken[sid] = _exc_payload(exc)
            conn.send(("attach_error", sid, broken[sid]))

    try:
        for sid, spec in inherited_specs.items():
            build(sid, spec)
        while True:
            try:
                # A blocking recv() would never see EOF after the master is
                # SIGKILLed — sibling workers hold inherited write ends of
                # this pipe — so poll with a timeout and watch for the
                # master's death (reparenting changes our ppid).
                while not conn.poll(1.0):
                    if os.getppid() != master_pid:  # pragma: no cover
                        return
                msg = conn.recv()
            except (EOFError, OSError):  # pragma: no cover - master vanished
                break
            kind = msg[0]
            if kind == "close":
                break
            if kind == "attach":
                _, sid, spec_blob = msg
                try:
                    spec = pickle.loads(spec_blob)
                except Exception as exc:
                    broken[sid] = _exc_payload(exc)
                    conn.send(("attach_error", sid, broken[sid]))
                    continue
                build(sid, spec)
            elif kind == "detach":
                attached.pop(msg[1], None)
                broken.pop(msg[1], None)
            elif kind == "task":
                _, sid, index, start_row, blob = msg
                conn.send(_worker_run_task(attached, broken, sid, index, start_row, blob))
    finally:
        conn.close()


def _worker_run_task(attached, broken, sid, index, start_row, blob) -> tuple:
    """One chunk, decoded, run and encoded: the message to send back.

    Every failure on the way — candidates that do not unpickle, the task
    raising, a result that does not pickle — is a per-chunk ``error``
    naming the cause.  Raised here, it would kill the worker and surface as
    an opaque EN100 crash (and a doomed fault-tolerant resubmission).
    """
    decode_start = time.perf_counter()
    try:
        candidates = pickle.loads(blob)
    except Exception as exc:
        return ("error", index, _exc_payload(exc))
    transport_seconds = time.perf_counter() - decode_start

    # Deterministic fault injection (no-op without an installed plan):
    # SIGKILL or hang this worker on the configured chunk index.
    faults.maybe_fail_chunk(index)

    spec = attached.get(sid)
    if spec is None:
        missing = LabelingError(f"task spec {sid} is not attached to this worker")
        return ("error", index, broken.get(sid) or _exc_payload(missing))
    try:
        result = run_attached_chunk(spec, spec.fault_tolerant, index, start_row, candidates)
        encode_start = time.perf_counter()
        blob = pickle.dumps(result, _PICKLE_PROTOCOL)
    except Exception as exc:
        return ("error", index, _exc_payload(exc))
    transport_seconds += time.perf_counter() - encode_start
    return ("result", index, blob, transport_seconds)


# --------------------------------------------------------------------------
# Master side
# --------------------------------------------------------------------------


@dataclass
class _InFlight:
    chunk: Chunk
    attempts: int
    submit_seconds: float
    #: ``time.monotonic()`` at submission — the chunk-timeout reference point.
    started: float = 0.0
    #: Whether the soft-deadline warning for this entry already fired.
    warned: bool = False


@dataclass(eq=False)
class _Worker:
    """Master-side handle on one pool process (identity-hashed)."""

    process: object
    conn: object
    #: The one chunk this worker is running, if any.
    pending: Optional[_InFlight] = None


class WorkerPool:
    """A persistent pool of chunk-task workers with spec attach semantics.

    Lifecycle: construct (no processes yet) → :meth:`attach` a
    :class:`TaskSpec` (first attach spawns the workers; unpicklable specs
    respawn them so ``fork`` inherits the payload) → :meth:`run` chunk
    streams against it, any number of times, across pipeline stages →
    :meth:`close` (also wired to ``atexit`` for pools from
    :func:`get_global_pool`).  ``close`` is not terminal: the next attach
    simply respawns.
    """

    def __init__(self, num_workers: int) -> None:
        check_count("num_workers", num_workers)
        self.num_workers = num_workers
        #: Processes spawned over the pool's lifetime — the single-spawn
        #: regression probe (one pipeline run must not exceed num_workers).
        self.total_spawned = 0
        self._owner_pid = os.getpid()
        if "fork" in __import__("multiprocessing").get_all_start_methods():
            self._ctx = get_context("fork")
        else:  # pragma: no cover - non-fork platforms
            self._ctx = get_context()
        self._workers: list[_Worker] = []
        self._specs: dict[int, TaskSpec] = {}
        self._spec_ids: dict[tuple, int] = {}
        self._next_spec_id = 0
        self._spawn_serial = 0
        self._running = False
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    def _spawn_worker(self) -> _Worker:
        serial = self._spawn_serial
        self._spawn_serial += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, dict(self._specs)),
            daemon=True,
            name=f"repro-engine-worker-{serial}",
        )
        process.start()
        child_conn.close()
        self.total_spawned += 1
        return _Worker(process=process, conn=parent_conn)

    def _ensure_workers(self) -> None:
        while len(self._workers) < self.num_workers:
            self._workers.append(self._spawn_worker())
        self._closed = False

    def _destroy_worker(self, worker: _Worker, join_timeout: float = 1.0) -> None:
        """Release one worker's master-side resources (process already exiting)."""
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        worker.process.join(timeout=join_timeout)
        if worker.process.is_alive():  # pragma: no cover - stuck worker
            worker.process.terminate()
            worker.process.join(timeout=1.0)

    def _retire_workers(self, join_timeout: float = 1.0) -> None:
        """Ask every worker to exit, then reap them all."""
        for worker in self._workers:
            try:
                worker.conn.send(("close",))
            except (OSError, BrokenPipeError):
                pass
        for worker in list(self._workers):
            self._destroy_worker(worker, join_timeout=join_timeout)

    def close(self) -> None:
        """Stop all workers and forget every attached spec.

        Idempotent: the atexit hook and an explicit user ``close`` may both
        run (in either order); the second invocation returns at once.  Not
        terminal — a later attach/run respawns workers (and re-arms the
        close).
        """
        if os.getpid() != self._owner_pid:  # pragma: no cover - forked child
            return
        if self._closed and not self._workers:
            return
        self._closed = True
        self._retire_workers(join_timeout=5.0)
        self._specs.clear()
        self._spec_ids.clear()

    # ---------------------------------------------------------------- attach
    def _spec_key(self, spec: TaskSpec) -> tuple:
        return (spec.task, id(spec.payload), spec.builder, spec.fault_tolerant)

    def attach(self, spec: TaskSpec) -> int:
        """Register a spec with the pool; returns its id.  Idempotent per
        ``(task, payload identity, builder, fault policy)`` — repeat applies
        on the same suite reuse the worker-side built payload."""
        key = self._spec_key(spec)
        sid = self._spec_ids.get(key)
        if sid is not None:
            return sid
        sid = self._next_spec_id
        self._next_spec_id += 1
        while len(self._specs) >= MAX_ATTACHED_SPECS:
            self._detach(min(self._specs))
        self._specs[sid] = spec
        self._spec_ids[key] = sid
        if not self._workers:
            return sid
        try:
            blob = pickle.dumps(spec, _PICKLE_PROTOCOL)
        except Exception:
            # Unpicklable payload (closures, compiled plans): respawn so the
            # fork start method hands workers the spec by memory.
            self._respawn_generation()
            return sid
        for worker in list(self._workers):
            try:
                worker.conn.send(("attach", sid, blob))
            except (OSError, BrokenPipeError):
                # The worker died silently between runs; destroy it so the
                # next run's _ensure_workers respawns a replacement (which
                # inherits every registered spec, this one included).
                self._destroy_worker(worker)
        return sid

    def _detach(self, sid: int) -> None:
        spec = self._specs.pop(sid, None)
        if spec is not None:
            self._spec_ids.pop(self._spec_key(spec), None)
            for worker in self._workers:
                try:
                    worker.conn.send(("detach", sid))
                except (OSError, BrokenPipeError):  # pragma: no cover
                    pass

    def _respawn_generation(self) -> None:
        self._retire_workers(join_timeout=5.0)
        self._ensure_workers()

    # ------------------------------------------------------------------- run
    def run(
        self,
        spec: TaskSpec,
        chunks: Iterable[Chunk],
        accumulator: CSRAccumulator,
        chunk_timeout: Optional[float] = None,
    ) -> None:
        """Run a chunk stream against ``spec``, feeding the accumulator.

        The pool attaches ``spec``, then hands :meth:`_submit` and
        :meth:`_completed` to the engine's one scheduler
        (:func:`repro.labeling.engine.executors.schedule`) with a window of
        one chunk per worker, so generator inputs stay out-of-core.

        ``chunk_timeout`` bounds how long any chunk may stay in flight: past
        the deadline its worker draws a warning, and past ``chunk_timeout ×``
        :data:`TIMEOUT_ESCALATION` the worker is killed and the chunk
        resubmitted under the crash machinery (:class:`WorkerTimeoutError`,
        EN101) — a hung worker can no longer stall the run forever.  ``None``
        (default) waits indefinitely.  An exception that escapes with chunks
        still in flight (unpicklable candidates, a raising accumulator
        transform) retires the whole worker generation: a late result must
        not reach the next run on this shared pool.
        """
        if self._running:
            raise LabelingError("WorkerPool.run is not reentrant")
        self._sid = self.attach(spec)
        self._ensure_workers()
        self._fault_tolerant = spec.fault_tolerant
        self._chunk_timeout = chunk_timeout
        self._heal_pending = self._healed = False
        self._running = True
        try:
            schedule(self._submit, self._completed, self.num_workers, chunks, accumulator)
        finally:
            self._running = False
            if self._busy():
                self._retire_workers()

    def _busy(self) -> list[_Worker]:
        return [worker for worker in self._workers if worker.pending is not None]

    def _submit(self, chunk: Chunk, attempts: int = 1) -> None:
        """Send one chunk to an idle worker, spawning one if none is left."""
        self._ensure_workers()
        worker = next(worker for worker in self._workers if worker.pending is None)
        start = time.perf_counter()
        blob = pickle.dumps(chunk.candidates, _PICKLE_PROTOCOL)
        worker.conn.send(("task", self._sid, chunk.index, chunk.start_row, blob))
        worker.pending = _InFlight(
            chunk, attempts, time.perf_counter() - start, started=time.monotonic()
        )

    def _completed(self) -> list[tuple[int, object]]:
        """Wait for chunks to finish; ``(index, result or exception)`` each.

        The pool's pump: it waits on every worker's pipe and process
        sentinel.  A dead or deadline-killed worker is reaped, and its chunk
        either resubmitted (fault-tolerant, under :data:`MAX_CHUNK_ATTEMPTS`)
        or reported as EN100 / EN101.  A spec that fails to attach respawns
        the generation once and reruns the chunks in flight on it.
        """
        outcomes: list[tuple[int, object]] = []
        while not outcomes:
            by_waitable = {}
            for worker in self._workers:
                by_waitable[worker.conn] = worker
                by_waitable[worker.process.sentinel] = worker
            ready = connection.wait(list(by_waitable), timeout=self._next_deadline())
            for worker in {by_waitable[obj] for obj in ready}:
                dead = False
                while not dead:
                    try:
                        if not worker.conn.poll():
                            break
                        msg = worker.conn.recv()
                    except (EOFError, OSError):
                        dead = True
                    else:
                        self._receive(worker, msg, outcomes)
                if dead or not worker.process.is_alive():
                    self._bury(worker, outcomes)
            if self._chunk_timeout is not None:
                self._enforce_deadlines(outcomes)
            if self._heal_pending:
                self._heal_pending, self._healed = False, True
                lost = [worker.pending for worker in self._busy()]
                self._respawn_generation()
                for entry in lost:
                    self._submit(entry.chunk, entry.attempts)
        return outcomes

    def _receive(self, worker: _Worker, msg, outcomes: list) -> None:
        kind = msg[0]
        if kind == "attach_error":
            # A spec that pickled master-side can still fail to load in a
            # worker forked before its definitions existed (e.g. suites built
            # in __main__ after the pool warmed up).  Fork-respawning is
            # guaranteed to attach — the spec travels by memory — so heal
            # once per run.  A second failure reaches the scheduler as each
            # chunk's error, which carries the attach exception.
            if msg[1] == self._sid and not self._healed:
                self._heal_pending = True
        elif kind == "result":
            _, index, blob, worker_seconds = msg
            entry, worker.pending = worker.pending, None
            start = time.perf_counter()
            result = pickle.loads(blob)
            result.transport_seconds = (
                worker_seconds + entry.submit_seconds + time.perf_counter() - start
            )
            outcomes.append((index, result))
        elif not self._heal_pending:
            # With a heal pending, a task error is attach fallout: the entry
            # stays pending and reruns on the respawned generation.
            _, index, payload = msg
            worker.pending = None
            outcomes.append((index, _rebuild_exc(payload)))

    def _bury(self, worker: _Worker, outcomes: list, timed_out: bool = False) -> None:
        """Reap a dead worker; resubmit or report the chunk it held."""
        entry = worker.pending
        pid = worker.process.pid
        self._destroy_worker(worker)
        if entry is None:
            return
        index = entry.chunk.index
        if self._fault_tolerant and entry.attempts < MAX_CHUNK_ATTEMPTS:
            self._submit(entry.chunk, entry.attempts + 1)
        elif timed_out:
            outcomes.append(
                (index, WorkerTimeoutError(index, pid, self._chunk_timeout, entry.attempts))
            )
        else:
            outcomes.append(
                (index, WorkerCrashError(index, pid, worker.process.exitcode, entry.attempts))
            )

    def _next_deadline(self) -> Optional[float]:
        """Earliest pending warn/kill deadline, as a ``wait`` timeout."""
        busy = self._busy()
        if self._chunk_timeout is None or not busy:
            return None
        soonest = min(
            worker.pending.started
            + self._chunk_timeout * (TIMEOUT_ESCALATION if worker.pending.warned else 1.0)
            for worker in busy
        )
        return max(0.0, soonest - time.monotonic())

    def _enforce_deadlines(self, outcomes: list) -> None:
        """Warn on, then kill, workers whose chunk overstayed; a kill is
        buried like a crash, with the chunk coded EN101."""
        timeout = self._chunk_timeout
        now = time.monotonic()
        for worker in self._busy():
            entry = worker.pending
            age = now - entry.started
            if age >= timeout * TIMEOUT_ESCALATION:
                worker.process.kill()
                worker.process.join()
                self._bury(worker, outcomes, timed_out=True)
            elif age >= timeout and not entry.warned:
                entry.warned = True
                warnings.warn(
                    f"chunk {entry.chunk.index} has been in flight "
                    f"{age:.1f}s on worker {worker.process.pid} (deadline "
                    f"{timeout:g}s); the worker will be killed at "
                    f"{timeout * TIMEOUT_ESCALATION:g}s",
                    RuntimeWarning,
                    stacklevel=2,
                )


# --------------------------------------------------------------------------
# Global registry
# --------------------------------------------------------------------------

_POOLS: dict[int, WorkerPool] = {}


def get_global_pool(num_workers: int) -> WorkerPool:
    """The per-process pool for ``num_workers`` — created once, then shared
    by every pipeline stage and ``apply`` call, and reaped at exit."""
    pool = _POOLS.get(num_workers)
    if pool is None:
        pool = WorkerPool(num_workers)
        _POOLS[num_workers] = pool
    return pool


def shutdown_pools() -> None:
    """Close every registry pool and empty the registry (wired to ``atexit``).

    Dropping the registry entries (rather than keeping closed pools around)
    makes the call a full reset: the next :func:`get_global_pool` starts a
    fresh pool whose ``total_spawned`` counts from zero, which is what the
    single-spawn regression tests measure against.
    """
    for pool in _POOLS.values():
        pool.close()
    _POOLS.clear()


# Ordering matters: atexit hooks run LIFO, and multiprocessing registers its
# own teardown (which terminates daemonic children) when
# ``multiprocessing.util`` is first imported.  Importing it explicitly *before*
# registering shutdown_pools guarantees the pools close their workers
# first — each is asked to exit and reaped — rather than finding them
# already terminated.
import multiprocessing.util  # noqa: E402  (ordering-sensitive, see above)

atexit.register(shutdown_pools)
