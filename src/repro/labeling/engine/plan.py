"""Execution plans: how a candidate stream is partitioned into work units.

An :class:`ExecutionPlan` is the declarative half of the labeling execution
engine — it fixes the chunking policy (how many candidates per work unit),
the executor backend (``sequential`` / ``threads`` / ``processes``), the
worker count, and the fault policy, without referencing any particular
candidate set.  :func:`iter_chunks` turns any candidate iterable into a lazy
stream of :class:`Chunk` work units; a ``Sequence`` input is sliced without
copying the whole list, and a generator is consumed incrementally via
``itertools.islice`` so the full candidate list is never materialized.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from repro.exceptions import LabelingError

#: Executor backends understood by the engine.
BACKENDS = ("sequential", "threads", "processes")


class Chunk(NamedTuple):
    """One work unit: a contiguous run of candidates with its global offset."""

    index: int
    start_row: int
    candidates: list


def check_count(name: str, value) -> None:
    """Refuse anything but an integer >= 1 (``True`` included) for ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise LabelingError(f"{name} must be an integer >= 1, got {value!r}")


def available_workers() -> int:
    """Number of CPUs this process may use (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ExecutionPlan:
    """Chunking / partitioning policy of one labeling execution.

    Parameters
    ----------
    chunk_size:
        Candidates per work unit.  Results are independent of this value; it
        trades scheduling overhead against pipeline granularity.
    backend:
        ``"sequential"`` (in-process loop), ``"threads"``
        (``concurrent.futures.ThreadPoolExecutor`` — effective for
        latency-bound LFs that release the GIL or wait on I/O), or
        ``"processes"`` (the persistent worker pool of
        :mod:`repro.labeling.engine.runtime`, shared by every run of this
        process — effective for CPU-bound LFs; candidates must be
        picklable).
    num_workers:
        Worker count for the pool backends; ``None`` means one worker per
        available CPU.  Ignored by the sequential backend.
    fault_tolerant:
        When ``True``, LF exceptions are counted per LF name and converted
        to abstentions; when ``False`` the first exception aborts the run.
    chunk_timeout:
        Soft per-chunk deadline in seconds for the processes backend: a
        chunk in flight past the deadline draws a warning, and past the
        escalation point its worker is killed and the chunk resubmitted
        under the crash machinery (EN101; see
        :class:`repro.labeling.engine.runtime.WorkerTimeoutError`).
        ``None`` (default) waits indefinitely; ignored by the in-process
        backends, which cannot kill a hung task.
    """

    chunk_size: int = 1024
    backend: str = "sequential"
    num_workers: Optional[int] = 1
    fault_tolerant: bool = False
    chunk_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        # Validated here, once per plan, because the scheduler trusts these
        # values: a NaN deadline would make the pool poll with timeout 0.
        check_count("chunk_size", self.chunk_size)
        check_count("num_workers", 1 if self.num_workers is None else self.num_workers)
        timeout = self.chunk_timeout
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, numbers.Real)
            or not 0 < timeout < math.inf
        ):
            raise LabelingError(
                f"chunk_timeout must be a finite number > 0 or None, got {timeout!r}"
            )
        if self.backend not in BACKENDS:
            raise LabelingError(
                f"unknown executor backend {self.backend!r}; expected one of {BACKENDS}"
            )

    def effective_workers(self) -> int:
        """Worker count the backend will actually use."""
        if self.backend == "sequential":
            return 1
        if self.num_workers is None:
            return available_workers()
        return self.num_workers

    def pending_limit(self) -> int:
        """The scheduler's window: the most chunks this plan has in flight.

        Drawn but not yet merged chunks are all a generator-fed run holds,
        so the window keeps it out-of-core.  Two per thread, so no thread
        waits on the master; one per worker process, because a second
        chunk on a busy worker could deadlock its pipe
        (:mod:`repro.labeling.engine.runtime`); one for the sequential loop.
        """
        workers = self.effective_workers()
        return 2 * workers if self.backend == "threads" else workers


def iter_chunks(candidates: Iterable, chunk_size: int) -> Iterator[Chunk]:
    """Lazily partition any candidate iterable into :class:`Chunk` units.

    Sequences are sliced (no full copy of the container beyond the slice
    views); other iterables — generators, database cursors — are consumed
    chunk by chunk, so memory holds at most the chunks currently in flight.
    ``chunk_size`` must be an integer >= 1 (:class:`LabelingError`).
    """
    check_count("chunk_size", chunk_size)
    if isinstance(candidates, Sequence):
        for index, start in enumerate(range(0, len(candidates), chunk_size)):
            yield Chunk(index, start, list(candidates[start : start + chunk_size]))
        return
    iterator = iter(candidates)
    start = 0
    for index in itertools.count():
        block = list(itertools.islice(iterator, chunk_size))
        if not block:
            return
        yield Chunk(index, start, block)
        start += len(block)
