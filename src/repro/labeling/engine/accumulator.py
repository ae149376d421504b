"""Per-chunk labeling results and their out-of-core CSR accumulation.

Workers never touch the global label matrix: :func:`apply_chunk` runs the LF
suite over one chunk and returns a :class:`ChunkResult` holding the chunk's
non-abstain entries as *local* ``(row_offset, col, value)`` triple arrays plus
its suppressed-error counts and wall-clock time.  The engine's scheduler
feeds every result into a :class:`CSRAccumulator` as it arrives, which
re-sorts by chunk index and concatenates the triple blocks with their
global row offsets applied — a merge that is O(nnz) and independent of
scheduling, so the :class:`EngineResult` it returns (the
one record of a run: merged triples plus statistics) is deterministic for
every backend.  Λ has no other sink: the applier builds the label matrix
from these triples, whatever storage the caller asked for.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import LabelingError
from repro.types import ABSTAIN


@dataclass
class LFErrorDetail:
    """Per-LF record of the exceptions a fault-tolerant run suppressed.

    ``count`` mirrors the plain error tally; ``type_counts`` breaks it down
    by exception class name, and ``first_traceback`` retains the formatted
    traceback of the *first* suppressed exception (in chunk order) so
    analyzer warnings can be correlated with the runtime failure they
    predicted without re-running the LF.
    """

    count: int = 0
    type_counts: dict[str, int] = field(default_factory=dict)
    first_traceback: Optional[str] = None

    def record(self, exc_type_name: str, formatted_traceback: str) -> None:
        self.count += 1
        self.type_counts[exc_type_name] = self.type_counts.get(exc_type_name, 0) + 1
        if self.first_traceback is None:
            self.first_traceback = formatted_traceback

    def merge(self, other: "LFErrorDetail") -> None:
        """Fold ``other`` into this record (callers iterate in chunk order)."""
        self.count += other.count
        for name, count in other.type_counts.items():
            self.type_counts[name] = self.type_counts.get(name, 0) + count
        if self.first_traceback is None:
            self.first_traceback = other.first_traceback


@dataclass
class ChunkResult:
    """Triples emitted by one chunk, in chunk-local coordinates.

    The values are integer labels for the LF-application task and float
    feature values for the featurization task — the accumulator is
    dtype-agnostic.  A fused task (labels *and* features in one pass over
    the chunk) attaches its secondary block as ``features``; the primary
    triples always describe the label matrix.
    """

    index: int
    start_row: int
    num_candidates: int
    row_offsets: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    errors: dict[str, int] = field(default_factory=dict)
    #: Exception breakdown behind ``errors``: per-LF type counts plus the
    #: chunk's first retained traceback (fault-tolerant runs only).
    error_details: dict[str, LFErrorDetail] = field(default_factory=dict)
    seconds: float = 0.0
    #: Per-LF wall-clock seconds spent inside this chunk, keyed by LF name
    #: (``None`` for tasks that don't track it, e.g. featurization).
    lf_seconds: Optional[dict[str, float]] = None
    #: Wall-clock seconds spent moving this chunk between processes —
    #: pickling and unpickling candidates and result, summed over both
    #: directions.  ``0.0`` for in-process execution, where no
    #: transport happens; disjoint from ``seconds`` (pure compute).
    transport_seconds: float = 0.0
    #: Secondary triple block produced by a fused chunk task (e.g. the CSR
    #: feature block riding along with the labels); consumed master-side by
    #: a :class:`CSRAccumulator` ``transform`` and never merged here.
    features: "ChunkResult | None" = None


def detach_arrays(result: ChunkResult) -> tuple[ChunkResult, list[np.ndarray]]:
    """Split a result into (array-free metadata, its triple arrays).

    The block store writes the returned arrays as the blocks of a checkpoint
    record and pickles only the metadata; the array order is fixed (primary
    ``row_offsets, cols, values``, then the same three for an attached
    ``features`` block) so :func:`attach_arrays` can reassemble the result
    from positional arrays.  The original result is not mutated.
    """
    arrays = [result.row_offsets, result.cols, result.values]
    features = result.features
    if features is not None:
        arrays.extend([features.row_offsets, features.cols, features.values])
        features = replace(features, row_offsets=None, cols=None, values=None)
    meta = replace(
        result, row_offsets=None, cols=None, values=None, features=features
    )
    return meta, arrays


def attach_arrays(meta: ChunkResult, arrays: list[np.ndarray]) -> ChunkResult:
    """Inverse of :func:`detach_arrays`: claim stored arrays back."""
    result = replace(
        meta, row_offsets=arrays[0], cols=arrays[1], values=arrays[2]
    )
    if result.features is not None:
        result.features = replace(
            result.features,
            row_offsets=arrays[3],
            cols=arrays[4],
            values=arrays[5],
        )
    return result


def apply_chunk(
    lfs: Sequence,
    fault_tolerant: bool,
    index: int,
    start_row: int,
    candidates: Sequence,
) -> ChunkResult:
    """Run every LF over one chunk of candidates (the worker kernel)."""
    start = time.perf_counter()
    row_offsets: list[int] = []
    cols: list[int] = []
    values: list[int] = []
    errors: dict[str, int] = {}
    error_details: dict[str, LFErrorDetail] = {}
    lf_times = [0.0] * len(lfs)
    for offset, candidate in enumerate(candidates):
        for column, lf in enumerate(lfs):
            lf_start = time.perf_counter()
            # Catch every Exception, not just LabelingError: user LFs are
            # black boxes and may raise anything (KeyError, AttributeError,
            # ...).  KeyboardInterrupt/SystemExit are not Exception
            # subclasses and still propagate.
            try:
                label = lf(candidate)
            except Exception as exc:
                if not fault_tolerant:
                    raise
                errors[lf.name] = errors.get(lf.name, 0) + 1
                detail = error_details.setdefault(lf.name, LFErrorDetail())
                # LabelingError wraps the user exception; report the original
                # class so the breakdown matches what the LF actually raised.
                cause = exc.__cause__ if isinstance(exc, LabelingError) and exc.__cause__ else exc
                detail.record(type(cause).__name__, traceback.format_exc())
                label = ABSTAIN
            lf_times[column] += time.perf_counter() - lf_start
            if label != ABSTAIN:
                row_offsets.append(offset)
                cols.append(column)
                values.append(label)
    return ChunkResult(
        index=index,
        start_row=start_row,
        num_candidates=len(candidates),
        row_offsets=np.asarray(row_offsets, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64),
        values=np.asarray(values, dtype=np.int64),
        errors=errors,
        error_details=error_details,
        seconds=time.perf_counter() - start,
        lf_seconds={lf.name: lf_times[column] for column, lf in enumerate(lfs)},
    )


@dataclass
class EngineResult:
    """Everything one engine run produced: global CSR triples + statistics.

    :meth:`CSRAccumulator.merge` fills in what the chunks determine;
    :func:`repro.labeling.engine.executors.run_plan` adds how they were run
    (``backend``, ``num_workers``, the chunk ``transport``).
    """

    num_candidates: int
    num_chunks: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    errors: dict[str, int]
    error_details: dict[str, LFErrorDetail]
    chunk_seconds: list[float]
    #: Per-LF wall-clock totals summed over chunks (empty when the task did
    #: not report per-LF timings, e.g. pure featurization).
    lf_seconds: dict[str, float] = field(default_factory=dict)
    #: Per-chunk serialization/copy seconds, in chunk order — disjoint from
    #: ``chunk_seconds`` (pure compute), so transport overhead is
    #: attributable per run (all zeros for in-process execution; see
    #: :attr:`ChunkResult.transport_seconds`).
    transport_seconds: list[float] = field(default_factory=list)
    backend: str = "sequential"
    num_workers: int = 1
    #: Chunk transport: ``"inline"`` for in-process backends, ``"pickle"``
    #: (pickled bytes over each worker's pipe) for the processes backend.
    transport: str = "inline"


class CSRAccumulator:
    """Collects :class:`ChunkResult` blocks and merges them deterministically.

    Blocks are added as :func:`repro.labeling.engine.executors.schedule`
    sees them complete — on the pool backends that is not chunk order — and
    replayed checkpoint blocks as they are drawn.  The merge sorts by chunk
    index, applies each block's global row offset, and sums error counts in
    chunk order, so every backend produces
    the same triples, the same error totals, and the same per-chunk timing
    sequence.  Memory is O(nnz) — the candidate chunks themselves are
    released as soon as their triples are extracted.

    ``transform``, when given, is applied to every block on arrival (always
    in the master thread/process) and its return value is stored instead —
    how the fused pass claims each chunk's ``features`` block, and where a
    checkpointer makes the chunk durable first.
    """

    def __init__(self, transform: Optional[Callable[[ChunkResult], ChunkResult]] = None) -> None:
        self._results: dict[int, ChunkResult] = {}
        self._transform = transform

    def add(self, result: ChunkResult) -> None:
        """Record one chunk's output."""
        if result.index in self._results:
            raise LabelingError(f"chunk {result.index} accumulated twice")
        if self._transform is not None:
            result = self._transform(result)
        self._results[result.index] = result

    def merge(self) -> EngineResult:
        """Combine all blocks into globally indexed CSR triples."""
        ordered = [self._results[index] for index in sorted(self._results)]
        expected_row = 0
        for result in ordered:
            if result.start_row != expected_row:
                raise LabelingError(
                    f"chunk {result.index} starts at row {result.start_row}, "
                    f"expected {expected_row} (missing or duplicated chunk?)"
                )
            expected_row += result.num_candidates
        rows = [result.row_offsets + result.start_row for result in ordered]
        errors: dict[str, int] = {}
        error_details: dict[str, LFErrorDetail] = {}
        lf_seconds: dict[str, float] = {}
        for result in ordered:
            for name, count in result.errors.items():
                errors[name] = errors.get(name, 0) + count
            # Chunk order makes the retained "first" traceback deterministic
            # for every backend, whatever the completion order was.
            for name, detail in result.error_details.items():
                error_details.setdefault(name, LFErrorDetail()).merge(detail)
            if result.lf_seconds:
                for name, spent in result.lf_seconds.items():
                    lf_seconds[name] = lf_seconds.get(name, 0.0) + spent
        empty = np.empty(0, dtype=np.int64)
        return EngineResult(
            num_candidates=expected_row,
            num_chunks=len(ordered),
            rows=np.concatenate(rows) if rows else empty,
            cols=np.concatenate([r.cols for r in ordered]) if ordered else empty,
            values=np.concatenate([r.values for r in ordered]) if ordered else empty,
            errors=errors,
            error_details=error_details,
            chunk_seconds=[result.seconds for result in ordered],
            lf_seconds=lf_seconds,
            transport_seconds=[result.transport_seconds for result in ordered],
        )
