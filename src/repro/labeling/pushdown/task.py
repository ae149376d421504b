"""The pushdown chunk task: compiled-kernel LF application over the engine.

:func:`decide` is the one answer to "is this LF compiled, and if not why",
asked once per LF object per process (:func:`decision`, revalidated on every
use); :func:`build_plan` partitions an LF suite with it into compiled
programs and interpreted fallbacks, producing a :class:`PushdownPlan`, and
``analyze_lf``'s ``COMPILABLE`` / ``OPAQUE`` verdict reads the same memo
entry.  Nothing here lints: the compiler alone decides what compiles.

The plan is the payload of :func:`label_chunk_pushdown`, a drop-in
:data:`~repro.labeling.engine.executors.ChunkTask`: same signature, same
:class:`~repro.labeling.engine.accumulator.ChunkResult` contract, same
deterministic CSR triples — so it composes unchanged with the sequential /
threads / processes backends, the engine's one scheduler, the accumulator
merge, and the fused wrapper
:func:`~repro.labeling.engine.tasks.label_and_featurize_chunk`, which takes
it as its label task (labels + features in one pass).

Equivalence contract (enforced by ``tests/test_pushdown.py``): for any
suite, chunking, and backend, the triples, error counts, and error type
breakdowns are **bit-identical** to :func:`apply_chunk`.  The chunk's labels
go into one row-major ``(rows, LFs)`` matrix, each LF's column written
whole, and one ``nonzero`` reads the triples off it in the (row, col) order
the interpreted candidate-major scan emits them.  Errors are reported in the
order that scan meets them — each LF at its first failing row, ties by
column — per LF and per exception type, and a non-fault-tolerant run raises
the first of them, as the interpreted scan would.
"""

from __future__ import annotations

import inspect
import operator
import time
import traceback
import weakref
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, NamedTuple, Optional, Sequence

import numpy as np

from repro.exceptions import LabelingError
from repro.labeling.engine.accumulator import ChunkResult, LFErrorDetail
from repro.labeling.lf import LabelingFunction, code_names, encoding
from repro.labeling.pushdown.compiler import CompileError, compile_lf
from repro.labeling.pushdown.fields import ColumnarChunk
from repro.labeling.pushdown.program import CompiledProgram, token_groups
from repro.labeling.source import resolve_function
from repro.types import ABSTAIN

__all__ = [
    "CompiledLF",
    "PushdownPlan",
    "PushdownSummary",
    "build_plan",
    "build_worker_payload",
    "decide",
    "decision",
    "label_chunk_pushdown",
]


@dataclass
class CompiledLF:
    """One LF compiled to a columnar program, with its matrix column."""

    name: str
    column: int
    program: CompiledProgram


_UNBOUND = object()


class _ConstantRefs:
    """What deciding one LF read, so a later use can tell whether it still holds.

    Compilation folds closure cells, module globals, parameter defaults and
    a callable instance's attributes into the program, and a fold may read
    into a constant: an attribute, a subscript, ``len``, truthiness,
    membership, an eager call.  :meth:`changed` re-reads every one of those
    places.  A rebinding is caught by identity (the objects are held: an
    ``id()`` is reused once its object is freed); an unhashable constant
    whose contents a fold read — a list, dict or set, or a tuple holding one
    — is re-encoded, everything it holds included
    (:func:`repro.labeling.lf.encoding`), and compared with its encoding
    then (``CompiledProgram.reads``).  A constant the kernels read only when
    they evaluate (``TokenMatch``'s vocabulary, a membership test's container)
    needs no encoding.  Nothing here refers to the LF itself — the
    memo holding it is keyed weakly on the LF — so :meth:`changed` is
    handed the LF.
    """

    __slots__ = ("function", "names", "seen", "reads")

    def __init__(self, lf: Any, program: Optional[CompiledProgram]) -> None:
        function = resolve_function(lf)
        function = function if inspect.isfunction(function) else None
        # A plain function analyzed as an LF is its own body: it is read, not held.
        self.function = _UNBOUND if function is lf else function
        self.names = code_names(function.__code__) if function else []
        self.seen = self._read(lf)
        self.reads = program.reads if program is not None else ((), ())

    def _read(self, lf: Any) -> list:
        inner = getattr(lf, "function", lf)
        attributes = getattr(inner, "__dict__", {})
        # A duck-typed LF is its own body: its attributes are read, not it.
        refs = [inner if inner is not lf else None, getattr(lf, "name", None)]
        refs += [*attributes, *attributes.values()]
        function = lf if self.function is _UNBOUND else self.function
        if function is not None:
            refs += [function.__code__, function.__defaults__]
            for cell in function.__closure__ or ():
                try:
                    refs.append(cell.cell_contents)
                except ValueError:
                    refs.append(_UNBOUND)
            refs.extend(map(function.__globals__.get, self.names, repeat(_UNBOUND)))
        return refs

    def changed(self, lf: Any) -> bool:
        now = self._read(lf)
        if len(now) != len(self.seen) or any(map(operator.is_not, now, self.seen)):
            return True
        attributes, contents = self.reads
        for owner, name, value in attributes:
            if getattr(owner, name, _UNBOUND) is not value:
                return True
        for value, encoded in contents:
            if encoding(value) != encoded:
                return True
        return False


class _Decision(NamedTuple):
    """One memoized :func:`decide` answer, what it read and what it cost."""

    program: Optional[CompiledProgram]
    reason: str
    refs: _ConstantRefs
    seconds: float


#: The one plan cache: :func:`decide`'s answer per LF object (weakly: an
#: entry holds nothing that keeps its LF alive) and per cardinality.  Every
#: process keeps its own, so an LF compiles once per process until something
#: its program folded in changes.
_DECISIONS: "weakref.WeakKeyDictionary[Any, dict]" = weakref.WeakKeyDictionary()


def decision(lf: Any, cardinality: Optional[int]) -> tuple[_Decision, bool]:
    """:func:`decide`'s memoized answer for ``lf``, and whether it was made just now.

    The entry is revalidated on every use (:meth:`_ConstantRefs.changed`)
    and decided again when what it read has changed.
    """
    if cardinality is None:
        declared = getattr(lf, "cardinality", None)
        cardinality = int(declared) if isinstance(declared, int) else 2
    try:
        memo = _DECISIONS.setdefault(lf, {})
    except TypeError:  # not weakly referenceable: decided afresh every time
        memo = {}
    entry = memo.get(cardinality)
    if entry is not None and not entry.refs.changed(lf):
        return entry, False
    start = time.perf_counter()
    program, reason = decide(lf, cardinality)
    entry = _Decision(program, reason, _ConstantRefs(lf, program), time.perf_counter() - start)
    memo[cardinality] = entry
    return entry, True


@dataclass(eq=False)
class PushdownPlan:
    """The compiled/fallback partition of one LF suite.

    ``compiled`` and ``fallback`` together cover every column exactly once;
    ``fallback_reasons`` records, per fallback LF name, why it was not
    compiled (:func:`decide`'s reason) — surfaced by
    ``LFApplier(pushdown="require")`` diagnostics and the
    ``ApplyReport.pushdown`` summary.
    """

    num_lfs: int
    compiled: list[CompiledLF] = field(default_factory=list)
    #: ``(column, lf)`` pairs evaluated by the interpreted per-candidate loop.
    fallback: list = field(default_factory=list)
    fallback_reasons: dict[str, str] = field(default_factory=dict)
    compile_seconds: float = 0.0
    cardinality: int = 2
    #: Every LF's memo entry (:func:`decision`), in column order.
    decisions: list = field(default_factory=list)
    #: The compiled programs' token kernels by source column
    #: (:func:`~repro.labeling.pushdown.program.token_groups`).
    token_groups: dict = field(default_factory=dict)

    @property
    def compiled_names(self) -> list[str]:
        return [clf.name for clf in self.compiled]

    @property
    def fallback_names(self) -> list[str]:
        return [lf.name for _column, lf in self.fallback]


@dataclass
class PushdownSummary:
    """What pushdown did during one apply run (``ApplyReport.pushdown``).

    ``compiled`` / ``fallback`` partition the suite by execution tier;
    ``fallback`` maps each interpreted LF to the reason it was not compiled
    (:func:`decide`'s).  The per-tier second totals come from the engine's
    per-LF wall-clock accounting, summed over chunks.  Shared per-chunk work
    — field extraction, token indexes, and a whole token-kernel group, which
    resolves when the first of its LFs evaluates a kernel of it — is charged
    to the first LF that triggers it, so ``compiled_seconds`` still covers
    the whole tier, and per-LF seconds describe where time was spent, not
    marginal per-LF costs.
    """

    compiled: list[str] = field(default_factory=list)
    fallback: dict[str, str] = field(default_factory=dict)
    compile_seconds: float = 0.0
    compiled_seconds: float = 0.0
    fallback_seconds: float = 0.0

    @classmethod
    def from_run(
        cls, plan: "PushdownPlan", lf_seconds: dict[str, float]
    ) -> "PushdownSummary":
        return cls(
            compiled=plan.compiled_names,
            fallback=dict(plan.fallback_reasons),
            compile_seconds=plan.compile_seconds,
            compiled_seconds=sum(
                lf_seconds.get(name, 0.0) for name in plan.compiled_names
            ),
            fallback_seconds=sum(
                lf_seconds.get(name, 0.0) for name in plan.fallback_names
            ),
        )


def decide(lf: Any, cardinality: Optional[int]) -> tuple[Optional[CompiledProgram], str]:
    """Is ``lf`` compiled, and if not why: ``(program, "")`` or ``(None, reason)``.

    Two refusals, in order: a duck-typed LF runs its own ``__call__``; the
    compiler refused the body.  No lint pass gates the compiler, because its
    grammar is closed: it admits no call it does not know to be pure, no
    assignment except to a local name, and no expression statement, so a
    nondeterministic, state-mutating (the linter's ``LF2xx`` / ``LF3xx``) or
    I/O-performing body never compiles
    (``tests/test_analysis.py::test_compiler_refuses_every_hazard`` pins it).
    """
    if type(lf).__call__ is not LabelingFunction.__call__:
        # Programs replicate LabelingFunction's canonicalization and error
        # wrapping; a duck-typed LF's own __call__ decides both.
        return None, "not a LabelingFunction: its own __call__ runs"
    try:
        return compile_lf(lf, cardinality=cardinality), ""
    except CompileError as exc:
        return None, f"compiler refused: {exc}"


def build_plan(lfs: Sequence, cardinality: Optional[int] = None) -> PushdownPlan:
    """Compile what :func:`decide` admits; everything else falls back.

    Each LF's answer comes from the per-process memo (:func:`decision`), so
    only a new LF, or one whose folded-in constants changed, is compiled;
    ``compile_seconds`` is what those cost, 0 on a fully warm re-run.
    """
    plan = PushdownPlan(num_lfs=len(lfs), cardinality=cardinality if cardinality else 2)
    for column, lf in enumerate(lfs):
        entry, fresh = decision(lf, cardinality)
        plan.decisions.append(entry)
        if fresh:
            plan.compile_seconds += entry.seconds
        if entry.program is None:
            plan.fallback.append((column, lf))
            plan.fallback_reasons[lf.name] = entry.reason
            continue
        plan.compiled.append(CompiledLF(name=lf.name, column=column, program=entry.program))
        if cardinality is None:
            plan.cardinality = entry.program.cardinality
    plan.token_groups = token_groups(clf.program for clf in plan.compiled)
    return plan


def build_worker_payload(config: tuple):
    """Worker-side :class:`~repro.labeling.engine.runtime.TaskSpec` builder.

    A compiled :class:`PushdownPlan` holds kernel closures and cannot cross
    a pipe, so the persistent worker runtime ships the *configuration*
    instead — ``(lfs, cardinality, featurizer)`` — and each worker
    compiles its own plan once at attach time.  Compilation is
    deterministic, so every worker's plan (and therefore every emitted
    triple) matches the master-side plan bit for bit.  Returns the plan
    (:func:`label_chunk_pushdown`'s payload) when ``featurizer`` is
    ``None``, else the fused wrapper's ``(label_chunk_pushdown, plan,
    featurizer)``.
    """
    lfs, cardinality, featurizer = config
    plan = build_plan(list(lfs), cardinality=cardinality)
    return plan if featurizer is None else (label_chunk_pushdown, plan, featurizer)


#: What each live plan's programs keep from chunk to chunk
#: (``ColumnarChunk.memo``), held off the plan so the payload stays
#: read-only.  One apply call long in the process that built the plan, as a
#: plan is built per call; a worker's plan lives as long as its attached
#: copy of the suite, which nothing outside the worker can change.
_MEMOS: "weakref.WeakKeyDictionary[PushdownPlan, dict]" = weakref.WeakKeyDictionary()


def _wrap_error(lf_name: str, exc: BaseException) -> BaseException:
    """The exception a non-fault-tolerant interpreted run would propagate.

    :meth:`LabelingFunction.__call__` wraps user exceptions in a
    :class:`LabelingError` (canonicalization errors pass through unwrapped);
    compiled columns carry the raw user exception, so re-wrap here.
    """
    if isinstance(exc, LabelingError):
        return exc
    wrapped = LabelingError(
        f"labeling function {lf_name!r} raised {type(exc).__name__}: {exc}"
    )
    wrapped.__cause__ = exc
    return wrapped


def label_chunk_pushdown(
    plan: PushdownPlan,
    fault_tolerant: bool,
    index: int,
    start_row: int,
    candidates: Sequence,
) -> ChunkResult:
    """Apply a :class:`PushdownPlan` to one chunk (the pushdown worker kernel).

    ``candidates`` may be the chunk's :class:`ColumnarChunk` already (the
    fused task shares it with the featurizer).
    """
    start = time.perf_counter()
    chunk = ColumnarChunk.of(candidates)
    chunk.memo = _MEMOS.setdefault(plan, {})
    chunk.token_groups = plan.token_groups
    candidates, n = chunk.candidates, chunk.num_rows
    # Λ row-major: the chunk's labels, one column per LF.
    matrix = np.zeros((n, plan.num_lfs), dtype=np.int64)
    names: dict[int, str] = {}
    column_errors: dict[int, dict[int, BaseException]] = {}
    lf_seconds: dict[str, float] = {}

    for clf in plan.compiled:
        lf_start = time.perf_counter()
        matrix[:, clf.column], column_errors[clf.column] = clf.program.evaluate(chunk)
        lf_seconds[clf.name] = time.perf_counter() - lf_start
        names[clf.column] = clf.name

    for column, lf in plan.fallback:
        lf_start = time.perf_counter()
        errors: dict[int, BaseException] = {}
        for offset, candidate in enumerate(candidates):
            try:
                label = lf(candidate)
            except Exception as exc:  # noqa: BLE001 - mirror apply_chunk
                errors[offset] = exc
                continue
            if label != ABSTAIN:
                matrix[offset, column] = label
        lf_seconds[lf.name] = time.perf_counter() - lf_start
        names[column] = lf.name
        column_errors[column] = errors

    # The interpreted scan meets errors row-major: each LF's first error
    # orders the report, and the first of all is what a strict run raises.
    failed = sorted((min(errors), column) for column, errors in column_errors.items() if errors)
    if failed and not fault_tolerant:
        row, column = failed[0]
        exc = column_errors[column][row]
        if column in {clf.column for clf in plan.compiled}:
            exc = _wrap_error(names[column], exc)
        # A fallback LF already raised what its own __call__ decided.
        raise exc

    error_counts: dict[str, int] = {}
    error_details: dict[str, LFErrorDetail] = {}
    for _row, column in failed:
        errors = column_errors[column]
        name = names[column]
        error_counts[name] = error_counts.get(name, 0) + len(errors)
        detail = error_details.setdefault(name, LFErrorDetail())
        for row in sorted(errors):
            exc = errors[row]
            cause = (
                exc.__cause__
                if isinstance(exc, LabelingError) and exc.__cause__
                else exc
            )
            formatted = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
            detail.record(type(cause).__name__, formatted)

    # apply_chunk emits candidate-major: ascending row, then column.
    rows, cols = matrix.nonzero()
    return ChunkResult(
        index=index,
        start_row=start_row,
        num_candidates=n,
        row_offsets=rows,
        cols=cols,
        values=matrix[rows, cols],
        errors=error_counts,
        error_details=error_details,
        seconds=time.perf_counter() - start,
        lf_seconds=lf_seconds,
    )
