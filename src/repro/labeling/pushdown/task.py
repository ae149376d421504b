"""The pushdown chunk task: compiled-kernel LF application over the engine.

:func:`decide` is the one answer to "is this LF compiled, and if not why";
:func:`build_plan` partitions an LF suite with it into compiled programs and
interpreted fallbacks, producing a :class:`PushdownPlan`, and
``analyze_lf``'s ``COMPILABLE`` / ``OPAQUE`` verdict is the same answer
(:func:`verdict_of`).  The plan is the
payload of :func:`label_chunk_pushdown`, a drop-in
:data:`~repro.labeling.engine.executors.ChunkTask`: same signature, same
:class:`~repro.labeling.engine.accumulator.ChunkResult` contract, same
deterministic CSR triples — so it composes unchanged with the sequential /
threads / processes backends, windowed submission, the accumulator merge,
and the fused wrapper
:func:`~repro.labeling.engine.tasks.label_and_featurize_chunk`, which takes
it as its label task (labels + features in one pass).

Equivalence contract (enforced by ``tests/test_pushdown.py``): for any
suite, chunking, and backend, the triples, error counts, and error type
breakdowns are **bit-identical** to :func:`apply_chunk` — compiled kernels
emit entries in the same row-major (row, col) order, fault-tolerant error
accounting matches per LF and per exception type, and a non-fault-tolerant
run raises the same exception the interpreted row-major scan would have hit
first.
"""

from __future__ import annotations

import inspect
import operator
import time
import traceback
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Optional, Sequence

import numpy as np

from repro.analysis import lint_lf
from repro.analysis.diagnostics import LFAnalysisResult, PushdownVerdict
from repro.analysis.source import resolve_function
from repro.exceptions import LabelingError
from repro.labeling.engine.accumulator import ChunkResult, LFErrorDetail
from repro.labeling.lf import LabelingFunction
from repro.labeling.pushdown.compiler import CompileError, compile_lf
from repro.labeling.pushdown.fields import ColumnarChunk
from repro.labeling.pushdown.program import CompiledProgram
from repro.types import ABSTAIN

__all__ = [
    "CompiledLF",
    "PushdownPlan",
    "PushdownSummary",
    "build_plan",
    "build_worker_payload",
    "decide",
    "label_chunk_pushdown",
    "verdict_of",
]


@dataclass
class CompiledLF:
    """One LF compiled to a columnar program, with its matrix column."""

    name: str
    column: int
    program: CompiledProgram


_UNBOUND = object()


def _code_names(code) -> list[str]:
    """Every name ``code`` and the code objects nested in it may load."""
    names = list(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names += _code_names(const)
    return names


class _ConstantRefs:
    """The objects compiling one LF may have read as constants.

    Compilation folds closure cells, module globals, parameter defaults and
    a callable instance's attributes into the program, so a plan compiled
    before one of them was rebound labels with the old value.  The objects
    themselves are held (an ``id()`` is reused once its object is freed) and
    :meth:`changed` re-reads the same places and compares by identity.
    """

    __slots__ = ("lf", "function", "names", "seen")

    def __init__(self, lf: Any) -> None:
        self.lf = lf
        function = resolve_function(lf)
        self.function = function if inspect.isfunction(function) else None
        self.names = _code_names(function.__code__) if self.function else []
        self.seen = self._read()

    def _read(self) -> list:
        inner = getattr(self.lf, "function", self.lf)
        attributes = getattr(inner, "__dict__", {})
        refs = [inner, *attributes, *attributes.values()]
        function = self.function
        if function is not None:
            refs.append(function.__defaults__)
            for cell in function.__closure__ or ():
                try:
                    refs.append(cell.cell_contents)
                except ValueError:
                    refs.append(_UNBOUND)
            refs.extend(map(function.__globals__.get, self.names, repeat(_UNBOUND)))
        return refs

    def changed(self) -> bool:
        now = self._read()
        return len(now) != len(self.seen) or any(map(operator.is_not, now, self.seen))


@dataclass
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
    #: Per compiled LF, what its program folded in (see :class:`_ConstantRefs`).
    constants: list = field(default_factory=list)

    def constants_changed(self) -> bool:
        """A constant some compiled program folded in has been rebound."""
        return any(refs.changed() for refs in self.constants)

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
    per-LF wall-clock accounting, summed over chunks; shared per-chunk work (field
    extraction, token indexes) is attributed to the first LF that triggers
    it, so per-tier seconds describe where time was spent, not marginal
    per-LF costs.
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


#: Lint codes that keep an LF out of the compiled tier whatever its body
#: compiles to: a nondeterministic (``LF2xx``), state-mutating (``LF3xx``) or
#: I/O-performing (``LF4xx``) body cannot be replayed as a columnar expression.
_HAZARD_PREFIXES = ("LF2", "LF3", "LF4")


def decide(
    lf: Any, cardinality: Optional[int], lint: LFAnalysisResult
) -> tuple[Optional[CompiledProgram], str]:
    """Is ``lf`` compiled, and if not why: ``(program, "")`` or ``(None, reason)``.

    Three refusals, in order: a duck-typed LF runs its own ``__call__``; the
    lint pass (``lint``, :func:`repro.analysis.lint_lf`'s result for ``lf``)
    found a hazard; the compiler refused the body.
    """
    if type(lf).__call__ is not LabelingFunction.__call__:
        # Programs replicate LabelingFunction's canonicalization and error
        # wrapping; a duck-typed LF's own __call__ decides both.
        return None, "not a LabelingFunction: its own __call__ runs"
    hazards = {d.code for d in lint.diagnostics if d.code.startswith(_HAZARD_PREFIXES)}
    if hazards:
        return None, f"hazards remain: {', '.join(sorted(hazards))}"
    try:
        return compile_lf(lf, cardinality=cardinality), ""
    except CompileError as exc:
        return None, f"compiler refused: {exc}"


#: Program node tags → the predicate shape a verdict reports, dominant first.
_SHAPES = {
    "token_scan": ("tokscan",),
    "regex_match": ("regex",),
    "membership": ("tokmatch", "phrase", "in", "anyelem", "In", "NotIn"),
    "threshold_compare": ("lt", "le", "gt", "ge"),
    "field_equality": ("eq", "ne", "is", "is_not"),
    "field_projection": ("field",),
}


def _key_tags(key: tuple, tags: set) -> None:
    """Collect the node tags of a structural key: a comparison's is its
    operator, and a constant's key is not a node."""
    tag = key[0]
    if tag == "k":
        return
    tags.add(key[1] if tag == "cmp" else tag)
    for part in key[1:]:
        if isinstance(part, tuple) and part and isinstance(part[0], str):
            _key_tags(part, tags)


def verdict_of(program: Optional[CompiledProgram], reason: str) -> PushdownVerdict:
    """:func:`decide`'s answer as the verdict ``analyze_lf`` reports."""
    if program is None:
        return PushdownVerdict("OPAQUE", detail=reason)
    tags: set = set()
    for branch in program.branches:
        for node in (branch.guard, branch.column):
            if node is not None:
                _key_tags(node.key, tags)
    shapes = (shape for shape, nodes in _SHAPES.items() if tags.intersection(nodes))
    return PushdownVerdict("COMPILABLE", shape=next(shapes, "constant"))


def build_plan(
    lfs: Sequence,
    cardinality: Optional[int] = None,
    backend: Optional[str] = None,
) -> PushdownPlan:
    """Compile what :func:`decide` admits; everything else falls back.

    One compile per LF per plan; the memoized lint pass is shared with
    ``validate=``, so one suite is linted once per process.
    """
    start = time.perf_counter()
    plan = PushdownPlan(num_lfs=len(lfs), cardinality=cardinality if cardinality else 2)
    for column, lf in enumerate(lfs):
        program, reason = decide(lf, cardinality, lint_lf(lf, cardinality, backend))
        if program is None:
            plan.fallback.append((column, lf))
            plan.fallback_reasons[lf.name] = reason
            continue
        plan.compiled.append(CompiledLF(name=lf.name, column=column, program=program))
        plan.constants.append(_ConstantRefs(lf))
        if cardinality is None:
            plan.cardinality = program.cardinality
    plan.compile_seconds = time.perf_counter() - start
    return plan


def build_worker_payload(config: tuple):
    """Worker-side :class:`~repro.labeling.engine.runtime.TaskSpec` builder.

    A compiled :class:`PushdownPlan` holds kernel closures and cannot cross
    a pipe, so the persistent worker runtime ships the *configuration*
    instead — ``(lfs, cardinality, backend, featurizer)`` — and each worker
    compiles its own plan once at attach time.  Compilation is
    deterministic, so every worker's plan (and therefore every emitted
    triple) matches the master-side plan bit for bit.  Returns the plan
    (:func:`label_chunk_pushdown`'s payload) when ``featurizer`` is
    ``None``, else the fused wrapper's ``(label_chunk_pushdown, plan,
    featurizer)``.
    """
    lfs, cardinality, backend, featurizer = config
    plan = build_plan(list(lfs), cardinality=cardinality, backend=backend)
    return plan if featurizer is None else (label_chunk_pushdown, plan, featurizer)


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
    """Apply a :class:`PushdownPlan` to one chunk (the pushdown worker kernel)."""
    start = time.perf_counter()
    chunk = ColumnarChunk(candidates)
    n = chunk.num_rows
    names: dict[int, str] = {}
    column_labels: dict[int, np.ndarray] = {}
    column_errors: dict[int, dict[int, BaseException]] = {}
    lf_seconds: dict[str, float] = {}

    for clf in plan.compiled:
        lf_start = time.perf_counter()
        labels, errors = clf.program.evaluate(chunk)
        lf_seconds[clf.name] = time.perf_counter() - lf_start
        names[clf.column] = clf.name
        column_labels[clf.column] = labels
        column_errors[clf.column] = errors

    for column, lf in plan.fallback:
        lf_start = time.perf_counter()
        labels = np.zeros(n, dtype=np.int64)
        errors: dict[int, BaseException] = {}
        for offset, candidate in enumerate(candidates):
            try:
                label = lf(candidate)
            except Exception as exc:  # noqa: BLE001 - mirror apply_chunk
                errors[offset] = exc
                continue
            if label != ABSTAIN:
                labels[offset] = label
        lf_seconds[lf.name] = time.perf_counter() - lf_start
        names[column] = lf.name
        column_labels[column] = labels
        column_errors[column] = errors

    if not fault_tolerant:
        first: Optional[tuple[int, int]] = None
        for column, errors in column_errors.items():
            for row in errors:
                if first is None or (row, column) < first:
                    first = (row, column)
        if first is not None:
            row, column = first
            exc = column_errors[column][row]
            if column in {clf.column for clf in plan.compiled}:
                exc = _wrap_error(names[column], exc)
            # A fallback LF already raised what its own __call__ decided.
            raise exc

    error_counts: dict[str, int] = {}
    error_details: dict[str, LFErrorDetail] = {}
    for column in sorted(column_errors):
        errors = column_errors[column]
        if not errors:
            continue
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

    row_blocks: list[np.ndarray] = []
    col_blocks: list[np.ndarray] = []
    value_blocks: list[np.ndarray] = []
    for column in sorted(column_labels):
        labels = column_labels[column]
        nonzero = np.nonzero(labels)[0]
        if nonzero.size == 0:
            continue
        row_blocks.append(nonzero)
        col_blocks.append(np.full(nonzero.size, column, dtype=np.int64))
        value_blocks.append(labels[nonzero])
    empty = np.empty(0, dtype=np.int64)
    if row_blocks:
        rows = np.concatenate(row_blocks)
        cols = np.concatenate(col_blocks)
        values = np.concatenate(value_blocks)
        # apply_chunk emits candidate-major: ascending row, then column.
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
    else:
        rows = cols = values = empty
    return ChunkResult(
        index=index,
        start_row=start_row,
        num_candidates=n,
        row_offsets=rows,
        cols=cols,
        values=values,
        errors=error_counts,
        error_details=error_details,
        seconds=time.perf_counter() - start,
        lf_seconds=lf_seconds,
    )
