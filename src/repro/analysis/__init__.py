"""Static analysis of labeling functions and engine chunk tasks.

Labeling functions are arbitrary user Python, yet the system's guarantees —
deterministic label matrices, bit-identical results across executor
backends, labels inside the declared cardinality — all assume properties no
one checks.  This package checks them *before* the first candidate is
labeled:

* :func:`analyze_lf` — one LF in, an
  :class:`~repro.analysis.diagnostics.LFAnalysisResult` out: coded
  diagnostics (``LF001``+, see :mod:`repro.analysis.diagnostics`) from the
  AST lint passes (:mod:`repro.analysis.lint`), a picklability probe, and
  the pushdown verdict — whether the LF runs in the compiled tier, which is
  the answer of the decider ``build_plan`` itself partitions suites with
  (:func:`repro.labeling.pushdown.task.decide`), not a second opinion.  The
  lint reports; it gates nothing there: the compiler's closed grammar
  refuses every hazard the lint codes name.
* :func:`analyze_suite` — a whole LF suite into one
  :class:`~repro.analysis.diagnostics.AnalysisReport`; this is what
  ``LFApplier(validate="warn"|"error")`` runs before applying.
* :func:`repro.analysis.contracts.check_task` /
  :func:`~repro.analysis.contracts.check_engine_tasks` — purity contracts
  over engine chunk tasks.
* :mod:`repro.analysis.runtime` — dynamic cross-checks (differential
  static-vs-observed verification) and the debug-mode purity shim.
* ``python -m repro.analysis <module_or_path> ...`` — the standalone linter
  CLI (:mod:`repro.analysis.cli`), which CI runs over the library's own LFs.

The analysis cost is per-*LF*, not per-candidate: a suite is analyzed once
per apply call, so validation overhead is independent of corpus size
(``tests/test_analysis.py::TestApplyWiring`` counts the lint calls).  The
lint is not memoized, so every call reads the LF as it is now.  The compiled
tier imports nothing from this package, so ``import repro`` does not load it.
"""

from __future__ import annotations

import pickle
from typing import Any, Iterable, Optional

from repro.analysis.contracts import check_engine_tasks, check_task
from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    Diagnostic,
    LFAnalysisResult,
    PushdownVerdict,
    Severity,
    make_diagnostic,
    merge_reports,
)
from repro.analysis.lint import FunctionScope, lint_function
from repro.analysis.runtime import (
    ObservedBehavior,
    PurityCheckedTask,
    crosscheck,
    observe_lf,
    observe_task_purity,
)
from repro.labeling.pushdown.program import CompiledProgram
from repro.labeling.pushdown.task import decision
from repro.labeling.source import extract_source, resolve_function

__all__ = [
    "AnalysisReport",
    "CODES",
    "Diagnostic",
    "FunctionScope",
    "LFAnalysisResult",
    "ObservedBehavior",
    "PurityCheckedTask",
    "PushdownVerdict",
    "Severity",
    "analyze_lf",
    "analyze_suite",
    "check_engine_tasks",
    "check_task",
    "crosscheck",
    "extract_source",
    "lint_function",
    "lint_lf",
    "make_diagnostic",
    "merge_reports",
    "observe_lf",
    "observe_task_purity",
    "resolve_function",
]

def _lf_name_of(fn: Any) -> str:
    name = getattr(fn, "name", None)
    if isinstance(name, str) and name:
        return name
    return getattr(fn, "__name__", None) or type(fn).__name__


#: Program node tags → the predicate shape a verdict reports, dominant first.
_SHAPES = {
    "token_scan": ("tokscan",),
    "regex_match": ("regex",),
    "membership": ("tokmatch", "in", "In", "NotIn"),
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
    """The pushdown decider's answer (a compiled program, or ``None`` and the
    reason) as the verdict :func:`analyze_lf` reports."""
    if program is None:
        return PushdownVerdict("OPAQUE", detail=reason)
    tags: set = set()
    for branch in program.branches:
        for node in (branch.guard, branch.column):
            if node is not None:
                _key_tags(node.key, tags)
    shapes = (shape for shape, nodes in _SHAPES.items() if tags.intersection(nodes))
    return PushdownVerdict("COMPILABLE", shape=next(shapes, "constant"))


def analyze_lf(
    fn: Any,
    cardinality: Optional[int] = None,
    backend: Optional[str] = None,
    probe_pickle: bool = True,
) -> LFAnalysisResult:
    """:func:`lint_lf` plus the pushdown verdict: every static check of one LF.

    The verdict is read off the memo entry ``build_plan`` partitions suites
    with (``repro.labeling.pushdown.task.decision``), revalidated on every
    call, so it is the plan's answer as things stand now.
    """
    result = lint_lf(fn, cardinality, backend, probe_pickle)
    entry = decision(fn, cardinality)[0]
    result.pushdown = verdict_of(entry.program, entry.reason)
    return result


def lint_lf(
    fn: Any,
    cardinality: Optional[int] = None,
    backend: Optional[str] = None,
    probe_pickle: bool = True,
) -> LFAnalysisResult:
    """Lint one LF callable: everything of :func:`analyze_lf` but the verdict.

    The pushdown decider does not read it: what compiles is the compiler's
    answer alone.

    Parameters
    ----------
    fn:
        The LF — a :class:`~repro.labeling.lf.LabelingFunction`, a plain
        function, a closure, or a callable instance.
    cardinality:
        Declared task cardinality for the label-range checks; defaults to
        the wrapper's ``cardinality`` attribute, else 2.
    backend:
        The executor backend the LF is about to run under, if known; only
        sharpens the picklability message (``"processes"``).
    probe_pickle:
        Run the ``pickle.dumps`` pre-flight probe (cheap; disable for pure
        source-level linting of already-imported suites).

    Nothing is memoized: a global, closure cell or default rebound since the
    last call is read as it is now.
    """
    if cardinality is None:
        declared = getattr(fn, "cardinality", None)
        cardinality = int(declared) if isinstance(declared, int) else 2
    lf_name = _lf_name_of(fn)
    info = extract_source(fn)
    diagnostics, inferred = lint_function(info, lf_name, cardinality=cardinality)
    result = LFAnalysisResult(
        lf_name=lf_name,
        diagnostics=diagnostics,
        inferred_labels=inferred,
        source_available=info.tree is not None,
    )
    if probe_pickle:
        try:
            pickle.dumps(fn)
            result.picklable = True
        except Exception as exc:
            result.picklable = False
            hint = (
                "the processes backend relies on fork-side memory inheritance "
                "for this LF; spawn platforms will fail at pool startup"
                if backend == "processes"
                else "the processes backend under spawn (macOS/Windows) will "
                "fail at pool startup"
            )
            result.diagnostics.append(
                make_diagnostic(
                    "LF501",
                    f"pickling failed with {type(exc).__name__}: {exc}; {hint}",
                    lf_name=lf_name,
                )
            )
    return result


def analyze_suite(
    lfs: Iterable[Any],
    cardinality: Optional[int] = None,
    backend: Optional[str] = None,
    probe_pickle: bool = True,
) -> AnalysisReport:
    """Analyze a whole LF suite into one :class:`AnalysisReport`."""
    report = AnalysisReport()
    for fn in lfs:
        report.results.append(
            analyze_lf(
                fn,
                cardinality=cardinality,
                backend=backend,
                probe_pickle=probe_pickle,
            )
        )
    return report
