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
  (:func:`repro.labeling.pushdown.task.decide`), not a second opinion.
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
per apply call, so validation overhead is independent of corpus size (the
``lf_analysis`` benchmark section asserts exactly that).
"""

from __future__ import annotations

import pickle
import weakref
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
from repro.analysis.source import extract_source, resolve_function

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

#: Memoized :func:`lint_lf` results keyed on the LF object itself (weakly,
#: so cached reports never keep dead suites alive) and, per object, on the
#: ``(cardinality, backend, probe_pickle)`` arguments.  Source resolution and
#: the AST passes are pure functions of the LF object, so apply→apply and
#: validate→pushdown reuse one pass instead of re-resolving source every time.
_ANALYSIS_CACHE: "weakref.WeakKeyDictionary[Any, dict]" = weakref.WeakKeyDictionary()


def _lf_name_of(fn: Any) -> str:
    name = getattr(fn, "name", None)
    if isinstance(name, str) and name:
        return name
    return getattr(fn, "__name__", None) or type(fn).__name__


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
    # Imported here: that module imports this package.
    from repro.labeling.pushdown.task import decision, verdict_of

    entry = decision(fn, cardinality, backend)[0]
    result.pushdown = verdict_of(entry.program, entry.reason)
    return result


def lint_lf(
    fn: Any,
    cardinality: Optional[int] = None,
    backend: Optional[str] = None,
    probe_pickle: bool = True,
) -> LFAnalysisResult:
    """Lint one LF callable: everything of :func:`analyze_lf` but the verdict.

    This half is what the pushdown decider itself reads (its hazard gate).

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

    Results are memoized per LF *object* (see :data:`_ANALYSIS_CACHE`): the
    second lint of the same suite under the same arguments returns the
    cached :class:`LFAnalysisResult` without touching source or AST again.
    """
    if cardinality is None:
        declared = getattr(fn, "cardinality", None)
        cardinality = int(declared) if isinstance(declared, int) else 2
    cache_key = (cardinality, backend, probe_pickle)
    try:
        per_fn = _ANALYSIS_CACHE.setdefault(fn, {})
    except TypeError:  # non-weakrefable callable (builtins, some C objects)
        per_fn = None
    if per_fn is not None and cache_key in per_fn:
        return per_fn[cache_key]
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
    if per_fn is not None:
        per_fn[cache_key] = result
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
