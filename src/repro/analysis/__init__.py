"""The LF linter: what an interpreted labeling function would get silently wrong.

Labeling functions are arbitrary user Python, and the label model can
denoise only a label matrix that is a function of its inputs.  This package
flags, before the first candidate is labeled, the LFs that would break that
without raising — the same candidates labeled differently across runs,
resumes or executor backends:

* :func:`analyze_lf` — one LF in, an
  :class:`~repro.analysis.diagnostics.LFAnalysisResult` out: coded
  diagnostics (``LF2xx`` nondeterminism, ``LF3xx`` shared-state mutation;
  see :mod:`repro.analysis.diagnostics`) from the AST lint passes
  (:mod:`repro.analysis.lint`), and the pushdown verdict — whether the LF
  runs in the compiled tier, which is the answer of the decider
  ``build_plan`` itself partitions suites with
  (:func:`repro.labeling.pushdown.task.decide`), not a second opinion.  The
  lint gates nothing there: the compiler's closed grammar refuses every
  hazard the lint codes name.
* :func:`analyze_suite` — a whole LF suite into one
  :class:`~repro.analysis.diagnostics.AnalysisReport`; this is what
  ``LFApplier(validate="warn"|"error")`` runs before applying.
* ``python -m repro.analysis <module_or_path> ...`` — the standalone linter
  CLI (:mod:`repro.analysis.cli`), which CI runs over the library's own LFs.

The analysis cost is per-*LF*, not per-candidate: a suite is analyzed once
per apply call, so validation overhead is independent of corpus size
(``tests/test_analysis.py::TestApplyWiring`` counts the lint calls).  The
lint is not memoized, so every call reads the LF's globals and closure as
they are now; its source is read only when it still compiles to the running
code (:func:`repro.labeling.source.extract_source`).  The compiled tier
imports nothing from this package, so ``import repro`` does not load it.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    Diagnostic,
    LFAnalysisResult,
    PushdownVerdict,
    Severity,
)
from repro.analysis.lint import lint_function
from repro.labeling.pushdown.program import CompiledProgram
from repro.labeling.pushdown.task import decision
from repro.labeling.source import extract_source

__all__ = [
    "AnalysisReport",
    "CODES",
    "Diagnostic",
    "LFAnalysisResult",
    "PushdownVerdict",
    "Severity",
    "analyze_lf",
    "analyze_suite",
    "lint_function",
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


def analyze_lf(fn: Any, cardinality: Optional[int] = None) -> LFAnalysisResult:
    """Lint one LF callable and read its pushdown verdict.

    ``fn`` is a :class:`~repro.labeling.lf.LabelingFunction`, a plain
    function, a closure, or a callable instance.  The verdict is read off
    the memo entry ``build_plan`` partitions suites with
    (``repro.labeling.pushdown.task.decision``) for ``cardinality``
    (default: the wrapper's, else 2), revalidated on every call, so it is
    the plan's answer as things stand now.  The lint is not memoized: a
    global, closure cell or default rebound since the last call is read as
    it is now.
    """
    lf_name = _lf_name_of(fn)
    info = extract_source(fn)
    diagnostics = lint_function(info, lf_name)
    entry = decision(fn, cardinality)[0]
    return LFAnalysisResult(
        lf_name=lf_name,
        pushdown=verdict_of(entry.program, entry.reason),
        diagnostics=diagnostics,
        source_available=info.tree is not None,
    )


def analyze_suite(lfs: Iterable[Any], cardinality: Optional[int] = None) -> AnalysisReport:
    """Analyze a whole LF suite into one :class:`AnalysisReport`."""
    return AnalysisReport([analyze_lf(fn, cardinality=cardinality) for fn in lfs])
