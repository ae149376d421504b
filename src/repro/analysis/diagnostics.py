"""Diagnostic codes, severities, and reports for the LF static analyzer.

Every finding the analyzer emits is a :class:`Diagnostic` carrying a stable
``LF###`` / ``EN###`` code (so tests and CI gates can match on classes of
problems rather than message text), a :class:`Severity`, a human-readable
message, and — when known — the LF name and source line it anchors to.

The code space is partitioned by hundreds:

* ``LF0xx`` — analysis limitations (source unavailable / unparsable);
* ``LF1xx`` — label-range and abstention-convention findings;
* ``LF2xx`` — nondeterminism (unseeded randomness, clocks, entropy);
* ``LF3xx`` — shared-state hazards (global/closure mutation, candidate or
  LF-instance mutation — thread hazards under the pool executors);
* ``LF4xx`` — I/O in the per-candidate hot path;
* ``LF5xx`` — serialization hazards for the processes backend;
* ``EN0xx`` — engine chunk-task purity-contract violations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional


class Severity(enum.IntEnum):
    """Severity ladder; ordering is meaningful (ERROR > WARNING > INFO)."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return self.name.lower()


#: Registry of every code the analyzer can emit: ``code -> (default
#: severity, short title)``.  :func:`make_diagnostic` looks defaults up here
#: so emit sites stay terse and severities stay consistent.
CODES: dict[str, tuple[Severity, str]] = {
    "LF001": (Severity.INFO, "source unavailable; static analysis skipped"),
    "LF002": (Severity.INFO, "source could not be parsed; static analysis skipped"),
    "LF101": (Severity.ERROR, "label constant outside the declared cardinality range"),
    "LF102": (Severity.WARNING, "LF has no abstention path (labels every candidate)"),
    "LF103": (Severity.WARNING, "LF never emits a label (always abstains)"),
    "LF201": (Severity.ERROR, "unseeded random source"),
    "LF202": (Severity.WARNING, "clock/time dependence"),
    "LF203": (Severity.ERROR, "entropy source (os.urandom/uuid/secrets)"),
    "LF204": (Severity.WARNING, "hash()/id() dependence (varies across processes)"),
    "LF301": (Severity.ERROR, "mutates global state"),
    "LF302": (Severity.WARNING, "mutates closure/nonlocal state"),
    "LF303": (Severity.WARNING, "mutates its candidate argument"),
    "LF304": (Severity.WARNING, "mutates LF instance state (self)"),
    "LF401": (Severity.WARNING, "I/O call in the per-candidate hot path"),
    "LF501": (Severity.WARNING, "LF is not picklable"),
    "EN001": (Severity.ERROR, "chunk task mutates its payload"),
    "EN002": (Severity.ERROR, "chunk task writes to fitted featurizer state"),
    "EN003": (Severity.ERROR, "chunk task mutates global state"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    severity: Severity
    message: str
    lf_name: Optional[str] = None
    lineno: Optional[int] = None

    def format(self) -> str:
        """Render as ``name:line: CODE severity: message``."""
        location = self.lf_name or "<anonymous>"
        if self.lineno is not None:
            location = f"{location}:{self.lineno}"
        return f"{location}: {self.code} {self.severity}: {self.message}"


def make_diagnostic(
    code: str,
    message: str,
    lf_name: Optional[str] = None,
    lineno: Optional[int] = None,
    severity: Optional[Severity] = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting the severity from :data:`CODES`."""
    if code not in CODES:
        raise KeyError(f"unknown diagnostic code {code!r}")
    default_severity, _title = CODES[code]
    return Diagnostic(
        code=code,
        severity=default_severity if severity is None else severity,
        message=message,
        lf_name=lf_name,
        lineno=lineno,
    )


@dataclass(frozen=True)
class PushdownVerdict:
    """Whether one LF runs in the compiled tier, and why not if it does not.

    The verdict is :func:`repro.labeling.pushdown.task.decide`'s answer, the
    same call :func:`~repro.labeling.pushdown.task.build_plan` partitions a
    suite with — not a prediction of it.  ``status`` is ``"COMPILABLE"``
    when the LF compiled, in which case ``shape`` names the dominant
    predicate of its program (``"token_scan"``, ``"regex_match"``,
    ``"membership"``, ``"threshold_compare"``, ``"field_equality"``,
    ``"field_projection"`` or ``"constant"``); otherwise ``status`` is
    ``"OPAQUE"`` and ``detail`` is the reason: the LF is duck-typed, the
    lint pass found a nondeterminism / mutation / I/O hazard, or the
    compiler refused the body (with the source line).
    """

    status: str
    shape: Optional[str] = None
    detail: str = ""

    @property
    def compilable(self) -> bool:
        return self.status == "COMPILABLE"


#: ``LFAnalysisResult.pushdown`` until the decider has been asked (it never is
#: about an engine chunk task).
UNDECIDED = PushdownVerdict("OPAQUE", detail="not a pushdown candidate, or not asked yet")


@dataclass
class LFAnalysisResult:
    """Everything the analyzer concluded about one LF."""

    lf_name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    pushdown: PushdownVerdict = UNDECIDED
    #: Labels provably emittable by the LF, when return-value constant
    #: propagation covered *every* return path; ``None`` when at least one
    #: return expression could not be resolved statically (range checks are
    #: then limited to the constants that were resolved).
    inferred_labels: Optional[frozenset[int]] = None
    source_available: bool = False
    #: ``pickle.dumps`` probe outcome; ``None`` when the probe was skipped.
    picklable: Optional[bool] = None

    def codes(self) -> set[str]:
        return {diagnostic.code for diagnostic in self.diagnostics}

    def max_severity(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max(diagnostic.severity for diagnostic in self.diagnostics)

    @property
    def clean(self) -> bool:
        """True when no diagnostics at all were emitted."""
        return not self.diagnostics


@dataclass
class AnalysisReport:
    """Aggregated analyzer output over one LF suite."""

    results: list[LFAnalysisResult] = field(default_factory=list)

    def __iter__(self) -> Iterator[LFAnalysisResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return [d for result in self.results for d in result.diagnostics]

    def with_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.with_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.with_severity(Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    @property
    def compilable_count(self) -> int:
        return sum(1 for result in self.results if result.pushdown.compilable)

    def format(self, verbose: bool = False) -> str:
        """Human-readable multi-line report (the CLI's output body)."""
        lines: list[str] = []
        for result in self.results:
            verdict = result.pushdown
            why = f" [{verdict.shape}]" if verdict.shape else f" ({verdict.detail})"
            if verbose or result.diagnostics:
                lines.append(f"{result.lf_name}: {verdict.status}{why}")
            for diagnostic in result.diagnostics:
                lines.append(f"  {diagnostic.format()}")
        lines.append(
            f"{len(self.results)} LF(s): {self.compilable_count} compilable, "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)


def merge_reports(reports: Iterable[AnalysisReport]) -> AnalysisReport:
    """Concatenate several per-suite reports into one."""
    merged = AnalysisReport()
    for report in reports:
        merged.results.extend(report.results)
    return merged
