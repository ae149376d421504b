"""Diagnostic codes, severities, and reports for the LF linter.

Every finding the linter emits is a :class:`Diagnostic` carrying a stable
``LF###`` code (so tests and CI gates can match on classes of problems
rather than message text), a :class:`Severity`, a human-readable message,
and the LF name and source line it anchors to.

A code flags an interpreted LF that would break a contract *without
raising* — the same candidates labeled differently across runs, resumes or
executor backends:

* ``LF2xx`` — nondeterminism (unseeded randomness, clocks, entropy,
  ``hash()``/``id()``);
* ``LF3xx`` — shared-state hazards (global/closure mutation, candidate or
  LF-instance mutation — thread hazards under the pool executors).

What another path already catches has no code: a label outside the declared
cardinality raises at apply (:func:`repro.labeling.lf.canonical_label`), an
LF that never abstains or never votes reads coverage 1.0 / 0.0 in the LF
summary, the compiler refuses I/O, and an unpicklable LF fails at pool
start.  An LF whose source is unavailable, or no longer matches its running
code, is not linted; its pushdown verdict says why.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional


class Severity(enum.IntEnum):
    """Severity ladder; ordering is meaningful (ERROR > WARNING)."""

    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return self.name.lower()


#: Registry of every code the linter can emit: ``code -> (severity, short
#: title)``.
CODES: dict[str, tuple[Severity, str]] = {
    "LF201": (Severity.ERROR, "unseeded random source"),
    "LF202": (Severity.WARNING, "clock/time dependence"),
    "LF203": (Severity.ERROR, "entropy source (os.urandom/uuid/secrets)"),
    "LF204": (Severity.WARNING, "hash()/id() dependence (varies across processes)"),
    "LF301": (Severity.ERROR, "mutates global state"),
    "LF302": (Severity.WARNING, "mutates closure/nonlocal state"),
    "LF303": (Severity.WARNING, "mutates its candidate argument"),
    "LF304": (Severity.WARNING, "mutates LF instance state (self)"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding."""

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
    ``"OPAQUE"`` and ``detail`` is the reason: the LF is duck-typed, its
    source is unavailable or stale, or the compiler refused the body (with
    the source line).
    """

    status: str
    shape: Optional[str] = None
    detail: str = ""

    @property
    def compilable(self) -> bool:
        return self.status == "COMPILABLE"


@dataclass
class LFAnalysisResult:
    """Everything the analyzer concluded about one LF."""

    lf_name: str
    pushdown: PushdownVerdict
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Whether the LF's source was read and linted.
    source_available: bool = False

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
