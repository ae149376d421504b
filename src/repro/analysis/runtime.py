"""Dynamic cross-checks of the static analyzer's verdicts.

The static passes are heuristics over source; this module is their ground
truth.  :func:`observe_lf` runs an LF repeatedly over synthetic candidates
and reports what actually happened — the labels it emitted, whether repeated
runs agree (determinism), and whether the call mutated the LF's reachable
state (closure cells, instance attributes, referenced globals).
:func:`crosscheck` then compares observation against a static
:class:`~repro.analysis.diagnostics.LFAnalysisResult`: a disagreement in
either direction (static said deterministic but runs diverged, static
inferred a label set the LF escaped, a COMPILABLE LF that turned out impure)
is returned as a message — the differential tests assert the list is empty
for every library LF and non-empty for the planted violations.

:class:`PurityCheckedTask` is the engine-side shim: it wraps a chunk task
and fingerprints the payload before and after every chunk, raising
:class:`~repro.exceptions.LabelingError` on the first observed payload write
— the debug-mode runtime twin of :func:`repro.analysis.contracts.check_task`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.analysis.diagnostics import LFAnalysisResult
from repro.analysis.source import resolve_function
from repro.exceptions import LabelingError

#: Diagnostic codes asserting the LF's output can vary between runs.
NONDETERMINISM_CODES = {"LF201", "LF202", "LF203", "LF204"}

#: Diagnostic codes asserting the LF writes to shared state.
MUTATION_CODES = {"LF301", "LF302", "LF304"}


def state_fingerprint(obj: Any, _depth: int = 0, _seen: Optional[set[int]] = None) -> str:
    """A stable textual fingerprint of an object graph's mutable state.

    Prefers ``pickle`` (stable and deep); falls back to a bounded recursive
    ``repr`` over ``__dict__``/containers for unpicklable graphs (closures,
    compiled patterns).  Two fingerprints comparing equal is evidence the
    state did not change; inequality is proof that it did.
    """
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL).hex()
    except Exception:
        pass
    if _seen is None:
        _seen = set()
    if id(obj) in _seen or _depth > 6:
        return "<cycle>"
    _seen.add(id(obj))
    if isinstance(obj, dict):
        items = ", ".join(
            f"{key!r}: {state_fingerprint(value, _depth + 1, _seen)}"
            for key, value in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, set, frozenset)):
        elements = obj if isinstance(obj, (list, tuple)) else sorted(obj, key=repr)
        body = ", ".join(state_fingerprint(element, _depth + 1, _seen) for element in elements)
        return f"{type(obj).__name__}[{body}]"
    instance_dict = getattr(obj, "__dict__", None)
    if instance_dict:
        return f"{type(obj).__name__}:{state_fingerprint(instance_dict, _depth + 1, _seen)}"
    return repr(obj)


def _lf_state(lf: Any) -> str:
    """Fingerprint of every piece of state an LF call can reach and mutate."""
    function = resolve_function(lf)
    parts: list[str] = []
    instance_dict = getattr(lf, "__dict__", None)
    if instance_dict is not None:
        parts.append(state_fingerprint({k: v for k, v in instance_dict.items() if k != "function"}))
    wrapped = getattr(lf, "function", None)
    if wrapped is not None and getattr(wrapped, "__dict__", None):
        parts.append(state_fingerprint(wrapped.__dict__))
    code = getattr(function, "__code__", None)
    closure = getattr(function, "__closure__", None) or ()
    if code is not None:
        for name, cell in zip(code.co_freevars, closure):
            try:
                parts.append(f"{name}={state_fingerprint(cell.cell_contents)}")
            except ValueError:  # pragma: no cover - unfilled cell
                continue
        # Globals the function actually references (co_names over-approximates
        # but stays bounded); modules and callables are skipped as immutable
        # for our purposes.
        function_globals = getattr(function, "__globals__", {})
        for name in code.co_names:
            if name in function_globals:
                value = function_globals[name]
                if callable(value) or type(value).__name__ == "module":
                    continue
                parts.append(f"g:{name}={state_fingerprint(value)}")
    return "|".join(parts)


@dataclass
class ObservedBehavior:
    """What actually happened when the LF ran on synthetic candidates."""

    labels: list[int] = field(default_factory=list)
    emitted: set[int] = field(default_factory=set)
    deterministic: bool = True
    mutated_state: bool = False
    raised: Optional[str] = None


def observe_lf(lf: Callable, candidates: Sequence, repeats: int = 3) -> ObservedBehavior:
    """Run ``lf`` over ``candidates`` ``repeats`` times and report behavior.

    The LF is called through its :class:`~repro.labeling.lf.LabelingFunction`
    wrapper when given one (so canonicalization applies); exceptions are
    recorded, not propagated, because planted-violation LFs may legally blow
    up on synthetic candidates.
    """
    observed = ObservedBehavior()
    before = _lf_state(lf)
    runs: list[list[Any]] = []
    for _ in range(max(1, repeats)):
        outputs: list[Any] = []
        for candidate in candidates:
            try:
                outputs.append(lf(candidate))
            except Exception as exc:
                observed.raised = type(exc).__name__
                outputs.append(f"<raised {type(exc).__name__}>")
        runs.append(outputs)
    observed.mutated_state = _lf_state(lf) != before
    observed.deterministic = all(run == runs[0] for run in runs[1:])
    observed.labels = [value for value in runs[0] if isinstance(value, int)]
    observed.emitted = set(observed.labels)
    return observed


def crosscheck(static: LFAnalysisResult, observed: ObservedBehavior) -> list[str]:
    """Disagreements between the static verdict and observed behavior.

    Checked both ways:

    * static silence on nondeterminism vs. runs that diverged (and the
      converse is *not* checked — a static nondeterminism flag with stable
      observed runs is legal, e.g. the random branch was never reached);
    * a complete inferred label set the LF escaped at runtime;
    * a ``COMPILABLE`` pushdown verdict for an LF that was observed to be
      nondeterministic or to mutate reachable state (the compiler's subset
      and the hazard gate in front of it admit only pure bodies);
    * static mutation findings vs. observed state fingerprints: if the
      analyzer found *no* mutation hazard but the fingerprint changed, the
      analyzer missed a write.
    """
    disagreements: list[str] = []
    codes = static.codes()
    static_nondeterministic = bool(codes & NONDETERMINISM_CODES)
    static_mutates = bool(codes & MUTATION_CODES)
    if not observed.deterministic and not static_nondeterministic:
        disagreements.append(
            f"{static.lf_name}: observed nondeterministic outputs but no "
            "LF2xx diagnostic was emitted"
        )
    if observed.mutated_state and not static_mutates and static.source_available:
        disagreements.append(
            f"{static.lf_name}: observed state mutation but no LF3xx "
            "diagnostic was emitted"
        )
    if static.inferred_labels is not None and observed.raised is None:
        escaped = observed.emitted - set(static.inferred_labels)
        if escaped:
            disagreements.append(
                f"{static.lf_name}: emitted {sorted(escaped)} outside the "
                f"inferred label set {sorted(static.inferred_labels)}"
            )
    if static.pushdown.compilable and (not observed.deterministic or observed.mutated_state):
        disagreements.append(
            f"{static.lf_name}: verdict COMPILABLE but observed "
            f"{'nondeterminism' if not observed.deterministic else 'state mutation'}"
        )
    return disagreements


class PurityCheckedTask:
    """Debug-mode wrapper enforcing the chunk-task purity contract at runtime.

    Fingerprints the payload before and after every chunk; a changed
    fingerprint means the task wrote to shared state and raises
    :class:`~repro.exceptions.LabelingError` naming the task.  The
    fingerprint is the payload's *pickled* state — what a worker would
    receive — so derived state an object leaves out of ``__getstate__``, or
    keeps outside itself (the featurizer kernel's process-wide hash tables),
    is not in it.  Instances are
    picklable whenever the wrapped task is (both are typically module-level
    functions), so the shim rides every executor backend.
    """

    def __init__(self, task: Callable) -> None:
        self.task = task

    def __call__(self, payload, fault_tolerant, index, start_row, candidates):
        before = state_fingerprint(payload)
        result = self.task(payload, fault_tolerant, index, start_row, candidates)
        after = state_fingerprint(payload)
        if before != after:
            name = getattr(self.task, "__name__", repr(self.task))
            raise LabelingError(
                f"chunk task {name!r} mutated its payload on chunk {index}; "
                "the purity contract requires payload reads only"
            )
        return result


def observe_task_purity(
    task: Callable,
    payload: Any,
    chunks: Iterable[Sequence],
    fault_tolerant: bool = False,
) -> bool:
    """Run ``task`` over ``chunks`` under the shim; True when it stayed pure."""
    shim = PurityCheckedTask(task)
    start_row = 0
    try:
        for index, chunk in enumerate(chunks):
            shim(payload, fault_tolerant, index, start_row, chunk)
            start_row += len(chunk)
    except LabelingError:
        return False
    return True
