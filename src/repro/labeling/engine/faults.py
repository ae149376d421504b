"""Deterministic fault injection for the engine runtime and block store.

The runtime claims to survive worker crashes, hung workers, torn
block-store writes, and full disks — claims that are worthless untested,
and untestable without a way to *cause* each failure at an exact,
reproducible point.  This module is that way: a fault
plan is a tiny spec string naming (action, trigger ordinal) pairs, parsed
from the ``REPRO_ENGINE_FAULTS`` environment variable so it crosses the
``fork`` boundary into pool workers for free, and every injection site in
the engine calls a hook here that is a no-op (one dict lookup) when no plan
is active.

Spec grammar — semicolon-separated rules, each ``action@ordinal`` with
optional ``:key=value`` options::

    kill@3                    SIGKILL the worker handed chunk 3
    hang@5:seconds=600        sleep inside chunk 5 (EN101 timeout fodder)
    disk_full@4               the 5th block-store put raises ENOSPC
    corrupt_block@1           flip a byte of the 2nd durably appended record
    die_block@6               SIGKILL the *master* after 7 durable records
    die_epoch@1               SIGKILL the master after 2 end-model epochs

Ordinals are integers ``>= 0``; ``seconds`` (``hang`` only) is a finite
number of seconds in ``[0, MAX_HANG_SECONDS]``.  Any rule takes
``:flag=/path`` — the fault then fires only while the flag file does not
exist, and creates it when it fires, so a fault-tolerant resubmission (or a
resumed run) sees the failure exactly once even across processes.  A spec
outside this grammar raises :class:`FaultSpecError` (EN103) when it is
installed or parsed, never later inside a worker.  ``install(spec)``
activates a plan process-wide (and, via the environment, in workers forked
afterwards); ``install(None)`` clears it.

The hooks are deliberately dumb: they decide *whether* to fire from the
plan and leave *what firing means* to one obvious line (``os.kill``,
``time.sleep``, a byte flip, ``OSError(ENOSPC)``) at the call site or here.
Determinism comes from triggering on the engine's own ordinals (chunk
index, put ordinal, epoch number), never on wall clock or randomness.
"""

from __future__ import annotations

import errno
import math
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import LabelingError

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "active_plan",
    "corrupt_block_file",
    "install",
    "maybe_die_at_block",
    "maybe_die_at_epoch",
    "maybe_disk_full",
    "maybe_fail_chunk",
    "parse_plan",
]

#: Environment variable carrying the active fault spec.  Pool workers are
#: forked after :func:`install` sets it, so they inherit the plan without
#: any extra plumbing.
ENV_VAR = "REPRO_ENGINE_FAULTS"

#: Actions understood by :func:`parse_plan`, with the hook that honors each.
ACTIONS = (
    "kill",  # maybe_fail_chunk (worker side)
    "hang",  # maybe_fail_chunk (worker side)
    "disk_full",  # maybe_disk_full (block-store writes)
    "corrupt_block",  # corrupt_block_file (block-store durable records)
    "die_block",  # maybe_die_at_block (master SIGKILL after N durable records)
    "die_epoch",  # maybe_die_at_epoch (master SIGKILL after N epochs)
)

#: Default sleep of a ``hang`` rule — long enough that only the timeout
#: machinery (never the test suite outwaiting it) can end the run.
DEFAULT_HANG_SECONDS = 3600.0

#: Longest ``hang`` a rule may ask for (one day); ``time.sleep`` overflows
#: far above it, and no test needs to outwait it.
MAX_HANG_SECONDS = 86_400.0


class FaultSpecError(LabelingError):
    """A fault spec outside the grammar (engine error EN103)."""

    code = "EN103"

    def __init__(self, token: str, reason: str) -> None:
        super().__init__(f"[{self.code}] bad fault rule {token!r}: {reason}")


@dataclass(frozen=True)
class FaultRule:
    """One injected fault: fire ``action`` at trigger ordinal ``at``."""

    action: str
    at: int
    seconds: float = DEFAULT_HANG_SECONDS
    flag: Optional[str] = None

    def fires(self, ordinal: int) -> bool:
        """Whether the fault fires for this ordinal (honoring the flag file)."""
        if ordinal != self.at:
            return False
        if self.flag is None:
            return True
        if os.path.exists(self.flag):
            return False
        # Mark before firing: a fault that kills the process must not fire
        # again on the retry/resume that follows.
        open(self.flag, "w").close()
        return True


@dataclass(frozen=True)
class FaultPlan:
    """All rules of one spec, grouped by action."""

    rules: tuple[FaultRule, ...] = ()
    by_action: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        grouped: dict[str, list[FaultRule]] = {}
        for rule in self.rules:
            grouped.setdefault(rule.action, []).append(rule)
        self.by_action.update(grouped)

    def matching(self, action: str, ordinal: int) -> Optional[FaultRule]:
        for rule in self.by_action.get(action, ()):
            if rule.fires(ordinal):
                return rule
        return None


def parse_plan(spec: str) -> FaultPlan:
    """Parse a fault spec string (see the module docstring for the grammar)."""
    rules = []
    for token in spec.split(";"):
        token = token.strip()
        if not token:
            continue
        head, _, options = token.partition(":")
        action, sep, ordinal = head.partition("@")
        if not sep or action not in ACTIONS:
            raise FaultSpecError(token, f"expected action@ordinal with action in {ACTIONS}")
        try:
            at = int(ordinal)
        except ValueError:
            at = -1
        if at < 0:
            raise FaultSpecError(token, f"ordinal {ordinal!r} is not an integer >= 0")
        kwargs: dict = {}
        for option in filter(None, options.split(":")):
            key, sep, value = option.partition("=")
            if key == "seconds" and sep and action == "hang":
                try:
                    seconds = float(value)
                except ValueError:
                    seconds = math.nan
                if not 0 <= seconds <= MAX_HANG_SECONDS:
                    raise FaultSpecError(
                        token, f"seconds={value!r} is not a number in [0, {MAX_HANG_SECONDS:g}]"
                    )
                kwargs["seconds"] = seconds
            elif key == "flag" and value:
                kwargs["flag"] = value
            else:
                raise FaultSpecError(token, f"option {option!r} does not apply to {action!r}")
        rules.append(FaultRule(action=action, at=at, **kwargs))
    return FaultPlan(rules=tuple(rules))


_CACHED: tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def active_plan() -> Optional[FaultPlan]:
    """The plan named by the environment, or ``None`` (the hot-path check)."""
    global _CACHED
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return None
    if _CACHED[0] != spec:
        _CACHED = (spec, parse_plan(spec))
    return _CACHED[1]


def install(spec: Optional[str]) -> None:
    """Activate (or with ``None`` clear) a fault plan process-wide.

    Writes the environment variable so workers forked *after* this call
    inherit the plan; already-running workers keep the plan they were born
    with — call :func:`repro.labeling.engine.runtime.shutdown_pools` first
    when the faults must reach pool workers.
    """
    if spec:
        parse_plan(spec)  # fail fast on a bad spec
        os.environ[ENV_VAR] = spec
    else:
        os.environ.pop(ENV_VAR, None)


# ------------------------------------------------------------------ hooks
def maybe_fail_chunk(index: int) -> None:
    """Worker-side hook: SIGKILL or hang this worker on a matching chunk."""
    plan = active_plan()
    if plan is None:
        return
    if plan.matching("kill", index) is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    rule = plan.matching("hang", index)
    if rule is not None:
        time.sleep(rule.seconds)


def maybe_disk_full(ordinal: int) -> None:
    """Block-store hook: raise ``ENOSPC`` for a matching write ordinal."""
    plan = active_plan()
    if plan is None:
        return
    if plan.matching("disk_full", ordinal) is not None:
        raise OSError(errno.ENOSPC, "injected disk-full fault")


def corrupt_block_file(path: str, ordinal: int, start: int) -> bool:
    """Flip the middle byte of the durably appended record that starts at
    ``start`` of the log at ``path`` and runs to its end (a torn write)."""
    plan = active_plan()
    if plan is None:
        return False
    if plan.matching("corrupt_block", ordinal) is None:
        return False
    with open(path, "r+b") as handle:
        middle = (start + handle.seek(0, os.SEEK_END)) // 2
        handle.seek(middle)
        byte = handle.read(1)
        handle.seek(middle)
        handle.write(bytes([byte[0] ^ 0xFF]))
    return True


def maybe_die_at_block(ordinal: int) -> None:
    """Master-side hook: SIGKILL this process after a matching durable record."""
    plan = active_plan()
    if plan is None:
        return
    if plan.matching("die_block", ordinal) is not None:
        os.kill(os.getpid(), signal.SIGKILL)


def maybe_die_at_epoch(epoch: int) -> None:
    """Master-side hook: SIGKILL this process after a matching epoch."""
    plan = active_plan()
    if plan is None:
        return
    if plan.matching("die_epoch", epoch) is not None:
        os.kill(os.getpid(), signal.SIGKILL)
