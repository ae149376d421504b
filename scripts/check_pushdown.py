#!/usr/bin/env python
"""Pushdown self-check: our own LF suites must compile, and compiled == interpreted.

The pushdown compiler ships with the claim that every labeling function the
repo's own library builds from the declarative factories is ``COMPILABLE``
and compiles — no silent drift into the interpreted fallback tier as the
library or the compiler evolves.  This script is the CI gate on that claim:

* every LF in ``LINT_LFS()`` (one of each factory family), in the CDR task
  suite (32 ``lf_library``-built LFs) and in the binary and cardinality-4
  ``text_vote_lfs`` suites (the hand-written scan-the-tokens loop both
  stream workloads of the e2e benchmark run) must land in the compiled
  tier, with any refusal printed with the analyzer's or compiler's reason;
* the compiled labels must be **bit-identical** to the interpreted ones
  (``pushdown="off"``, pinned: compiled is the default) on a streamed
  corpus, including per-LF suppressed-error counts, with planted per-row
  failures (``error_rate``, hand-planted bad vote tokens) exercising the
  fallback guards.

Exit status is 1 when any suite leaks into fallback or any label diverges.

    PYTHONPATH=src python scripts/check_pushdown.py
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def check_suite(name: str, lfs, candidates) -> list[str]:
    import numpy as np

    from repro.labeling import LFApplier, build_plan

    problems: list[str] = []
    plan = build_plan(lfs)
    for lf_name, reason in sorted(plan.fallback_reasons.items()):
        problems.append(f"{name}: {lf_name} fell back to interpreted: {reason}")

    base = LFApplier(lfs, fault_tolerant=True, pushdown="off")
    base_matrix = base.apply(candidates)
    push = LFApplier(lfs, fault_tolerant=True, pushdown="auto")
    push_matrix = push.apply(candidates)
    diff = int(np.abs(base_matrix.values - push_matrix.values).max(initial=0))
    if diff:
        problems.append(f"{name}: compiled labels diverge (max|diff|={diff})")
    if base.last_report.errors != push.last_report.errors:
        problems.append(
            f"{name}: suppressed-error counts diverge: "
            f"{base.last_report.errors} != {push.last_report.errors}"
        )
    if not problems:
        compiled = len(plan.compiled)
        errors = sum(base.last_report.errors.values())
        print(
            f"ok: {name}: {compiled}/{plan.num_lfs} LFs compiled, "
            f"{len(candidates)} candidates identical ({errors} errors matched)"
        )
    return problems


def text_stream(cardinality: int) -> list:
    """A vote-token stream with a few rows the scan kernel must hand back."""
    from repro.datasets.synthetic import stream_text_candidates

    candidates = list(
        stream_text_candidates(num_points=600, num_lfs=6, cardinality=cardinality, seed=2)
    )
    planted = {
        3: ["lf0vx", "lf1v9"],  # undecodable at k=4 / out of range
        57: [None, "lf2vp"],  # a hit after a token with no .startswith
        211: ["lf3v1\x00"],  # NUL: numpy U-dtype would drop it
        402: ["lf4v", "lf4v2"],  # empty suffix first
    }
    for row, tokens in planted.items():
        candidates[row].sentence.words[:0] = tokens
    candidates[500].sentence.words = 7  # not iterable at all
    return candidates


def main() -> int:
    from repro.datasets.cdr import build_cdr_task
    from repro.datasets.lf_library import LINT_LFS
    from repro.datasets.synthetic import stream_relation_candidates, text_vote_lfs

    clean = list(stream_relation_candidates(num_points=600, seed=0))
    dirty = list(stream_relation_candidates(num_points=600, seed=1, error_rate=0.1))

    problems: list[str] = []
    problems += check_suite("LINT_LFS", LINT_LFS(), clean)
    problems += check_suite("LINT_LFS+errors", LINT_LFS(), dirty)
    problems += check_suite("cdr_task", build_cdr_task().lfs, clean)
    problems += check_suite("cdr_task+errors", build_cdr_task().lfs, dirty)
    for k in (2, 4):
        problems += check_suite(
            f"text_vote_lfs(k={k})+errors", text_vote_lfs(6, cardinality=k), text_stream(k)
        )

    if problems:
        print(f"\n{len(problems)} pushdown problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("pushdown self-check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
