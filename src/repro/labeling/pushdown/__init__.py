"""Pushdown LF execution: compiled columnar kernels behind the engine API.

The interpreted hot path calls every labeling function on every candidate —
``m × n`` Python frames, each re-reading the candidate fields it needs.
This package removes both costs for the declarative majority of a suite:

* :mod:`~repro.labeling.pushdown.fields` extracts each candidate field a
  suite reads into a numpy column **once per chunk**;
* :mod:`~repro.labeling.pushdown.compiler` symbolically executes each LF
  body inside its subset into a
  :class:`~repro.labeling.pushdown.program.CompiledProgram` — vectorized
  comparisons for threshold/equality shapes, precompiled regex sweeps,
  vocabulary membership and first-match scans over each distinct token,
  shared per-row normalization.  Its docstring is the one statement of
  the subset, which is sized to the suites the library serves (the
  paper's pattern, keyword and distant-supervision LFs, the structure
  heuristics, the synthetic vote readers): a shape no served LF uses is
  refused, not lowered;
* :mod:`~repro.labeling.pushdown.task` decides per LF (duck-typed?
  compiler refusal?), packages the compiled/fallback
  partition as a :class:`~repro.labeling.pushdown.task.PushdownPlan` and
  exposes :func:`~repro.labeling.pushdown.task.label_chunk_pushdown`, a
  drop-in engine chunk task composing with every backend and the fused
  label+featurize wrapper.

The cardinal rule: compiled output is **bit-identical** to interpreted
output — same triples in the same order, same suppressed-error accounting,
same exception out of a non-fault-tolerant run.  The compiler refuses
anything it cannot reproduce exactly, and refused LFs transparently fall
back to the interpreted loop.  No lint pass gates it: its grammar admits no
call it does not know to be pure, no assignment except to a local name and
no expression statement, so a nondeterministic, state-mutating or
I/O-performing body never compiles, and nothing here imports
:mod:`repro.analysis`.  This is the default path
(``LFApplier(pushdown="auto")``); ``pushdown="off"`` is the interpreted
reference it is tested against.
"""

from repro.labeling.pushdown.compiler import CompileError, compile_lf
from repro.labeling.pushdown.fields import Column, ColumnarChunk
from repro.labeling.pushdown.program import Branch, ColExpr, CompiledProgram
from repro.labeling.pushdown.task import (
    CompiledLF,
    PushdownPlan,
    PushdownSummary,
    build_plan,
    build_worker_payload,
    label_chunk_pushdown,
)

__all__ = [
    "Branch",
    "ColExpr",
    "Column",
    "ColumnarChunk",
    "CompileError",
    "CompiledLF",
    "CompiledProgram",
    "PushdownPlan",
    "PushdownSummary",
    "build_plan",
    "build_worker_payload",
    "compile_lf",
    "label_chunk_pushdown",
]
