"""Pushdown LF execution: compiled columnar kernels behind the engine API.

The interpreted hot path calls every labeling function on every candidate —
``m × n`` Python frames, each re-reading the candidate fields it needs.
This package removes both costs for the declarative majority of a suite:

* :mod:`~repro.labeling.pushdown.fields` extracts each candidate field a
  suite reads into a numpy column **once per chunk**;
* :mod:`~repro.labeling.pushdown.compiler` symbolically executes each LF
  body inside its subset (its docstring is the one statement of it) into a
  :class:`~repro.labeling.pushdown.program.CompiledProgram` — vectorized
  comparisons for threshold/equality shapes, precompiled regex sweeps,
  frozenset membership kernels, first-match token scans, shared per-row
  normalization;
* :mod:`~repro.labeling.pushdown.task` decides per LF (duck-typed? lint
  hazard? compiler refusal?), packages the compiled/fallback
  partition as a :class:`~repro.labeling.pushdown.task.PushdownPlan` and
  exposes :func:`~repro.labeling.pushdown.task.label_chunk_pushdown`, a
  drop-in engine chunk task composing with every backend and the fused
  label+featurize wrapper.

The cardinal rule: compiled output is **bit-identical** to interpreted
output — same triples in the same order, same suppressed-error accounting,
same exception out of a non-fault-tolerant run.  The compiler refuses
anything it cannot reproduce exactly, and refused LFs transparently fall
back to the interpreted loop.  This is the default path
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
