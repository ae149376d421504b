"""Pushdown labeling: compiling LFs to columnar kernels — a walkthrough.

Most real labeling functions are tiny, shape-regular predicates: a regex
over the text between spans, a vocabulary membership test, a threshold on
token distance, an entity-type equality.  Interpreted, each one costs a
Python frame per candidate; the pushdown layer instead **compiles** every
such LF into a vectorized kernel over columnar chunks — candidate fields
extracted into numpy arrays once per chunk, shared by every compiled LF —
while anything the compiler cannot reproduce exactly — its closed grammar
refuses nondeterministic, mutating and I/O-doing bodies too — falls back,
per LF, to the interpreted loop, with the reason and the source line
recorded.  Labels are bit-identical either way; only the clock changes.

The walkthrough below:

1. builds a mixed suite (library factories plus one deliberately opaque LF),
2. inspects the compiled/fallback partition a ``PushdownPlan`` records,
3. times ``pushdown="off"`` vs ``pushdown="auto"`` and verifies identity,
4. reads the ``ApplyReport.pushdown`` summary and per-LF seconds,
5. shows ``pushdown="require"`` rejecting the suite with named offenders,
6. runs a full pipeline with ``PipelineConfig(lf_pushdown="auto")``.

Run with ``python examples/pushdown_labeling.py``.
"""

import random
import time

import numpy as np

from repro.datasets.lf_library import LINT_LFS as library_suite
from repro.datasets.synthetic import stream_relation_candidates
from repro.exceptions import LabelingError
from repro.labeling import LFApplier, build_plan, labeling_function
from repro.types import ABSTAIN, POSITIVE


@labeling_function()
def lf_opaque_vote(x):
    """Refused by the compiler (a method of the ``random`` module is outside
    its subset), by design — but seeded per candidate, so repeated applies still
    agree and identity can be checked."""
    return POSITIVE if random.Random(x.uid).random() > 0.95 else ABSTAIN


#: Only the compilable library suite is exported for CI self-linting — the
#: opaque LF exists to demonstrate the fallback tier and *should* fail.
LINT_LFS = library_suite()


def main() -> None:
    suite = library_suite() + [lf_opaque_vote]
    candidates = list(stream_relation_candidates(num_points=8_000, seed=0))

    # 1-2. The plan: which LFs compiled, and why the rest did not, e.g.
    #   plan: 11 compiled, 1 fallback
    #     fallback lf_opaque_vote: compiler refused: method 'Random' on
    #       constant module (line 6)
    # ``analyze_lf(lf).pushdown`` is the same answer (OPAQUE, same reason).
    plan = build_plan(suite)
    print(f"plan: {len(plan.compiled)} compiled, {len(plan.fallback)} fallback")
    for name, reason in plan.fallback_reasons.items():
        print(f"  fallback {name}: {reason}")

    # 3. Off vs auto: same matrix, different clock.
    interpreted = LFApplier(suite, fault_tolerant=True, pushdown="off")
    start = time.perf_counter()
    base = interpreted.apply(candidates)
    interpreted_seconds = time.perf_counter() - start

    compiled = LFApplier(suite, fault_tolerant=True, pushdown="auto")
    start = time.perf_counter()
    push = compiled.apply(candidates)
    pushdown_seconds = time.perf_counter() - start

    assert np.array_equal(base.values, push.values), "labels must be identical"
    print(
        f"\n{len(candidates)} candidates x {len(suite)} LFs: "
        f"interpreted {interpreted_seconds:.3f}s, "
        f"pushdown {pushdown_seconds:.3f}s "
        f"({interpreted_seconds / pushdown_seconds:.1f}x), identical labels"
    )

    # 4. The report: per-LF wall clock plus the pushdown tier summary.
    report = compiled.last_report
    summary = report.pushdown
    print(
        f"\nreport: compile {summary.compile_seconds * 1e3:.1f}ms, "
        f"compiled tier {summary.compiled_seconds:.3f}s, "
        f"fallback tier {summary.fallback_seconds:.3f}s"
    )
    slowest = sorted(report.lf_seconds.items(), key=lambda kv: -kv[1])[:3]
    for name, seconds in slowest:
        tier = "fallback" if name in summary.fallback else "compiled"
        print(f"  {name}: {seconds * 1e3:.1f}ms ({tier})")

    # 5. require-mode: an explicit contract that the whole suite compiles.
    try:
        LFApplier(suite, pushdown="require").apply(candidates[:1])
    except LabelingError as exc:
        print(f"\npushdown='require' refused: {str(exc).splitlines()[0]}")
    LFApplier(library_suite(), pushdown="require").apply(candidates[:100])
    print("pushdown='require' accepted the fully-compilable library suite")

    # 6. The pipeline surface: one config field turns it on end to end.
    from repro.pipeline.snorkel import PipelineConfig

    config = PipelineConfig(lf_pushdown="auto")
    print(f"\nPipelineConfig(lf_pushdown={config.lf_pushdown!r}) wired through")


if __name__ == "__main__":
    main()
