"""Linting labeling functions: what the pipeline would get silently wrong.

Labeling functions are arbitrary user Python, and the label model can
denoise only a label matrix that is a function of its inputs.  The linter
(:mod:`repro.analysis`) flags the LFs that would break that without raising;
everything else a broken LF can do already fails loudly.  This example walks
a small suite containing both clean and deliberately broken LFs:

1. ``analyze_suite`` — the clean suite draws no diagnostic, and every LF's
   pushdown verdict is COMPILABLE: the answer of the same decider
   ``LFApplier`` partitions the suite with,
2. the broken suite — ``LF201`` (unseeded randomness) and ``LF301`` (global
   mutation), each verdict OPAQUE with the compiler's refusal and its line,
3. ``LFApplier(validate="error")`` — the apply-time gate that refuses to run
   a suite with ERROR-severity findings,
4. a label outside the declared cardinality — no lint code: applying the LF
   raises, compiled or not (``repro.labeling.lf.canonical_label``).

Run with ``python examples/lf_linting.py``; the same checks run from the
command line as ``python -m repro.analysis examples/lf_linting.py``.
"""

import random

from repro.analysis import analyze_suite
from repro.datasets.synthetic import stream_relation_candidates
from repro.exceptions import LabelingError
from repro.labeling import LFApplier, labeling_function
from repro.labeling.declarative import keyword_lf, pattern_lf
from repro.types import ABSTAIN, NEGATIVE, POSITIVE


# --- a clean, declarative suite: every one of these runs compiled -----------
lf_causes = pattern_lf("causes", label=POSITIVE, name="lf_causes")
lf_drugs = keyword_lf(["aspirin", "ibuprofen"], label=NEGATIVE, name="lf_drugs")


@labeling_function(source_type="structure")
def lf_far_apart(x):
    """Arguments separated by many tokens are rarely related."""
    return NEGATIVE if x.token_distance() > 12 else ABSTAIN


# --- deliberately broken LFs the linter must catch --------------------------
_VOTE_COUNTER = {"calls": 0}


@labeling_function()
def lf_counts_globally(x):
    """LF301: mutates module state — diverges across process boundaries."""
    _VOTE_COUNTER["calls"] += 1
    return POSITIVE if _VOTE_COUNTER["calls"] % 2 else ABSTAIN


@labeling_function()
def lf_coin_flip(x):
    """LF201: unseeded randomness — a different Λ on every apply."""
    return POSITIVE if random.random() > 0.5 else ABSTAIN


# --- broken, and loudly so: no lint code needed ----------------------------
@labeling_function()
def lf_wrong_range(x):
    """Returns 7, outside the binary label set {-1, 0, +1}."""
    return 7


BROKEN = [lf_counts_globally, lf_coin_flip]
CLEAN = [lf_causes, lf_drugs, lf_far_apart]

#: Only the clean suite is exported for CI self-linting — the broken LFs
#: exist to demonstrate the diagnostics below and *should* fail a lint.
LINT_LFS = list(CLEAN)


def main() -> None:
    # 1. The clean suite draws no diagnostic, and every LF's verdict is
    # COMPILABLE.  The verdict is what the applier does, not a forecast of
    # it: over real candidates, the LFs it counts are the ones the run
    # reports in the compiled tier.
    candidates = list(stream_relation_candidates(num_points=200, seed=0))
    applier = LFApplier(CLEAN, validate="warn")
    applier.apply(candidates)
    report = applier.last_report.analysis
    print("clean suite:")
    print(report.format(verbose=True))
    compiled = applier.last_report.pushdown.compiled
    assert not report.diagnostics
    assert report.compilable_count == len(compiled) == len(CLEAN)
    print(f"ran compiled: {', '.join(compiled)}")

    # 2. The broken suite: each planted hazard is caught before a single
    # candidate is labeled, and each verdict is OPAQUE with the compiler's
    # reason: a call or a store outside its grammar.
    report = analyze_suite(BROKEN)
    print("\nbroken suite:")
    print(report.format(verbose=True))
    assert {d.code for d in report.diagnostics} == {"LF201", "LF301"}

    # 3. The apply-time gate refuses to run the broken suite.
    try:
        LFApplier(BROKEN, validate="error").apply([])
    except LabelingError as exc:
        first_line = str(exc).splitlines()[0]
        print(f"\nvalidate='error' refused the broken suite: {first_line}")

    # 4. An out-of-range label needs no lint: applying the LF raises, under
    # the compiled tier and the interpreted one alike.
    for pushdown in ("auto", "off"):
        try:
            LFApplier([lf_wrong_range], pushdown=pushdown).apply(candidates[:5])
        except LabelingError as exc:
            print(f"\npushdown={pushdown!r} refused lf_wrong_range at apply: {exc}")


if __name__ == "__main__":
    main()
