"""Static analysis of labeling functions: lints, contracts, and pushdown.

Labeling functions are arbitrary user Python, but the system's guarantees
(deterministic label matrices, backend-identical results, labels inside the
declared cardinality) assume properties nobody checks.  This example walks
the :mod:`repro.analysis` subsystem over a small suite containing both clean
and deliberately broken LFs:

1. ``analyze_lf`` / ``analyze_suite`` — coded diagnostics (``LF1xx`` label
   range, ``LF2xx`` nondeterminism, ``LF3xx`` shared-state mutation,
   ``LF4xx`` I/O, ``LF5xx`` picklability) plus the pushdown verdict per LF:
   COMPILABLE when the LF runs in the compiled tier, else OPAQUE with the
   reason (a hazard code, or the compiler's refusal and its line) — the
   answer of the same decider ``LFApplier`` partitions the suite with,
2. ``LFApplier(validate="error")`` — the apply-time gate that refuses to run
   a suite with ERROR-severity findings,
3. ``observe_lf`` + ``crosscheck`` — the dynamic differential check that
   confirms the static verdicts against actual behavior.

Run with ``python examples/lf_linting.py``; the same checks run from the
command line as ``python -m repro.analysis examples/lf_linting.py``.
"""

import random

from repro.analysis import analyze_suite, crosscheck, observe_lf
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


@labeling_function()
def lf_wrong_range(x):
    """LF101: returns 7, outside the binary label set {-1, 0, +1}."""
    return 7


BROKEN = [lf_counts_globally, lf_coin_flip, lf_wrong_range]
CLEAN = [lf_causes, lf_drugs, lf_far_apart]

#: Only the clean suite is exported for CI self-linting — the broken LFs
#: exist to demonstrate the diagnostics below and *should* fail a lint.
LINT_LFS = list(CLEAN)


def main() -> None:
    # 1. Static analysis: the clean suite draws nothing worse than the LF501
    # picklability warning, and every LF's verdict is COMPILABLE.  The verdict
    # is what the applier does, not a forecast of it: over real candidates,
    # the LFs it counts are the ones the run reports in the compiled tier.
    candidates = list(stream_relation_candidates(num_points=200, seed=0))
    applier = LFApplier(CLEAN, validate="warn")
    applier.apply(candidates)
    report = applier.last_report.analysis
    print("clean suite:")
    print(report.format(verbose=True))
    compiled = applier.last_report.pushdown.compiled
    assert report.compilable_count == len(compiled) == len(CLEAN)
    print(f"ran compiled: {', '.join(compiled)}")

    # 2. The broken suite: every planted violation is caught before a single
    # candidate is labeled, and each verdict is OPAQUE with its reason — the
    # hazard codes, or for lf_wrong_range (an ERROR, but no hazard to replay)
    # the compiler refusing a constant label outside the declared range.
    report = analyze_suite(BROKEN)
    print("\nbroken suite:")
    print(report.format(verbose=True))

    # 3. The apply-time gate refuses to run the broken suite.
    applier = LFApplier(BROKEN, validate="error")
    try:
        applier.apply([])
    except LabelingError as exc:
        first_line = str(exc).splitlines()[0]
        print(f"\nvalidate='error' refused the broken suite: {first_line}")

    # 4. Dynamic cross-check: observed behavior agrees with the static
    # verdicts (the coin-flip LF really is nondeterministic; the clean LFs
    # really are pure).
    for lf in (lf_coin_flip, lf_causes):
        observed = observe_lf(lf, candidates)
        static = analyze_suite([lf]).results[0]
        disagreements = crosscheck(static, observed)
        print(
            f"\n{lf.name}: deterministic={observed.deterministic} "
            f"static codes={sorted(static.codes())} "
            f"crosscheck disagreements={disagreements or 'none'}"
        )


if __name__ == "__main__":
    main()
