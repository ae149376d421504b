"""LF static-analysis overhead: one-time per apply, never per-candidate.

``LFApplier(validate="warn"|"error")`` runs the :mod:`repro.analysis` passes
before the first chunk.  The cost model the subsystem promises is that
analysis is **structural in the LF suite, not in the corpus**: applying the
same validated suite to 10x the candidates performs exactly the same number
of ``analyze_lf`` invocations and parses exactly the same ASTs.  This bench
asserts that claim structurally (equal per-LF analysis counts on a small and
a large corpus — a deterministic property, immune to timing noise) and then
records the wall-clock overhead of validation relative to the apply itself
so the snapshot tracks it shrinking as the corpus grows.

``run_lf_analysis_benchmark`` is importable — ``scripts/run_benchmarks.py``
calls it to write the ``lf_analysis`` section of the ``BENCH_*.json``
snapshot, whose ``*_seconds`` metrics the ``--compare`` gate checks.
"""

import time

import repro.analysis as analysis_module
from repro.analysis import analyze_suite
from repro.datasets.synthetic import stream_synthetic_candidates, synthetic_vote_lfs
from repro.labeling import build_plan
from repro.labeling.applier import LFApplier

DEFAULT_NUM_LFS = 16
DEFAULT_SMALL_CORPUS = 200
DEFAULT_LARGE_CORPUS = 20_000


def _candidates(num_points: int, num_lfs: int, seed: int = 0) -> list:
    return list(
        stream_synthetic_candidates(
            num_points=num_points, num_lfs=num_lfs, propensity=0.4, seed=seed
        )
    )


def _count_analyze_calls(applier: LFApplier, candidates: list) -> int:
    """Apply with validation while counting ``analyze_lf`` invocations.

    The applier resolves ``analyze_suite`` through the package namespace at
    call time, so wrapping the module attribute observes every validation
    pass without touching the implementation.
    """
    calls = 0
    original = analysis_module.analyze_lf

    def counting_analyze_lf(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    analysis_module.analyze_lf = counting_analyze_lf
    try:
        applier.apply(candidates)
    finally:
        analysis_module.analyze_lf = original
    return calls


def run_lf_analysis_benchmark(
    num_lfs: int = DEFAULT_NUM_LFS,
    small_corpus: int = DEFAULT_SMALL_CORPUS,
    large_corpus: int = DEFAULT_LARGE_CORPUS,
    seed: int = 0,
):
    """Measure analysis amortization over one LF suite and two corpus sizes."""
    lfs = synthetic_vote_lfs(num_lfs)
    small = _candidates(small_corpus, num_lfs, seed=seed)
    large = _candidates(large_corpus, num_lfs, seed=seed)

    # Structural amortization: the analyze-call count depends on the suite,
    # not the corpus.  This is the assertion that matters; the timings below
    # are trend-tracking.
    # pushdown="off": this bench counts and times the validation pass alone.
    calls_small = _count_analyze_calls(
        LFApplier(lfs, validate="warn", pushdown="off"), small
    )
    calls_large = _count_analyze_calls(
        LFApplier(lfs, validate="warn", pushdown="off"), large
    )

    start = time.perf_counter()
    report = analyze_suite(lfs)
    analyze_suite_seconds = time.perf_counter() - start

    start = time.perf_counter()
    LFApplier(lfs, pushdown="off").apply(large)
    apply_plain_seconds = time.perf_counter() - start

    start = time.perf_counter()
    LFApplier(lfs, validate="warn", pushdown="off").apply(large)
    apply_validated_seconds = time.perf_counter() - start

    return {
        "num_lfs": num_lfs,
        "small_corpus": small_corpus,
        "large_corpus": large_corpus,
        "analyze_calls_small_corpus": calls_small,
        "analyze_calls_large_corpus": calls_large,
        "compilable_count": report.compilable_count,
        "compiled_count": len(build_plan(lfs).compiled),
        "analyze_suite_seconds": analyze_suite_seconds,
        "apply_plain_seconds": apply_plain_seconds,
        "apply_validated_seconds": apply_validated_seconds,
        "validation_overhead_fraction": analyze_suite_seconds
        / max(apply_plain_seconds, 1e-12),
    }


def format_record(record) -> str:
    return (
        f"{record['num_lfs']} LFs ({record['compilable_count']} compilable): "
        f"{record['analyze_calls_small_corpus']} analyze calls @ "
        f"{record['small_corpus']} candidates vs "
        f"{record['analyze_calls_large_corpus']} @ {record['large_corpus']}; "
        f"analysis {record['analyze_suite_seconds']:.3f}s on top of "
        f"{record['apply_plain_seconds']:.3f}s apply "
        f"({record['validation_overhead_fraction']:.1%} overhead)"
    )


def test_lf_analysis_amortized(run_once):
    record = run_once(
        run_lf_analysis_benchmark, small_corpus=100, large_corpus=1_000
    )
    print("\n[LF analysis] " + format_record(record))
    # One analyze_lf call per LF per apply, regardless of corpus size.
    assert record["analyze_calls_small_corpus"] == record["num_lfs"]
    assert record["analyze_calls_large_corpus"] == record["num_lfs"]
    # The verdict validation reports is the plan's: these vote readers index
    # a ``votes`` array the compiler has no column for, so both are 0.
    assert record["compilable_count"] == record["compiled_count"]
