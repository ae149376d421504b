"""The pushdown layer: compiled kernels must be bit-identical to interpreted.

Every test here enforces the package's cardinal rule from a different angle:
per predicate shape (all six a verdict names), per executor backend,
per chunk size, with mixed compiled/OPAQUE suites, with planted per-row
failures, and under hypothesis-driven randomized corpora (including
adversarial token text — NULs, case-exotic characters — aimed at the
vectorized string kernels' fallback guards).  "Identical" always means the
full contract: same label matrix, same suppressed-error counts, same
per-exception-type breakdowns, and the same exception out of a
non-fault-tolerant run.

The compiler is the only decider of what compiles (``analyze_lf``'s verdict
is its answer), so this file also holds what keeps it sound on its own:
the generator / coroutine refusals, and one case per veto of the AST
classifier that used to gate it — each exemplar is refused by ``compile_lf``
or compiles and matches the interpreted run.
"""

import dataclasses
import functools
import gc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.context.candidates import Candidate, SentenceView, SpanView
from repro.datasets.lf_library import LINT_LFS
from repro.datasets.synthetic import stream_relation_candidates
from repro.discriminative.featurizers import RelationFeaturizer
from repro.exceptions import LabelingError
from repro.labeling import LFApplier, PushdownPlan, build_plan
from repro.labeling.engine.accumulator import apply_chunk
from repro.labeling.lf import LabelingFunction
from repro.labeling.pushdown import CompileError, compile_lf, label_chunk_pushdown
from repro.labeling.pushdown import task as pushdown_task
from repro.types import ABSTAIN, NEGATIVE, POSITIVE
from repro.utils.textutils import contains_any

# ---------------------------------------------------------------------------
# Planted LFs covering the shapes the library suite misses.
# ---------------------------------------------------------------------------


def _constant_body(candidate):
    return POSITIVE


def _projection_body(candidate):
    # Out-of-range distances raise in canonicalization; the differential
    # tests rely on that to pin error fidelity for the projection shape.
    return candidate.token_distance()


def _clamped_projection_body(candidate):
    return max(-1, min(1, candidate.token_distance() - 1))


def _entity_eq_body(candidate):
    return POSITIVE if candidate.span1.entity_type == "chemical" else ABSTAIN


_FIRST_WORDS = frozenset({"w0", "w1", "w2", "aspirin", "ibuprofen"})


def _chained_body(candidate):
    return POSITIVE if candidate.sentence.text.lower().split()[0] in _FIRST_WORDS else ABSTAIN


class _VocabReader:
    """A callable-instance body: its constants are attributes of ``self``."""

    def __init__(self, vocab):
        self.vocab = vocab

    def __call__(self, candidate):
        return NEGATIVE if any(w in self.vocab for w in candidate.words_between()) else ABSTAIN


def planted_lfs():
    return [
        LabelingFunction("lf_planted_constant", _constant_body),
        LabelingFunction("lf_planted_projection", _projection_body),
        LabelingFunction("lf_planted_clamped", _clamped_projection_body),
        LabelingFunction("lf_planted_entity_eq", _entity_eq_body),
        # Bodies the deleted classifier vetoed and the compiler always handled.
        LabelingFunction(
            "lf_planted_lambda", lambda c: POSITIVE if c.token_distance() > 15 else ABSTAIN
        ),
        LabelingFunction("lf_planted_chained", _chained_body),
        LabelingFunction("lf_planted_vocab_reader", _VocabReader(frozenset({"treats", "w3"}))),
    ]


def opaque_lf():
    """An LF the analyzer must refuse (unseeded randomness)."""
    import random

    def body(candidate):
        return random.Random(candidate.uid).choice([POSITIVE, ABSTAIN])

    return LabelingFunction("lf_opaque_random", body)


def full_suite():
    return LINT_LFS() + planted_lfs()


def corpus(n=400, seed=0, error_rate=0.0):
    return list(stream_relation_candidates(num_points=n, seed=seed, error_rate=error_rate))


def assert_identical_runs(lfs, candidates, **applier_kwargs):
    """Apply with pushdown off and auto; assert the full contract matches."""
    base = LFApplier(lfs, fault_tolerant=True, pushdown="off", **applier_kwargs)
    base_matrix = base.apply(candidates)
    push = LFApplier(lfs, fault_tolerant=True, pushdown="auto", **applier_kwargs)
    push_matrix = push.apply(candidates)
    np.testing.assert_array_equal(base_matrix.values, push_matrix.values)
    assert base.last_report.errors == push.last_report.errors
    base_types = {k: v.type_counts for k, v in base.last_report.error_details.items()}
    push_types = {k: v.type_counts for k, v in push.last_report.error_details.items()}
    assert base_types == push_types
    return push.last_report


# ---------------------------------------------------------------------------
# Shape coverage
# ---------------------------------------------------------------------------


class TestShapeCoverage:
    def test_all_six_shapes_present_and_compiled(self):
        from repro.analysis import analyze_lf

        lfs = full_suite()
        plan = build_plan(lfs)
        assert not plan.fallback, plan.fallback_reasons
        shapes = {analyze_lf(lf).pushdown.shape for lf in lfs}
        assert shapes >= {
            "regex_match",
            "membership",
            "threshold_compare",
            "field_equality",
            "field_projection",
            "constant",
        }

    def test_each_shape_matches_interpreted(self):
        from repro.analysis import analyze_lf

        lfs = full_suite()
        candidates = corpus(300, seed=2, error_rate=0.05)
        by_shape: dict = {}
        for lf in lfs:
            by_shape.setdefault(analyze_lf(lf).pushdown.shape, []).append(lf)
        for shape, shape_lfs in by_shape.items():
            assert_identical_runs(shape_lfs, candidates)


# ---------------------------------------------------------------------------
# Executors × chunk sizes, mixed suites, fused path
# ---------------------------------------------------------------------------


class TestBackendsAndChunking:
    @pytest.mark.parametrize("backend,workers", [
        ("sequential", 1),
        ("threads", 3),
        ("processes", 2),
    ])
    @pytest.mark.parametrize("chunk_size", [37, 256, 10_000])
    def test_identical_across_backends_and_chunk_sizes(self, backend, workers, chunk_size):
        candidates = corpus(500, seed=4, error_rate=0.04)
        assert_identical_runs(
            full_suite(),
            candidates,
            backend=backend,
            num_workers=workers,
            chunk_size=chunk_size,
        )

    def test_mixed_compiled_and_opaque_suite(self):
        lfs = full_suite() + [opaque_lf()]
        candidates = corpus(300, seed=5, error_rate=0.05)
        report = assert_identical_runs(lfs, candidates, chunk_size=64)
        assert report.pushdown is not None
        assert "lf_opaque_random" in report.pushdown.fallback
        assert set(report.pushdown.compiled) == {lf.name for lf in full_suite()}

    def test_generator_input_matches_list_input(self):
        lfs = full_suite()
        base = LFApplier(lfs, fault_tolerant=True, pushdown="auto", chunk_size=64)
        from_list = base.apply(corpus(250, seed=6))
        streamed = LFApplier(lfs, fault_tolerant=True, pushdown="auto", chunk_size=64)
        from_gen = streamed.apply(
            stream_relation_candidates(num_points=250, seed=6), sparse=True
        )
        np.testing.assert_array_equal(from_list.values, from_gen.to_dense().values)

    def test_fused_apply_with_features_matches(self):
        from repro.discriminative.featurizers import RelationFeaturizer

        lfs = full_suite()
        candidates = corpus(200, seed=7)
        featurizer = RelationFeaturizer(num_features=64).fit()
        base = LFApplier(lfs, fault_tolerant=True, chunk_size=48, pushdown="off")
        base_matrix, base_blocks = base.apply_with_features(
            iter(candidates), featurizer, sparse=True
        )
        push = LFApplier(lfs, fault_tolerant=True, chunk_size=48, pushdown="auto")
        push_matrix, push_blocks = push.apply_with_features(
            iter(candidates), featurizer, sparse=True
        )
        np.testing.assert_array_equal(
            base_matrix.to_dense().values, push_matrix.to_dense().values
        )
        assert len(base_blocks) == len(push_blocks)
        for left, right in zip(base_blocks, push_blocks):
            np.testing.assert_array_equal(left.toarray(), right.toarray())
        assert push.last_report.pushdown is not None


# ---------------------------------------------------------------------------
# Error fidelity
# ---------------------------------------------------------------------------


class TestErrorFidelity:
    def test_non_fault_tolerant_raises_identically(self):
        lfs = LINT_LFS()
        candidates = corpus(200, seed=8, error_rate=0.1)
        with pytest.raises(Exception) as base_exc:
            LFApplier(lfs, pushdown="off").apply(candidates)
        with pytest.raises(Exception) as push_exc:
            LFApplier(lfs, pushdown="auto").apply(candidates)
        assert type(base_exc.value) is type(push_exc.value)
        assert str(base_exc.value) == str(push_exc.value)
        assert type(base_exc.value.__cause__) is type(push_exc.value.__cause__)

    def test_planted_token_errors_fall_back_per_row(self):
        # error_rate plants non-string tokens: the token kernels must hand
        # exactly those rows to the per-row fallback and report the same
        # exception types the interpreted path sees.
        from repro.datasets.cdr import build_cdr_task

        candidates = corpus(300, seed=9, error_rate=0.25)
        for lfs in (LINT_LFS(), build_cdr_task().lfs):
            report = assert_identical_runs(lfs, candidates, chunk_size=50)
            assert report.num_errors > 0
            assert not report.pushdown.fallback

    def test_derived_field_override_disables_derivation(self):
        class LoudCandidate(Candidate):
            def words_between(self):
                return ["causes", "override"]

        originals = corpus(120, seed=10)
        fields = [f.name for f in dataclasses.fields(Candidate)]
        candidates = [
            LoudCandidate(**{name: getattr(c, name) for name in fields})
            for c in originals
        ]
        assert_identical_runs(LINT_LFS(), candidates)
        # And the override must actually matter: the interpreted labels on
        # the subclass differ from the stock candidates'.
        stock = LFApplier(LINT_LFS(), fault_tolerant=True, pushdown="off").apply(originals)
        loud = LFApplier(LINT_LFS(), fault_tolerant=True, pushdown="off").apply(candidates)
        assert not np.array_equal(stock.values, loud.values)


class _RawKeyErrorLF:
    """A duck-typed LF: its own ``__call__`` wraps nothing."""

    name = "raw_keyerror"
    cardinality = 2

    def __call__(self, candidate):
        return {}["missing"]


class _DuckFalseLF:
    """Duck-typed and inside the compilable subset.  ``LFApplier`` stores what
    such an LF returns as is (``False == ABSTAIN``); a compiled program would
    canonicalize it to ``NEGATIVE`` like :class:`LabelingFunction` does."""

    name = "duck_false"
    cardinality = 2

    def __call__(self, candidate):
        return False if candidate.sentence.position >= 0 else None


class TestFallbackTier:
    def test_fallback_exception_propagates_unwrapped(self):
        # Regression: every column's first error was re-wrapped in
        # LabelingError, also a fallback LF's, whose own __call__ had already
        # raised exactly what the interpreted path lets through.
        candidates = corpus(3, seed=16)
        for mode in ("off", "auto"):
            applier = LFApplier([_RawKeyErrorLF()], fault_tolerant=False, pushdown=mode)
            with pytest.raises(KeyError):
                applier.apply(candidates)

    def test_duck_typed_lf_is_never_compiled(self):
        plan = build_plan([_DuckFalseLF()])
        assert not plan.compiled
        assert "not a LabelingFunction" in plan.fallback_reasons["duck_false"]
        assert_identical_runs([_DuckFalseLF()], corpus(20, seed=17))


# ---------------------------------------------------------------------------
# A memoized program must not outlive the constants it folded in
# ---------------------------------------------------------------------------

THRESH = 2


def _near_body(candidate):
    return POSITIVE if candidate.token_distance() < THRESH else ABSTAIN


class _WordReader:
    def __init__(self, word):
        self.word = word

    def __call__(self, candidate):
        return POSITIVE if self.word in candidate.words_between() else ABSTAIN


SETTINGS: dict = {}
WORDS: list = []
CONFIG = None
FLAGS: set = set()


def _subscript_body(candidate):
    if SETTINGS["on"]:
        return POSITIVE
    return NEGATIVE


def _len_body(candidate):
    return POSITIVE if len(WORDS) > 1 else NEGATIVE


def _attribute_body(candidate):
    return POSITIVE if candidate.token_distance() < CONFIG.limit else NEGATIVE


def _membership_body(candidate):
    return POSITIVE if "x" in FLAGS else NEGATIVE


_MUTATED_BODIES = {
    "subscript": _subscript_body,
    "len": _len_body,
    "attribute": _attribute_body,
    "membership": _membership_body,
}


def _gated_body(candidate):
    if SETTINGS["on"]:
        return opaque_helper(candidate)  # noqa: F821 - never resolved: the compiler refuses
    return POSITIVE


class TestStaleConstants:
    def test_rebinding_a_global_or_an_attribute_rebuilds_the_plan(self, monkeypatch):
        # Regression: the plan was cached on the suite's identity alone, so a
        # second apply on the same applier kept labeling with the constants
        # the first one compiled in.
        reader = _WordReader("causes")
        lfs = [
            LabelingFunction("lf_near", _near_body),
            LabelingFunction("lf_word", reader),
        ]
        candidates = corpus(200, seed=18)
        applier = LFApplier(lfs, pushdown="require")
        first = applier.apply(candidates)

        def programs():
            return [clf.program for clf in applier._pushdown_plan().compiled]

        before, shipped = programs(), list(applier._spec_payloads.values())
        assert programs() == before  # nothing rebound: nothing recompiled

        monkeypatch.setitem(globals(), "THRESH", 6)
        reader.word = "treats"
        second = applier.apply(candidates)
        assert [a is b for a, b in zip(programs(), before)] == [False, False]
        # A recompiled LF ships a new worker payload (workers re-attach).
        assert not any(p is q for p in applier._spec_payloads.values() for q in shipped)
        interpreted = LFApplier(lfs, pushdown="off").apply(candidates)
        np.testing.assert_array_equal(second.values, interpreted.values)
        fresh = LFApplier(lfs, pushdown="require").apply(candidates)
        np.testing.assert_array_equal(fresh.values, interpreted.values)
        for column in range(2):
            assert not np.array_equal(first.values[:, column], second.values[:, column])

    @pytest.mark.parametrize("mutate", ["subscript", "len", "attribute", "membership"])
    def test_a_constant_mutated_in_place_recompiles(self, monkeypatch, mutate):
        """Regression: a fold read into a constant (``SETTINGS["on"]``,
        ``len(WORDS)``, ``CONFIG.limit``, ``"x" in FLAGS``), and mutating it in
        place left the same applier labeling with what the fold saw."""
        settings, words = {"on": True}, ["causes"]
        config, flags = types.SimpleNamespace(limit=2), {"x"}
        for name, value in dict(SETTINGS=settings, WORDS=words, CONFIG=config, FLAGS=flags).items():
            monkeypatch.setitem(globals(), name, value)
        lf = LabelingFunction(f"lf_{mutate}", _MUTATED_BODIES[mutate])
        candidates = corpus(120, seed=19)
        applier = LFApplier([lf], pushdown="require")
        first = applier.apply(candidates).values
        {
            "subscript": lambda: settings.update(on=False),
            "len": lambda: words.append("treats"),
            "attribute": lambda: setattr(config, "limit", 9),
            "membership": lambda: flags.discard("x"),
        }[mutate]()
        interpreted = LFApplier([lf], pushdown="off").apply(candidates).values
        assert not np.array_equal(first, interpreted)  # the mutation matters
        np.testing.assert_array_equal(applier.apply(candidates).values, interpreted)
        fresh = LFApplier([lf], pushdown="require").apply(candidates).values
        np.testing.assert_array_equal(fresh, interpreted)

    def test_verdict_follows_the_plan_after_a_mutation(self, monkeypatch):
        """``analyze_lf`` reads the plan's own memo entry: no lag between them."""
        from repro.analysis import analyze_lf

        settings = {"on": False}
        monkeypatch.setitem(globals(), "SETTINGS", settings)
        lf = LabelingFunction("lf_gated", _gated_body)
        assert analyze_lf(lf).pushdown.compilable
        assert build_plan([lf]).compiled_names == ["lf_gated"]
        settings["on"] = True  # the folded-dead arm is live now, and opaque
        assert not analyze_lf(lf).pushdown.compilable
        assert build_plan([lf]).fallback_names == ["lf_gated"]

    def test_memo_entries_do_not_keep_their_lfs_alive(self):
        """Entries are keyed weakly on their LF, so one that referenced it
        would never die: wrapped bodies, a callable instance, a duck-typed
        LF and a bare function handed to ``analyze_lf``."""

        def bare(candidate):
            return POSITIVE

        lfs = [
            LabelingFunction("lf_near", _near_body),
            LabelingFunction("lf_word", _WordReader("causes")),
            _DuckFalseLF(),
            opaque_lf(),
            bare,
        ]
        from repro.analysis import analyze_lf

        build_plan(lfs[:-1])
        for lf in lfs:
            analyze_lf(lf)
        refs = [weakref.ref(lf) for lf in lfs]
        del lfs, lf, bare
        gc.collect()
        assert [ref() for ref in refs] == [None] * 5


# ---------------------------------------------------------------------------
# The verdict is the plan: one decider, asked by both
# ---------------------------------------------------------------------------


def _served_suites():
    """``(name, lfs, number compiled or None)`` for every suite the library
    serves; the declarative ones must never drift into the fallback tier."""
    from repro.datasets import load_task, registered_tasks
    from repro.datasets.synthetic import synthetic_vote_lfs, text_vote_lfs

    yield "text_vote_lfs(k=2)", text_vote_lfs(6), 6
    yield "text_vote_lfs(k=4)", text_vote_lfs(6, cardinality=4), 6
    yield "synthetic_vote_lfs", synthetic_vote_lfs(4), 0
    yield "LINT_LFS", LINT_LFS(), 11
    yield "full_suite", full_suite() + [opaque_lf(), _DuckFalseLF()], len(full_suite())
    for name in sorted(registered_tasks()):
        yield name, load_task(name, scale=0.05, seed=0).lfs, {"cdr": 32}.get(name)


def test_compilable_verdict_implies_compiled():
    """Verdict ≡ plan membership, reason included, with no exception list."""
    from repro.analysis import analyze_lf

    for suite, lfs, num_compiled in _served_suites():
        plan = build_plan(lfs)
        for lf in lfs:
            verdict = analyze_lf(lf).pushdown
            assert verdict.compilable == (lf.name in plan.compiled_names), (suite, lf.name)
            assert verdict.compilable or verdict.detail == plan.fallback_reasons[lf.name]
        if num_compiled is not None:
            assert len(plan.compiled) == num_compiled, (suite, plan.fallback_reasons)


# ---------------------------------------------------------------------------
# The compiler is sound on its own: what the path-following walk cannot see
# ---------------------------------------------------------------------------

_DEAD_FLAG = False


async def _async_body(candidate):
    return 1


def _dead_yield_body(candidate):
    if False:
        yield
    return 1


def _flagged_yield_body(candidate):
    if _DEAD_FLAG:
        yield
    return 1


def _yield_after_return_body(candidate):
    return 1
    yield


def _yield_from_after_return_body(candidate):
    return 1
    yield from ()


_NOT_PLAIN_CALLS = [
    _async_body,
    _dead_yield_body,
    _flagged_yield_body,
    _yield_after_return_body,
    _yield_from_after_return_body,
]


def _dead_del_body(candidate):
    # The dead ``del`` makes THRESH a local: every call is an UnboundLocalError.
    if False:
        del THRESH
    return POSITIVE if candidate.token_distance() < THRESH else ABSTAIN


def _dead_import_body(candidate):
    if False:
        import THRESH
    return POSITIVE if candidate.token_distance() < THRESH else ABSTAIN


def _flaky(function):
    @functools.wraps(function)
    def wrapper(candidate):
        return NEGATIVE  # getsource(wrapper) is the wrapped definition, not this

    return wrapper


@_flaky
def _wrapped_body(candidate):
    return POSITIVE


class TestCompilerIsSoundAlone:
    @pytest.mark.parametrize("body", _NOT_PLAIN_CALLS, ids=lambda body: body.__name__)
    def test_generators_and_coroutines_are_refused(self, body):
        # Regression: each compiled to the constant 1, while calling it returns
        # a generator / coroutine object canonical_label rejects on every row.
        with pytest.raises(CompileError, match="generator or coroutine"):
            compile_lf(LabelingFunction(body.__name__, body))

    @pytest.mark.parametrize(
        "body,why",
        [
            (_dead_del_body, "unassigned local 'THRESH'"),
            (_dead_import_body, "unassigned local 'THRESH'"),
            # Regression: compiled to POSITIVE (the wrapped definition's body)
            # with the classifier's blessing, while the wrapper returns NEGATIVE.
            (_wrapped_body, "source ambiguous"),
        ],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_dead_bindings_and_wrappers_are_refused(self, body, why):
        with pytest.raises(CompileError, match=why):
            compile_lf(LabelingFunction(body.__name__, body))

    @pytest.mark.filterwarnings("ignore:coroutine .* was never awaited")
    def test_refused_bodies_match_interpreted(self):
        bodies = _NOT_PLAIN_CALLS + [_dead_del_body, _dead_import_body, _wrapped_body]
        lfs = [LabelingFunction(body.__name__, body) for body in bodies]
        report = assert_identical_runs(lfs, corpus(50, seed=19))
        assert not report.pushdown.compiled
        for body in _NOT_PLAIN_CALLS + [_dead_del_body, _dead_import_body]:
            assert report.errors[body.__name__] == 50
        gc.collect()  # the unawaited coroutines warn when freed: here, not later

    def test_ambiguous_lambda_source_is_no_source(self):
        # Both lambdas' source is this one line; neither is provably its body.
        bodies = (lambda c: POSITIVE, lambda c: NEGATIVE)
        pair = [LabelingFunction(f"lf_{i}", body) for i, body in enumerate(bodies)]
        assert not build_plan(pair).compiled
        assert_identical_runs(pair, corpus(10, seed=20))


# ---------------------------------------------------------------------------
# Every veto of the deleted AST classifier: refused by compile_lf, or compiled
# and identical on planted per-row failures
# ---------------------------------------------------------------------------

_PICK = {"size": len}
_CHAIN_VOCAB = frozenset({"w", "c", "tre"})


def _opaque_helper(text):
    return len(text) % 2


def _veto_statement(candidate):  # "statement While is outside the subset"
    count = 0
    while count < candidate.token_distance():
        count += 2
    return POSITIVE if count % 4 else ABSTAIN


def _veto_dead_statement(candidate):  # the same veto, on code that never runs
    if _DEAD_FLAG:
        try:
            return int(candidate.sentence.text)
        except ValueError:
            raise
    return POSITIVE if len(candidate.words_between()[0]) > 2 else ABSTAIN


def _veto_expression(candidate):  # "expression NamedExpr is outside the subset"
    if (distance := candidate.token_distance()) > 10:
        return POSITIVE
    return NEGATIVE if distance < 2 else ABSTAIN


def _veto_nested_def(candidate):  # "nested function definition"
    def far(limit):
        return candidate.token_distance() > limit

    return POSITIVE if far(10) else ABSTAIN


def _veto_computed_callable(candidate):  # "call through a computed callable"
    return POSITIVE if _PICK["size"](candidate.words_between()[0]) > 2 else ABSTAIN


def _veto_local_callable(candidate):  # "calls locally-bound callable"
    measure = len
    return NEGATIVE if measure(candidate.words_between()[0]) > 5 else ABSTAIN


def _veto_unresolvable_callable(candidate):  # "calls unresolvable callable"
    return POSITIVE if no_such_helper(candidate) else ABSTAIN  # noqa: F821


def _veto_opaque_callable(candidate):  # "calls opaque callable"
    return POSITIVE if _opaque_helper(candidate.sentence.text) else ABSTAIN


def _veto_computed_receiver(candidate):  # "method call on a computed object"
    first = candidate.words_between()[0].lower().split("a")[0]
    return POSITIVE if first in _CHAIN_VOCAB else ABSTAIN


def _veto_unresolvable_chain(candidate):  # "calls unresolvable a.b"
    return POSITIVE if no_such_module.check(candidate) else ABSTAIN  # noqa: F821


def _veto_opaque_chain(candidate):  # "calls opaque callable a.b"
    return POSITIVE if dataclasses.is_dataclass(candidate.sentence) else ABSTAIN


def _veto_no_shape(candidate):  # "no recognizable predicate shape"
    pass


def _sourceless_body():  # "source unavailable"
    namespace = {}
    exec("def body(candidate):\n    return 1\n", namespace)
    return namespace["body"]


_REFUSED, _IDENTICAL = "compile_lf refuses", "compiles, identical"

_VETOES = [
    ("statement", _veto_statement, _REFUSED),
    ("statement-in-dead-arm", _veto_dead_statement, _IDENTICAL),
    ("expression", _veto_expression, _REFUSED),
    ("nested-def", _veto_nested_def, _REFUSED),
    ("computed-callable", _veto_computed_callable, _IDENTICAL),
    ("local-callable", _veto_local_callable, _IDENTICAL),
    ("unresolvable-callable", _veto_unresolvable_callable, _REFUSED),
    ("opaque-callable", _veto_opaque_callable, _REFUSED),
    ("computed-receiver", _veto_computed_receiver, _IDENTICAL),
    ("unresolvable-chain", _veto_unresolvable_chain, _REFUSED),
    ("opaque-chain", _veto_opaque_chain, _REFUSED),
    ("source-unavailable", _sourceless_body(), _REFUSED),
    ("lambda", lambda c: POSITIVE if len(c.words_between()[0]) > 2 else ABSTAIN, _IDENTICAL),
    ("no-shape", _veto_no_shape, _REFUSED),
]


@pytest.mark.parametrize("body,expected", [v[1:] for v in _VETOES], ids=[v[0] for v in _VETOES])
def test_every_classifier_veto_is_refused_or_reproduced(body, expected):
    lf = LabelingFunction("lf_veto", body)
    candidates = corpus(200, seed=21, error_rate=0.3)
    if expected == _REFUSED:
        with pytest.raises(CompileError):
            compile_lf(lf)
    else:
        compile_lf(lf)
    report = assert_identical_runs([lf], candidates, chunk_size=64)
    assert report.pushdown.compiled == ["lf_veto"] * (expected == _IDENTICAL)
    if expected == _IDENTICAL:
        assert report.num_errors > 0  # IndexError on adjacent spans, the planted 7s


# ---------------------------------------------------------------------------
# require-mode diagnostics
# ---------------------------------------------------------------------------


class TestRequireMode:
    def test_require_passes_when_all_compile(self):
        candidates = corpus(50, seed=11)
        matrix = LFApplier(
            full_suite(), fault_tolerant=True, pushdown="require"
        ).apply(candidates)
        assert matrix.shape == (50, len(full_suite()))

    def test_require_names_every_offender_with_reason(self):
        lfs = full_suite() + [opaque_lf()]
        with pytest.raises(LabelingError) as exc:
            LFApplier(lfs, fault_tolerant=True, pushdown="require").apply(corpus(10))
        message = str(exc.value)
        assert "lf_opaque_random" in message
        assert 'pushdown="require"' in message

    def test_unknown_mode_rejected(self):
        with pytest.raises(LabelingError):
            LFApplier(LINT_LFS(), pushdown="always")


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


class TestReporting:
    def test_lf_seconds_and_pushdown_summary(self):
        lfs = full_suite() + [opaque_lf()]
        applier = LFApplier(lfs, fault_tolerant=True, pushdown="auto", chunk_size=64)
        applier.apply(corpus(300, seed=12))
        report = applier.last_report
        assert set(report.lf_seconds) == {lf.name for lf in lfs}
        assert all(seconds >= 0.0 for seconds in report.lf_seconds.values())
        summary = report.pushdown
        assert summary.compile_seconds >= 0.0
        assert summary.compiled_seconds > 0.0
        assert summary.fallback_seconds > 0.0
        assert summary.fallback["lf_opaque_random"]

    def test_off_mode_reports_lf_seconds_without_summary(self):
        applier = LFApplier(LINT_LFS(), fault_tolerant=True, pushdown="off")
        applier.apply(corpus(100, seed=13))
        report = applier.last_report
        assert set(report.lf_seconds) == {lf.name for lf in LINT_LFS()}
        assert report.pushdown is None

    def test_plan_is_cached_per_suite(self):
        """Each LF compiles once per process: a second apply, and a new
        applier over the same LF objects, compile nothing."""
        lfs = LINT_LFS()
        applier = LFApplier(lfs, fault_tolerant=True, pushdown="auto")
        applier.apply(corpus(30, seed=14))
        assert applier.last_report.pushdown.compile_seconds > 0.0
        programs = [clf.program for clf in applier._pushdown_plan().compiled]
        applier.apply(corpus(30, seed=15))
        assert applier.last_report.pushdown.compile_seconds == 0.0
        fresh = LFApplier(lfs, fault_tolerant=True, pushdown="auto")
        fresh.apply(corpus(30, seed=15))
        assert fresh.last_report.pushdown.compile_seconds == 0.0
        assert [clf.program for clf in fresh._pushdown_plan().compiled] == programs

    @pytest.mark.parametrize("mode", ["auto", "off"])
    def test_edit_loop_does_not_keep_superseded_suites_alive(self, mode):
        """``applier.lfs[0] = new_lf; applier.apply(...)`` N times: plans and
        worker payloads hold their LFs, so the caches must follow the suite."""
        candidates = corpus(30, seed=16)
        applier = LFApplier(LINT_LFS(), fault_tolerant=True, pushdown=mode)
        featurizer = RelationFeaturizer(num_features=32).fit()
        superseded = []
        for edit in range(6):
            superseded.append(weakref.ref(applier.lfs[0]))
            applier.lfs[0] = LabelingFunction(f"edit_{edit}", lambda c: 0)
            applier.apply(candidates)
            applier.apply_with_features(candidates, featurizer)
        gc.collect()
        assert [ref() for ref in superseded] == [None] * 6
        # The compile memo holds the live suite (under "auto") and no dead LF.
        assert (applier.lfs[0] in pushdown_task._DECISIONS) == (mode == "auto")
        # One suite, two passes (with / without a featurizer): both stay warm.
        assert len(applier._spec_payloads) == 2
        payloads = list(applier._spec_payloads.values())
        applier.apply(candidates)
        applier.apply_with_features(candidates, featurizer)
        assert [a is b for a, b in zip(payloads, applier._spec_payloads.values())] == [True] * 2


# ---------------------------------------------------------------------------
# Hypothesis: compile-or-clean-fallback, never wrong labels
# ---------------------------------------------------------------------------


@given(
    num_points=st.integers(0, 120),
    seed=st.integers(0, 2**16),
    error_rate=st.floats(0.0, 0.3),
    chunk_size=st.integers(1, 64),
)
@settings(max_examples=20, deadline=None)
def test_fuzz_randomized_corpora_identical(num_points, seed, error_rate, chunk_size):
    candidates = list(
        stream_relation_candidates(
            num_points=num_points, seed=seed, error_rate=error_rate
        )
    )
    lfs = LINT_LFS()
    plan = build_plan(lfs)
    assert isinstance(plan, PushdownPlan)
    base = apply_chunk(lfs, True, 0, 0, candidates)
    push = label_chunk_pushdown(plan, True, 0, 0, candidates)
    np.testing.assert_array_equal(base.row_offsets, push.row_offsets)
    np.testing.assert_array_equal(base.cols, push.cols)
    np.testing.assert_array_equal(base.values, push.values)
    assert base.errors == push.errors
    assert {k: v.type_counts for k, v in base.error_details.items()} == {
        k: v.type_counts for k, v in push.error_details.items()
    }


def _make_candidate(uid, words):
    """A two-span candidate over arbitrary (possibly adversarial) tokens."""
    words = list(words)
    sentence = SentenceView(words=words, text=" ".join(words), position=uid % 9)
    return Candidate(
        uid=uid,
        span1=SpanView(
            text=words[0], word_start=0, word_end=1, entity_type="chemical",
            canonical_id=words[0],
        ),
        span2=SpanView(
            text=words[-1], word_start=len(words) - 1, word_end=len(words),
            entity_type="disease", canonical_id=words[-1],
        ),
        sentence=sentence,
        relation_type="causes",
    )


# Token alphabet aimed at the string kernels' guards: case-exotic characters
# (long s, dotless i, Kelvin sign), NULs (numpy U-dtype drops trailing NULs),
# plus ordinary cue words the LINT suite reacts to.
_TOKENS = st.one_of(
    st.sampled_from(["causes", "CAUSES", "treats", "causſ", "ı", "KK", "x"]),
    st.text(alphabet="castreſı\x00İK ", min_size=0, max_size=6),
)


@given(rows=st.lists(st.lists(_TOKENS, min_size=2, max_size=10), min_size=1, max_size=40))
@settings(max_examples=25, deadline=None)
def test_fuzz_adversarial_token_text_identical(rows):
    candidates = [_make_candidate(i, words) for i, words in enumerate(rows)]
    lfs = LINT_LFS()
    plan = build_plan(lfs)
    base = apply_chunk(lfs, True, 0, 0, candidates)
    push = label_chunk_pushdown(plan, True, 0, 0, candidates)
    np.testing.assert_array_equal(base.row_offsets, push.row_offsets)
    np.testing.assert_array_equal(base.cols, push.cols)
    np.testing.assert_array_equal(base.values, push.values)
    assert base.errors == push.errors


def test_contains_any_guard_stays_callable():
    # The compiler's membership specialization precomputes the normalized
    # vocabulary at compile time; the helper must stay usable directly.
    assert contains_any(["CAUSES"], {"causes"})
