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
the generator / coroutine refusals, one case per veto of the AST classifier
that used to gate it and one per lowering that left with the shapes no
served suite uses — each refused by ``compile_lf`` and run interpreted —
and the census of the served suites the compiled tier is sized to.
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
from repro.labeling.declarative import pattern_lf
from repro.labeling.engine.accumulator import apply_chunk
from repro.labeling.lf import LabelingFunction
from repro.labeling.pushdown import CompileError, compile_lf, label_chunk_pushdown
from repro.labeling.pushdown import task as pushdown_task
from repro.types import ABSTAIN, NEGATIVE, POSITIVE
from repro.utils.textutils import contains_any, normalize

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


def _value_and_body(candidate):
    # Value-position ``and`` of two comparisons returns a real bool.
    return candidate.token_distance() < 4 and candidate.token_distance() > 1


def _value_or_body(candidate):
    return candidate.token_distance() < 4 or candidate.token_distance() > 1


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
        LabelingFunction("lf_planted_entity_eq", _entity_eq_body),
        # A body the deleted classifier vetoed and the compiler always handled.
        LabelingFunction(
            "lf_planted_lambda", lambda c: POSITIVE if c.token_distance() > 15 else ABSTAIN
        ),
        LabelingFunction("lf_planted_value_and", _value_and_body),
        LabelingFunction("lf_planted_value_or", _value_or_body),
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
# The candidate's alias properties, which the compiler resolves by name
# ---------------------------------------------------------------------------


def _parent_body(candidate):
    return POSITIVE if candidate.parent.text == candidate.sentence.text else NEGATIVE


def _chemical_body(candidate):
    return POSITIVE if candidate.chemical.word_start < candidate.span2.word_start else NEGATIVE


def _disease_body(candidate):
    return POSITIVE if candidate.span1.word_start < candidate.disease.word_start else NEGATIVE


def _person1_body(candidate):
    return POSITIVE if candidate.person1.word_start < candidate.span2.word_start else NEGATIVE


def _person2_body(candidate):
    return POSITIVE if candidate.span1.word_start < candidate.person2.word_start else NEGATIVE


@pytest.mark.parametrize(
    "body", [_parent_body, _chemical_body, _disease_body, _person1_body, _person2_body],
    ids=["parent", "chemical", "disease", "person1", "person2"],
)  # fmt: skip
def test_alias_reads_compile_to_the_property_they_name(body):
    """``compiler.py::_SPAN_ALIASES`` / ``_SENTENCE_ALIASES`` against the
    ``Candidate`` properties: each body compares the alias with the field it
    names, so an alias compiled to the other span reads ``x < x`` and labels
    every row NEGATIVE, where the interpreted property labels some POSITIVE."""
    lf = LabelingFunction(body.__name__, body)
    assert not build_plan([lf]).fallback
    candidates = corpus(200, seed=3)
    base = LFApplier([lf], pushdown="off").apply(candidates)
    assert (base.values == POSITIVE).any()
    assert_identical_runs([lf], candidates)


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


def _truthiness_body(candidate):
    if SETTINGS:
        return POSITIVE
    return NEGATIVE


def _len_body(candidate):
    return POSITIVE if len(WORDS) > 1 else NEGATIVE


def _attribute_body(candidate):
    return POSITIVE if candidate.token_distance() < CONFIG.limit else NEGATIVE


def _membership_body(candidate):
    return POSITIVE if "x" in FLAGS else NEGATIVE


_MUTATED_BODIES = {
    "truthiness": _truthiness_body,
    "len": _len_body,
    "attribute": _attribute_body,
    "membership": _membership_body,
}


NESTED: list = []
TABLE: dict = {}


def _nested_list_body(candidate):
    if NESTED == [[1]]:
        return POSITIVE
    return NEGATIVE


_TABLE_AS_BUILT = {"on": [1]}


def _dict_of_lists_body(candidate):
    return POSITIVE if TABLE == _TABLE_AS_BUILT else NEGATIVE


class _PairReader:
    """A callable instance whose attribute holds a list inside a tuple."""

    def __init__(self, pair):
        self.pair = pair

    def __call__(self, candidate):
        return POSITIVE if self.pair == ("on", [1]) else NEGATIVE


def _gated_body(candidate):
    if SETTINGS:
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

    @pytest.mark.parametrize("mutate", ["truthiness", "len", "attribute", "membership"])
    def test_a_constant_mutated_in_place_recompiles(self, monkeypatch, mutate):
        """Regression: a fold read into a constant (``if SETTINGS``,
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
            "truthiness": settings.clear,
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

        settings: dict = {}
        monkeypatch.setitem(globals(), "SETTINGS", settings)
        lf = LabelingFunction("lf_gated", _gated_body)
        assert analyze_lf(lf).pushdown.compilable
        assert build_plan([lf]).compiled_names == ["lf_gated"]
        settings["on"] = True  # the folded-dead arm is live now, and opaque
        assert not analyze_lf(lf).pushdown.compilable
        assert build_plan([lf]).fallback_names == ["lf_gated"]

    @pytest.mark.parametrize("case", ["nested-list", "dict-of-lists", "instance-attribute"])
    def test_a_nested_container_mutated_in_place_recompiles(self, monkeypatch, case):
        """Regression: a fold kept a shallow copy of what it read (and
        nothing of a tuple), so an edit one level down — ``NESTED[0].append``
        — left compiled labeling with what the fold saw."""
        nested, table, pair = [[1]], {"on": [1]}, ("on", [1])
        monkeypatch.setitem(globals(), "NESTED", nested)
        monkeypatch.setitem(globals(), "TABLE", table)
        body, inner = {
            "nested-list": (_nested_list_body, nested[0]),
            "dict-of-lists": (_dict_of_lists_body, table["on"]),
            "instance-attribute": (_PairReader(pair), pair[1]),
        }[case]
        lf = LabelingFunction(f"lf_{case}", body)
        candidates = corpus(20, seed=22)
        applier = LFApplier([lf], pushdown="auto")
        assert applier.apply(candidates).values.ravel().tolist() == [POSITIVE] * 20
        assert applier.last_report.pushdown.compiled == [lf.name]
        inner.append(3)
        interpreted = LFApplier([lf], pushdown="off").apply(candidates).values
        assert interpreted.ravel().tolist() == [NEGATIVE] * 20
        np.testing.assert_array_equal(applier.apply(candidates).values, interpreted)

    def test_a_fold_read_with_no_encoding_is_refused(self, monkeypatch):
        # An object() holds state no encoding sees: nothing could revalidate it.
        monkeypatch.setitem(globals(), "WORDS", [object(), object()])
        lf = LabelingFunction("lf_len", _len_body)
        with pytest.raises(CompileError, match="no encoding"):
            compile_lf(lf)
        assert_identical_runs([lf], corpus(20, seed=23))

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


@pytest.mark.parametrize("name", ["cdr", "chem", "ehr", "spouses", "radiology", "crowd"])
def test_task_suite_matches_interpreted(name):
    """Every registered task's own suite, applied: compiled == interpreted
    over its train candidates, fallbacks included (radiology's report LFs,
    crowd's fully interpreted workers)."""
    from repro.datasets import load_task

    task = load_task(name, scale=0.05, seed=0)
    assert_identical_runs(task.lfs, task.split_candidates("train"))


def _census():
    """``(name, lfs, number compiled)`` for every suite the library serves, at seed 0."""
    from repro.datasets import load_task
    from repro.datasets.synthetic import text_vote_lfs
    from repro.userstudy.simulate import generate_participants, participant_lfs
    from repro.utils.rng import ensure_rng

    tasks = {"cdr": 32, "chem": 16, "ehr": 24, "spouses": 16, "radiology": 14}
    for name, compiled in tasks.items():
        yield name, load_task(name, scale=0.05, seed=0).lfs, compiled
    yield "text_vote_lfs(20, 2)", text_vote_lfs(20, 2), 20
    yield "text_vote_lfs(20, 4)", text_vote_lfs(20, 4), 20
    yield "LINT_LFS", LINT_LFS(), 11
    rng = ensure_rng(0)
    profiles = generate_participants(14, seed=rng)
    participants = [lf for profile in profiles for lf in participant_lfs(profile, rng)]
    yield "participants", participants, len(participants)


def _reachable_node_classes(nodes) -> set:
    """The ``ColExpr`` classes reachable from ``nodes`` through their slots."""
    from repro.labeling.pushdown.program import ColExpr

    classes, stack, seen = set(), list(nodes), set()
    while stack:
        node = stack.pop()
        if isinstance(node, (tuple, list)):
            stack.extend(node)
        elif isinstance(node, ColExpr) and id(node) not in seen:
            seen.add(id(node))
            classes.add(type(node))
            for cls in type(node).__mro__:
                stack.extend(getattr(node, slot, None) for slot in getattr(cls, "__slots__", ()))
    return classes


def test_served_suite_census():
    """Every served suite compiles as counted, and the node kinds its
    programs reach are exactly the kinds ``program.py`` defines: a kind no
    served program builds is deleted, and comes back only with a suite that
    needs it."""
    from repro.labeling.pushdown import program

    reached = set()
    for name, lfs, num_compiled in _census():
        plan = build_plan(lfs)
        assert len(plan.compiled) == num_compiled, (name, plan.fallback_reasons)
        for clf in plan.compiled:
            reached |= _reachable_node_classes(
                node for branch in clf.program.branches for node in (branch.guard, branch.column)
            )
        if name == "radiology":  # the three LFs reading sentence.document_metadata
            assert plan.fallback_names == ["lf_mesh_abnormal", "lf_mesh_normal", "lf_short_report"]
    defined = {
        value for value in vars(program).values()
        if isinstance(value, type) and issubclass(value, program.ColExpr)
        and value is not program.ColExpr
    }
    assert {cls.__name__ for cls in reached} == {cls.__name__ for cls in defined}


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
        return NEGATIVE  # getsource(wrapper) is the wrapped definition; this runs

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
        ],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_dead_bindings_and_wrappers_are_refused(self, body, why):
        with pytest.raises(CompileError, match=why):
            compile_lf(LabelingFunction(body.__name__, body))

    def test_a_wrapper_compiles_to_its_own_body(self):
        # Regression: compiled to POSITIVE (the wrapped definition's body)
        # while the wrapper returns NEGATIVE; then, reading the wrapped
        # definition for the wrapper's code, never compiled ("source ambiguous").
        lf = LabelingFunction(_wrapped_body.__name__, _wrapped_body)
        branches = compile_lf(lf).branches
        assert [(b.guard, b.value, b.column) for b in branches] == [(None, NEGATIVE, None)]
        report = assert_identical_runs([lf], corpus(50, seed=19))
        assert report.pushdown.compiled == [lf.name]

    @pytest.mark.filterwarnings("ignore:coroutine .* was never awaited")
    def test_refused_bodies_match_interpreted(self):
        bodies = _NOT_PLAIN_CALLS + [_dead_del_body, _dead_import_body]
        lfs = [LabelingFunction(body.__name__, body) for body in bodies]
        report = assert_identical_runs(lfs, corpus(50, seed=19))
        assert not report.pushdown.compiled
        for body in bodies:
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


_VETOES = [
    ("statement", _veto_statement),
    ("statement-in-dead-arm", _veto_dead_statement),
    ("expression", _veto_expression),
    ("nested-def", _veto_nested_def),
    ("computed-callable", _veto_computed_callable),
    ("local-callable", _veto_local_callable),
    ("unresolvable-callable", _veto_unresolvable_callable),
    ("opaque-callable", _veto_opaque_callable),
    ("computed-receiver", _veto_computed_receiver),
    ("unresolvable-chain", _veto_unresolvable_chain),
    ("opaque-chain", _veto_opaque_chain),
    ("source-unavailable", _sourceless_body()),
    ("lambda", lambda c: POSITIVE if len(c.words_between()[0]) > 2 else ABSTAIN),
    ("no-shape", _veto_no_shape),
]


@pytest.mark.parametrize("body", [v[1] for v in _VETOES], ids=[v[0] for v in _VETOES])
def test_every_classifier_veto_is_refused_or_reproduced(body):
    lf = LabelingFunction("lf_veto", body)
    with pytest.raises(CompileError):
        compile_lf(lf)
    report = assert_identical_runs([lf], corpus(200, seed=21, error_rate=0.3), chunk_size=64)
    assert report.pushdown.compiled == []


# ---------------------------------------------------------------------------
# Shapes no served suite uses: refused, and interpreted as before
# ---------------------------------------------------------------------------

_LABELS = {"near": POSITIVE}
_ALWAYS = True
_VOCAB = frozenset({"causes", "treats", "w3"})
_PAIRS = frozenset({("causes", 1)})


def _column_subscript(candidate):
    return POSITIVE if candidate.sentence.words[0] == "w0" else ABSTAIN


def _constant_subscript(candidate):
    return _LABELS["near"] if candidate.token_distance() < 3 else ABSTAIN


def _column_len(candidate):
    return POSITIVE if len(candidate.words_between()) > 2 else ABSTAIN


def _column_min(candidate):
    return min(candidate.token_distance(), 1)


def _column_neg(candidate):
    return -candidate.span1_precedes_span2()


def _column_arithmetic(candidate):
    return NEGATIVE if candidate.span2.word_end - candidate.span1.word_start > 2 else ABSTAIN


def _any_generator(candidate):
    return POSITIVE if any(w in _VOCAB for w in candidate.words_between()) else ABSTAIN


def _all_generator(candidate):
    return NEGATIVE if all(w.startswith("w") for w in candidate.words_between()) else ABSTAIN


def _container_generator(candidate):
    return POSITIVE if frozenset(w for w in candidate.words_between()) & _VOCAB else ABSTAIN


def _contains_any(candidate):
    return POSITIVE if contains_any(candidate.words_between(), _VOCAB) else ABSTAIN


def _column_method(candidate):
    return POSITIVE if candidate.sentence.text.startswith("w0") else ABSTAIN


def _constant_method(candidate):
    return POSITIVE if "causes w3".startswith(candidate.span1.text) else ABSTAIN


def _span_word_range(candidate):
    return POSITIVE if candidate.span1.get_word_range() < (3, 4) else ABSTAIN


def _absorbing_constant(candidate):
    return POSITIVE if candidate.token_distance() > 2 or _ALWAYS else ABSTAIN


def _scalar_and(candidate):
    for w in candidate.words_between():
        if w.startswith("c") and w.endswith("s"):
            return POSITIVE
    return ABSTAIN


def _scalar_not(candidate):
    for w in candidate.words_between():
        if not w.startswith("w"):
            return POSITIVE
    return ABSTAIN


def _scalar_arithmetic(candidate):
    for w in candidate.words_between():
        if w + "!" == "causes!":
            return POSITIVE
    return ABSTAIN


def _scalar_tuple(candidate):
    for w in candidate.words_between():
        if (w, 1) in _PAIRS:
            return POSITIVE
    return ABSTAIN


def _value_and_non_bool(candidate):
    return candidate.token_distance() < 4 and 1


def _scalar_two_argument_call(candidate):
    for w in candidate.words_between():
        if int(w, 36) > 0:
            return POSITIVE
    return ABSTAIN


def _scalar_element_argument(candidate):
    for w in candidate.words_between():
        if w.endswith(w[:1]):
            return NEGATIVE
    return ABSTAIN


_REMOVED_SHAPES = {
    "planted-clamped": _clamped_projection_body,
    "planted-chained": _chained_body,
    "planted-vocab-reader": _VocabReader(frozenset({"treats", "w3"})),
    "column-subscript": _column_subscript,
    "constant-subscript": _constant_subscript,
    "len-of-column": _column_len,
    "min-max-of-column": _column_min,
    "unary-minus-of-column": _column_neg,
    "column-arithmetic": _column_arithmetic,
    "any-over-generator": _any_generator,
    "all-over-generator": _all_generator,
    "container-over-generator": _container_generator,
    "contains-any": _contains_any,
    "method-of-column": _column_method,
    "non-regex-method-of-constant": _constant_method,
    "window": pattern_lf("causes", where="left", window_size=2).function,
    "get-word-range": _span_word_range,
    "multi-token-phrase": pattern_lf("w3 w4", where="sentence").function,
    "absorbing-constant": _absorbing_constant,
    "scalar-and-or": _scalar_and,
    "scalar-unary": _scalar_not,
    "scalar-arithmetic": _scalar_arithmetic,
    "scalar-tuple": _scalar_tuple,
    "scalar-multi-argument-call": _scalar_two_argument_call,
    "scalar-method-reading-the-element": _scalar_element_argument,
    "value-position-and-or-non-boolean": _value_and_non_bool,
}


@pytest.mark.parametrize("body", _REMOVED_SHAPES.values(), ids=_REMOVED_SHAPES.keys())
def test_removed_shapes_refuse_and_match_interpreted(body):
    """One case per lowering deleted with the node kinds no served suite
    built (``Map2``, ``ContainsPhrase``, ``AnyElem``, ``ConstBool``,
    ``NegCol``, ``LenCol``, ``BinCol``), plus the refused edge of a kept one
    (a value-position ``and`` with a non-boolean operand): each body is
    refused, and runs interpreted with the labels and errors it always had."""
    lf = LabelingFunction("lf_removed", body)
    with pytest.raises(CompileError):
        compile_lf(lf)
    report = assert_identical_runs([lf], corpus(200, seed=24, error_rate=0.3), chunk_size=64)
    assert report.pushdown.compiled == [] and report.pushdown.fallback


def _or_masks_right_errors(candidate):
    # ``text_between()`` raises (TypeError) on a planted non-string token;
    # ``or`` runs it only where the distance test is false.
    near = candidate.token_distance() < 5
    return POSITIVE if near or "causes" in candidate.text_between() else ABSTAIN


def _leftmost_error_wins(candidate):
    # Both operands raise on a planted row: AttributeError on the left,
    # TypeError on the right; the interpreted run raises the left one.
    tokens = [normalize(w) for w in candidate.words_between()]
    return POSITIVE if tokens == candidate.text_between() else ABSTAIN


def _unhashable_set_display(candidate):
    # Regression: building the set raised out of the compiled chunk, not per row.
    tokens = {candidate.words_between(), candidate.token_distance()}
    return POSITIVE if tokens else ABSTAIN


@pytest.mark.parametrize(
    "body", [_or_masks_right_errors, _leftmost_error_wins, _unhashable_set_display]
)
def test_errors_follow_the_interpreted_evaluation_order(body):
    lf = LabelingFunction(body.__name__, body)
    report = assert_identical_runs([lf], corpus(200, seed=28, error_rate=0.3), chunk_size=64)
    assert report.pushdown.compiled == [lf.name] and report.errors[lf.name]


@pytest.mark.parametrize("constant", [10**30, -(2**63) - 1, 2**63, 2**63 - 1, -1])
def test_vector_comparisons_match_interpreted_at_int64_edges(constant):
    """A comparison of an exact-int or bool column with an int constant runs
    in numpy; numpy refuses an int beyond int64 against a bool array, so
    such a constant takes the per-row path."""
    lfs = [
        LabelingFunction(
            "lf_bool_lt", lambda c: POSITIVE if c.span1_precedes_span2() < constant else ABSTAIN
        ),
        LabelingFunction(
            "lf_bool_eq", lambda c: POSITIVE if constant == c.span1_precedes_span2() else ABSTAIN
        ),
        LabelingFunction(
            "lf_int_ge", lambda c: POSITIVE if c.token_distance() >= constant else ABSTAIN
        ),
    ]
    report = assert_identical_runs(lfs, corpus(200, seed=27, error_rate=0.3), chunk_size=64)
    assert report.pushdown.compiled == [lf.name for lf in lfs]


def test_constant_loop_with_a_predicate_lowers_to_token_scan():
    """The first-match loop with a constant return and a test that is not a
    vocabulary membership is a ``TokenScan`` whose arm returns the constant."""
    from repro.labeling.pushdown.program import TokenScan

    def first_w(candidate):
        for w in candidate.sentence.words:
            if w.startswith("w3"):
                return NEGATIVE
        return ABSTAIN

    lf = LabelingFunction("lf_first_w", first_w)
    (branch, _abstain) = compile_lf(lf).branches
    assert isinstance(branch.guard, TokenScan)
    report = assert_identical_runs([lf], corpus(200, seed=25, error_rate=0.3), chunk_size=64)
    assert report.pushdown.compiled == ["lf_first_w"] and report.num_errors > 0


def test_a_loop_variable_bound_before_the_loop_is_the_element_inside():
    """Regression: a name bound before ``for t in ...`` kept its old binding
    inside the loop, so ``return t`` compiled to the constant 1 while the
    interpreted LF returns the token and raises on it."""

    def shadowed(candidate):
        t = 1
        for t in candidate.sentence.words:
            if t.startswith("w3"):
                return t
        return 0

    lf = LabelingFunction("lf_shadowed", shadowed)
    report = assert_identical_runs([lf], corpus(60, seed=26), chunk_size=16)
    assert report.pushdown.compiled == ["lf_shadowed"] and report.num_errors > 0


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
