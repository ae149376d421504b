"""The LF linter: lints, the pushdown verdict, and the oracles behind them.

Five layers are covered:

* **Library coverage** — ``analyze_lf`` over every LF the library ships
  (the ``lf_library`` representative suite and the synthetic vote suites):
  no diagnostics, and every declarative LF compiles (verdict COMPILABLE,
  which is the pushdown decider's answer) with the expected shape.
* **Planted violations** — one module-level LF per hazard.  Each ``LF2xx`` /
  ``LF3xx`` exemplar draws its code; each hazard the linter leaves to another
  path is asserted against that path (``LF101``: applying the LF raises;
  ``LF102`` / ``LF103``: the LF summary reads coverage 1.0 / 0.0; ``LF401``:
  the compiler refuses it).  Plus the processes-backend divergence proof:
  the ``LF301`` LF really does produce different label matrices across
  applies and loses its state across the fork boundary.
* **Engine chunk tasks** — every built-in task, and planted impure ones,
  under the dynamic purity shim (``reference_purity.PurityCheckedTask``).
* **Fuzzing** — hypothesis-generated small LF bodies: the lint pass and the
  compiler never crash (the compiler only ever refuses with ``CompileError``),
  planted hazards are never missed by the lint nor compiled, an out-of-range
  label always raises at apply, and an accepted body labels as the
  interpreted one does.  The compiler carries the hazard invariant alone (no
  lint gates it): a matrix plants each hazard in a body it otherwise accepts.
* **Source extraction** — what the compiler and the lint read is the code
  that runs: an LF edited on disk after import is refused, not compiled from
  the edit.
"""

import ast
import importlib
import itertools
import linecache
import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_purity import PurityCheckedTask, crosscheck, observe_lf, observe_task_purity

from repro.analysis import CODES, Severity, analyze_lf, analyze_suite
from repro.analysis.lint import lint_function
from repro.datasets.lf_library import LINT_LFS
from repro.datasets.synthetic import (
    stream_relation_candidates,
    stream_synthetic_candidates,
    stream_text_candidates,
    synthetic_vote_lfs,
    text_vote_lfs,
)
from repro.exceptions import LabelingError
from repro.labeling import LabelingFunction, LFAnalysis, LFApplier, labeling_function
from repro.labeling.pushdown.compiler import CompileError, _Compiler, compile_lf
from repro.labeling.source import SourceInfo, extract_source
from repro.types import ABSTAIN, NEGATIVE, POSITIVE

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Every ``repro`` module a bare ``import repro`` loads (the import budget).
IMPORT_REPRO_LOADS = """
repro
repro.context repro.context.candidates repro.context.contexts repro.context.corpus
repro.context.extraction repro.context.preprocessing
repro.exceptions
repro.labeling repro.labeling.analysis repro.labeling.applier repro.labeling.declarative
repro.labeling.engine repro.labeling.engine.accumulator repro.labeling.engine.executors
repro.labeling.engine.faults repro.labeling.engine.plan repro.labeling.engine.runtime
repro.labeling.engine.tasks repro.labeling.generators repro.labeling.lf repro.labeling.matrix
repro.labeling.pushdown repro.labeling.pushdown.compiler repro.labeling.pushdown.fields
repro.labeling.pushdown.program repro.labeling.pushdown.task repro.labeling.source
repro.labeling.sparse
repro.labelmodel repro.labelmodel.advantage repro.labelmodel.dawid_skene repro.labelmodel.elbow
repro.labelmodel.em repro.labelmodel.generative
repro.labelmodel.majority repro.labelmodel.online repro.labelmodel.optimizer
repro.labelmodel.structure repro.labelmodel.theory
repro.types
repro.utils repro.utils.csr repro.utils.mathutils repro.utils.rng repro.utils.textutils
repro.utils.tokens repro.utils.validation
""".split()


# --------------------------------------------------------------------------
# Planted-violation LFs (module level so inspect.getsource works).
# --------------------------------------------------------------------------
@labeling_function()
def lf_out_of_range(x):
    return 7 if x else ABSTAIN


@labeling_function()
def lf_never_abstains(x):
    return POSITIVE if x else NEGATIVE


@labeling_function()
def lf_always_abstains(x):
    return ABSTAIN


@labeling_function()
def lf_unseeded_random(x):
    return POSITIVE if random.random() > 0.5 else ABSTAIN


@labeling_function()
def lf_clock(x):
    return POSITIVE if time.time() % 2 > 1 else ABSTAIN


@labeling_function()
def lf_entropy(x):
    return POSITIVE if os.urandom(1)[0] > 127 else ABSTAIN


@labeling_function()
def lf_hash_dependent(x):
    return POSITIVE if hash(x) % 2 else ABSTAIN


_DIVERGENCE_COUNTER = {"calls": 0}


@labeling_function()
def lf_stateful(x):
    """LF301: module-state mutation — the divergence-proof LF."""
    _DIVERGENCE_COUNTER["calls"] += 1
    return POSITIVE if _DIVERGENCE_COUNTER["calls"] % 2 else ABSTAIN


def _make_closure_mutator():
    seen = []

    @labeling_function(name="lf_closure_mutator")
    def lf(x):
        seen.append(x)
        return POSITIVE if len(seen) % 2 else ABSTAIN

    return lf


@labeling_function()
def lf_mutates_candidate(x):
    x.visited = True
    return ABSTAIN


class _StatefulVoter:
    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return POSITIVE if self.calls % 2 else ABSTAIN


@labeling_function()
def lf_reads_file(x):
    with open("/dev/null") as handle:
        handle.read()
    return ABSTAIN


class _FixedDraw:
    """A draw that is the same on every call: nothing for the lint to flag."""

    def random(self):
        return 0.75


_DRAW = _FixedDraw()


@labeling_function()
def lf_draws_from_a_global(x):
    return POSITIVE if _DRAW.random() > 0.5 else ABSTAIN


_SEEDED_RANDOM = random.Random(0)
_SEEDED_GENERATOR = np.random.default_rng(0)
_SEEDED_STATE = np.random.RandomState(0)


@labeling_function()
def lf_draws_from_seeded_random(x):
    return POSITIVE if _SEEDED_RANDOM.random() > 0.5 else ABSTAIN


@labeling_function()
def lf_draws_from_seeded_generator(x):
    return POSITIVE if _SEEDED_GENERATOR.random() > 0.5 else ABSTAIN


@labeling_function()
def lf_draws_from_seeded_state(x):
    return POSITIVE if _SEEDED_STATE.rand() > 0.5 else ABSTAIN


@labeling_function()
def lf_shape_but_stateful(x):
    """Threshold shape the pushdown matches — but an LF301 hazard remains."""
    _DIVERGENCE_COUNTER["calls"] = _DIVERGENCE_COUNTER["calls"] + 1
    return POSITIVE if x.field > 3 else ABSTAIN


_ANNOTATED_STATE = {"last": None}
_DELETED_STATE = {"seen": True}


@labeling_function()
def lf_annotated_store(x):
    """LF301 through an annotated assignment (``visit_AnnAssign``)."""
    _ANNOTATED_STATE["last"]: object = x
    return ABSTAIN


@labeling_function()
def lf_deletes_shared_state(x):
    """LF301 through a ``del`` of module state (``visit_Delete``)."""
    del _DELETED_STATE["seen"]
    return ABSTAIN


EXPECTED_VIOLATIONS = [
    (lf_out_of_range, "LF101"),
    (lf_never_abstains, "LF102"),
    (lf_always_abstains, "LF103"),
    (lf_unseeded_random, "LF201"),
    (lf_clock, "LF202"),
    (lf_entropy, "LF203"),
    (lf_hash_dependent, "LF204"),
    (lf_stateful, "LF301"),
    (lf_mutates_candidate, "LF303"),
    (lf_reads_file, "LF401"),
]

#: The planted hazards with no lint code: another path catches each of them.
_CAUGHT_ELSEWHERE = ("LF101", "LF102", "LF103", "LF401")


def _caught_elsewhere(lf, code):
    """Assert the path that catches a hazard the linter has no code for."""
    if code == "LF101":  # canonical_label raises, compiled or not
        for pushdown in ("auto", "off"):
            with pytest.raises(LabelingError, match="returned 7"):
                LFApplier([lf], pushdown=pushdown).apply([1, 0])
    elif code in ("LF102", "LF103"):  # the LF summary reads its coverage
        summary = LFAnalysis(LFApplier([lf]).apply([1, 0, 2, 3])).summary()[0]
        assert summary.coverage == (1.0 if code == "LF102" else 0.0)
    else:  # LF401: the compiler refuses I/O
        with pytest.raises(CompileError):
            compile_lf(lf)


# --------------------------------------------------------------------------
# Planted impure chunk tasks (module level for inspect.getsource).
# --------------------------------------------------------------------------
def _task_pure(payload, fault_tolerant, index, start_row, candidates):
    return [payload[0](candidate) for candidate in candidates]


def _task_mutates_payload(payload, fault_tolerant, index, start_row, candidates):
    payload.cache = index
    return []


def _task_writes_featurizer(lfs_and_featurizer, fault_tolerant, index, start_row, candidates):
    lfs_and_featurizer.vocab["new"] = index
    return []


def _task_appends_to_payload(payload, fault_tolerant, index, start_row, candidates):
    payload.append(len(candidates))
    return len(payload)


# ==========================================================================
# Library coverage: every shipped LF classifies cleanly.
# ==========================================================================
class TestLibraryCoverage:
    def test_every_library_lf_is_clean_and_compilable(self):
        report = analyze_suite(LINT_LFS())
        assert len(report) == 11
        for result in report:
            assert result.clean, result.lf_name
            assert result.pushdown.compilable, result.lf_name

    def test_library_pushdown_shapes(self):
        report = analyze_suite(LINT_LFS())
        shape_of = {r.lf_name: r.pushdown.shape for r in report}
        # Pattern LFs compile to membership tests, regex LFs to regex_match,
        # distant supervision to KB membership, structure heuristics to
        # threshold/equality comparisons — the shapes a relational pushdown
        # would compile to LIKE / IN / comparison predicates.
        assert shape_of["lf_pos_causes"] == "membership"
        assert shape_of["lf_stem_caus"] == "regex_match"
        assert shape_of["lf_lint_kb_known_pairs"] == "membership"
        assert shape_of["lf_far_apart"] == "threshold_compare"
        assert shape_of["lf_adjacent_arguments"] == "field_equality"

    def test_synthetic_vote_lfs_fully_clean(self):
        report = analyze_suite(synthetic_vote_lfs(4) + text_vote_lfs(3))
        for result in report:
            assert result.clean, result.lf_name
        # The text readers scan real candidates' tokens and compile; the
        # synthetic readers subscript a ``votes`` array, a shape outside the
        # compilable subset, and the verdict says so.
        for result in report.results[:4]:
            assert result.pushdown.status == "OPAQUE"
            assert "compiler refused: unsupported expression Subscript" in result.pushdown.detail
        for result in report.results[4:]:
            assert result.pushdown.compilable
            assert result.pushdown.shape == "token_scan"

    def test_diagnostic_codes_are_registered(self):
        # Only nondeterminism and shared-state codes remain; every other
        # planted hazard is caught by another path (_caught_elsewhere).
        assert sorted(CODES) == [f"LF{n}" for n in (201, 202, 203, 204, 301, 302, 303, 304)]
        for lf, code in EXPECTED_VIOLATIONS:
            assert (code in CODES) != (code in _CAUGHT_ELSEWHERE), code

    def test_library_crosscheck_agrees(self):
        candidates = list(
            stream_synthetic_candidates(num_points=40, num_lfs=4, propensity=0.5, seed=0)
        )
        for lf in synthetic_vote_lfs(4):
            static = analyze_lf(lf)
            observed = observe_lf(lf, candidates)
            assert observed.deterministic
            assert not observed.mutated_state
            assert crosscheck(static, observed) == []


# ==========================================================================
# Planted violations: every diagnostic class fires on its exemplar.
# ==========================================================================
class TestPlantedViolations:
    @pytest.mark.parametrize(
        "lf, code", EXPECTED_VIOLATIONS, ids=[code for _, code in EXPECTED_VIOLATIONS]
    )
    def test_violation_is_caught(self, lf, code):
        if code in _CAUGHT_ELSEWHERE:
            _caught_elsewhere(lf, code)
        else:
            result = analyze_lf(lf)
            assert code in result.codes(), result.diagnostics

    def test_closure_mutation_caught(self):
        result = analyze_lf(_make_closure_mutator())
        assert "LF302" in result.codes()

    @pytest.mark.parametrize(
        "lf", [lf_annotated_store, lf_deletes_shared_state], ids=["annotated", "del"]
    )
    def test_shared_state_store_caught_in_every_statement_form(self, lf):
        result = analyze_lf(lf)
        assert [d.code for d in result.diagnostics] == ["LF301"], result.diagnostics

    def test_instance_state_mutation_caught(self):
        lf = LabelingFunction("lf_instance_state", _StatefulVoter())
        result = analyze_lf(lf)
        assert "LF304" in result.codes()

    def test_decorated_module_level_lf_pickles_by_reference(self):
        import pickle

        from decorated_lfs import lf_mentions_causes

        assert pickle.loads(pickle.dumps(lf_mentions_causes)) is lf_mentions_causes
        # A wrapper that is not its module's attribute still pickles by value.
        copy = LabelingFunction("lf_by_value", len)
        copy.__dict__.update(__module__="decorated_lfs", __qualname__="lf_mentions_causes")
        clone = pickle.loads(pickle.dumps(copy))
        assert clone is not lf_mentions_causes and clone.function is len

    def test_hazardous_lf_is_never_compilable(self):
        # The predicate shape alone would compile, but the LF301 store is
        # outside the compiler's grammar: compilable implies replayable.
        result = analyze_lf(lf_shape_but_stateful)
        assert "LF301" in result.codes()
        assert not result.pushdown.compilable
        assert result.pushdown.detail.startswith(
            "compiler refused: non-name assignment target"
        ), result.pushdown.detail

    @pytest.mark.parametrize(
        "lf",
        [lf_draws_from_seeded_random, lf_draws_from_seeded_generator, lf_draws_from_seeded_state],
        ids=["random.Random", "Generator", "RandomState"],
    )
    def test_a_seeded_generator_shared_at_module_level_is_caught(self, lf):
        # Seeding fixes the stream, not the label: every call advances the
        # module's one generator, so a candidate's label depends on how many
        # ran before it (an apply, a resume and a worker each see another).
        candidates = list(range(64))
        first = LFApplier([lf], pushdown="off").apply(candidates).values.copy()
        assert not np.array_equal(first, LFApplier([lf], pushdown="off").apply(candidates).values)
        assert "LF301" in analyze_lf(lf).codes()
        with pytest.raises(LabelingError, match="LF301"):
            LFApplier([lf], validate="error").apply(candidates)

    def test_lint_reads_a_rebound_global(self, monkeypatch):
        # The lint is not memoized: the same LF object, linted again after
        # its global was rebound to the shared unseeded RNG, reports LF201,
        # and validate="error" refuses it.
        assert analyze_lf(lf_draws_from_a_global).clean
        monkeypatch.setitem(globals(), "_DRAW", random)
        assert "LF201" in analyze_lf(lf_draws_from_a_global).codes()
        with pytest.raises(LabelingError, match="LF201"):
            LFApplier([lf_draws_from_a_global], validate="error").apply([1, 0])

    def test_out_of_range_respects_declared_cardinality(self):
        @labeling_function(cardinality=8)
        def lf_high_card(x):
            return 7 if x else ABSTAIN

        # canonical_label holds the declared range, compiled or not: 7 is a
        # label under cardinality 8, and applying it under 3 raises.
        lf_card3 = LabelingFunction("lf_card3", lf_high_card.function, cardinality=3)
        for pushdown in ("auto", "off"):
            matrix = LFApplier([lf_high_card], pushdown=pushdown).apply([1, 0])
            assert matrix.to_dense().values.ravel().tolist() == [7, 0]
            with pytest.raises(LabelingError, match="expected 0..3"):
                LFApplier([lf_card3], pushdown=pushdown).apply([1, 0])

    def test_source_unavailable_degrades_to_lf001(self):
        # Nothing to lint, and the verdict's reason says why.
        namespace = {}
        exec("def lf(x):\n    return 1\n", namespace)
        result = analyze_lf(LabelingFunction("lf_no_source", namespace["lf"]))
        assert result.clean and not result.source_available
        assert result.pushdown.detail == "compiler refused: source unavailable"


# ==========================================================================
# The divergence proof: the LF301 exemplar really does diverge at runtime,
# and the processes backend really does lose its state.
# ==========================================================================
class TestProcessDivergence:
    def setup_method(self):
        _DIVERGENCE_COUNTER["calls"] = 0

    def teardown_method(self):
        _DIVERGENCE_COUNTER["calls"] = 0

    def test_static_verdict_is_error(self):
        result = analyze_lf(lf_stateful)
        assert "LF301" in result.codes()
        assert result.max_severity() == Severity.ERROR

    def test_sequential_applies_diverge(self):
        # The static LF301 claim made real: the second apply continues the
        # counter where the first left off, so the same candidates get a
        # different label matrix — Λ is no longer a function of the data.
        candidates = list(range(5))
        applier = LFApplier([lf_stateful])
        first = applier.apply(candidates).to_dense()
        second = applier.apply(candidates).to_dense()
        assert not np.array_equal(first, second)
        assert _DIVERGENCE_COUNTER["calls"] == 10

    @pytest.mark.skipif(not HAS_FORK, reason="processes divergence proof needs fork")
    def test_processes_backend_loses_state(self):
        # Under the processes backend each worker mutates its own forked
        # copy: the parent's counter never advances, while the sequential
        # backend advances it once per candidate.  The observable state of
        # the program after apply() depends on the backend — exactly the
        # divergence LF301 predicts.
        candidates = list(range(6))
        LFApplier([lf_stateful], backend="sequential").apply(candidates)
        assert _DIVERGENCE_COUNTER["calls"] == 6
        _DIVERGENCE_COUNTER["calls"] = 0
        LFApplier(
            [lf_stateful], backend="processes", num_workers=2, chunk_size=2
        ).apply(candidates)
        assert _DIVERGENCE_COUNTER["calls"] == 0

    def test_validate_error_refuses_the_divergent_suite(self):
        applier = LFApplier([lf_stateful], validate="error")
        with pytest.raises(LabelingError, match="LF301"):
            applier.apply(list(range(3)))

    def test_crosscheck_confirms_static_mutation_verdict(self):
        static = analyze_lf(lf_stateful)
        observed = observe_lf(lf_stateful, list(range(4)))
        assert observed.mutated_state
        # Static flagged LF301 and the fingerprint moved: full agreement.
        assert crosscheck(static, observed) == []

    def test_crosscheck_catches_what_static_cannot_see(self):
        # An exec'd LF has no retrievable source: the lint has nothing to
        # read and stays silent on nondeterminism — the dynamic layer must
        # report the disagreement.
        namespace = {"random": random}
        exec(
            "def lf(x):\n    return 1 if random.random() > 0.5 else 0\n",
            namespace,
        )
        lf = LabelingFunction("lf_hidden_random", namespace["lf"])
        static = analyze_lf(lf)
        assert static.clean and not static.source_available
        observed = observe_lf(lf, list(range(50)), repeats=4)
        assert not observed.deterministic
        disagreements = crosscheck(static, observed)
        assert disagreements and "nondeterministic" in disagreements[0]


# ==========================================================================
# Engine chunk tasks: every payload read-only, under the dynamic shim.
# ==========================================================================
class TestEngineContracts:
    def test_builtin_engine_tasks_are_pure(self):
        # Every chunk task the engine schedules — both label tasks, featurize
        # and the fused wrapper over each label task — leaves its payload as
        # it found it.  The worker pool's dispatch kernel, run_attached_chunk,
        # is held by the processes == threads == sequential contract row.
        from repro.discriminative.featurizers import RelationFeaturizer
        from repro.labeling.engine import apply_chunk, featurize_chunk, label_and_featurize_chunk
        from repro.labeling.pushdown import build_plan, label_chunk_pushdown

        lfs = text_vote_lfs(4)
        candidates = list(stream_text_candidates(num_points=30, num_lfs=4, seed=2))
        chunks = [candidates[:17], candidates[17:]]
        featurizer = RelationFeaturizer(num_features=64).fit()
        runs = [(apply_chunk, lfs), (label_chunk_pushdown, build_plan(lfs, cardinality=2))]
        runs += [(label_and_featurize_chunk, (task, payload, featurizer)) for task, payload in runs]
        runs.append((featurize_chunk, featurizer))
        for task, payload in runs:
            assert observe_task_purity(task, payload, chunks), task.__name__

    def test_pure_task_passes(self):
        assert observe_task_purity(_task_pure, [lambda x: x], [[1, 2], [3]])

    def test_payload_mutation_caught(self):
        chunks = [[1, 2], [3]]
        assert not observe_task_purity(_task_mutates_payload, types.SimpleNamespace(), chunks)
        assert not observe_task_purity(_task_appends_to_payload, [], chunks)

    def test_featurizer_write_caught(self):
        payload = types.SimpleNamespace(vocab={})
        assert not observe_task_purity(_task_writes_featurizer, payload, [[1, 2], [3]])

    def test_runtime_shim_raises_on_first_mutation(self):
        shim = PurityCheckedTask(_task_appends_to_payload)
        with pytest.raises(LabelingError, match="mutated its payload on chunk 0"):
            shim([], False, 0, 0, [1, 2, 3])

    def test_builtin_apply_chunk_is_dynamically_pure(self):
        from repro.labeling.engine.accumulator import apply_chunk

        lfs = synthetic_vote_lfs(3)
        candidates = list(
            stream_synthetic_candidates(num_points=20, num_lfs=3, propensity=0.5, seed=1)
        )
        assert observe_task_purity(apply_chunk, lfs, [candidates[:10], candidates[10:]])

    def test_fused_task_is_dynamically_pure_over_both_label_tasks(self):
        from repro.discriminative.featurizers import RelationFeaturizer
        from repro.labeling.engine import apply_chunk, label_and_featurize_chunk
        from repro.labeling.pushdown import build_plan, label_chunk_pushdown

        lfs = text_vote_lfs(4)
        candidates = list(stream_text_candidates(num_points=30, num_lfs=4, seed=2))
        chunks = [candidates[:17], candidates[17:]]
        featurizer = RelationFeaturizer(num_features=64).fit()
        plan = build_plan(lfs, cardinality=2)
        assert plan.compiled
        for label_task, label_payload in ((apply_chunk, lfs), (label_chunk_pushdown, plan)):
            payload = (label_task, label_payload, featurizer)
            assert observe_task_purity(label_and_featurize_chunk, payload, chunks)


def _count_lint_calls(monkeypatch) -> list:
    """Record the LF name of every ``lint_function`` call from now on."""
    import repro.analysis as analysis
    from repro.analysis import lint

    calls, lint_function = [], lint.lint_function

    def counting(info, lf_name, *args, **kwargs):
        calls.append(lf_name)
        return lint_function(info, lf_name, *args, **kwargs)

    for module in (analysis, lint):
        monkeypatch.setattr(module, "lint_function", counting)
    return calls


# ==========================================================================
# Apply-time wiring: validate=, the attached report, and error details.
# ==========================================================================
class TestApplyWiring:
    def test_invalid_validate_mode_rejected(self):
        with pytest.raises(LabelingError, match="validate"):
            LFApplier(synthetic_vote_lfs(1), validate="loud")

    def test_validate_off_attaches_nothing(self):
        applier = LFApplier(synthetic_vote_lfs(2))
        applier.apply(
            list(stream_synthetic_candidates(num_points=8, num_lfs=2, seed=0))
        )
        assert applier.last_report.analysis is None

    def test_validate_warn_attaches_report_and_runs(self):
        lfs = synthetic_vote_lfs(2)
        candidates = list(stream_synthetic_candidates(num_points=8, num_lfs=2, seed=0))
        applier = LFApplier(lfs, validate="warn")
        matrix = applier.apply(candidates)
        assert matrix.shape == (8, 2)
        analysis = applier.last_report.analysis
        assert analysis is not None and len(analysis) == 2
        assert not analysis.has_errors
        # The verdict is the plan: what validate= counts is what ran compiled.
        assert analysis.compilable_count == len(applier.last_report.pushdown.compiled)

    @pytest.mark.parametrize("num_points", [64, 640])
    def test_validate_lints_once_per_suite_not_per_chunk(self, monkeypatch, num_points):
        calls = _count_lint_calls(monkeypatch)
        lfs = synthetic_vote_lfs(6)
        applier = LFApplier(lfs, validate="warn", chunk_size=32)
        for _ in range(2):
            applier.apply(
                stream_synthetic_candidates(num_points=num_points, num_lfs=6, seed=0)
            )
        # One lint per LF per apply, whatever the corpus size.
        assert calls == [lf.name for lf in lfs] * 2

    def test_compiling_a_suite_lints_nothing(self, monkeypatch):
        from repro.datasets import load_task
        from repro.labeling.pushdown import build_plan
        from repro.labeling.pushdown import task as pushdown_task

        calls = _count_lint_calls(monkeypatch)
        lfs = load_task("cdr", scale=0.05, seed=0).lfs
        assert not any(lf in pushdown_task._DECISIONS for lf in lfs)  # decided cold
        plan = build_plan(lfs)
        assert len(plan.compiled) == 32
        assert calls == []

    def test_import_repro_loads_no_analysis_module(self):
        # The import budget: a bare ``import repro`` loads exactly these
        # modules (no ``repro.analysis*``), so a new eager import shows here.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import sys, repro\n"
            "print('\\n'.join(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == sorted(IMPORT_REPRO_LOADS)

    def test_validate_warn_does_not_block_warnings(self):
        # lf_clock carries only a WARNING (LF202): warn mode annotates, error
        # mode blocks nothing either — only ERROR severity blocks.
        applier = LFApplier([lf_clock], validate="error")
        applier.apply(list(range(3)))
        assert applier.last_report.analysis.warnings

    def test_error_details_record_exception_breakdown(self):
        @labeling_function(name="lf_explodes")
        def lf_explodes(x):
            if x % 2:
                raise KeyError(x)
            return POSITIVE

        applier = LFApplier([lf_explodes], fault_tolerant=True, chunk_size=2)
        applier.apply(list(range(6)))
        report = applier.last_report
        assert report.errors == {"lf_explodes": 3}
        detail = report.error_details["lf_explodes"]
        assert detail.count == 3
        assert detail.type_counts == {"KeyError": 3}
        assert "KeyError" in detail.first_traceback


# ==========================================================================
# Hypothesis fuzzing: the analyzer over generated small LF bodies.
# ==========================================================================
_FUZZ_CANDIDATES = list(stream_relation_candidates(num_points=12, seed=3, error_rate=0.5))

_FUZZ_HAZARDS = {
    "LF201": "_ = random.random()",
    "LF202": "_ = time.time()",
    "LF203": "_ = os.urandom(4)",
    "LF204": "_ = hash(x)",
    "LF301": "_FUZZ_STATE['calls'] = 1",
    "LF401": "_ = open('/dev/null')",
}

_FUZZ_RETURNS = [
    "-1", "0", "1", "None", "True", "False", "2", "7", "x", "x.field",
    "x.token_distance()", "1 if len(x.words_between()[0]) > 2 else 0",
]

_FILLERS = [
    "pass",
    "y = 3",
    "y = x",
    "for _i in range(2):\n        pass",
    "while False:\n        break",
    "try:\n        y = 1\n    except Exception:\n        pass",
    "z = [k for k in range(3)]",
    "def inner():\n        return 99",
    "w = lambda: 99",
    "async def later():\n        return 99",
    "if False:\n        yield 99",
    "if (n := 3) > 4:\n        pass",
    "first = x.sentence.text.lower().split()[0]",
]

_fuzz_serial = itertools.count()


def _build_lf_source(hazard_codes, returns, fillers, guard="x"):
    lines = ["def lf(x):"]
    for code in hazard_codes:
        lines.append(f"    {_FUZZ_HAZARDS[code]}")
    for filler in fillers:
        lines.append(f"    {filler}")
    if len(returns) > 1:
        lines.append(f"    if {guard}:\n        return {returns[0]}")
        for value in returns[1:-1]:
            lines.append(f"    if not {guard}:\n        return {value}")
        lines.append(f"    return {returns[-1]}")
    else:
        lines.append(f"    return {returns[0]}")
    return "\n".join(lines) + "\n"


def _raw(function, candidate):
    """What ``function`` returns for ``candidate``, or ``None`` if it raises."""
    try:
        return function(candidate)
    except Exception:
        return None


def _info_from_source(source):
    namespace = {"random": random, "time": time, "os": os, "_FUZZ_STATE": {}}
    # Registered where ``inspect`` finds it, so the function has the source
    # the decider (``extract_source``) reads, not only this SourceInfo.
    filename = f"<fuzz-{next(_fuzz_serial)}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    module = ast.parse(source)
    tree = next(
        node for node in ast.walk(module) if isinstance(node, ast.FunctionDef)
    )
    return SourceInfo(
        function=namespace["lf"], tree=tree, source=source, globals=namespace
    )


@st.composite
def lf_sources(draw):
    # Half the bodies are hazard-free, so some reach the compiler's verdict.
    hazards = draw(
        st.booleans().flatmap(
            lambda some: st.lists(
                st.sampled_from(sorted(_FUZZ_HAZARDS)), max_size=3 * some, unique=True
            )
        )
    )
    returns = draw(st.lists(st.sampled_from(_FUZZ_RETURNS), min_size=1, max_size=4))
    fillers = draw(st.lists(st.sampled_from(_FILLERS), max_size=3))
    # A candidate's truth value is outside the compiler's subset; a field test is in.
    guard = draw(st.sampled_from(["x", "x.token_distance() > 3"]))
    return _build_lf_source(hazards, returns, fillers, guard), hazards, returns


class TestFuzzing:
    @settings(max_examples=120, deadline=None)
    @given(lf_sources())
    def test_analyzer_never_crashes_and_codes_are_registered(self, case):
        source, hazards, _returns = case
        info = _info_from_source(source)
        for diagnostic in lint_function(info, "lf"):
            assert diagnostic.code in CODES
        # The decider, not a prediction of it: the compiler either refuses
        # with CompileError (anything else escaping fails this test) ...
        try:
            _Compiler(info, "lf", 2, instance=info.function).compile()
            accepted = True
        except CompileError:
            accepted = False
        # ... no planted hazard is ever accepted, and the verdict is that answer,
        assert not (accepted and hazards), source
        lf = LabelingFunction("lf", info.function)
        verdict = analyze_lf(lf).pushdown
        assert verdict.compilable == accepted, source
        if not verdict.compilable:
            return
        # and what it accepts labels, and fails, as the function itself does.
        base = LFApplier([lf], fault_tolerant=True, pushdown="off")
        push = LFApplier([lf], fault_tolerant=True, pushdown="require")
        assert np.array_equal(
            base.apply(_FUZZ_CANDIDATES).values, push.apply(_FUZZ_CANDIDATES).values
        )
        assert base.last_report.errors == push.last_report.errors

    @settings(max_examples=120, deadline=None)
    @given(lf_sources())
    def test_no_false_negatives_on_planted_hazards(self, case):
        source, hazards, _returns = case
        info = _info_from_source(source)
        codes = {d.code for d in lint_function(info, "lf")}
        for planted in hazards:
            # I/O has no lint code: the compiler refuses it (the test above).
            assert planted in codes or planted not in CODES, f"missed {planted} in:\n{source}"
        # A label outside the cardinality-2 range {-1, 0, 1} has no lint
        # code either: applying the LF raises, compiled or not.
        bad = [c for c in _FUZZ_CANDIDATES if _raw(info.function, c) in (2, 7)]
        if bad:
            lf = LabelingFunction("lf", info.function)
            for pushdown in ("auto", "off"):
                with pytest.raises(LabelingError, match="expected one of"):
                    LFApplier([lf], pushdown=pushdown).apply(bad)

    @settings(max_examples=60, deadline=None)
    @given(lf_sources())
    def test_extract_source_roundtrip_on_real_functions(self, case):
        # The same generated bodies written through extract_source's normal
        # path (via analyze_lf on the live function) never crash either, even
        # though exec'd functions have no retrievable source.
        source, _hazards, _returns = case
        namespace = {"random": random, "time": time, "os": os, "_FUZZ_STATE": {}}
        exec(compile(source, "<fuzz>", "exec"), namespace)
        result = analyze_lf(namespace["lf"])
        assert result.clean and not result.source_available


#: Every hazard the compiler must refuse on its own, each planted as a
#: statement in a body it otherwise accepts (:data:`_HAZARD_FREE_RETURN`).
_COMPILER_HAZARDS = {
    **{f"fuzz-{code}": statement for code, statement in _FUZZ_HAZARDS.items()},
    "nonlocal": "nonlocal count",
    "global": "global _FUZZ_STATE",
    "generator": "if False:\n    yield 99",
    "generator-expression": "_ = any(t for t in x.words_between())",
    "lambda": "f = lambda: 99",
    "setdefault": "_ = _FUZZ_STATE.setdefault('calls', 1)",
    "pop": "_ = _FUZZ_STATE.pop('calls', None)",
    "append-on-column": "_ = x.words_between().append(1)",
    "append-statement": "x.words_between().append(1)",
    "setattr": "_ = setattr(x, 'seen', True)",
    "id": "_ = id(x)",
    "print": "_ = print(x)",
    "print-statement": "print(x)",
    "print-per-token": "_ = [print(t) for t in x.words_between()]",
    "setdefault-per-token": "_ = [_FUZZ_STATE.setdefault(t, 1) for t in x.words_between()]",
    "fold-over-iterator": "_ = any(_FUZZ_ITER)",
}
_HAZARD_FREE_RETURN = "return 1 if x.token_distance() > 3 else 0"


def _compile_in_closure(statements):
    """``compile_lf`` of an LF, defined in a factory with one closure cell,
    whose body is ``statements`` and then :data:`_HAZARD_FREE_RETURN`."""
    body = "".join(textwrap.indent(statement, " " * 8) + "\n" for statement in statements)
    source = (
        "def make():\n    count = 0\n\n    def lf(x):\n"
        f"{body}        {_HAZARD_FREE_RETURN}\n\n    return lf\n"
    )
    namespace = {"random": random, "time": time, "os": os, "_FUZZ_STATE": {},
                 "_FUZZ_ITER": iter([0, 1])}
    filename = f"<fuzz-{next(_fuzz_serial)}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return compile_lf(LabelingFunction("lf", namespace["make"]()))


@pytest.mark.parametrize("hazard", _COMPILER_HAZARDS.values(), ids=_COMPILER_HAZARDS.keys())
def test_compiler_refuses_every_hazard(hazard):
    # No lint gates the compiler: its grammar alone keeps every hazard out
    # of a body it compiles without the hazard.
    assert _compile_in_closure([]).branches
    with pytest.raises(CompileError):
        _compile_in_closure([hazard])


class TestSourceExtraction:
    def test_lambda_lf_analyzable(self):
        lf = LabelingFunction("lf_lambda", lambda x: POSITIVE if x else ABSTAIN)
        result = analyze_lf(lf)
        assert result.source_available and result.clean

    def test_extract_source_unwraps_wrappers(self):
        import functools

        def base(threshold, x):
            return POSITIVE if x > threshold else ABSTAIN

        info = extract_source(functools.partial(base, 3))
        assert info.tree is not None
        assert info.parameters == ["threshold", "x"]

    @pytest.mark.parametrize("reload", [False, True], ids=["edited", "edited-and-reloaded"])
    def test_an_lf_edited_after_import_labels_as_it_runs(self, tmp_path, monkeypatch, reload):
        # Regression: the compiler read the LF's file as it is now, so an edit
        # after import compiled the edit while the interpreter ran the code
        # that was imported, and "auto" labeled -1 where "off" labeled +1.
        name = f"lf_edited_after_import_{reload}"
        path = tmp_path / f"{name}.py"
        path.write_text(
            "from repro.labeling import labeling_function\n"
            "from repro.types import ABSTAIN, POSITIVE\n\n\n"
            "@labeling_function()\n"
            "def lf_far(x):\n"
            "    return POSITIVE if x.token_distance() > 3 else ABSTAIN\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            module = importlib.import_module(name)
            path.write_text(path.read_text().replace("return POSITIVE", "return -POSITIVE"))
            if reload:
                module = importlib.reload(module)
            candidates = list(stream_relation_candidates(num_points=8, seed=0))
            labels = {}
            for pushdown in ("auto", "off"):
                applier = LFApplier([module.lf_far], pushdown=pushdown)
                labels[pushdown] = applier.apply(candidates).to_dense().values.ravel()
            assert set(labels["off"]) == {0, NEGATIVE if reload else POSITIVE}
            assert np.array_equal(labels["auto"], labels["off"])
            # Reloaded, the file is the running code again, and compiles;
            # only edited, it is refused with the reason, and not linted.
            result = analyze_lf(module.lf_far)
            assert result.pushdown.compilable == reload
            assert result.source_available == reload
            if not reload:
                assert result.pushdown.detail.startswith("compiler refused: source stale")
        finally:
            sys.modules.pop(name, None)

    def test_an_indented_body_keeps_its_multi_line_strings(self):
        # Regression: dedenting a nested definition rewrote its multi-line
        # string literals, so the tree held constants the code does not.
        class _Reader:
            def __call__(self, x):
                """Vote on the argument distance.

                A docstring of more than one line.
                """
                return POSITIVE if x.sentence.text == """a
                b""" else ABSTAIN

        lf = LabelingFunction("lf_reader", _Reader())
        info = extract_source(lf)
        strings = {
            node.value for node in ast.walk(info.tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert strings <= set(_Reader.__call__.__code__.co_consts)
        assert analyze_lf(lf).pushdown.compilable

    def test_an_equal_code_object_does_not_borrow_source(self):
        # Regression: the parse memo was keyed by code equality, which
        # ignores the file, so an exec'd copy with no source read the
        # original's (and a copy read first hid the original's source).
        source = "def lf(x):\n    return 7\n"
        filename = f"<fuzz-{next(_fuzz_serial)}>"
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        original, copy = {}, {}
        exec(compile(source, filename, "exec"), original)
        exec(compile(source, "<no source>", "exec"), copy)
        assert original["lf"].__code__ == copy["lf"].__code__
        assert extract_source(original["lf"]).tree is not None
        assert extract_source(copy["lf"]).failure == "unavailable"
