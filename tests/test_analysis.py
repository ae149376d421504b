"""The LF static-analysis subsystem: lints, contracts, pushdown, cross-checks.

Four layers are covered:

* **Library coverage** — ``analyze_lf`` over every LF the library ships
  (the ``lf_library`` representative suite and the synthetic vote suites):
  no ERROR diagnostics, and every declarative LF compiles (verdict
  COMPILABLE, which is the pushdown decider's answer) with the expected shape.
* **Planted violations** — one module-level LF per diagnostic class
  (``LF101``–``LF501``), each asserted to produce exactly its code; plus the
  processes-backend divergence proof: the ``LF301`` LF really does produce
  different label matrices across applies and loses its state across the
  fork boundary.
* **Engine contracts** — the built-in chunk tasks pass ``check_task``;
  planted impure tasks are caught statically (``EN001``/``EN002``/``EN003``)
  and dynamically (:class:`PurityCheckedTask`).
* **Fuzzing** — hypothesis-generated small LF bodies: the lint pass and the
  compiler never crash (the compiler only ever refuses with ``CompileError``),
  planted hazards are never missed by the lint nor compiled, and an accepted
  body labels as the interpreted one does.  The compiler carries the hazard
  invariant alone (no lint gates it): a matrix plants each hazard in a body
  it otherwise accepts.
"""

import ast
import itertools
import linecache
import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CODES,
    PurityCheckedTask,
    Severity,
    analyze_lf,
    analyze_suite,
    check_engine_tasks,
    check_task,
    crosscheck,
    observe_lf,
    observe_task_purity,
)
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
from repro.labeling import LabelingFunction, LFApplier, labeling_function
from repro.labeling.pushdown.compiler import CompileError, _Compiler, compile_lf
from repro.labeling.source import SourceInfo, extract_source
from repro.types import ABSTAIN, NEGATIVE, POSITIVE

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


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


_GLOBAL_LABEL = 1


@labeling_function()
def lf_returns_global_label(x):
    return _GLOBAL_LABEL if x else ABSTAIN


@labeling_function()
def lf_shape_but_stateful(x):
    """Threshold shape the pushdown matches — but an LF301 hazard remains."""
    _DIVERGENCE_COUNTER["calls"] = _DIVERGENCE_COUNTER["calls"] + 1
    return POSITIVE if x.field > 3 else ABSTAIN


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


_TASK_STATS = {"chunks": 0}


def _task_global_store(payload, fault_tolerant, index, start_row, candidates):
    _TASK_STATS["chunks"] += 1
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
        assert not report.has_errors
        for result in report:
            # Declarative closures are unpicklable (LF501 is an expected
            # WARNING — the processes backend relies on fork inheritance);
            # nothing else may be flagged.
            assert result.codes() <= {"LF501"}, result.lf_name
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
            assert result.picklable is True
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
        for lf, code in EXPECTED_VIOLATIONS:
            assert code in CODES

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
        result = analyze_lf(lf)
        assert code in result.codes(), result.diagnostics

    def test_closure_mutation_caught(self):
        result = analyze_lf(_make_closure_mutator())
        assert "LF302" in result.codes()

    def test_instance_state_mutation_caught(self):
        lf = LabelingFunction("lf_instance_state", _StatefulVoter())
        result = analyze_lf(lf)
        assert "LF304" in result.codes()

    def test_unpicklable_lf_flagged_as_warning_only(self):
        weight = 1

        def unpicklable(x):
            return POSITIVE if x > weight else ABSTAIN

        result = analyze_lf(LabelingFunction("lf_local_closure", unpicklable))
        assert result.picklable is False
        flagged = [d for d in result.diagnostics if d.code == "LF501"]
        assert flagged and all(d.severity == Severity.WARNING for d in flagged)

    def test_decorated_module_level_lf_pickles_by_reference(self):
        import pickle

        from decorated_lfs import lf_mentions_causes

        assert pickle.loads(pickle.dumps(lf_mentions_causes)) is lf_mentions_causes
        result = analyze_lf(lf_mentions_causes)
        assert result.picklable is True and "LF501" not in result.codes()
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

    def test_lint_reads_a_rebound_global(self, monkeypatch):
        # The lint is not memoized: the same LF object, linted again after
        # its global label was rebound out of range, reports LF101, and
        # validate="error" refuses it.
        assert "LF101" not in analyze_lf(lf_returns_global_label).codes()
        monkeypatch.setitem(globals(), "_GLOBAL_LABEL", 7)
        assert "LF101" in analyze_lf(lf_returns_global_label).codes()
        with pytest.raises(LabelingError, match="LF101"):
            LFApplier([lf_returns_global_label], validate="error").apply([1, 0])

    def test_out_of_range_respects_declared_cardinality(self):
        @labeling_function(cardinality=8)
        def lf_high_card(x):
            return 7 if x else ABSTAIN

        assert "LF101" not in analyze_lf(lf_high_card).codes()
        assert "LF101" in analyze_lf(lf_high_card, cardinality=3).codes()

    def test_source_unavailable_degrades_to_lf001(self):
        namespace = {}
        exec("def lf(x):\n    return 1\n", namespace)
        result = analyze_lf(
            LabelingFunction("lf_no_source", namespace["lf"]), probe_pickle=False
        )
        assert result.codes() == {"LF001"}
        assert not result.source_available


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
        # An exec'd LF has no retrievable source: static analysis degrades
        # to LF001 and stays silent on nondeterminism — the dynamic layer
        # must report the disagreement.
        namespace = {"random": random}
        exec(
            "def lf(x):\n    return 1 if random.random() > 0.5 else 0\n",
            namespace,
        )
        lf = LabelingFunction("lf_hidden_random", namespace["lf"])
        static = analyze_lf(lf, probe_pickle=False)
        assert static.codes() == {"LF001"}
        observed = observe_lf(lf, list(range(50)), repeats=4)
        assert not observed.deterministic
        disagreements = crosscheck(static, observed)
        assert disagreements and "nondeterministic" in disagreements[0]


# ==========================================================================
# Engine chunk-task contracts: static EN0xx checks + the runtime shim.
# ==========================================================================
class TestEngineContracts:
    def test_builtin_engine_tasks_are_pure(self):
        report = check_engine_tasks()
        # Both label tasks / featurize / the fused wrapper + the worker
        # pool's dispatch kernel.
        assert len(report) == 5
        assert {result.lf_name for result in report} == {
            "apply_chunk",
            "label_chunk_pushdown",
            "featurize_chunk",
            "label_and_featurize_chunk",
            "run_attached_chunk",
        }
        for result in report:
            assert result.clean, (result.lf_name, result.diagnostics)
            assert not result.pushdown.compilable  # tasks are never pushdown

    def test_pure_task_passes(self):
        assert check_task(_task_pure).clean

    def test_payload_mutation_caught(self):
        assert "EN001" in check_task(_task_mutates_payload).codes()
        assert "EN001" in check_task(_task_appends_to_payload).codes()

    def test_featurizer_write_caught(self):
        assert "EN002" in check_task(_task_writes_featurizer).codes()

    def test_global_store_caught(self):
        assert "EN003" in check_task(_task_global_store).codes()

    def test_contract_severity_is_error(self):
        for task in (_task_mutates_payload, _task_writes_featurizer, _task_global_store):
            assert check_task(task).max_severity() == Severity.ERROR

    def test_runtime_shim_agrees_with_static(self):
        chunks = [[1, 2], [3]]
        assert observe_task_purity(_task_pure, [lambda x: x], chunks)
        assert not observe_task_purity(_task_appends_to_payload, [], chunks)

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
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import sys, repro\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

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
        diagnostics, inferred = lint_function(info, "lf", cardinality=2)
        for diagnostic in diagnostics:
            assert diagnostic.code in CODES
        assert inferred is None or isinstance(inferred, frozenset)
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
        verdict = analyze_lf(lf, probe_pickle=False).pushdown
        assert verdict.compilable == accepted, source
        if not verdict.compilable:
            return
        # and what it accepts labels, and fails, as the function itself does.
        candidates = list(stream_relation_candidates(num_points=12, seed=3, error_rate=0.5))
        base = LFApplier([lf], fault_tolerant=True, pushdown="off")
        push = LFApplier([lf], fault_tolerant=True, pushdown="require")
        assert np.array_equal(base.apply(candidates).values, push.apply(candidates).values)
        assert base.last_report.errors == push.last_report.errors

    @settings(max_examples=120, deadline=None)
    @given(lf_sources())
    def test_no_false_negatives_on_planted_hazards(self, case):
        source, hazards, returns = case
        info = _info_from_source(source)
        diagnostics, _ = lint_function(info, "lf", cardinality=2)
        codes = {d.code for d in diagnostics}
        for planted in hazards:
            assert planted in codes, f"missed {planted} in:\n{source}"
        # Every return path made of resolvable constants: a constant outside
        # the cardinality-2 range {-1, 0, 1} must raise LF101.
        resolvable = {"-1": -1, "0": 0, "1": 1, "None": 0, "True": 1, "False": -1,
                      "2": 2, "7": 7}
        planted_bad = [
            value for value in returns
            if value in resolvable and resolvable[value] not in (-1, 0, 1)
        ]
        if planted_bad:
            assert "LF101" in codes, f"missed LF101 in:\n{source}"

    @settings(max_examples=60, deadline=None)
    @given(lf_sources())
    def test_extract_source_roundtrip_on_real_functions(self, case):
        # The same generated bodies written through extract_source's normal
        # path (via analyze_lf on the live function) never crash either, even
        # though exec'd functions have no retrievable source.
        source, _hazards, _returns = case
        namespace = {"random": random, "time": time, "os": os, "_FUZZ_STATE": {}}
        exec(compile(source, "<fuzz>", "exec"), namespace)
        result = analyze_lf(namespace["lf"], probe_pickle=False)
        assert result.codes() == {"LF001"}


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
        assert result.source_available
        assert result.inferred_labels == frozenset({1, 0})

    def test_extract_source_unwraps_wrappers(self):
        import functools

        def base(threshold, x):
            return POSITIVE if x > threshold else ABSTAIN

        info = extract_source(functools.partial(base, 3))
        assert info.tree is not None
        assert info.parameters == ["threshold", "x"]
