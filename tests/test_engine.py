"""The labeling execution engine: executor equivalence, streaming, faults.

The engine contract is that results are independent of *how* the work ran:
every backend (sequential / threads / processes), every chunk size, and
every input type (list, generator, one-shot iterator) must produce the same
label matrix (dense and sparse), the same merged error counts, and the same
report shape.  Process workers receive candidate chunks by pickling, so the
suite uses the picklable synthetic streaming candidates.
"""

import time

import numpy as np
import pytest

from repro.datasets.synthetic import (
    SyntheticCandidate,
    stream_synthetic_candidates,
    synthetic_stream_gold,
    synthetic_vote_lfs,
)
from repro.exceptions import ConfigurationError, LabelingError
from repro.labeling import LabelingFunction, LFApplier
from repro.labeling.blockstore import BlockStore, ChunkCheckpointer
from repro.labeling.engine import ExecutionPlan, apply_chunk, iter_chunks, run_plan, runtime
from repro.pipeline.snorkel import PipelineConfig

BACKENDS = ("sequential", "threads", "processes")


def make_candidates(num_points=120, num_lfs=5, seed=0):
    return list(
        stream_synthetic_candidates(
            num_points=num_points, num_lfs=num_lfs, propensity=0.4, seed=seed
        )
    )


class _FailOnMultiplesBody:
    """Picklable LF body that raises on candidates whose uid % divisor == 0."""

    def __init__(self, index: int, divisor: int) -> None:
        self.index = index
        self.divisor = divisor

    def __call__(self, candidate: SyntheticCandidate) -> int:
        if candidate.uid % self.divisor == 0:
            raise KeyError(f"boom on {candidate.uid}")
        return int(candidate.votes[self.index])


def failing_lfs(num_lfs=4):
    return [
        LabelingFunction(f"fail_{j}", _FailOnMultiplesBody(j, divisor=3 + j))
        for j in range(num_lfs)
    ]


# ----------------------------------------------------------------- equivalence
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sparse", [False, True])
def test_backends_match_sequential_reference(backend, sparse):
    candidates = make_candidates()
    lfs = synthetic_vote_lfs(5)
    reference = LFApplier(lfs).apply(candidates)
    applier = LFApplier(lfs, chunk_size=16, backend=backend, num_workers=2)
    matrix = applier.apply(candidates, sparse=sparse)
    assert matrix.is_sparse == sparse
    assert np.array_equal(matrix.values, reference.values)
    assert matrix.lf_names == reference.lf_names
    report = applier.last_report
    assert report.backend == backend
    assert report.num_workers == (1 if backend == "sequential" else 2)
    assert report.num_candidates == len(candidates)
    assert report.num_chunks == -(-len(candidates) // 16)
    assert len(report.chunk_seconds) == report.num_chunks
    assert report.total_chunk_seconds >= 0.0


@pytest.mark.parametrize("chunk_size", [1, 7, 1000])
def test_results_independent_of_chunk_size(chunk_size):
    candidates = make_candidates(num_points=50)
    lfs = synthetic_vote_lfs(5)
    reference = LFApplier(lfs).apply(candidates)
    matrix = LFApplier(lfs, chunk_size=chunk_size, backend="threads", num_workers=3).apply(
        candidates, sparse=True
    )
    assert np.array_equal(matrix.values, reference.values)


@pytest.mark.parametrize("backend", BACKENDS)
def test_error_counts_merge_identically(backend):
    candidates = make_candidates(num_points=90, num_lfs=4)
    lfs = failing_lfs(4)
    sequential = LFApplier(lfs, fault_tolerant=True)
    expected = sequential.apply(candidates)
    applier = LFApplier(lfs, fault_tolerant=True, chunk_size=8, backend=backend, num_workers=2)
    matrix = applier.apply(candidates, sparse=True)
    assert np.array_equal(matrix.values, expected.values)
    assert applier.last_report.errors == sequential.last_report.errors
    assert applier.last_report.num_errors == sequential.last_report.num_errors
    # uid 0 fails for every LF; multiples of the divisor fail per LF.
    assert applier.last_report.errors["fail_0"] == len(
        [c for c in candidates if c.uid % 3 == 0]
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_non_fault_tolerant_propagates_lf_errors(backend):
    candidates = make_candidates(num_points=30, num_lfs=2)
    applier = LFApplier(
        failing_lfs(2), fault_tolerant=False, chunk_size=4, backend=backend, num_workers=2
    )
    with pytest.raises(LabelingError):
        applier.apply(candidates)


# -------------------------------------------------------------------- streaming
@pytest.mark.parametrize("backend", BACKENDS)
def test_generator_input_matches_list_input(backend):
    lfs = synthetic_vote_lfs(6)
    reference = LFApplier(lfs).apply(make_candidates(num_points=200, num_lfs=6, seed=3))
    applier = LFApplier(lfs, chunk_size=32, backend=backend, num_workers=2)
    stream = stream_synthetic_candidates(num_points=200, num_lfs=6, propensity=0.4, seed=3)
    matrix = applier.apply(stream, sparse=True)
    # Streaming + sparse never materializes the candidate list or a dense
    # (m, n) array, yet the output is identical to the dense sequential run.
    assert np.array_equal(matrix.values, reference.values)
    assert applier.last_report.num_candidates == 200


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sparse", [False, True])
def test_empty_iterator(backend, sparse):
    lfs = synthetic_vote_lfs(4)
    applier = LFApplier(lfs, backend=backend, num_workers=2)
    matrix = applier.apply((c for c in ()), sparse=sparse)
    assert matrix.shape == (0, 4)
    assert applier.last_report.num_candidates == 0
    assert applier.last_report.num_chunks == 0
    assert applier.last_report.errors == {}


def test_one_shot_iterator_is_consumed_once():
    candidates = iter(make_candidates(num_points=40))
    lfs = synthetic_vote_lfs(5)
    matrix = LFApplier(lfs, chunk_size=8).apply(candidates, sparse=True)
    assert matrix.shape == (40, 5)
    assert next(candidates, None) is None


def test_iter_chunks_draws_lazily():
    drawn = []

    def producer():
        for i in range(1000):
            drawn.append(i)
            yield i

    chunks = iter_chunks(producer(), 10)
    first = next(chunks)
    assert first.index == 0
    assert first.start_row == 0
    assert len(first.candidates) == 10
    # Only one chunk's worth of the stream has been pulled.
    assert len(drawn) == 10
    second = next(chunks)
    assert second.start_row == 10
    assert len(drawn) == 20


@pytest.mark.parametrize("chunk_size", [0, -3, 2.5, True, None])
def test_iter_chunks_refuses_what_the_plan_refuses(chunk_size):
    # A generator with chunk size 0 used to yield no chunk at all, silently
    # dropping the stream; a list raised range's bare ValueError instead.
    for candidates in (make_candidates(num_points=5), iter(make_candidates(num_points=5))):
        with pytest.raises(LabelingError, match="chunk_size must be an integer >= 1"):
            list(iter_chunks(candidates, chunk_size))


# ------------------------------------------------------------------ scheduling
def _slow_apply(lfs, fault_tolerant, index, start_row, candidates):
    """``apply_chunk`` after a pause, so the scheduler's window fills."""
    time.sleep(0.005)
    return apply_chunk(lfs, fault_tolerant, index, start_row, candidates)


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_window_bounds_drawn_but_unmerged_chunks(backend, tmp_path):
    """Drawn − merged never exceeds the backend's window: not on a fresh
    run, and not on one that replays checkpointed chunks as it draws."""
    lfs = synthetic_vote_lfs(5)
    candidates = make_candidates(num_points=200)
    plan = ExecutionPlan(chunk_size=8, backend=backend, num_workers=2)
    window = plan.pending_limit()
    assert window == (4 if backend == "threads" else 2)
    reference = LFApplier(lfs).apply(candidates).values
    with BlockStore(str(tmp_path / "store")) as store:
        checkpoint = ChunkCheckpointer(store, "train")
        run_plan(lfs, candidates[:48], plan, checkpoint=checkpoint)
        assert checkpoint.completed == set(range(6))
        for replaying in (None, checkpoint):
            pulled, gaps = [], []

            def stream():
                for candidate in candidates:
                    pulled.append(candidate)
                    yield candidate

            def transform(result):
                drawn = -(-len(pulled) // plan.chunk_size)
                gaps.append(drawn - len(gaps))
                return result

            result = run_plan(
                lfs, stream(), plan, transform, _slow_apply, checkpoint=replaying
            )
            dense = np.zeros_like(reference)
            dense[result.rows, result.cols] = result.values
            assert np.array_equal(dense, reference)
            assert len(gaps) == 25
            assert 1 <= max(gaps) <= window, gaps


def _lowest_fails_last_task(lfs, fault_tolerant, index, start_row, candidates):
    """Chunk 0 raises after a pause, chunk 1 at once, the others succeed."""
    if index == 0:
        time.sleep(0.3)
    if index < 2:
        raise ValueError(f"chunk {index} failed")
    return apply_chunk(lfs, fault_tolerant, index, start_row, candidates)


@pytest.mark.parametrize("backend", BACKENDS)
def test_lowest_chunk_failure_is_raised_whatever_fails_first(backend):
    """Chunk 1 fails first in time; every backend still raises chunk 0's
    failure, after draining what is in flight — so the process pool is not
    quarantined and its warm workers serve the next run."""
    lfs = synthetic_vote_lfs(5)
    candidates = make_candidates(num_points=60)
    plan = ExecutionPlan(chunk_size=10, backend=backend, num_workers=2)
    run_plan(lfs, candidates, plan)
    spawned = runtime.get_global_pool(2).total_spawned
    with pytest.raises(ValueError, match="^chunk 0 failed$"):
        run_plan(lfs, candidates, plan, task=_lowest_fails_last_task)
    assert run_plan(lfs, candidates, plan).num_candidates == 60
    assert runtime.get_global_pool(2).total_spawned == spawned


def test_stream_gold_matches_candidates():
    gold = synthetic_stream_gold(64, seed=9)
    streamed = [c.gold for c in stream_synthetic_candidates(64, 3, seed=9)]
    assert np.array_equal(gold, np.asarray(streamed))


# ------------------------------------------------------------------ validation
def test_mixed_cardinality_rejected_at_construction():
    lfs = [
        LabelingFunction("binary", lambda c: 1, cardinality=2),
        LabelingFunction("ternary", lambda c: 2, cardinality=3),
    ]
    with pytest.raises(LabelingError, match="cardinality"):
        LFApplier(lfs)


def test_uniform_cardinality_recorded():
    lfs = [
        LabelingFunction("a", lambda c: 1, cardinality=3),
        LabelingFunction("b", lambda c: 2, cardinality=3),
    ]
    applier = LFApplier(lfs)
    assert applier.cardinality == 3
    matrix = applier.apply([SyntheticCandidate(uid=0, gold=1, votes=(1, 2))])
    assert matrix.cardinality == 3


def test_invalid_plan_parameters_rejected():
    with pytest.raises(LabelingError):
        ExecutionPlan(chunk_size=0)
    with pytest.raises(LabelingError):
        ExecutionPlan(backend="gpu")
    with pytest.raises(LabelingError):
        ExecutionPlan(num_workers=0)
    with pytest.raises(LabelingError):
        LFApplier(synthetic_vote_lfs(2), backend="fleet")
    with pytest.raises(LabelingError):
        LFApplier(synthetic_vote_lfs(2), num_workers=-1)
    # One rule, at the plan: a NaN deadline made the pool poll with timeout
    # 0, ``inf`` overflowed, and a fractional or boolean size failed mid-run.
    for name, value in [("chunk_size", 2.5), ("chunk_size", True), ("num_workers", 2.5),
                        ("num_workers", True), ("chunk_timeout", float("nan")),
                        ("chunk_timeout", float("inf")), ("chunk_timeout", True)]:
        with pytest.raises(LabelingError, match=name):
            ExecutionPlan(**{name: value})


def test_applier_attributes_stay_live_after_construction():
    # The plan is rebuilt per apply, so mutating the public attributes works
    # (fault_tolerant and chunk_size were historically read at apply time).
    candidates = make_candidates(num_points=12, num_lfs=2)
    applier = LFApplier(failing_lfs(2))
    applier.fault_tolerant = True
    applier.chunk_size = 4
    matrix = applier.apply(candidates)
    assert applier.last_report.num_errors > 0
    assert applier.last_report.num_chunks == 3
    reference = LFApplier(failing_lfs(2), fault_tolerant=True).apply(candidates)
    assert np.array_equal(matrix.values, reference.values)


def test_pipeline_config_validates_applier_knobs():
    with pytest.raises(ConfigurationError):
        PipelineConfig(applier_backend="gpu")
    with pytest.raises(ConfigurationError):
        PipelineConfig(applier_workers=0)
    # The plan's rule and the models' own validators, at construction rather
    # than after the labeling pass (or never, when the optimizer picks MV).
    for settings in [dict(chunk_size=2.5), dict(applier_workers=True),
                     dict(generative_epochs=-1),
                     dict(generative_epochs=2.5), dict(discriminative_epochs=2.5),
                     dict(discriminative_epochs=True), dict(advantage_tolerance=float("nan"))]:
        with pytest.raises(ConfigurationError):
            PipelineConfig(**settings)
    config = PipelineConfig(applier_backend="threads", applier_workers=None)
    assert config.applier_backend == "threads"


def test_run_plan_direct_use():
    lfs = synthetic_vote_lfs(3)
    candidates = make_candidates(num_points=25, num_lfs=3, seed=1)
    plan = ExecutionPlan(chunk_size=10, backend="threads", num_workers=2)
    result = run_plan(lfs, iter(candidates), plan)
    assert result.num_candidates == 25
    assert result.num_chunks == 3
    assert result.backend == "threads"
    assert result.num_workers == 2
    dense = np.zeros((25, 3), dtype=np.int64)
    dense[result.rows, result.cols] = result.values
    assert np.array_equal(dense, LFApplier(lfs).apply(candidates).values)
