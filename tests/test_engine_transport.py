"""Differential backend suite: processes ≡ threads ≡ sequential, bit for bit.

The execution engine promises that *where* chunks run is unobservable: for
any suite, chunk size, cardinality, and input, the persistent worker pool
(chunks and results pickled over each worker's pipe), the thread pool, and
the sequential in-process reference produce identical labels, identical
feature blocks, identical error accounting, and the identical first-raised
exception.  This suite pins all four down, including the edges — empty
candidate streams, all-abstain suites (zero-size triple blocks),
hypothesis-fuzzed corpora with adversarial text (NUL bytes, empty strings),
and chunks and results each larger than the buffers of a worker's pipe, the
case the one-chunk-in-flight rule exists for.
"""

import os
import signal
import subprocess
import sys
import textwrap
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import (
    stream_synthetic_candidates,
    stream_text_candidates,
    synthetic_vote_lfs,
    text_vote_lfs,
)
from repro.discriminative.featurizers import RelationFeaturizer
from repro.discriminative.sparse_features import CSRFeatureMatrix
from repro.exceptions import LabelingError
from repro.labeling import LabelingFunction, LFApplier
from repro.types import ABSTAIN, NEGATIVE, POSITIVE

BACKENDS = ("threads", "processes")

NUM_LFS = 5


def make_candidates(num_points=150, seed=2):
    return list(
        stream_synthetic_candidates(
            num_points=num_points, num_lfs=NUM_LFS, propensity=0.4, seed=seed
        )
    )


def pool_applier(lfs, chunk_size, backend, fault_tolerant=False):
    return LFApplier(
        lfs,
        fault_tolerant=fault_tolerant,
        chunk_size=chunk_size,
        backend=backend,
        num_workers=2,
    )


# ------------------------------------------------------------------- labels
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("chunk_size", [1, 7, 64, 1000])
def test_labels_bit_identical_across_backends(backend, chunk_size):
    candidates = make_candidates()
    lfs = synthetic_vote_lfs(NUM_LFS)
    reference = LFApplier(lfs).apply(candidates)
    applier = pool_applier(lfs, chunk_size, backend)
    dense = applier.apply(candidates)
    sparse = applier.apply(candidates, sparse=True)
    assert np.array_equal(dense.values, reference.values)
    assert np.array_equal(sparse.to_dense().values, reference.values)
    report = applier.last_report
    assert report.transport.mode == ("pickle" if backend == "processes" else "inline")
    assert len(report.transport_seconds) == report.num_chunks


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cardinality", [2, 3])
def test_backends_agree_across_cardinalities(backend, cardinality):
    candidates = list(
        stream_text_candidates(
            num_points=120, num_lfs=NUM_LFS, cardinality=cardinality, seed=4
        )
    )
    lfs = text_vote_lfs(NUM_LFS, cardinality=cardinality)
    reference = LFApplier(lfs).apply(candidates)
    matrix = pool_applier(lfs, 17, backend).apply(candidates, sparse=True)
    assert np.array_equal(matrix.to_dense().values, reference.values)
    assert matrix.cardinality == cardinality


@pytest.mark.parametrize("backend", BACKENDS)
def test_generator_input_matches_sequential(backend):
    lfs = synthetic_vote_lfs(NUM_LFS)
    reference = LFApplier(lfs).apply(make_candidates(seed=9))
    matrix = pool_applier(lfs, 16, backend).apply(
        stream_synthetic_candidates(
            num_points=150, num_lfs=NUM_LFS, propensity=0.4, seed=9
        )
    )
    assert np.array_equal(matrix.values, reference.values)


# ------------------------------------------------------------------ features
@pytest.mark.parametrize("backend", BACKENDS)
def test_feature_blocks_bit_identical_across_backends(backend):
    candidates = list(stream_text_candidates(num_points=110, num_lfs=NUM_LFS, seed=5))
    lfs = text_vote_lfs(NUM_LFS)
    featurizer = RelationFeaturizer(num_features=128).fit()
    ref_applier = LFApplier(lfs, chunk_size=23)
    ref_labels, ref_blocks = ref_applier.apply_with_features(
        iter(candidates), featurizer, sparse=True
    )
    applier = pool_applier(lfs, 23, backend)
    labels, blocks = applier.apply_with_features(iter(candidates), featurizer, sparse=True)
    assert np.array_equal(labels.to_dense().values, ref_labels.to_dense().values)
    assert len(blocks) == len(ref_blocks)
    stacked = CSRFeatureMatrix.vstack(blocks)
    ref_stacked = CSRFeatureMatrix.vstack(ref_blocks)
    assert np.array_equal(stacked.indptr, ref_stacked.indptr)
    assert np.array_equal(stacked.indices, ref_stacked.indices)
    assert np.array_equal(stacked.data, ref_stacked.data)


_WIDE_CHUNKS = textwrap.dedent(
    """
    import pickle, socket
    import numpy as np
    from repro.datasets.synthetic import stream_text_candidates, text_vote_lfs
    from repro.discriminative.featurizers import RelationFeaturizer
    from repro.labeling import LFApplier
    from repro.labeling.engine.tasks import featurize_chunk

    candidates = list(stream_text_candidates(num_points=4 * 2048, num_lfs=5, seed=3))
    featurizer = RelationFeaturizer(num_features=1 << 16).fit()
    (labels, blocks), (pooled_labels, pooled_blocks) = (
        LFApplier(text_vote_lfs(5), chunk_size=2048, **settings).apply_with_features(
            candidates, featurizer, sparse=True
        )
        for settings in ({}, dict(backend="processes", num_workers=2))
    )
    assert np.array_equal(pooled_labels.to_dense().values, labels.to_dense().values)
    for block, pooled in zip(blocks, pooled_blocks, strict=True):
        for part in ("indptr", "indices", "data"):
            assert getattr(block, part).tobytes() == getattr(pooled, part).tobytes()
    # Each chunk and each result overflows what a worker's pipe (a socket
    # pair) can buffer, so neither send completes before the peer reads.
    a, b = socket.socketpair()
    held = a.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
    held += b.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    chunk_bytes = len(pickle.dumps(candidates[:2048], pickle.HIGHEST_PROTOCOL))
    # What a worker sends back for a chunk holds at least its feature triples.
    sent = featurize_chunk(featurizer, False, 0, 0, candidates[:2048])
    result_bytes = sum(array.nbytes for array in (sent.row_offsets, sent.cols, sent.values))
    assert min(chunk_bytes, result_bytes) > held, (chunk_bytes, result_bytes, held)
    print("ok", len(blocks))
    """
)


def test_chunks_and_results_wider_than_the_pipe_match_sequential():
    """A fused pass over four chunks whose every chunk and result overflows
    the pipe's buffers.  With a second chunk in flight on a busy worker, the
    master would block sending it while the worker blocks sending its
    result; the pool keeps one per worker.  Runs in its own process group
    with a deadline, so a regression fails instead of hanging the suite, and
    its blocked workers are killed with it."""
    child = subprocess.Popen(
        [sys.executable, "-c", _WIDE_CHUNKS],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("a pass over chunks wider than the pipe deadlocked")
    assert child.returncode == 0, stderr
    assert stdout.split() == ["ok", "4"]


# -------------------------------------------------------------------- errors
class _FailEveryNBody:
    """Picklable LF body raising a distinct exception type per residue."""

    def __init__(self, index: int, divisor: int) -> None:
        self.index = index
        self.divisor = divisor

    def __call__(self, candidate) -> int:
        if candidate.uid % self.divisor == 0:
            if candidate.uid % (2 * self.divisor) == 0:
                raise KeyError(f"key {candidate.uid}")
            raise ValueError(f"value {candidate.uid}")
        return int(candidate.votes[self.index])


def failing_lfs(num_lfs=3):
    return [
        LabelingFunction(f"fail_{j}", _FailEveryNBody(j, divisor=3 + j))
        for j in range(num_lfs)
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_error_details_identical_across_backends(backend):
    candidates = make_candidates(num_points=90)
    lfs = failing_lfs()
    sequential = LFApplier(lfs, fault_tolerant=True)
    expected = sequential.apply(candidates)
    applier = pool_applier(lfs, 8, backend, fault_tolerant=True)
    matrix = applier.apply(candidates, sparse=True)
    assert np.array_equal(matrix.to_dense().values, expected.values)
    assert applier.last_report.errors == sequential.last_report.errors
    for name, detail in sequential.last_report.error_details.items():
        pooled = applier.last_report.error_details[name]
        assert pooled.type_counts == detail.type_counts


@pytest.mark.parametrize("backend", BACKENDS)
def test_first_raised_exception_identical_across_backends(backend):
    candidates = make_candidates(num_points=60)
    lfs = failing_lfs()
    with pytest.raises(LabelingError) as sequential_err:
        LFApplier(lfs).apply(candidates)
    with pytest.raises(LabelingError) as pooled_err:
        pool_applier(lfs, 10, backend).apply(candidates)
    assert type(pooled_err.value) is type(sequential_err.value)
    assert str(pooled_err.value) == str(sequential_err.value)


# --------------------------------------------------------------------- edges
@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_candidate_stream(backend):
    lfs = synthetic_vote_lfs(NUM_LFS)
    applier = pool_applier(lfs, 64, backend)
    matrix = applier.apply([])
    assert matrix.shape == (0, NUM_LFS)
    assert applier.last_report.num_chunks == 0
    assert applier.last_report.transport_seconds == []


class _AbstainBody:
    def __call__(self, candidate) -> int:
        return ABSTAIN


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_abstain_suite_moves_empty_blocks(backend):
    """Zero-size triple blocks still round-trip through a worker's pipe."""
    candidates = make_candidates(num_points=80)
    lfs = [LabelingFunction(f"abstain_{j}", _AbstainBody()) for j in range(3)]
    matrix = pool_applier(lfs, 16, backend).apply(candidates, sparse=True)
    assert matrix.to_dense().values.shape == (80, 3)
    assert not matrix.to_dense().values.any()


# ---------------------------------------------------------------------- fuzz
@dataclass(frozen=True)
class _FuzzCandidate:
    """Picklable text candidate for adversarial-content fuzzing."""

    uid: int
    text: str


class _ByteSumVote:
    """Deterministic pure function of arbitrary unicode text."""

    def __init__(self, modulus: int) -> None:
        self.modulus = modulus

    def __call__(self, candidate: _FuzzCandidate) -> int:
        if not candidate.text:
            return ABSTAIN
        total = sum(candidate.text.encode("utf-8", "surrogatepass"))
        if total % self.modulus == 0:
            return POSITIVE
        if total % self.modulus == 1:
            return NEGATIVE
        return ABSTAIN


_FUZZ_LFS = [LabelingFunction(f"bytesum_{m}", _ByteSumVote(m)) for m in (2, 3, 5)]

_texts = st.lists(
    st.text(
        alphabet=st.characters(
            codec="utf-8", categories=("L", "N", "P", "Zs", "Cc")
        ),
        max_size=40,
    ),
    max_size=60,
)


@settings(max_examples=15, deadline=None)
@given(texts=_texts, chunk_size=st.integers(min_value=1, max_value=32))
def test_fuzzed_corpora_agree_across_backends(texts, chunk_size):
    candidates = [_FuzzCandidate(uid, text) for uid, text in enumerate(texts)]
    reference = LFApplier(_FUZZ_LFS).apply(candidates).values
    for backend in BACKENDS:
        matrix = pool_applier(_FUZZ_LFS, chunk_size, backend).apply(
            candidates, sparse=True
        )
        assert np.array_equal(matrix.to_dense().values, reference)


def test_nul_bytes_survive_every_backend():
    candidates = [
        _FuzzCandidate(0, "\x00"),
        _FuzzCandidate(1, "a\x00b"),
        _FuzzCandidate(2, ""),
        _FuzzCandidate(3, "\x00" * 100),
    ]
    reference = LFApplier(_FUZZ_LFS).apply(candidates).values
    for backend in BACKENDS:
        matrix = pool_applier(_FUZZ_LFS, 2, backend).apply(candidates)
        assert np.array_equal(matrix.values, reference)
