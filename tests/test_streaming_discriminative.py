"""Differential suite for the out-of-core discriminative stage.

Discipline borrowed from coverage-guided differential DBMS fuzzing: every
streaming/vectorized path must be *value-identical* (here: ≤ 1e-8, and in
most cases bit-identical) to its materialized reference path on randomized
workloads.  Pinned down here:

* engine-routed featurization (:func:`featurize_stream`, and the fused
  :meth:`LFApplier.apply_with_features`) against ``transform`` — across
  executor backends, chunk sizes, and sparse/dense output;
* minibatch streaming training (``fit_stream``) against materialized
  ``fit(..., shuffle=False)`` for the logistic, softmax, and MLP end
  models — across block chunkings and storage kinds;
* the end-to-end ``SnorkelPipeline`` — list-fed ``run(task)`` and
  generator-fed ``run_streams`` — against a stage-by-stage materialized
  oracle (``contracts.staged_reference``), binary (k=2) and categorical
  (k=3);
* the featurizer fitted-state regression: ``transform`` before ``fit``
  raises :class:`NotFittedError` instead of silently emitting misaligned
  columns.
"""

import cProfile
import dataclasses
import functools
import os
import pathlib

import numpy as np
import pytest
from contracts import pipeline_carved, staged_reference
from hypothesis import given, settings, strategies as st

from repro.datasets.base import load_task
from repro.datasets.synthetic import (
    build_multiclass_task,
    stream_text_candidates,
    text_vote_lfs,
)
from repro.discriminative import (
    CSRFeatureMatrix,
    HashingVectorizer,
    NoiseAwareLogisticRegression,
    NoiseAwareMLP,
    RelationFeaturizer,
)
from repro.discriminative.base import iter_rebatched
from repro.discriminative.softmax import NoiseAwareSoftmaxRegression
from repro.discriminative.streaming import featurize_stream
from repro.exceptions import ConfigurationError, NotFittedError
from repro.labeling.applier import LFApplier
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline
from repro.utils.csr import narrowed
from repro.utils.mathutils import sigmoid

BACKENDS = [("sequential", 1), ("threads", 2), ("processes", 2)]

NUM_LFS = 8


def text_candidates(num_points, seed=0, cardinality=2):
    return list(
        stream_text_candidates(
            num_points=num_points, num_lfs=NUM_LFS, cardinality=cardinality, seed=seed
        )
    )


@pytest.fixture(scope="module")
def corpus():
    return text_candidates(157, seed=0)


@pytest.fixture(scope="module")
def featurizer():
    return RelationFeaturizer(num_features=128).fit()


# --------------------------------------------------------- streaming featurization
@pytest.mark.parametrize("backend,workers", BACKENDS)
@pytest.mark.parametrize("chunk_size", [13, 64, 500])
def test_featurize_stream_bit_identical(corpus, featurizer, backend, workers, chunk_size):
    reference = featurizer.transform(corpus, sparse=True)
    streamed = featurize_stream(
        featurizer,
        iter(corpus),  # generator input: the candidate list is never handed over
        chunk_size=chunk_size,
        backend=backend,
        num_workers=workers,
    )
    assert streamed.shape == reference.shape
    assert np.array_equal(streamed.indptr, reference.indptr)
    assert np.array_equal(streamed.indices, reference.indices)
    assert np.array_equal(streamed.data, reference.data)


def test_featurize_stream_matches_dense(corpus, featurizer):
    dense = featurizer.transform(corpus)
    streamed = featurize_stream(featurizer, iter(corpus), chunk_size=40)
    assert np.array_equal(streamed.toarray(), dense)


@pytest.mark.parametrize("backend,workers", BACKENDS)
def test_apply_with_features_fused_pass(corpus, featurizer, backend, workers):
    lfs = text_vote_lfs(NUM_LFS)
    applier = LFApplier(lfs, chunk_size=29, backend=backend, num_workers=workers)
    label_matrix, blocks = applier.apply_with_features(iter(corpus), featurizer, sparse=True)
    reference_labels = LFApplier(lfs).apply(corpus)
    assert np.array_equal(label_matrix.values, reference_labels.values)
    assert applier.last_report.num_candidates == len(corpus)
    stacked = CSRFeatureMatrix.vstack(blocks)
    reference_features = featurizer.transform(corpus, sparse=True)
    assert np.array_equal(stacked.toarray(), reference_features.toarray())
    # Block boundaries follow the chunking: all but the last are chunk-sized.
    assert [b.shape[0] for b in blocks[:-1]] == [29] * (len(blocks) - 1)

    # ``apply`` is the same pass without the featurizer: same Λ (held the way
    # the caller asked), same report, in both tiers.
    def deterministic(report):
        pushdown = report.pushdown
        return (
            report.num_candidates, report.num_lfs, report.num_chunks, report.errors,
            report.backend, report.num_workers, report.transport.mode,
            pushdown and (pushdown.compiled, sorted(pushdown.fallback)),
        )

    for pushdown in ("off", "auto"):
        tier = LFApplier(
            lfs, chunk_size=29, backend=backend, num_workers=workers, pushdown=pushdown
        )
        for sparse in (False, True):
            plain = tier.apply(iter(corpus), sparse=sparse)
            plain_report = deterministic(tier.last_report)
            fused, fused_blocks = tier.apply_with_features(iter(corpus), featurizer, sparse=sparse)
            assert deterministic(tier.last_report) == plain_report
            assert plain.is_sparse == fused.is_sparse == sparse
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(plain.csr, name), getattr(fused.csr, name))
                assert np.array_equal(getattr(plain.csr, name), getattr(label_matrix.csr, name))
            fused_features = CSRFeatureMatrix.vstack(fused_blocks)
            assert np.array_equal(fused_features.toarray(), stacked.toarray())


def test_featurize_stream_requires_fitted(corpus):
    unfitted = RelationFeaturizer(num_features=64)
    with pytest.raises(NotFittedError):
        featurize_stream(unfitted, iter(corpus))


# ------------------------------------------------------------------- rebatching
def blocks_of(features, targets, sizes):
    out, start = [], 0
    for size in sizes:
        out.append((features.row_range(start, start + size), targets[start : start + size]))
        start += size
    assert start == features.shape[0]
    return out


def test_rebatching_is_chunking_invariant(corpus, featurizer):
    features = featurizer.transform(corpus, sparse=True)
    targets = np.random.default_rng(0).random(features.shape[0])
    m = features.shape[0]
    chunkings = [[m], [50, 50, 57], [13] * 12 + [1], [1] * m]
    reference = list(iter_rebatched(blocks_of(features, targets, chunkings[0]), 32))
    for sizes in chunkings[1:]:
        batches = list(iter_rebatched(blocks_of(features, targets, sizes), 32))
        assert len(batches) == len(reference)
        for (xa, ya), (xb, yb) in zip(reference, batches):
            assert np.array_equal(xa.toarray(), xb.toarray())
            assert np.array_equal(ya, yb)


def test_rebatched_batches_are_exact_slices(corpus, featurizer):
    features = featurizer.transform(corpus, sparse=True)
    targets = np.arange(features.shape[0], dtype=float)
    batches = list(iter_rebatched(blocks_of(features, targets, [40, 40, 77]), 50))
    sizes = [y.size for _, y in batches]
    assert sizes == [50, 50, 50, 7]
    assert np.array_equal(np.concatenate([y for _, y in batches]), targets)


# ------------------------------------------------------------- streaming training
def feature_blocks(features, targets, block_size):
    sizes = []
    remaining = features.shape[0]
    while remaining > 0:
        sizes.append(min(block_size, remaining))
        remaining -= sizes[-1]
    return blocks_of(features, targets, sizes)


@pytest.mark.parametrize("block_size", [9, 64, 157])
def test_logistic_fit_stream_identical_to_materialized(corpus, featurizer, block_size):
    features = featurizer.transform(corpus, sparse=True)
    soft = np.random.default_rng(1).random(features.shape[0])
    reference = NoiseAwareLogisticRegression(epochs=7, shuffle=False, seed=0).fit(features, soft)
    streamed = NoiseAwareLogisticRegression(epochs=7, shuffle=False, seed=0).fit_stream(
        feature_blocks(features, soft, block_size)
    )
    assert np.array_equal(reference.weights, streamed.weights)
    assert reference.bias == streamed.bias
    assert reference.loss_history == streamed.loss_history


def test_logistic_fit_stream_dense_blocks(corpus, featurizer):
    dense = featurizer.transform(corpus)
    soft = np.random.default_rng(2).random(dense.shape[0])
    reference = NoiseAwareLogisticRegression(epochs=5, shuffle=False, seed=0).fit(dense, soft)
    blocks = [(dense[i : i + 31], soft[i : i + 31]) for i in range(0, dense.shape[0], 31)]
    streamed = NoiseAwareLogisticRegression(epochs=5, shuffle=False, seed=0).fit_stream(blocks)
    assert np.abs(reference.weights - streamed.weights).max() < 1e-8
    assert np.allclose(reference.predict_proba(dense), streamed.predict_proba(dense), atol=1e-8)


def test_logistic_fit_stream_class_balance(corpus, featurizer):
    features = featurizer.transform(corpus, sparse=True)
    soft = np.random.default_rng(3).random(features.shape[0])
    reference = NoiseAwareLogisticRegression(
        epochs=4, class_balance=0.3, shuffle=False, seed=0
    ).fit(features, soft)
    streamed = NoiseAwareLogisticRegression(
        epochs=4, class_balance=0.3, shuffle=False, seed=0
    ).fit_stream(feature_blocks(features, soft, 25))
    # The streaming pre-pass accumulates the positive mass blockwise, so the
    # class-balance scale factors can differ from np.mean's pairwise sum in
    # the last ulp — value-identical, not bit-identical.
    assert np.abs(reference.weights - streamed.weights).max() < 1e-10


@pytest.mark.parametrize("block_size", [17, 80])
def test_softmax_fit_stream_identical_to_materialized(block_size):
    candidates = text_candidates(140, seed=4, cardinality=3)
    featurizer = RelationFeaturizer(num_features=96).fit()
    features = featurizer.transform(candidates, sparse=True)
    rng = np.random.default_rng(4)
    targets = rng.random((features.shape[0], 3))
    targets /= targets.sum(axis=1, keepdims=True)
    reference = NoiseAwareSoftmaxRegression(num_classes=3, epochs=6, shuffle=False, seed=0).fit(
        features, targets
    )
    streamed_model = NoiseAwareSoftmaxRegression(num_classes=3, epochs=6, shuffle=False, seed=0)
    streamed = streamed_model.fit_stream(
        feature_blocks(features, targets, block_size)
    )
    assert np.array_equal(reference.weights, streamed.weights)
    assert np.array_equal(reference.bias, streamed.bias)


def test_mlp_fit_stream_identical_to_materialized(corpus, featurizer):
    features = featurizer.transform(corpus, sparse=True)
    soft = np.random.default_rng(5).random(features.shape[0])
    reference = NoiseAwareMLP(hidden_sizes=(8,), epochs=3, shuffle=False, seed=0).fit(
        features, soft
    )
    streamed = NoiseAwareMLP(hidden_sizes=(8,), epochs=3, shuffle=False, seed=0).fit_stream(
        feature_blocks(features, soft, 21)
    )
    probe = featurizer.transform(text_candidates(31, seed=6))
    assert np.array_equal(reference.predict_proba(probe), streamed.predict_proba(probe))


def test_fit_stream_from_callable_source(corpus, featurizer):
    """A generator *factory* (re-featurize per epoch) is a valid block source."""
    soft = np.random.default_rng(6).random(len(corpus))

    def source():
        for start in range(0, len(corpus), 50):
            chunk = corpus[start : start + 50]
            yield featurizer.transform(chunk, sparse=True), soft[start : start + 50]

    features = featurizer.transform(corpus, sparse=True)
    reference = NoiseAwareLogisticRegression(epochs=3, shuffle=False, seed=0).fit(features, soft)
    streamed = NoiseAwareLogisticRegression(epochs=3, shuffle=False, seed=0).fit_stream(source)
    assert np.array_equal(reference.weights, streamed.weights)


@functools.lru_cache(maxsize=None)
def trainer_inputs():
    """Features (CSR) and every target kind of the generated differential."""
    candidates = text_candidates(48, seed=9, cardinality=3)
    features = RelationFeaturizer(num_features=40).fit().transform(candidates, sparse=True)
    rng = np.random.default_rng(9)
    distributions = rng.random((48, 3))
    distributions /= distributions.sum(axis=1, keepdims=True)
    targets = {
        "soft": rng.random(48),
        "hard classes": 1.0 + rng.integers(0, 3, 48),
        "distributions": distributions,
    }
    return features, targets


TRAINERS = {
    "logistic": ("soft", lambda **kw: NoiseAwareLogisticRegression(**kw)),
    "logistic balanced": (
        "soft",
        lambda **kw: NoiseAwareLogisticRegression(class_balance=0.3, **kw),
    ),
    "softmax hard": ("hard classes", lambda **kw: NoiseAwareSoftmaxRegression(3, **kw)),
    "softmax soft": ("distributions", lambda **kw: NoiseAwareSoftmaxRegression(3, **kw)),
    "mlp": ("soft", lambda **kw: NoiseAwareMLP(hidden_sizes=(4,), dropout=0.0, **kw)),
}


@st.composite
def trainer_cases(draw):
    num_rows = draw(st.integers(1, 48))
    if draw(st.booleans()):
        sizes = [1] * num_rows
    else:
        cuts = sorted(draw(st.sets(st.integers(1, max(num_rows - 1, 1)), max_size=6)))
        cuts = [cut for cut in cuts if cut < num_rows]
        sizes = list(np.diff([0, *cuts, num_rows]))
    keep = np.array(draw(st.lists(st.booleans(), min_size=num_rows, max_size=num_rows)))
    keep[draw(st.integers(0, num_rows - 1))] = True
    return dict(
        trainer=draw(st.sampled_from(sorted(TRAINERS))),
        dense=draw(st.booleans()),
        num_rows=num_rows,
        sizes=sizes,
        keep=keep,
        batch_size=draw(st.one_of(st.just(1), st.integers(2, 20), st.just(1000))),
    )


def fitted_state(model):
    parts = (
        [array for layer in model._layers for array in layer]
        if isinstance(model, NoiseAwareMLP)
        else [model.weights, np.asarray(model.bias)]
    )
    return [np.asarray(part).tobytes() for part in parts], np.array(model.loss_history).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=trainer_cases())
def test_three_doors_train_bit_identically(case):
    """``fit_stream`` over a pipeline-carved sequence (planned once per fit),
    the same blocks as a callable (re-batched every epoch) and ``fit(X[keep],
    shuffle=False)`` give the same weights, bias and loss history bit for
    bit — any chunking, kept mask and batch size, including 1, one-row blocks
    and a batch larger than the data.  Over CSR features a fourth door is
    the sequence over narrow blocks — column ids and values in the dtypes the
    block store narrows them to, as a checkpointed run loads them — and it
    equals the sequence over their widened twins bit for bit, for every
    trainer.  One exception, as in
    ``test_logistic_fit_stream_class_balance``: ``class_balance``'s positive
    mass is summed block by block by a stream and in one pass by ``fit``, so
    there ``fit`` agrees to rounding and the two streams bit for bit."""
    features, all_targets = trainer_inputs()
    target_kind, make = TRAINERS[case["trainer"]]
    rows = np.arange(case["num_rows"])
    features = features[rows]
    if case["dense"]:
        features = features.toarray()
    targets = all_targets[target_kind][rows]
    sizes, keep = case["sizes"], case["keep"]

    def model():
        return make(epochs=2, batch_size=case["batch_size"], shuffle=False, seed=0)

    sequence = model().fit_stream(list(pipeline_carved(features, targets, sizes, keep, True)))
    callable_source = model().fit_stream(
        lambda: pipeline_carved(features, targets, sizes, keep, False)
    )
    materialized = model().fit(features[np.flatnonzero(keep)], targets[keep])
    assert fitted_state(sequence) == fitted_state(callable_source)
    if not case["dense"]:
        narrow = CSRFeatureMatrix._carved(
            features.indptr, narrowed(features.indices), narrowed(features.data), features.shape
        )
        assert narrow.data.dtype == np.int8 or not narrow.nnz
        narrow_sequence = model().fit_stream(
            list(pipeline_carved(narrow, targets, sizes, keep, True))
        )
        assert fitted_state(narrow_sequence) == fitted_state(sequence)
    if case["trainer"] != "logistic balanced":
        assert fitted_state(sequence) == fitted_state(materialized)
    else:
        assert np.allclose(sequence.weights, materialized.weights, rtol=1e-12, atol=0)
        assert np.allclose(sequence.bias, materialized.bias, rtol=1e-12, atol=0)
        assert np.allclose(sequence.loss_history, materialized.loss_history, rtol=1e-12, atol=0)


def masked_sigmoid(x):
    """The sigmoid as it was written before it went mask-free: the oracle."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def test_sigmoid_is_bitwise_the_masked_formula():
    finfo = np.finfo(float)
    payload_nan = np.array([0x7FF8000000000123], dtype=np.uint64).view(float)[0]
    special = [
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, payload_nan, -payload_nan,
        finfo.tiny, -finfo.tiny, 5e-324, -5e-324, finfo.max, -finfo.max,
        1.0, -1.0, 36.7, -36.7, 709.8, -709.8, 745.2, -745.2,
    ]
    values = np.concatenate(
        [special, np.random.default_rng(0).normal(scale=40.0, size=500)]
    )
    assert sigmoid(values).view(np.uint64).tolist() == (
        masked_sigmoid(values).view(np.uint64).tolist()
    )
    for value in special:
        got = sigmoid(np.float64(value))
        assert isinstance(got, float)
        assert np.float64(got).view(np.uint64) == masked_sigmoid(value).view(np.uint64)


def test_fit_stream_rejects_one_shot_iterators(corpus, featurizer):
    features = featurizer.transform(corpus, sparse=True)
    soft = np.zeros(features.shape[0])
    one_shot = iter(feature_blocks(features, soft, 50))
    with pytest.raises(ConfigurationError):
        NoiseAwareLogisticRegression(epochs=2).fit_stream(one_shot)


def test_fit_stream_rejects_empty_stream():
    with pytest.raises(ConfigurationError):
        NoiseAwareLogisticRegression().fit_stream([])


def test_fit_stream_rejects_explicit_shuffle(corpus, featurizer):
    """An explicitly demanded shuffled schedule cannot be silently dropped."""
    features = featurizer.transform(corpus, sparse=True)
    blocks = [(features, np.zeros(features.shape[0]))]
    for model in (
        NoiseAwareLogisticRegression(epochs=1, shuffle=True),
        NoiseAwareSoftmaxRegression(num_classes=3, epochs=1, shuffle=True),
        NoiseAwareMLP(hidden_sizes=(4,), epochs=1, shuffle=True),
    ):
        with pytest.raises(ConfigurationError):
            model.fit_stream(blocks)


def test_fit_stream_rejects_width_mismatch(corpus):
    a = RelationFeaturizer(num_features=64).fit().transform(corpus[:50], sparse=True)
    b = RelationFeaturizer(num_features=32).fit().transform(corpus[50:], sparse=True)
    soft = np.zeros(50)
    with pytest.raises(ConfigurationError):
        NoiseAwareLogisticRegression(epochs=1).fit_stream([(a, soft), (b, soft)])


def test_fit_stream_never_writes_to_the_callers_blocks(corpus, featurizer):
    """A sequence is planned once per fit from views of the caller's blocks;
    neither door may write to them."""
    features = featurizer.transform(corpus, sparse=True)
    soft = np.random.default_rng(8).random(features.shape[0])
    hard = 1 + np.arange(features.shape[0]) % 3
    for blocks, make in (
        (feature_blocks(features, soft, 50), lambda: NoiseAwareLogisticRegression(epochs=2)),
        (feature_blocks(features, hard, 37), lambda: NoiseAwareSoftmaxRegression(3, epochs=2)),
        (feature_blocks(features, soft, 64), lambda: NoiseAwareMLP((4,), epochs=2)),
        (
            [(block.toarray(), targets) for block, targets in feature_blocks(features, soft, 40)],
            lambda: NoiseAwareLogisticRegression(epochs=2, class_balance=0.3),
        ),
    ):
        before = block_bytes(blocks)
        make().fit_stream(blocks)
        make().fit_stream(lambda: iter(blocks))
        assert block_bytes(blocks) == before


def _fit_stream_calls(make, blocks, epochs: int) -> int:
    model = make()
    model.epochs = epochs
    profile = cProfile.Profile()
    profile.enable()
    model.fit_stream(blocks)
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


@pytest.mark.parametrize(
    "kind,budget",
    [("logistic", 17.2), ("softmax", 16.2)],
    ids=["logistic", "softmax"],
)
def test_end_model_step_call_budget(kind, budget):
    """Profiled calls per minibatch step of ``fit_stream`` on fixed narrow CSR
    blocks (the pipeline's), bounded at the count of the lean step kernels.

    The step is one call of the model's ``_gradients`` and one of
    ``AdamOptimizer.step_in_place``; the count is the difference between a
    3-epoch and a 1-epoch fit over the 20 further steps, so it holds the
    per-step cost alone (with two calls per epoch spread over its ten
    steps).  Before the kernels called numpy's reductions and the CSR
    products directly, the same measurement read 31.2 (logistic) and 37.2
    (softmax) calls per step.
    """
    rng = np.random.default_rng(0)
    blocks = []
    for _ in range(4):
        counts = (rng.random((160, 64)) < 0.2) * rng.integers(1, 4, (160, 64))
        block = CSRFeatureMatrix.from_dense(counts.astype(float))
        block.indices, block.data = narrowed(block.indices), narrowed(block.data)
        targets = rng.random(160) if kind == "logistic" else rng.dirichlet(np.ones(4), 160)
        blocks.append((block, targets))
    make = {
        "logistic": lambda: NoiseAwareLogisticRegression(batch_size=64, shuffle=False),
        "softmax": lambda: NoiseAwareSoftmaxRegression(4, batch_size=64, shuffle=False),
    }[kind]
    steps = 2 * 640 // 64
    per_step = (_fit_stream_calls(make, blocks, 3) - _fit_stream_calls(make, blocks, 1)) / steps
    assert per_step <= budget


def block_bytes(blocks):
    """Every array of every ``(features, targets)`` block, as bytes."""
    return [
        [
            np.asarray(part).tobytes()
            for part in (
                (block.indptr, block.indices, block.data)
                if isinstance(block, CSRFeatureMatrix)
                else (block,)
            )
        ]
        + [np.asarray(targets).tobytes()]
        for block, targets in blocks
    ]


def test_checkpointed_pipeline_never_writes_to_its_stored_blocks(tmp_path, monkeypatch):
    """A checkpointed run trains on its stored feature blocks read back once,
    in their narrow stored dtypes, into arrays it owns: it shrinks them in
    place like an in-RAM run, the log's bytes before the fit are a
    byte-identical prefix of its bytes after it (the fit only appends its
    epoch snapshots), each train chunk's feature arrays are read once per
    fit whatever the epoch count, and the trained model is the in-RAM run's
    bit for bit."""
    from repro.discriminative.base import NoiseAwareClassifier
    from repro.labeling.blockstore import BlockStore

    reads, unchanged = [], []
    read, fit_stream = BlockStore._read, NoiseAwareClassifier.fit_stream

    def counting_read(self, key, names, widen=True):
        if key.startswith("chunk/train/") and (names is None or "a5" in names):
            reads.append(key)
        return read(self, key, names, widen)

    def watched_fit_stream(self, blocks, checkpoint=None):
        store = checkpoint.store
        log = pathlib.Path(store.path)
        assert os.listdir(store.root) == [log.name]
        before = log.read_bytes()
        assert any(key.startswith("chunk/train/") for key in store.keys())
        fitted = fit_stream(self, blocks, checkpoint)
        after = log.read_bytes()
        unchanged.append(len(after) > len(before) and after[: len(before)] == before)
        return fitted

    monkeypatch.setattr(BlockStore, "_read", counting_read)
    monkeypatch.setattr(NoiseAwareClassifier, "fit_stream", watched_fit_stream)
    task = load_task("cdr", scale=0.05, seed=0)

    def run(epochs, checkpoint_dir=None):
        config = PipelineConfig(
            seed=0, chunk_size=37, discriminative_epochs=epochs, checkpoint_dir=checkpoint_dir
        )
        return SnorkelPipeline(config=config).run(task)

    run(1, str(tmp_path / "one"))
    reads_at_one = len(reads)
    reads.clear()
    checkpointed = run(5, str(tmp_path / "five"))
    num_chunks = -(-len(task.split_candidates("train")) // 37)
    assert reads_at_one == len(reads) == len(set(reads)) == num_chunks
    assert unchanged == [True, True]
    monkeypatch.undo()
    in_ram = run(5)
    disk, ram = checkpointed.discriminative_model, in_ram.discriminative_model
    assert np.array_equal(disk.weights, ram.weights)
    assert disk.loss_history == ram.loss_history


def test_shuffled_fit_unchanged_by_refactor(corpus, featurizer):
    """shuffle=True (the default) keeps the historical per-epoch permutation."""
    features = featurizer.transform(corpus)
    soft = np.random.default_rng(7).random(features.shape[0])
    shuffled = NoiseAwareLogisticRegression(epochs=5, seed=0).fit(features, soft)
    ordered = NoiseAwareLogisticRegression(epochs=5, shuffle=False, seed=0).fit(features, soft)
    assert not np.array_equal(shuffled.weights, ordered.weights)


# ----------------------------------------------------------------- end-to-end
def assert_equals_reference(result, reference):
    model = result.discriminative_model
    assert np.array_equal(result.label_matrix.values, reference["label_values"])
    assert np.array_equal(result.training_probs, reference["training_probs"])
    assert np.array_equal(model.weights, reference["weights"])
    assert np.array_equal(np.asarray(model.bias), reference["bias"])
    assert result.generative_f1 == reference["generative_f1"]
    assert result.discriminative_f1 == reference["discriminative_f1"]
    assert set(result.timings) == {"lf_application", "label_modeling", "discriminative_training"}


PIPELINE_TASKS = {
    2: (lambda: load_task("cdr", scale=0.05, seed=0), dict(seed=0)),
    3: (
        lambda: build_multiclass_task(num_points=200, num_lfs=10, cardinality=3, seed=3),
        dict(seed=0, use_optimizer=False, generative_epochs=5, discriminative_epochs=8),
    ),
}


@pytest.fixture(scope="module", params=[(2, False), (2, True), (3, False), (3, True)])
def pipeline_case(request):
    cardinality, sparse_labels = request.param
    build, settings = PIPELINE_TASKS[cardinality]
    task = build()
    settings = dict(settings, sparse_labels=sparse_labels)
    return task, settings, staged_reference(task, PipelineConfig(**settings))


@pytest.mark.parametrize("backend,workers", BACKENDS)
def test_pipeline_equals_staged_reference(pipeline_case, backend, workers):
    """List-fed ``run(task)`` and generator-fed ``run_streams`` — k=2 and
    k=3, dense and sparse Λ, every backend — equal the staged oracle bit for
    bit."""
    task, settings, reference = pipeline_case
    config = PipelineConfig(
        **settings, chunk_size=37, applier_backend=backend, applier_workers=workers
    )
    from_lists = SnorkelPipeline(config=config).run(task)
    assert from_lists.task_name == task.name
    assert_equals_reference(from_lists, reference)
    from_generators = SnorkelPipeline(lfs=task.lfs, config=config).run_streams(
        task.stream_candidates("train"),
        task.stream_candidates("test"),
        task.split_gold("test"),
    )
    assert from_generators.task_name == "stream"
    assert_equals_reference(from_generators, reference)


def test_config_accepts_and_ignores_streaming_keyword():
    """``streaming=`` is no longer a mode, and ``gibbs_kernel=`` /
    ``generative_step_size=`` tune no estimator: accepted, not stored."""
    config = PipelineConfig(streaming=True, sparse_labels=True)
    names = {spec.name for spec in dataclasses.fields(config)}
    inert = {"streaming", "gibbs_kernel", "generative_step_size"}
    assert not inert & names and len(names) == 16
    assert config == PipelineConfig(streaming=False, sparse_labels=True)
    assert config == PipelineConfig(
        sparse_labels=True, gibbs_kernel="reference", generative_step_size=0.2
    )


def test_run_streams_requires_lfs():
    with pytest.raises(ConfigurationError):
        SnorkelPipeline(config=PipelineConfig()).run_streams(
            iter(()), iter(()), np.zeros(0)
        )


# ------------------------------------------------- featurizer fitted-state bugfix
def test_transform_before_fit_raises(corpus):
    featurizer = RelationFeaturizer(num_features=64)
    with pytest.raises(NotFittedError):
        featurizer.transform(corpus[:3])
    with pytest.raises(NotFittedError):
        featurizer.transform(corpus[:3], sparse=True)
    vectorizer = HashingVectorizer(num_features=32)
    with pytest.raises(NotFittedError):
        vectorizer.transform([["some", "words"]])
    # After fit, both paths work and agree.
    featurizer.fit()
    assert featurizer.transform(corpus[:3]).shape == (3, featurizer.output_dim)


def test_config_mutation_after_fit_raises(corpus):
    featurizer = RelationFeaturizer(num_features=64).fit()
    featurizer.num_features = 128  # would silently misalign every column
    with pytest.raises(ConfigurationError):
        featurizer.transform(corpus[:3])
    vectorizer = HashingVectorizer(num_features=32).fit()
    vectorizer.num_features = 64
    with pytest.raises(ConfigurationError):
        vectorizer.transform([["some", "words"]])


def test_fit_does_not_consume_generators():
    generator = stream_text_candidates(num_points=5, num_lfs=2, seed=0)
    RelationFeaturizer(num_features=16).fit(generator)
    assert len(list(generator)) == 5
