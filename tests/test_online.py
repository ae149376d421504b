"""The online incremental label model: drain exactness, LF edits, serving.

The differential contract this suite pins (the seeded hypothesis fuzz at the
bottom re-checks it under randomized matrices and chunkings):

* **Drain ≡ batch** — folding any chunking of a stream and draining gives a
  model *bit-identical* to ``GenerativeModel.fit`` on the equivalent sparse
  matrix (canonical CSR makes the drain chunk-order invariant) and to the
  fit on the dense matrix, which runs the same kernel — for k=2 and k=3
  alike.
* **Zero-update warm case** — serving again without new data returns the
  memoized batch model's posteriors bitwise, under an unchanged version.
* **All-abstain chunks are no-ops** — rows grow, statistics and version
  don't.
* **LF edits ≡ full refit** — ``add_lf``/``remove_lf`` followed by a drain
  match fitting the edited matrix from scratch bitwise, including the
  correlation-pair remap; ``StructureLearner.refit_nodes`` re-solves only
  the touched nodes yet reproduces the full fit's rows bitwise.
* **Serving discipline** — ``model_version_`` is monotone, the staleness
  bound auto-drains, and ``save``/``load`` round-trips the whole state
  (the store keeping exactly one snapshot).
"""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.labelmodel.online as online_module
from repro.datasets.synthetic import generate_label_matrix, stream_text_candidates, text_vote_lfs
from repro.exceptions import LabelModelError, NotFittedError
from repro.labeling.blockstore import BlockStore
from repro.labeling.matrix import LabelMatrix
from repro.labeling.sparse import SparseLabelMatrix
from repro.labelmodel import GenerativeModel, OnlineGenerativeModel, StructureLearner
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline


def binary_matrix(num_points=400, num_lfs=8, seed=0):
    return generate_label_matrix(
        num_points=num_points, num_lfs=num_lfs, propensity=0.4, seed=seed
    ).label_matrix.values


def categorical_matrix(num_points=300, num_lfs=6, cardinality=3, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, cardinality + 1, size=(num_points, num_lfs))
    return matrix


def fold(dense, chunk_sizes, **kwargs):
    """Fold ``dense`` into a fresh online model as chunks of the given sizes."""
    model = OnlineGenerativeModel(epochs=10, seed=0, **kwargs)
    start = 0
    for size in chunk_sizes:
        model.update(dense[start:start + size])
        start += size
    assert start == dense.shape[0]
    return model


# -------------------------------------------------------------- drain ≡ batch
@pytest.mark.parametrize("chunk_sizes", [[400], [150, 250], [64] * 6 + [16], [1, 399]])
def test_drained_matches_batch_sparse_bitwise(chunk_sizes):
    dense = binary_matrix()
    online = fold(dense, chunk_sizes)
    drained = online.drain()
    batch = GenerativeModel(epochs=10, seed=0).fit(SparseLabelMatrix.from_dense(dense))
    assert np.array_equal(drained.weights, batch.weights)
    assert drained.class_prior_weight_ == batch.class_prior_weight_
    assert np.array_equal(drained.predict_proba(dense), batch.predict_proba(dense))


def test_drained_matches_batch_dense_within_tolerance():
    dense = binary_matrix(seed=3)
    online = fold(dense, [128, 128, 144])
    drained = online.drain()
    batch = GenerativeModel(epochs=10, seed=0).fit(dense)
    assert np.array_equal(drained.weights, batch.weights)
    assert np.array_equal(drained.predict_proba(dense), batch.predict_proba(dense))


def test_chunk_order_invariance_of_drain():
    dense = binary_matrix(seed=5)
    reference = fold(dense, [400]).drain()
    for sizes in ([37, 363], [200, 200], [1, 199, 200]):
        drained = fold(dense, sizes).drain()
        assert np.array_equal(drained.weights, reference.weights)
        assert drained.class_prior_weight_ == reference.class_prior_weight_


def test_drained_with_correlations_matches_batch():
    dense = binary_matrix(seed=7)
    pairs = ((0, 1), (2, 5))
    online = fold(dense, [100, 300], correlations=pairs)
    drained = online.drain()
    batch = GenerativeModel(epochs=10, seed=0).fit(
        SparseLabelMatrix.from_dense(dense), correlations=pairs
    )
    assert np.array_equal(drained.weights, batch.weights)


def test_categorical_drain_matches_batch():
    dense = categorical_matrix()
    online = fold(dense, [100, 100, 100], cardinality=3)
    drained = online.drain()
    batch = GenerativeModel(epochs=10, seed=0, cardinality=3).fit(
        SparseLabelMatrix.from_dense(dense)
    )
    assert np.array_equal(drained.weights, batch.weights)
    assert np.array_equal(drained.class_priors_, batch.class_priors_)
    dense_batch = GenerativeModel(epochs=10, seed=0, cardinality=3).fit(dense)
    assert np.array_equal(drained.predict_proba(dense), dense_batch.predict_proba(dense))


def test_label_matrix_chunks_pin_cardinality():
    dense = categorical_matrix(seed=2)
    online = OnlineGenerativeModel(epochs=5, seed=0)
    online.update(LabelMatrix(dense, cardinality=3))
    assert online.cardinality_ == 3
    assert online.drain().predict_proba(dense).shape == (dense.shape[0], 3)


# ------------------------------------------------------------------- serving
def test_zero_update_warm_serve_is_bitwise():
    dense = binary_matrix(seed=1)
    online = fold(dense, [200, 200])
    drained = online.drain()
    version = online.model_version_
    chunks = [dense[:150], dense[150:]]
    served = list(online.serve_posteriors(chunks))
    for chunk, result in zip(chunks, served):
        assert result.model_version == version
        assert np.array_equal(result.probs, drained.predict_proba(chunk))
    # Serving twice from the memoized drain is idempotent bitwise.
    again = list(online.serve_posteriors(chunks))
    for first, second in zip(served, again):
        assert np.array_equal(first.probs, second.probs)
    assert online.model_version_ == version


def test_staleness_bound_auto_drains():
    dense = binary_matrix(num_points=200, seed=2)
    online = fold(dense, [100, 100], max_staleness=0)
    assert online.updates_since_drain_ == 2
    [served] = list(online.serve_posteriors([dense[:50]]))
    assert online.updates_since_drain_ == 0
    batch = GenerativeModel(epochs=10, seed=0).fit(SparseLabelMatrix.from_dense(dense))
    assert np.array_equal(served.probs, batch.predict_proba(dense[:50]))


def test_model_version_monotone_under_interleaving():
    dense = binary_matrix(seed=4)
    online = OnlineGenerativeModel(epochs=5, seed=0)
    versions = []
    for start in range(0, 400, 100):
        online.update(dense[start:start + 100])
        [served] = list(online.serve_posteriors([dense[:10]]))
        versions.append(served.model_version)
    online.drain()
    versions.append(online.model_version_)
    assert versions == sorted(versions)
    assert len(set(versions)) == len(versions)


def test_update_hands_the_e_step_only_the_chunk(monkeypatch):
    """Folding costs O(chunk): each update's E-step sees exactly the new
    chunk's entries, however many rows were folded in before it."""
    seen, e_step = [], online_module.e_step

    def counting_e_step(entries, *args):
        seen.append(entries.cols.size)
        return e_step(entries, *args)

    monkeypatch.setattr(online_module, "e_step", counting_e_step)
    dense = binary_matrix(num_points=2_000, seed=8)
    chunks = [dense[start:start + 200] for start in range(0, 2_000, 200)]
    fold(dense, [200] * 10)
    assert seen == [np.count_nonzero(chunk) for chunk in chunks]


def test_all_abstain_chunk_is_noop():
    dense = binary_matrix(seed=6)
    online = fold(dense, [400])
    version = online.model_version_
    accuracies = online.accuracies_.copy()
    online.update(np.zeros((50, dense.shape[1]), dtype=int))
    assert online.model_version_ == version
    assert online.num_rows_ == 450
    assert np.array_equal(online.accuracies_, accuracies)
    # The drain sees the abstain rows only as uncovered mass.
    assert online.drain().predict_proba(dense).shape == (400,)


def test_accumulated_matrix_is_kept_until_lambda_changes():
    dense = binary_matrix(seed=6)
    online = fold(dense[:300], [300])
    kept = online.accumulated_matrix()
    assert online.accumulated_matrix() is kept
    assert online.drain() is not None and online.accumulated_matrix() is kept
    expected = dense[:300]
    # Every way Λ can change — shape-only growth included — drops it.
    online.update(np.zeros((50, dense.shape[1]), dtype=int))
    expected = np.vstack([expected, np.zeros((50, dense.shape[1]), dtype=int)])
    assert np.array_equal(online.accumulated_matrix().to_dense(), expected)
    online.update(dense[300:])
    expected = np.vstack([expected, dense[300:]])
    assert np.array_equal(online.accumulated_matrix().to_dense(), expected)
    online.add_lf(np.zeros(450, dtype=int))  # a vote-less LF
    expected = np.hstack([expected, np.zeros((450, 1), dtype=int)])
    assert np.array_equal(online.accumulated_matrix().to_dense(), expected)
    online.remove_lf(2)
    expected = np.delete(expected, 2, axis=1)
    assert np.array_equal(online.accumulated_matrix().to_dense(), expected)


# ------------------------------------------------------------------ LF edits
def test_add_lf_then_drain_matches_full_refit():
    dense = binary_matrix(seed=8, num_lfs=10)
    online = fold(dense[:, :8], [133, 267])
    assert online.add_lf(dense[:, 8]) == 8
    assert online.add_lf(dense[:, 9]) == 9
    drained = online.drain()
    batch = GenerativeModel(epochs=10, seed=0).fit(SparseLabelMatrix.from_dense(dense))
    assert np.array_equal(drained.weights, batch.weights)
    assert np.array_equal(drained.predict_proba(dense), batch.predict_proba(dense))


def test_remove_lf_then_drain_matches_full_refit():
    dense = binary_matrix(seed=9)
    online = fold(dense, [200, 200], correlations=((1, 5), (2, 3)))
    online.remove_lf(5)
    # The (1, 5) pair died with the LF; (2, 3) survives unshifted.
    assert online.correlations_ == [(2, 3)]
    reduced = np.delete(dense, 5, axis=1)
    drained = online.drain()
    batch = GenerativeModel(epochs=10, seed=0).fit(
        SparseLabelMatrix.from_dense(reduced), correlations=((2, 3),)
    )
    assert np.array_equal(drained.weights, batch.weights)


def test_remove_lf_shifts_correlation_indices():
    dense = binary_matrix(seed=10)
    online = fold(dense, [400], correlations=((2, 6), (4, 7)))
    online.remove_lf(3)
    assert online.correlations_ == [(2, 5), (3, 6)]


def test_relearn_structure_refits_only_new_nodes():
    dense = binary_matrix(seed=11, num_lfs=6)
    online = fold(dense[:, :5], [400])
    learner = StructureLearner(seed=0)
    online.relearn_structure(learner, threshold=0.05)
    online.add_lf(dense[:, 5])
    online.relearn_structure(learner, threshold=0.05, nodes=[5])
    full = StructureLearner(seed=0).fit(SparseLabelMatrix.from_dense(dense))
    # The appended node's regression is solved on the grown matrix and is
    # bitwise the full fit's row; older rows keep their 5-LF solutions.
    assert np.array_equal(learner.dependency_weights_[5], full.dependency_weights_[5])
    assert learner.dependency_weights_.shape == (6, 6)
    # Re-solving every node incrementally reproduces the full fit exactly.
    pairs = online.relearn_structure(learner, threshold=0.05, nodes=range(6))
    assert np.array_equal(learner.dependency_weights_, full.dependency_weights_)
    assert pairs == full.select(0.05)


# ---------------------------------------------------------------- validation
def test_online_validation_errors():
    with pytest.raises(LabelModelError):
        OnlineGenerativeModel(max_staleness=-1)
    online = OnlineGenerativeModel()
    with pytest.raises(NotFittedError):
        online.posteriors(np.zeros((2, 3), dtype=int))
    with pytest.raises(NotFittedError):
        online.drain()
    online.update(binary_matrix(num_points=50))
    with pytest.raises(LabelModelError):
        online.update(np.zeros((10, 3), dtype=int))  # LF count mismatch
    with pytest.raises(LabelModelError):
        online.update(np.full((5, 8), 3))  # out-of-vocabulary labels
    with pytest.raises(LabelModelError):
        online.add_lf(np.zeros(7, dtype=int))  # wrong length
    with pytest.raises(LabelModelError):
        online.remove_lf(8)


def _state(online):
    """Everything a rejected call must leave untouched."""
    return (
        online.num_lfs_, online.cardinality_, online.num_rows_, online.model_version_,
        online.accuracies_, online.vote_counts_, online.expected_correct_,
        online.accumulated_matrix().to_dense() if online.num_lfs_ is not None else None,
    )


def _same_state(before, after):
    return all(
        np.array_equal(old, new) if isinstance(old, np.ndarray) else old == new
        for old, new in zip(before, after)
    )


def test_rejected_add_lf_leaves_model_unchanged():
    dense = binary_matrix(num_points=60, num_lfs=5, seed=20)
    online = fold(dense[:, :4], [60])
    before = _state(online)
    with pytest.raises(LabelModelError):
        online.add_lf(np.full(60, 3))  # out-of-vocabulary votes on a binary task
    assert _same_state(before, _state(online))
    # The model still folds 4-LF chunks and accepts a valid LF next.
    online.update(dense[:10, :4])
    assert online.add_lf(np.concatenate([dense[:, 4], dense[:10, 4]])) == 4


def test_rejected_first_chunk_leaves_model_unpinned():
    online = OnlineGenerativeModel(epochs=5, seed=0)
    before = _state(online)
    with pytest.raises(LabelModelError):
        online.update(np.full((5, 3), 4))  # categorical values, binary default
    assert _same_state(before, _state(online))
    # The corrected chunk — different width, declared cardinality — is accepted.
    online.update(LabelMatrix(categorical_matrix(num_points=40, num_lfs=6, cardinality=4),
                              cardinality=4))
    assert (online.num_lfs_, online.cardinality_, online.num_rows_) == (6, 4, 40)


# ---------------------------------------------------------------- durability
def test_save_load_round_trip(tmp_path):
    dense = binary_matrix(seed=12)
    online = fold(dense, [100, 300], correlations=((0, 1),))
    with BlockStore(str(tmp_path / "store")) as store:
        online.save(store, prefix="online/label_model")
        restored = OnlineGenerativeModel.load(
            store, prefix="online/label_model", epochs=10, seed=0
        )
    assert restored.model_version_ == online.model_version_
    assert restored.correlations_ == online.correlations_
    assert np.array_equal(restored.accuracies_, online.accuracies_)
    assert np.array_equal(restored.drain().weights, online.drain().weights)
    # Post-restore folds continue identically.
    extra = binary_matrix(num_points=50, seed=13)
    online.update(extra)
    restored.update(extra)
    assert np.array_equal(restored.accuracies_, online.accuracies_)
    # A snapshot in a format this version does not read is rejected, naming both.
    with BlockStore(str(tmp_path / "store")) as store:
        key = online.save(store, prefix="future")
        arrays, meta = store.get(key)
        store.put(key, {name: np.array(a) for name, a in arrays.items()}, {**meta, "format": 99})
        with pytest.raises(LabelModelError, match=r"format 99.*format 1"):
            OnlineGenerativeModel.load(store, prefix="future", epochs=10, seed=0)


def test_save_latest_epoch_keeps_one_snapshot(tmp_path):
    dense = binary_matrix(seed=14)
    online = OnlineGenerativeModel(epochs=5, seed=0)
    with BlockStore(str(tmp_path / "store")) as store:
        for start in (0, 100, 200):
            online.update(dense[start:start + 100])
            online.save(store)
        assert [key for key in store.keys() if key.startswith("online")] == ["online/state/v3"]
        restored = OnlineGenerativeModel.load(store, epochs=5, seed=0)
    assert restored.num_rows_ == 300
    with pytest.raises(LabelModelError):
        OnlineGenerativeModel.load(store, prefix="missing")


# ------------------------------------------------------------------ pipeline
def test_pipeline_online_matches_batch():
    """Folding the pipeline's Λ chunk by chunk and draining is the
    pipeline's own (batch) label-model fit, bit for bit."""
    config = PipelineConfig(
        chunk_size=200, sparse_labels=True,
        generative_epochs=8, discriminative_epochs=3, seed=0,
    )
    result = SnorkelPipeline(lfs=text_vote_lfs(8), config=config).run_streams(
        stream_text_candidates(1000, num_lfs=8, seed=1),
        stream_text_candidates(200, num_lfs=8, seed=2),
        np.ones(200, dtype=int),
    )
    matrix = result.label_matrix
    correlations = result.strategy.correlations if result.strategy else []
    online = OnlineGenerativeModel(
        cardinality=matrix.cardinality, correlations=correlations,
        epochs=config.generative_epochs, seed=config.seed,
    )
    for start in range(0, matrix.num_candidates, config.chunk_size):
        stop = min(start + config.chunk_size, matrix.num_candidates)
        online.update(matrix.select_rows(np.arange(start, stop)))
    assert result.generative_model is not None
    assert np.array_equal(online.drain().predict_proba(matrix), result.training_probs)


# ------------------------------------------- seeded hypothesis differential
matrix_and_split = st.integers(0, 2**32 - 1).flatmap(
    lambda seed: st.tuples(
        st.just(seed),
        st.integers(2, 3),           # cardinality
        st.integers(20, 60),         # rows
        st.integers(3, 6),           # LFs
        st.integers(1, 59),          # chunk split point (clamped below)
    )
)


@given(matrix_and_split)
@settings(max_examples=25, deadline=None)
def test_fuzz_drain_equals_batch(params):
    seed, cardinality, num_rows, num_lfs, split = params
    rng = np.random.default_rng(seed)
    if cardinality == 2:
        dense = rng.choice([-1, 0, 1], size=(num_rows, num_lfs), p=[0.25, 0.5, 0.25])
    else:
        dense = rng.choice([0, 1, 2, 3], size=(num_rows, num_lfs), p=[0.5, 0.2, 0.2, 0.1])
    if not dense.any():
        dense[0, 0] = 1
    split = min(split, num_rows - 1)
    online = OnlineGenerativeModel(epochs=5, seed=0, cardinality=cardinality)
    online.update(dense[:split])
    online.update(dense[split:])
    drained = online.drain()
    batch = GenerativeModel(epochs=5, seed=0, cardinality=cardinality).fit(
        SparseLabelMatrix.from_dense(dense)
    )
    assert np.array_equal(drained.weights, batch.weights)
    dense_batch = GenerativeModel(epochs=5, seed=0, cardinality=cardinality).fit(dense)
    assert np.array_equal(drained.predict_proba(dense), dense_batch.predict_proba(dense))
    # One-shot folding matches the two-chunk fold after draining.
    whole = OnlineGenerativeModel(epochs=5, seed=0, cardinality=cardinality)
    whole.update(dense)
    assert np.array_equal(whole.drain().weights, drained.weights)
