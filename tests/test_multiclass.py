"""The multi-class (cardinality k) generative-model path, end to end.

Covers the k-ary EM estimator (dense/sparse equivalence, binary
bit-compatibility, agreement with Dawid-Skene on the crowd task), the
k-ary Gibbs/CD path, the multi-class scorer, the Dawid-Skene held-out
recoding bugfix, the single-pass multi-class majority voter, and the
pipeline running cardinality-3 and crowd tasks without a Dawid-Skene
fallback.
"""

import numpy as np
import pytest
from reference_em import assert_matches_reference

from repro.datasets import load_task
from repro.datasets.synthetic import (
    build_multiclass_task,
    generate_label_matrix,
    generate_multiclass_label_matrix,
)
from repro.evaluation.scorer import BinaryScorer, MultiClassScorer
from repro.exceptions import LabelModelError
from repro.labeling import LabelMatrix
from repro.labeling.sparse import class_vote_counts
from repro.labelmodel import (
    DawidSkeneModel,
    GenerativeModel,
    MultiClassMajorityVoter,
    StructureLearner,
)
from repro.labelmodel.gibbs import GibbsSampler
from repro.pipeline import PipelineConfig, SnorkelPipeline


# ----------------------------------------------------------- shared helper
def test_class_vote_counts_single_pass_matches_per_class_scan():
    data = generate_multiclass_label_matrix(num_points=80, num_lfs=6, cardinality=4, seed=0)
    matrix = data.label_matrix.values
    counts = class_vote_counts(matrix, 4)
    for klass in range(1, 5):
        assert np.array_equal(counts[:, klass - 1], (matrix == klass).sum(axis=1))
    weights = np.linspace(0.5, 2.0, 6)
    weighted = class_vote_counts(matrix, 4, column_weights=weights)
    for klass in range(1, 5):
        assert np.allclose(weighted[:, klass - 1], ((matrix == klass) * weights).sum(axis=1))


def test_class_vote_counts_rejects_signed_labels():
    with pytest.raises(Exception):
        class_vote_counts(np.array([[1, -1], [0, 1]]), 2)


def test_multiclass_majority_voter_matches_counts(backend):
    data = generate_multiclass_label_matrix(
        num_points=60, num_lfs=5, cardinality=3, propensity=0.5, seed=1
    )
    dense = data.label_matrix
    sparse = dense.to_sparse()
    voter = MultiClassMajorityVoter(cardinality=3)
    probs = voter.predict_proba(dense)
    assert probs.shape == (60, 3)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.allclose(probs, voter.predict_proba(sparse))


# --------------------------------------------------------------- EM paths
def test_em_dense_sparse_equivalence_k3(backend):
    data = generate_multiclass_label_matrix(
        num_points=400, num_lfs=10, cardinality=3, propensity=0.3, seed=2
    )
    dense = data.label_matrix
    sparse = dense.to_sparse()
    for balance in (None, [0.2, 0.3, 0.5]):
        dense_model = GenerativeModel(epochs=15, class_balance=balance, seed=0).fit(dense)
        sparse_model = GenerativeModel(epochs=15, class_balance=balance, seed=0).fit(sparse)
        # Both storages are lowered to the same kernel entries: bitwise equal.
        assert np.array_equal(dense_model.weights, sparse_model.weights)
        dense_probs = dense_model.predict_proba(dense)
        assert dense_probs.shape == (400, 3)
        assert np.array_equal(dense_probs, sparse_model.predict_proba(sparse))
        assert np.array_equal(dense_model.class_priors_, sparse_model.class_priors_)
        # ... and the one kernel agrees with the independent naive oracle.
        assert_matches_reference(
            sparse_model, dense.values, 3, class_balance=balance, epochs=15
        )


def test_em_dense_sparse_equivalence_with_correlations(backend):
    data = generate_multiclass_label_matrix(
        num_points=300, num_lfs=6, cardinality=3, propensity=0.5, seed=3
    )
    dense = data.label_matrix
    sparse = dense.to_sparse()
    pairs = [(0, 1), (2, 3)]
    dense_model = GenerativeModel(epochs=10, seed=0).fit(dense, correlations=pairs)
    sparse_model = GenerativeModel(epochs=10, seed=0).fit(sparse, correlations=pairs)
    assert np.array_equal(dense_model.weights, sparse_model.weights)
    assert np.array_equal(
        dense_model.predict_proba(dense), sparse_model.predict_proba(sparse)
    )
    assert_matches_reference(sparse_model, dense.values, 3, correlations=pairs, epochs=10)


def test_binary_bit_compatibility_and_k2_consistency():
    data = generate_label_matrix(num_points=500, num_lfs=8, propensity=0.3, seed=4)
    baseline = GenerativeModel(epochs=12, seed=0).fit(data.label_matrix)
    explicit = GenerativeModel(epochs=12, seed=0, cardinality=2).fit(data.label_matrix)
    # The binary path is untouched by the k-ary extension: bit-identical.
    assert np.array_equal(baseline.weights, explicit.weights)
    assert np.array_equal(
        baseline.predict_proba(data.label_matrix), explicit.predict_proba(data.label_matrix)
    )

    # The k-ary posterior formula evaluated at k=2 on the recoded matrix
    # {1, 2} reproduces the signed binary posterior exactly (same symmetric
    # model, different encoding) — the identity that makes the categorical
    # extension a strict generalization.
    signed = data.label_matrix.values
    recoded = np.zeros_like(signed)
    recoded[signed == -1] = 1
    recoded[signed == 1] = 2
    binary_probs = baseline.predict_proba(data.label_matrix)
    accuracies = baseline.learned_accuracies()
    weights_k = 0.5 * np.log(accuracies / (1.0 - accuracies))
    scores = np.stack(
        [((recoded == 1) * weights_k).sum(axis=1), ((recoded == 2) * weights_k).sum(axis=1)],
        axis=1,
    )
    shifted = 2.0 * scores
    softmaxed = np.exp(shifted - shifted.max(axis=1, keepdims=True))
    softmaxed /= softmaxed.sum(axis=1, keepdims=True)
    covered = (signed != 0).any(axis=1)
    assert np.abs(softmaxed[covered, 1] - binary_probs[covered]).max() < 1e-10


def test_multiclass_recovers_accuracy_ordering():
    accuracies = [0.9, 0.85, 0.8, 0.6, 0.5, 0.45]
    data = generate_multiclass_label_matrix(
        num_points=1500, num_lfs=6, cardinality=3, accuracy=accuracies,
        propensity=0.5, seed=5,
    )
    model = GenerativeModel(epochs=15, seed=0).fit(data.label_matrix)
    learned = model.learned_accuracies()
    assert learned[0] > learned[-1]
    assert np.corrcoef(learned, accuracies)[0, 1] > 0.5
    assert model.score(data.label_matrix, data.gold_labels) > 0.8


def test_multiclass_supplied_class_balance_shifts_posteriors():
    matrix = np.array([[1, 0, 0]] * 5 + [[0, 0, 0]] * 5)
    lm = LabelMatrix(matrix, cardinality=3)
    skewed = GenerativeModel(epochs=5, class_balance=[0.1, 0.1, 0.8], seed=0).fit(lm)
    probs = skewed.predict_proba(lm)
    # Uncovered rows follow the supplied prior; covered rows are shifted by it.
    assert probs[5, 2] > probs[5, 0]
    uniform = GenerativeModel(epochs=5, seed=0).fit(lm)
    assert skewed.predict_proba(lm)[0, 2] > uniform.predict_proba(lm)[0, 2]
    with pytest.raises(LabelModelError):
        GenerativeModel(epochs=5, class_balance=0.4, seed=0).fit(lm)
    with pytest.raises(LabelModelError):
        GenerativeModel(epochs=5, class_balance=[0.5, 0.5], seed=0).fit(lm)


def test_binary_path_rejects_categorical_values():
    with pytest.raises(LabelModelError):
        GenerativeModel(epochs=3).fit(np.array([[1, 3], [2, 0]]))


# --------------------------------------------------------------- CD + Gibbs
def test_cd_method_multiclass_runs(backend):
    data = generate_multiclass_label_matrix(
        num_points=200, num_lfs=5, cardinality=3, propensity=0.5, seed=6
    )
    dense = data.label_matrix
    model = GenerativeModel(method="cd", epochs=3, seed=0).fit(dense)
    probs = model.predict_proba(dense)
    assert probs.shape == (200, 3)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert model.score(dense, data.gold_labels) > 1.0 / 3
    sparse_model = GenerativeModel(method="cd", epochs=3, seed=0).fit(dense.to_sparse())
    assert sparse_model.predict_proba(dense.to_sparse()).shape == (200, 3)


def test_gibbs_sampler_multiclass_label_and_joint(backend):
    data = generate_multiclass_label_matrix(
        num_points=150, num_lfs=5, cardinality=4, propensity=0.5, seed=7
    )
    dense = data.label_matrix
    sparse = dense.to_sparse()
    model = GenerativeModel(epochs=5, seed=0).fit(dense)
    sampler = GibbsSampler(model.spec, seed=0)
    posteriors = sampler.label_posteriors(model.weights, dense.values)
    assert posteriors.shape == (150, 4)
    assert np.allclose(posteriors.sum(axis=1), 1.0)
    assert np.allclose(posteriors, sampler.label_posteriors(model.weights, sparse.storage))
    labels = sampler.sample_labels(model.weights, dense.values)
    assert set(np.unique(labels)) <= {1, 2, 3, 4}
    sampled, y = GibbsSampler(model.spec, seed=0).sample_joint(
        model.weights, dense.values, sweeps=2
    )
    # The abstention pattern is held fixed; values stay in 1..k.
    assert np.array_equal(sampled != 0, dense.values != 0)
    assert sampled[sampled != 0].min() >= 1 and sampled.max() <= 4
    sampled_sparse, y_sparse = GibbsSampler(model.spec, seed=0).sample_joint(
        model.weights, sparse.storage, sweeps=2
    )
    assert np.array_equal(sampled_sparse.to_dense() != 0, dense.values != 0)
    assert set(np.unique(y_sparse)) <= {1, 2, 3, 4}


# -------------------------------------------------------- structure learning
def test_structure_learner_multiclass_finds_planted_copy(backend):
    rng = np.random.default_rng(0)
    truth = rng.integers(1, 4, size=600)
    matrix = np.zeros((600, 5), dtype=np.int64)
    for j in range(4):
        votes = rng.random(600) < 0.7
        correct = rng.random(600) < 0.75
        wrong = ((truth + rng.integers(1, 3, size=600) - 1) % 3) + 1
        matrix[votes, j] = np.where(correct, truth, wrong)[votes]
    # Column 4 near-copies column 0 wherever column 0 votes.
    copies = (matrix[:, 0] != 0) & (rng.random(600) < 0.95)
    matrix[copies, 4] = matrix[copies, 0]
    dense_learner = StructureLearner(seed=0).fit(LabelMatrix(matrix, cardinality=3))
    scores = dense_learner.pair_scores()
    planted = scores[(0, 4)]
    others = [value for pair, value in scores.items() if pair != (0, 4)]
    assert planted > max(others)
    sparse_learner = StructureLearner(seed=0).fit(
        LabelMatrix(matrix, cardinality=3).to_sparse()
    )
    assert np.allclose(
        dense_learner.dependency_weights_, sparse_learner.dependency_weights_, atol=1e-8
    )


# ------------------------------------------------------------- Dawid-Skene
def test_dawid_skene_heldout_recode_consistency():
    rng = np.random.default_rng(2)
    truth = rng.choice([-1, 1], size=300)
    matrix = np.zeros((300, 4), dtype=np.int64)
    for j in range(4):
        correct = rng.random(300) < 0.85
        matrix[:, j] = np.where(correct, truth, -truth)
    model = DawidSkeneModel(cardinality=2, seed=0).fit(matrix[:200])
    # Regression: a held-out slice containing only abstains and positives
    # used to be read as categorical (classes {0, 1}), misindexing class 1
    # onto the *negative* confusion column and flipping the decode.
    heldout = matrix[200:].copy()
    heldout[heldout == -1] = 0  # strip the negatives: only {0, +1} remain
    probs = model.predict_proba(heldout)
    assert probs.shape == (100, 2)
    predictions = model.predict(heldout)
    assert set(np.unique(predictions)) <= {-1, 1}
    positive_rows = (heldout == 1).any(axis=1)
    assert (predictions[positive_rows] == 1).mean() > 0.9
    # Signed held-out matrices keep scoring under the fit-time encoding too.
    full_predictions = model.predict(matrix[200:])
    assert (full_predictions == truth[200:]).mean() > 0.9
    # A matrix outside the fitted vocabulary fails loudly.
    with pytest.raises(LabelModelError):
        model.predict_proba(np.array([[3, 0, 0, 0]]))


def test_generative_model_agrees_with_dawid_skene_on_crowd():
    task = load_task("crowd", scale=0.4, seed=0)
    from repro.labeling.applier import LFApplier

    matrix = LFApplier(task.lfs).apply(task.split_candidates("train"))
    generative = GenerativeModel(epochs=20, seed=0).fit(matrix)
    dawid_skene = DawidSkeneModel(cardinality=task.cardinality, seed=0).fit(matrix)
    generative_labels = generative.predict(matrix)
    ds_labels = dawid_skene.predict()
    assert (generative_labels == ds_labels).mean() > 0.9
    gold = task.split_gold("train")
    assert (generative_labels == gold).mean() > 0.8
    assert (ds_labels == gold).mean() > 0.8


# ------------------------------------------------------------------ scorer
def test_binary_scorer_rejects_multiclass_labels():
    with pytest.raises(ValueError):
        BinaryScorer().score([1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError):
        BinaryScorer().score([1, -1], [1, 2])
    with pytest.raises(ValueError):
        BinaryScorer().score_probabilities([1, -1], np.array([[0.4, 0.6], [0.7, 0.3]]))
    # Abstain predictions stay legal (counted as negative, the paper's rule).
    report = BinaryScorer().score([1, -1, 1], [1, 0, -1])
    assert report.tp == 1 and report.tn == 1 and report.fn == 1


def test_multiclass_scorer_accuracy_and_macro_f1():
    gold = [1, 1, 2, 2, 3, 3]
    predicted = [1, 2, 2, 2, 3, 1]
    scorer = MultiClassScorer(cardinality=3)
    report = scorer.score(gold, predicted)
    assert report.accuracy == pytest.approx(4 / 6)
    # Per-class F1: class1 p=1/2 r=1/2; class2 p=2/3 r=1; class3 p=1 r=1/2.
    expected_f1 = np.mean([0.5, 0.8, 2 / 3])
    assert report.f1 == pytest.approx(expected_f1)
    assert report.confusion.sum() == 6
    assert sorted(report.incorrect_indices) == [1, 5]
    probs = np.eye(3)[np.array(predicted) - 1]
    assert scorer.score_probabilities(gold, probs).accuracy == report.accuracy
    with pytest.raises(ValueError):
        scorer.score([0, 1], [1, 1])  # abstain is not a gold class
    with pytest.raises(ValueError):
        scorer.score_probabilities(gold, np.zeros((6, 2)))


# ---------------------------------------------------------------- pipeline
def test_pipeline_multiclass_synthetic_end_to_end(backend):
    task = build_multiclass_task(num_points=250, num_lfs=10, cardinality=3, seed=0)
    config = PipelineConfig(generative_epochs=10, discriminative_epochs=15, seed=0)
    result = SnorkelPipeline(config=config).run(task)
    # Trains the generative model (no Dawid-Skene fallback, no MV bailout).
    assert result.generative_model is not None
    assert result.strategy is not None and result.strategy.strategy == "GM"
    assert result.training_probs.shape == (len(task.split_candidates("train")), 3)
    assert np.allclose(result.training_probs.sum(axis=1), 1.0)
    assert result.generative_test_report.accuracy > 1.0 / 3
    assert 0.0 <= result.discriminative_test_report.f1 <= 1.0

    sparse_config = PipelineConfig(
        generative_epochs=10, discriminative_epochs=15, seed=0, sparse_labels=True
    )
    sparse_result = SnorkelPipeline(config=sparse_config).run(task)
    assert sparse_result.label_matrix.is_sparse
    assert np.allclose(sparse_result.training_probs, result.training_probs, atol=1e-10)


def test_pipeline_crowd_end_to_end_no_fallback():
    task = load_task("crowd", scale=0.25, seed=0)
    config = PipelineConfig(
        use_optimizer=False, generative_epochs=10, discriminative_epochs=10, seed=0
    )
    result = SnorkelPipeline(config=config).run(task)
    assert result.generative_model is not None
    assert result.generative_model.spec.cardinality == 5
    assert result.training_probs.shape[1] == 5
    assert result.generative_test_report.accuracy > 0.5
    assert result.discriminative_test_report.accuracy > 1.0 / 5


def test_pipeline_multiclass_force_mv_uses_plurality():
    task = build_multiclass_task(num_points=150, num_lfs=8, cardinality=3, seed=1)
    config = PipelineConfig(force_strategy="MV", discriminative_epochs=5, seed=0)
    result = SnorkelPipeline(config=config).run(task)
    assert result.generative_model is None
    assert result.training_probs.shape[1] == 3
