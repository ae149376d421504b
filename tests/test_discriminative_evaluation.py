"""Tests for the discriminative models, featurizers, and evaluation metrics."""

import numpy as np
import pytest

from repro.context.candidates import Candidate, SentenceView, SpanView
from repro.discriminative import (
    AdamOptimizer,
    HashingVectorizer,
    NoiseAwareLogisticRegression,
    NoiseAwareMLP,
    RelationFeaturizer,
)
from repro.discriminative.softmax import NoiseAwareSoftmaxRegression
from repro.evaluation import (
    BinaryScorer,
    accuracy,
    f1_score,
    precision_recall_f1,
    roc_auc,
)
from repro.evaluation.metrics import relative_improvement
from repro.evaluation.splits import assign_document_splits, split_indices, split_sizes
from repro.exceptions import ConfigurationError, NotFittedError


def make_linear_data(n=400, d=10, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = np.where(X @ w > 0, 1, -1)
    return X, y


def test_adam_decreases_quadratic():
    optimizer = AdamOptimizer(learning_rate=0.1)
    x = np.array([5.0, -3.0])
    for _ in range(200):
        x = optimizer.step(x, 2 * x)
    assert np.linalg.norm(x) < 0.5


def test_logistic_regression_learns_separable_data():
    X, y = make_linear_data()
    model = NoiseAwareLogisticRegression(epochs=40, seed=0).fit(X, (y == 1).astype(float))
    assert model.score(X, y) > 0.9


def test_logistic_regression_accepts_soft_labels():
    X, y = make_linear_data(seed=1)
    soft = np.clip((y == 1).astype(float) * 0.8 + 0.1, 0, 1)
    model = NoiseAwareLogisticRegression(epochs=40, seed=0).fit(X, soft)
    assert model.score(X, y) > 0.85


def test_mlp_learns_nonlinear_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, 2))
    y = np.where(X[:, 0] * X[:, 1] > 0, 1, -1)  # XOR-like
    model = NoiseAwareMLP(hidden_sizes=(16,), epochs=120, learning_rate=0.02, seed=0)
    model.fit(X, (y == 1).astype(float))
    assert model.score(X, y) > 0.8


def test_softmax_regression_multiclass():
    rng = np.random.default_rng(0)
    centers = np.array([[2, 0], [-2, 0], [0, 2]])
    labels = rng.integers(1, 4, size=300)
    X = centers[labels - 1] + rng.normal(scale=0.5, size=(300, 2))
    model = NoiseAwareSoftmaxRegression(num_classes=3, epochs=60, seed=0).fit(X, labels)
    assert model.score(X, labels) > 0.9
    probs = model.predict_proba(X)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_unfitted_models_raise():
    with pytest.raises(NotFittedError):
        NoiseAwareLogisticRegression().predict_proba(np.zeros((1, 2)))
    with pytest.raises(NotFittedError):
        NoiseAwareMLP().predict_proba(np.zeros((1, 2)))


def make_softmax(**kw):
    return NoiseAwareSoftmaxRegression(num_classes=2, **kw)


def make_mlp(**kw):
    return NoiseAwareMLP(hidden_sizes=(4,), **kw)


END_MODELS = [NoiseAwareLogisticRegression, make_softmax, make_mlp]


@pytest.mark.parametrize("make", END_MODELS)
def test_end_models_share_hyperparameter_checks(make):
    """``epochs`` and ``batch_size`` are checked in the one shared constructor
    (softmax and the MLP used to "fit" zero epochs and return the random
    initialization)."""
    with pytest.raises(ConfigurationError):
        make(epochs=0)
    with pytest.raises(ConfigurationError):
        make(batch_size=0)


@pytest.mark.parametrize("make", END_MODELS)
def test_end_models_share_sample_weight_checks(make):
    """A mis-shaped ``sample_weights`` is a ConfigurationError at the shared
    front door (the MLP used to die with an IndexError inside the batch
    iterator), and a well-shaped one is honored by all three models."""
    X, y = make_linear_data(n=60, d=4)
    hard = np.where(y == 1, 1, 2) if make is make_softmax else y
    with pytest.raises(ConfigurationError):
        make(epochs=2).fit(X, hard, sample_weights=np.ones(3))
    uniform = make(epochs=3, seed=0).fit(X, hard)
    weighted = make(epochs=3, seed=0).fit(X, hard, sample_weights=np.ones(60))
    skewed = make(epochs=3, seed=0).fit(X, hard, sample_weights=np.linspace(0.1, 3.0, 60))
    assert np.array_equal(uniform.predict_proba(X), weighted.predict_proba(X))
    assert not np.array_equal(uniform.predict_proba(X), skewed.predict_proba(X))
    assert len(uniform.loss_history) == 3 and all(np.isfinite(uniform.loss_history))


def test_hashing_vectorizer_deterministic_and_shaped():
    vectorizer = HashingVectorizer(num_features=64)
    a = vectorizer.transform_tokens(["the", "drug", "causes", "harm"])
    b = vectorizer.transform_tokens(["the", "drug", "causes", "harm"])
    assert np.array_equal(a, b)
    assert a.shape == (64,)
    assert np.any(a != 0)


def test_relation_featurizer_output_dim():
    featurizer = RelationFeaturizer(num_features=128).fit()
    candidate = Candidate(
        uid=0,
        span1=SpanView("magnesium", 0, 1),
        span2=SpanView("seizures", 2, 3),
        sentence=SentenceView(words=["magnesium", "causes", "seizures"], text=""),
    )
    features = featurizer.transform([candidate])
    assert features.shape == (1, featurizer.output_dim)


def test_metrics_precision_recall_f1():
    gold = [1, 1, -1, -1]
    pred = [1, -1, 1, -1]
    precision, recall, f1 = precision_recall_f1(gold, pred)
    assert precision == pytest.approx(0.5)
    assert recall == pytest.approx(0.5)
    assert f1 == pytest.approx(0.5)
    assert accuracy(gold, pred) == pytest.approx(0.5)


def test_abstain_predictions_count_as_negative():
    assert f1_score([1, -1], [0, 0]) == 0.0
    assert precision_recall_f1([1, -1], [1, 0]) == (1.0, 1.0, 1.0)


def test_roc_auc_perfect_and_random():
    gold = np.array([1, 1, -1, -1])
    assert roc_auc(gold, [0.9, 0.8, 0.2, 0.1]) == pytest.approx(1.0)
    assert roc_auc(gold, [0.1, 0.2, 0.8, 0.9]) == pytest.approx(0.0)
    assert roc_auc(np.array([1, 1]), [0.5, 0.5]) == 0.5


def test_scorer_buckets_sum_to_total():
    scorer = BinaryScorer()
    gold = np.array([1, 1, -1, -1, -1])
    report = scorer.score_probabilities(gold, [0.9, 0.2, 0.8, 0.4, 0.1])
    total_bucketed = (
        len(report.true_positive_indices) + len(report.false_positive_indices)
        + len(report.true_negative_indices) + len(report.false_negative_indices)
    )
    assert total_bucketed == gold.size
    assert report.tp + report.fp + report.tn + report.fn == gold.size
    assert report.auc is not None


def test_relative_improvement():
    assert relative_improvement(0.6, 0.3) == pytest.approx(100.0)


def test_split_indices_partition():
    splits = split_indices(100, 0.1, 0.2, seed=0)
    combined = np.concatenate([splits["train"], splits["dev"], splits["test"]])
    assert sorted(combined.tolist()) == list(range(100))
    assert len(splits["dev"]) == 10
    assert len(splits["test"]) == 20


def test_assign_document_splits_and_sizes():
    assignment = assign_document_splits(50, 0.1, 0.1, seed=0)
    sizes = split_sizes(assignment)
    assert sizes.total == 50
    assert sizes.dev == 5 and sizes.test == 5


def test_split_fraction_validation():
    with pytest.raises(ConfigurationError):
        split_indices(10, 0.6, 0.6)


@pytest.mark.parametrize(
    "bad",
    [
        [0.2, np.nan, 0.7],  # NaN fails both range comparisons
        [0.2, -0.1, 0.7],
        [0.2, 1.5, 0.7],
        [1.0, -1.0, np.nan],  # no longer all ±1, and NaN is not a probability
    ],
)
def test_soft_labels_reject_nan_and_out_of_range(bad):
    X = np.ones((3, 2))
    for model in (NoiseAwareLogisticRegression(epochs=1), NoiseAwareMLP((2,), epochs=1)):
        with pytest.raises(ConfigurationError):
            model.fit(X, bad)


def test_hard_labels_still_map_to_zero_one():
    X, y = make_linear_data(n=64, seed=3)
    hard = NoiseAwareLogisticRegression(epochs=2, shuffle=False).fit(X, y)
    soft = NoiseAwareLogisticRegression(epochs=2, shuffle=False).fit(X, (y == 1).astype(float))
    assert np.array_equal(hard.weights, soft.weights)


@pytest.mark.parametrize(
    "bad",
    [[[-1.0, 2.0, 0.0]], [[np.nan, 0.5, 0.5]], [[np.inf, 0.0, 1.0]], [[0.2, -0.0001, 0.8]]],
)
def test_softmax_distributions_reject_nan_and_negative_entries(bad):
    with pytest.raises(ConfigurationError):
        NoiseAwareSoftmaxRegression(num_classes=3, epochs=1).fit(np.ones((1, 2)), np.array(bad))


@pytest.mark.parametrize(
    "settings",
    [
        dict(epochs=2.5),
        dict(epochs=True),
        dict(batch_size=True),
        dict(batch_size=16.0),
        dict(reg_strength=-1e-4),
        dict(reg_strength=float("nan")),
        dict(reg_strength=float("inf")),
        dict(learning_rate=float("nan")),
    ],
)
def test_trainer_hyperparameters_are_validated_at_construction(settings):
    for model in (
        NoiseAwareLogisticRegression,
        lambda **kw: NoiseAwareSoftmaxRegression(num_classes=3, **kw),
        NoiseAwareMLP,
    ):
        with pytest.raises(ConfigurationError):
            model(**settings)


@pytest.mark.parametrize(
    "settings",
    [
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(epsilon=-1e-8),
        dict(epsilon=float("nan")),
    ],
)
def test_adam_rejects_nan_and_negative_settings(settings):
    with pytest.raises(ConfigurationError):
        AdamOptimizer(**settings)
