"""Tests for majority vote, the generative model, Dawid-Skene, and advantage."""

import numpy as np
import pytest
import reference_dawid_skene

from repro.datasets.synthetic import (
    generate_label_matrix,
    generate_misspecification_example,
    generate_multiclass_label_matrix,
)
from repro.evaluation.metrics import f1_score
from repro.exceptions import LabelModelError, NotFittedError
from repro.labeling import LabelMatrix, SparseLabelMatrix
from repro.labelmodel import (
    GenerativeModel,
    MajorityVoter,
    ModelingStrategyOptimizer,
    OnlineGenerativeModel,
    StructureLearner,
    WeightedMajorityVoter,
    estimate_advantage_bound,
    modeling_advantage,
    optimal_advantage,
)
from repro.labelmodel.dawid_skene import DawidSkeneModel
from repro.labelmodel.majority import MultiClassMajorityVoter, majority_vote_proba
from repro.types import probs_to_labels


def test_majority_voter_basic():
    matrix = np.array([[1, 1, 0], [-1, 1, -1], [0, 0, 0]])
    voter = MajorityVoter()
    assert voter.predict(matrix, tie_break=0).tolist() == [1, -1, 0]
    probs = voter.predict_proba(matrix)
    assert probs[0] == pytest.approx(1.0)
    assert probs[2] == pytest.approx(0.5)


def test_weighted_majority_voter_uses_weights():
    matrix = np.array([[1, -1]])
    voter = WeightedMajorityVoter([2.0, 0.5])
    assert voter.predict(matrix).tolist() == [1]
    assert voter.predict_proba(matrix)[0] > 0.5


def test_multiclass_majority_voter():
    matrix = np.array([[1, 1, 2], [0, 3, 3]])
    voter = MultiClassMajorityVoter(cardinality=3)
    assert voter.predict(matrix).tolist() == [1, 3]
    probs = voter.predict_proba(matrix)
    assert probs.shape == (2, 3)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_binary_consumers_refuse_categorical_labels():
    # Used to return [1.0, 0.5, 1.0], a bound of 0.0 and σ of weighted class ids.
    categorical = LabelMatrix([[1, 2, 3], [2, 2, 0], [3, 0, 1]], cardinality=3)
    gold, weights = [1, -1, 1], [1.0, 1.0, 1.0]
    for argument in (categorical, categorical.to_sparse(), categorical.values):
        for refuse in (
            MajorityVoter().predict_proba,
            MajorityVoter().predict,
            WeightedMajorityVoter(weights).predict_proba,
            estimate_advantage_bound,
            lambda matrix: modeling_advantage(matrix, gold, weights),
        ):
            with pytest.raises(LabelModelError, match="MultiClassMajorityVoter"):
                refuse(argument)
    # The declared cardinality decides, not the votes that happen to be stored.
    only_class_one = LabelMatrix([[1, 0, 1], [0, 1, 0], [1, 1, 0]], cardinality=3)
    for argument in (only_class_one, only_class_one.to_sparse()):
        for refuse in (
            MajorityVoter().predict_proba,
            WeightedMajorityVoter(weights).vote_scores,
            estimate_advantage_bound,
            lambda matrix: modeling_advantage(matrix, gold, weights),
        ):
            with pytest.raises(LabelModelError, match="MultiClassMajorityVoter"):
                refuse(argument)
    # To the optimizer a raw matrix is binary; a wrapped one declares its cardinality.
    optimizer = ModelingStrategyOptimizer(learn_correlations=False)
    with pytest.raises(LabelModelError, match="cardinality=k"):
        optimizer.choose(categorical.values)
    assert np.isnan(optimizer.choose(categorical).advantage_bound)
    assert majority_vote_proba(categorical).shape == (3, 3)
    assert majority_vote_proba(LabelMatrix([[1, -1, 1]])).tolist() == [2 / 3]


def test_label_model_entry_points_refuse_non_matrix_input():
    # lower_to_sparse moved to repro.labeling.sparse; its callers still raise
    # the label-model error (not the labeling layer's) for a 1-D raw array.
    votes = np.array([1, -1, 0, 1])
    for refuse in (
        GenerativeModel(epochs=1).fit,
        OnlineGenerativeModel().update,
        MajorityVoter().vote_scores,
        StructureLearner().fit,
        ModelingStrategyOptimizer().choose,
    ):
        with pytest.raises(LabelModelError, match="2-D"):
            refuse(votes)


def test_generative_model_recovers_accuracy_ordering():
    data = generate_label_matrix(
        num_points=800, num_lfs=6, accuracy=[0.9, 0.85, 0.8, 0.65, 0.6, 0.55],
        propensity=0.5, seed=3,
    )
    model = GenerativeModel(epochs=15, seed=0).fit(data.label_matrix)
    learned = model.learned_accuracies()
    assert learned[0] > learned[-1]
    corr = np.corrcoef(learned, data.lf_accuracies)[0, 1]
    assert corr > 0.5


def test_generative_model_beats_or_matches_majority_vote_on_synthetic():
    data = generate_label_matrix(
        num_points=1000, num_lfs=10, accuracy=[0.9] * 3 + [0.55] * 7, propensity=0.4, seed=1
    )
    model = GenerativeModel(epochs=15, seed=0).fit(data.label_matrix)
    mv_accuracy = float(
        (MajorityVoter().predict(data.label_matrix, tie_break=-1) == data.gold_labels).mean()
    )
    assert model.score(data.label_matrix, data.gold_labels) >= mv_accuracy - 0.01


def test_generative_model_correlations_fix_example_3_1():
    data = generate_misspecification_example(num_points=1500, seed=2)
    independent = GenerativeModel(epochs=10, seed=0).fit(data.label_matrix)
    correlated = GenerativeModel(epochs=10, seed=0).fit(
        data.label_matrix, correlations=data.correlated_pairs
    )
    assert correlated.score(data.label_matrix, data.gold_labels) > independent.score(
        data.label_matrix, data.gold_labels
    )
    # With correlations modeled, the independent block's estimated accuracy is
    # higher than the correlated (coin-flip) block's.
    accuracies = correlated.learned_accuracies()
    assert accuracies[5:].mean() > accuracies[:5].mean()


def planted_unipolar_matrix(
    num_points=6000,
    balance=0.08,
    positive_precisions=np.linspace(0.82, 0.92, 6),
    positive_rate=0.35,
    negative_precisions=np.linspace(0.94, 0.96, 6),
    negative_rate=0.30,
    seed=0,
):
    """A binary Λ with planted truth in the regime Snorkel LFs are written in.

    Each LF has one polarity and fires at a class-conditional rate: a
    positive-only LF fires on ``positive_rate`` of the positives and on as
    many negatives as give it the planted precision (its accuracy when it
    votes), a negative-only LF the mirror image.  Returns ``(Λ, gold,
    planted accuracies)``.
    """
    rng = np.random.default_rng(seed)
    gold = np.where(rng.random(num_points) < balance, 1, -1)
    base = {1: balance, -1: 1.0 - balance}
    columns, accuracies = [], []
    for polarity, precisions, rate in (
        (1, positive_precisions, positive_rate),
        (-1, negative_precisions, negative_rate),
    ):
        for precision in precisions:
            # P(fire | wrong class) that makes P(y = polarity | fire) = precision.
            off_rate = base[polarity] * rate * (1 - precision) / (base[-polarity] * precision)
            fires = rng.random(num_points) < np.where(gold == polarity, rate, off_rate)
            columns.append(np.where(fires, polarity, 0))
            accuracies.append(precision)
    return np.stack(columns, axis=1), gold, np.array(accuracies)


def test_planted_unipolar_matrix_has_the_planted_regime():
    """The oracle below is only as good as its generator: the drawn matrix
    shows the planted balance, firing rates and precisions, and the
    unweighted vote already labels it well."""
    matrix, gold, planted = planted_unipolar_matrix()
    assert abs((gold == 1).mean() - 0.08) < 0.01
    for j, accuracy in enumerate(planted):
        polarity = 1 if j < 6 else -1
        fires = matrix[:, j] != 0
        assert set(np.unique(matrix[:, j])) == {0, polarity}
        assert abs(fires[gold == polarity].mean() - (0.35 if j < 6 else 0.30)) < 0.05
        assert abs((gold[fires] == polarity).mean() - accuracy) < 0.05
    majority_f1 = f1_score(gold, probs_to_labels(MajorityVoter().predict_proba(matrix)))
    assert majority_f1 > 0.7


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP label-model item (b): EM's fixed point pins every positive-only "
    "LF at chance (0.50) on unipolar, imbalanced suites, and its F1 falls below MV's",
)
@pytest.mark.parametrize("epochs", [10, 30, 100])
def test_em_recovers_planted_unipolar_accuracies(epochs):
    """Truth oracle: whatever the epoch budget, the learned accuracies lie
    within a margin of the planted ones and the labels are no worse than the
    unweighted vote's."""
    matrix, gold, planted = planted_unipolar_matrix()
    model = GenerativeModel(epochs=epochs).fit(matrix)
    np.testing.assert_allclose(model.learned_accuracies(), planted, atol=0.1)
    majority_f1 = f1_score(gold, probs_to_labels(MajorityVoter().predict_proba(matrix)))
    model_f1 = f1_score(gold, probs_to_labels(model.predict_proba(matrix)))
    assert model_f1 >= majority_f1 - 0.05


def test_generative_model_validation_errors():
    with pytest.raises(LabelModelError):
        GenerativeModel(epochs=0)
    for epochs in (2.5, True):  # failed inside fit, and ran one epoch
        with pytest.raises(LabelModelError, match="epochs"):
            GenerativeModel(epochs=epochs)
        with pytest.raises(LabelModelError, match="epochs"):
            OnlineGenerativeModel(epochs=epochs)
    with pytest.raises(NotFittedError):
        GenerativeModel().predict_proba(np.zeros((2, 2), dtype=int))


def test_class_balance_shifts_predictions():
    matrix = np.array([[1, 0, 0]] * 10 + [[0, -1, 0]] * 10)
    low = GenerativeModel(epochs=5, class_balance=0.1, seed=0).fit(matrix)
    high = GenerativeModel(epochs=5, class_balance=0.9, seed=0).fit(matrix)
    assert high.predict_proba(matrix).mean() > low.predict_proba(matrix).mean()


@pytest.mark.parametrize("method", ["em"])  # the id keeps its estimator's name
@pytest.mark.parametrize("cardinality", [2, 3])
@pytest.mark.parametrize("sparse", [False, True])
def test_fit_twice_equals_fresh_instance(method, cardinality, sparse):
    """Refit hygiene: fit() must not leak state between calls.

    Fitting the same instance twice — including an interleaved fit on a
    *different* matrix — must reproduce a fresh instance's fit bitwise, for
    both vocabularies and both storages."""
    rng = np.random.default_rng(cardinality * 10)
    if cardinality == 2:
        matrix = rng.choice([-1, 0, 1], size=(120, 5), p=[0.3, 0.4, 0.3])
        other = rng.choice([-1, 0, 1], size=(80, 5), p=[0.2, 0.5, 0.3])
    else:
        matrix = rng.integers(0, cardinality + 1, size=(120, 5))
        other = rng.integers(0, cardinality + 1, size=(80, 5))
    if sparse:
        from repro.labeling.sparse import SparseLabelMatrix

        matrix = SparseLabelMatrix.from_dense(matrix)
        other = SparseLabelMatrix.from_dense(other)

    def make():
        return GenerativeModel(epochs=4, cardinality=cardinality, seed=7)

    fresh = make().fit(matrix, correlations=((0, 1),))
    reused = make()
    reused.fit(other)  # pollute with an unrelated fit first
    reused.fit(matrix, correlations=((0, 1),))
    assert np.array_equal(reused.weights, fresh.weights)
    assert reused.class_prior_weight_ == fresh.class_prior_weight_
    if cardinality > 2:
        assert np.array_equal(reused.class_priors_, fresh.class_priors_)
    else:
        assert reused.class_priors_ is fresh.class_priors_ is None or np.array_equal(
            reused.class_priors_, fresh.class_priors_
        )
    assert reused.history == fresh.history
    assert np.array_equal(reused.predict_proba(matrix), fresh.predict_proba(matrix))
    # A third fit is a fixed point: refitting the same matrix changes nothing.
    reused.fit(matrix, correlations=((0, 1),))
    assert np.array_equal(reused.weights, fresh.weights)


def test_dawid_skene_recovers_worker_quality():
    rng = np.random.default_rng(0)
    truth = rng.integers(1, 4, size=400)
    accuracies = [0.9, 0.85, 0.6, 0.4]
    matrix = np.zeros((400, 4), dtype=int)
    for j, accuracy in enumerate(accuracies):
        correct = rng.random(400) < accuracy
        wrong = np.where(truth == 1, 2, 1)
        matrix[:, j] = np.where(correct, truth, wrong)
    model = DawidSkeneModel(cardinality=3, seed=0).fit(matrix)
    predictions = model.predict()
    assert float((predictions == truth).mean()) > 0.85
    worker_acc = model.worker_accuracies()
    assert worker_acc[0] > worker_acc[3]


def test_dawid_skene_binary_recode():
    rng = np.random.default_rng(1)
    truth = rng.choice([-1, 1], size=200)
    matrix = np.zeros((200, 3), dtype=int)
    for j in range(3):
        correct = rng.random(200) < 0.8
        matrix[:, j] = np.where(correct, truth, -truth)
    model = DawidSkeneModel(cardinality=2).fit(matrix)
    assert set(np.unique(model.predict())) <= {-1, 1}
    assert float((model.predict() == truth).mean()) > 0.8


@pytest.mark.parametrize("symmetric", [False, True], ids=["full", "symmetric"])
@pytest.mark.parametrize("cardinality", [2, 3])
def test_dawid_skene_reads_entries_and_equals_the_dense_reference(cardinality, symmetric):
    # Dense input ≡ CSR input ≡ the dense loop the model ran before it read
    # the CSC view, bit for bit — signed-binary recode included (k = 2).
    if cardinality == 2:
        matrix = generate_label_matrix(num_points=260, num_lfs=6, propensity=0.4, seed=4)
    else:
        matrix = generate_multiclass_label_matrix(
            num_points=260, num_lfs=6, cardinality=3, propensity=0.4, seed=4
        )
    values = matrix.label_matrix.values.copy()
    values[7] = 0  # an item nobody voted on
    values[:, 3] = 0  # a worker who never voted
    train, held_out = values[:200], values[200:]
    settings = dict(max_iter=30, symmetric=symmetric)
    expected = reference_dawid_skene.fit(
        reference_dawid_skene.recode(train, signed=cardinality == 2), cardinality, **settings
    )
    expected_held_out = reference_dawid_skene.predict_proba(
        reference_dawid_skene.recode(held_out, signed=cardinality == 2), *expected[:2]
    )
    wrapped = LabelMatrix(train, cardinality=cardinality)
    for train_form, held_out_form in (
        (train, held_out),
        (wrapped, LabelMatrix(held_out, cardinality=cardinality)),
        (wrapped.to_sparse(), SparseLabelMatrix.from_dense(held_out)),
        (SparseLabelMatrix.from_dense(train), held_out.tolist()),
    ):
        model = DawidSkeneModel(cardinality, **settings).fit(train_form)
        for ours, theirs in zip(
            (model.confusion, model.class_priors, model.posteriors_), expected
        ):
            assert np.array_equal(ours, theirs)
        assert np.array_equal(model.predict_proba(held_out_form), expected_held_out)


def test_modeling_advantage_definition():
    matrix = np.array([[1, -1, -1], [1, 0, 0]])
    gold = np.array([1, 1])
    weights = np.array([5.0, 0.1, 0.1])
    advantage = modeling_advantage(matrix, gold, weights)
    assert advantage == pytest.approx(0.5)  # first row flips correctly, second is unchanged
    assert optimal_advantage(matrix, gold, [0.99, 0.55, 0.55]) == pytest.approx(0.5)


def test_advantage_bound_upper_bounds_zero_disagreement():
    matrix = np.array([[1, 1], [-1, -1]])
    assert estimate_advantage_bound(matrix) == pytest.approx(0.0)


def test_advantage_bound_positive_with_conflicts():
    matrix = np.array([[1, -1, 0], [-1, 1, 1]])
    assert estimate_advantage_bound(matrix) > 0.0
