"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.labeling.matrix import LabelMatrix
from repro.labelmodel.advantage import estimate_advantage_bound, modeling_advantage
from repro.labelmodel.majority import MajorityVoter
from repro.types import probs_to_labels, validate_label_matrix
from repro.utils.mathutils import accuracy_to_log_odds, log_odds_to_accuracy, sigmoid, softmax

label_matrices = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 30), st.integers(1, 8)),
    elements=st.sampled_from([-1, 0, 1]),
)


@given(label_matrices)
@settings(max_examples=50, deadline=None)
def test_label_matrix_statistics_bounded(values):
    matrix = LabelMatrix(values)
    assert 0.0 <= matrix.coverage() <= 1.0
    assert 0.0 <= matrix.label_density() <= matrix.num_lfs
    coverages = matrix.lf_coverage()
    assert np.all((coverages >= 0.0) & (coverages <= 1.0))


@given(label_matrices)
@settings(max_examples=50, deadline=None)
def test_advantage_bound_is_nonnegative_and_bounded(values):
    bound = estimate_advantage_bound(values)
    assert 0.0 <= bound <= 1.0


@given(label_matrices, st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_advantage_of_unit_weights_is_zero(values, seed):
    rng = np.random.default_rng(seed)
    gold = rng.choice([-1, 1], size=values.shape[0])
    assert modeling_advantage(values, gold, np.ones(values.shape[1])) == 0.0


@given(label_matrices)
@settings(max_examples=50, deadline=None)
def test_majority_vote_probabilities_valid(values):
    probs = MajorityVoter().predict_proba(values)
    assert np.all((probs >= 0.0) & (probs <= 1.0))
    labels = probs_to_labels(probs)
    assert set(np.unique(labels)) <= {-1, 1}


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=50, deadline=None)
def test_accuracy_log_odds_roundtrip(accuracy):
    assert abs(log_odds_to_accuracy(accuracy_to_log_odds(accuracy)) - accuracy) < 1e-6


@given(arrays(dtype=float, shape=st.integers(1, 50), elements=st.floats(-30, 30)))
@settings(max_examples=50, deadline=None)
def test_sigmoid_bounded_and_monotone(x):
    values = sigmoid(x)
    assert np.all((values >= 0.0) & (values <= 1.0))
    order = np.argsort(x)
    assert np.all(np.diff(np.asarray(values)[order]) >= -1e-12)


@given(arrays(dtype=float, shape=st.tuples(st.integers(1, 10), st.integers(2, 6)),
              elements=st.floats(-20, 20)))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(x):
    probs = softmax(x, axis=1)
    assert np.allclose(probs.sum(axis=1), 1.0)


@given(label_matrices)
@settings(max_examples=50, deadline=None)
def test_validate_label_matrix_idempotent(values):
    validated = validate_label_matrix(values)
    assert np.array_equal(validated, validate_label_matrix(validated))
