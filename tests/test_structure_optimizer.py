"""Tests for structure learning, elbow selection, the optimizer, and theory bounds."""

import numpy as np
import pytest

from repro.datasets.synthetic import generate_correlated_label_matrix, generate_label_matrix
from repro.exceptions import ConfigurationError
from repro.labelmodel import (
    ModelingStrategyOptimizer,
    StructureLearner,
    learn_structure,
    select_elbow_point,
)
from repro.labelmodel.elbow import select_elbow_point_kneedle
from repro.labelmodel.theory import (
    combined_upper_bound,
    high_density_upper_bound,
    low_density_upper_bound,
)


def test_structure_learner_finds_planted_correlations():
    data = generate_correlated_label_matrix(
        num_points=1200, num_independent=6, num_groups=4, group_size=2,
        propensity=0.5, copy_probability=0.95, seed=0,
    )
    learner = StructureLearner().fit(data.label_matrix)
    scores = learner.pair_scores()
    planted = [scores[pair] for pair in data.correlated_pairs]
    independent_pairs = [pair for pair in scores if pair not in set(data.correlated_pairs)]
    unplanted = [scores[pair] for pair in independent_pairs]
    assert np.mean(planted) > np.mean(unplanted)
    selected = learner.select(float(np.mean(unplanted) + 3 * np.std(unplanted)))
    assert set(data.correlated_pairs) & set(selected)


def test_structure_threshold_monotone():
    data = generate_correlated_label_matrix(num_points=400, seed=1)
    learner = StructureLearner().fit(data.label_matrix)
    few = learner.select(0.3)
    many = learner.select(0.01)
    assert len(many) >= len(few)


def test_learn_structure_one_shot():
    data = generate_correlated_label_matrix(num_points=300, seed=2)
    pairs = learn_structure(data.label_matrix, threshold=0.05)
    assert all(j < k for j, k in pairs)


def test_elbow_point_selection():
    thresholds = [0.5, 0.4, 0.3, 0.2, 0.1]
    counts = [0, 1, 2, 20, 200]
    elbow = select_elbow_point(thresholds, counts)
    assert elbow in (0.2, 0.1)
    kneedle = select_elbow_point_kneedle(thresholds, counts)
    assert min(thresholds) <= kneedle <= max(thresholds)


def test_elbow_point_errors():
    with pytest.raises(ConfigurationError):
        select_elbow_point([], [])
    with pytest.raises(ConfigurationError):
        select_elbow_point([0.1], [1, 2])


def test_optimizer_picks_mv_on_sparse_agreeing_matrix():
    data = generate_label_matrix(num_points=400, num_lfs=2, accuracy=0.95, propensity=0.05, seed=0)
    strategy = ModelingStrategyOptimizer(advantage_tolerance=0.05).choose(data.label_matrix)
    assert strategy.strategy == "MV"
    assert not strategy.use_generative_model


def test_optimizer_picks_gm_on_conflicting_matrix():
    data = generate_label_matrix(
        num_points=600, num_lfs=12, accuracy=[0.9] * 4 + [0.55] * 8, propensity=0.5, seed=1
    )
    strategy = ModelingStrategyOptimizer(advantage_tolerance=0.01).choose(data.label_matrix)
    assert strategy.strategy == "GM"
    assert strategy.correlation_threshold is not None
    assert strategy.sweep


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
def test_optimizer_refuses_non_finite_advantage_tolerance(tolerance):
    # A NaN γ never chose MV (``bound < nan`` is false); an infinite one always did.
    with pytest.raises(ConfigurationError):
        ModelingStrategyOptimizer(advantage_tolerance=tolerance)


def test_optimizer_without_correlation_learning():
    data = generate_label_matrix(num_points=300, num_lfs=8, propensity=0.5, seed=2)
    strategy = ModelingStrategyOptimizer(learn_correlations=False).choose(data.label_matrix)
    assert strategy.correlations == []


def test_theory_bounds_shapes():
    assert low_density_upper_bound(0.5, 0.75) == pytest.approx(0.25 * 0.75 * 0.25 * 4 * 0.25)
    assert low_density_upper_bound(0.0, 0.75) == 0.0
    assert high_density_upper_bound(100.0, 0.75, 0.5) < 0.01
    assert high_density_upper_bound(10.0, 0.4, 0.5) == 1.0
    low_regime = combined_upper_bound(0.2, 0.75, 0.1)
    high_regime = combined_upper_bound(200.0, 0.75, 0.1)
    mid_regime = combined_upper_bound(3.0, 0.75, 0.1)
    assert mid_regime >= min(low_regime, high_regime)
