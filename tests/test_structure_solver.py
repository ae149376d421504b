"""The grouped structure solver against the one-node-at-a-time oracle.

``reference_structure.py`` is the loop ``StructureLearner`` ran before nodes
were solved in groups.  Hypothesis draws binary and k ∈ {3, 4} matrices with
never-voting, rarely-voting and always-voting columns, loose tolerances (so
nodes converge — and freeze — at different iterations) and, because a
generated matrix is far too small to reach the real constants, the size rule
itself: ``_GEMV_MIN_ELEMENTS`` and ``_GROUP_BYTES`` are patched so the same
small nodes land on both sides of the rule and in groups of every
composition.  Two contracts:

* against the oracle: designs ``array_equal``, weights within 1e-12,
  ``select`` identical at every ε the optimizer sweeps;
* against itself, bitwise: ``refit_nodes(Λ, S)`` is rows ``S`` of
  ``fit(Λ)``, whatever else shared a group or an ISTA loop (batch) with them.

``_GROUP_BYTES`` also closes the batches that put stacked groups and gemv
nodes in one loop, so drawing it draws the batching too; the stacked
products themselves are checked directly against dense ``X_k @ w_k`` /
``X_kᵀ r_k`` and against the same nodes in other company.
"""

import math
from unittest import mock

import numpy as np
import pytest
import reference_structure as ref
from hypothesis import given, settings, strategies as st

from repro.datasets.synthetic import generate_label_matrix
from repro.exceptions import LabelModelError
from repro.labeling import LabelMatrix, SparseLabelMatrix
from repro.labelmodel import (
    ModelingStrategyOptimizer,
    StructureLearner,
    structure,
)
from repro.labelmodel.structure import (
    _batch_products,
    _batches,
    _group_products,
    _node_groups,
    _NodeDesigns,
)

SWEPT = ModelingStrategyOptimizer()._sweep_thresholds()


def sized(gemv_min_elements, group_bytes):
    """Run the solver under a different size rule (the constants are not options)."""
    return mock.patch.multiple(
        structure, _GEMV_MIN_ELEMENTS=gemv_min_elements, _GROUP_BYTES=group_bytes
    )


def draw_matrix(seed, k, num_rows, propensities, copy_probability):
    """Λ with per-column propensities; column 1 partly copies column 0."""
    rng = np.random.default_rng(seed)
    n = len(propensities)
    if k == 2:
        truth = rng.choice([-1, 1], size=num_rows)
        wrong = -truth[:, None] * np.ones((1, n), dtype=np.int64)
    else:
        truth = rng.integers(1, k + 1, size=num_rows)
        wrong = (truth[:, None] - 1 + rng.integers(1, k, size=(num_rows, n))) % k + 1
    votes = np.where(rng.random((num_rows, n)) < 0.7, truth[:, None], wrong)
    dense = np.where(rng.random((num_rows, n)) < np.asarray(propensities), votes, 0)
    copied = rng.random(num_rows) < copy_probability
    dense[copied, 1] = dense[copied, 0]
    return dense.astype(np.int64)


@st.composite
def structure_cases(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2, 7))
    dense = draw_matrix(
        seed=draw(st.integers(0, 2**16)),
        k=k,
        num_rows=draw(st.integers(0, 160)),
        propensities=[draw(st.sampled_from([0.0, 0.04, 0.2, 0.6, 1.0])) for _ in range(n)],
        copy_probability=draw(st.sampled_from([0.0, 0.9])),
    )
    settings_ = dict(
        l1_strength=draw(st.sampled_from([0.0, 0.01, 0.1])),
        max_iter=draw(st.sampled_from([1, 40])),
        tol=draw(st.sampled_from([1e-6, 1e-3, 3e-2])),
        min_votes=draw(st.sampled_from([0, 3, 10])),
        seed=draw(st.integers(0, 3)),
    )
    size_rule = (
        draw(st.sampled_from([0, 150, 500, 4096])),
        draw(st.sampled_from([1, 3000, 1 << 20])),
    )
    return k, dense, settings_, size_rule


def assert_matches_oracle(learner, dense, categorical, settings_):
    expected = ref.reference_structure_fit(dense, categorical, **settings_)
    np.testing.assert_allclose(learner.dependency_weights_, expected, rtol=0, atol=1e-12)
    for threshold in SWEPT:
        assert learner.select(threshold) == ref.reference_select(expected, threshold)
    assert [point.correlations for point in learner.sweep(SWEPT)] == [
        ref.reference_select(expected, threshold) for threshold in SWEPT
    ]


@given(case=structure_cases())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_grouped_solver_matches_the_per_node_oracle(case):
    k, dense, settings_, size_rule = case
    matrix = LabelMatrix(SparseLabelMatrix.from_dense(dense), cardinality=k)
    with sized(*size_rule):
        learner = StructureLearner(**settings_).fit(matrix)
    assert_matches_oracle(learner, dense, k > 2, settings_)


@given(case=structure_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_node_designs_equal_the_oracle_assembly(case):
    k, dense, _, _ = case
    sparse = SparseLabelMatrix.from_dense(dense)
    designs = _NodeDesigns(sparse, k > 2)
    for j in range(dense.shape[1]):
        rows = np.count_nonzero(dense[:, j])
        if not rows:
            continue
        design, target = np.zeros((rows, dense.shape[1] + 1)), np.empty(rows)
        designs.fill(j, design, target)
        expected_design, expected_target = ref.node_design(dense, k > 2, j)
        assert np.array_equal(design, expected_design)
        assert np.array_equal(target, expected_target)


@given(case=structure_cases(), data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_a_node_does_not_depend_on_its_group(case, data):
    """Bitwise: any subset, under any grouping, reproduces the full fit's rows."""
    k, dense, settings_, size_rule = case
    n = dense.shape[1]
    matrix = LabelMatrix(SparseLabelMatrix.from_dense(dense), cardinality=k)
    gemv_min_elements = size_rule[0]  # which products a node gets is part of its result
    with sized(gemv_min_elements, 1 << 20):
        full = StructureLearner(**settings_).fit(matrix).dependency_weights_
    subset = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    with sized(gemv_min_elements, size_rule[1]):
        partial = StructureLearner(**settings_)
        partial.dependency_weights_ = np.full((n, n), 7.0)
        partial.refit_nodes(matrix, subset)
    untouched = sorted(set(range(n)) - set(subset))
    assert np.array_equal(partial.dependency_weights_[subset], full[subset])
    assert np.all(partial.dependency_weights_[untouched] == 7.0)


def straddling_matrix(k=2):
    # 7 design columns: the rule's crossover is 4096 / 7 ≈ 585 voted rows.
    return draw_matrix(
        seed=5, k=k, num_rows=1500,
        propensities=[0.05, 0.2, 0.35, 0.45, 0.6, 0.9], copy_probability=0.5,
    )


@pytest.mark.parametrize("k", [2, 3])
def test_real_size_rule_puts_nodes_on_both_sides(k):
    dense = straddling_matrix(k)
    votes = np.count_nonzero(dense, axis=0)
    groups = _node_groups(range(6), votes, 7)
    assert [0, 1, 2] in groups and [4] in groups and [5] in groups  # stacked + alone
    matrix = LabelMatrix(SparseLabelMatrix.from_dense(dense), cardinality=k)
    learner = StructureLearner(seed=0).fit(matrix)
    assert_matches_oracle(learner, dense, k > 2, dict(seed=0))
    for subset in ([1], [0, 2, 5], [4, 3]):
        refit = StructureLearner(seed=0).refit_nodes(matrix, subset)
        assert np.array_equal(
            refit.dependency_weights_[subset], learner.dependency_weights_[subset]
        )


def test_groups_close_at_the_byte_cap():
    votes = np.array([100, 100, 100, 5000, 100])
    with sized(4096, 2 * 100 * 9 * 8):
        assert _node_groups(range(5), votes, 9) == [[0, 1], [3], [2, 4]]
    assert _node_groups([1, 4], votes, 9) == [[1, 4]]


def test_generator_seed_is_consumed_one_solved_node_at_a_time():
    dense = draw_matrix(seed=2, k=2, num_rows=120, propensities=[0.5, 0.02, 0.5, 0.7],
                        copy_probability=0.0)
    learner = StructureLearner(seed=np.random.default_rng(9)).fit(dense)
    # Column 1 is below min_votes and draws nothing, as in the oracle's loop.
    expected = ref.reference_structure_fit(dense, False, seed=np.random.default_rng(9))
    np.testing.assert_allclose(learner.dependency_weights_, expected, rtol=0, atol=1e-12)


def test_never_voting_column_is_skipped_even_with_min_votes_zero():
    dense = draw_matrix(seed=3, k=2, num_rows=80, propensities=[0.5, 0.5, 0.0],
                        copy_probability=0.9)
    weights = StructureLearner(min_votes=0).fit(dense).dependency_weights_
    assert not weights[2].any() and weights[0].any()


def test_select_orders_pairs_and_keeps_the_dict_view():
    learner = StructureLearner()
    with pytest.raises(Exception):
        learner.select(0.1)
    learner.dependency_weights_ = np.array(
        [[0.0, 0.3, 0.0], [0.05, 0.0, 0.2], [0.4, 0.0, 0.0]]
    )
    assert learner.pair_scores() == {(0, 1): 0.3, (0, 2): 0.4, (1, 2): 0.2}
    assert learner.select(0.2) == [(0, 1), (0, 2), (1, 2)]
    assert learner.select(0.3) == [(0, 1), (0, 2)]
    assert all(type(index) is int for pair in learner.select(0.0) for index in pair)
    assert [point.num_correlations for point in learner.sweep([0.0, 0.35, 0.5])] == [3, 1, 0]
    with pytest.raises(LabelModelError):
        learner.select(-0.1)
    with pytest.raises(LabelModelError):
        learner.sweep([0.1, -0.1])


@st.composite
def batched_cases(draw):
    """Nodes on both sides of the size rule, and a cap from one node per loop
    to every node in one loop — so loops mix stacked groups and gemv nodes."""
    k, dense, settings_, _ = draw(structure_cases())
    size_rule = (
        draw(st.sampled_from([64, 150, 500])),
        draw(st.sampled_from([1, 2000, 6000, 20000, 1 << 20])),
    )
    return k, dense, settings_, size_rule


@given(case=batched_cases(), data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_batched_loops_match_the_oracle_and_refit_bitwise(case, data):
    k, dense, settings_, (gemv_min_elements, cap) = case
    n = dense.shape[1]
    matrix = LabelMatrix(SparseLabelMatrix.from_dense(dense), cardinality=k)
    with sized(gemv_min_elements, cap):
        learner = StructureLearner(**settings_).fit(matrix)
    assert_matches_oracle(learner, dense, k > 2, settings_)
    subset = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    with sized(gemv_min_elements, data.draw(st.sampled_from([1, 2000, 6000, 1 << 20]))):
        partial = StructureLearner(**settings_).refit_nodes(matrix, subset)
    assert np.array_equal(
        partial.dependency_weights_[subset], learner.dependency_weights_[subset]
    )


def test_refit_in_another_batch_is_bitwise_the_fit():
    dense = straddling_matrix()
    votes = np.count_nonzero(dense, axis=0)
    groups = _node_groups(range(6), votes, 7)
    assert groups == [[3], [4], [5], [0, 1, 2]]
    assert _batches(groups, votes, 7) == [groups]  # three gemv nodes and a stacked group
    matrix = LabelMatrix(SparseLabelMatrix.from_dense(dense), cardinality=2)
    seen = []

    def recorded(*args):
        seen.append(_batches(*args))
        return seen[-1]

    with mock.patch.object(structure, "_batches", recorded):
        full = StructureLearner(seed=0).fit(matrix).dependency_weights_
        for subset, cap in (([1], 1 << 20), ([0, 5], 1 << 20), ([2, 3, 4], 1)):
            with sized(4096, cap):
                refit = StructureLearner(seed=0).refit_nodes(matrix, subset)
            assert seen[-1] != seen[0]
            assert np.array_equal(refit.dependency_weights_[subset], full[subset])
    assert seen[1:] == [[[[1]]], [[[5], [0]]], [[[3]], [[4]], [[2]]]]


@pytest.mark.parametrize(
    "num_points, propensities, all_stacked",
    [
        (485, [*np.linspace(10 / 485, 114 / 485, 20), *[0.01] * 12], True),
        (1_000, [*np.linspace(0.05, 0.54, 21), 0.027], False),
    ],
    ids=["cdr", "edit_loop"],
)
def test_served_shapes_share_their_ista_loops(num_points, propensities, all_stacked):
    matrix = generate_label_matrix(
        num_points=num_points, num_lfs=len(propensities), propensity=propensities, seed=0
    ).label_matrix.to_sparse()
    seen = []

    def recorded(*args):
        seen.append(_batches(*args))
        return seen[-1]

    with mock.patch.object(structure, "_batches", recorded):
        StructureLearner(seed=0).fit(matrix)
    loops = seen[0]
    groups = [group for loop in loops for group in loop]
    if all_stacked:  # every node in one stacked group, solved in one loop
        assert len(loops) == len(groups) == 1
    else:  # the gemv nodes share loops
        assert len(loops) < len(groups)


@pytest.mark.parametrize("gemv_min_elements", [4096, 0])
def test_bias_only_rows_and_silent_partner_columns(gemv_min_elements):
    rng = np.random.default_rng(4)
    dense = np.zeros((90, 5), dtype=np.int64)
    dense[:30, 0] = rng.choice([-1, 1], 30)  # LF 0 alone: those rows hold only the bias
    dense[30:60, :3] = rng.choice([-1, 1], (30, 3))
    dense[60:, 4] = rng.choice([-1, 1], 30)  # every row of node 4 is bias-only
    # LF 3 never votes: an all-zero partner column in every design.
    sparse = SparseLabelMatrix.from_dense(dense)
    designs = _NodeDesigns(sparse, False)
    design, target = np.zeros((30, 6)), np.empty(30)
    designs.fill(4, design, target)
    assert np.count_nonzero(design) == 30 and design[:, 5].all()
    with sized(gemv_min_elements, 1 << 20):
        learner = StructureLearner(seed=1).fit(sparse)
        refit = StructureLearner(seed=1).refit_nodes(sparse, [4, 0])
    assert_matches_oracle(learner, dense, False, dict(seed=1))
    weights = learner.dependency_weights_
    assert not weights[3].any() and not weights[:, 3].any() and not weights[4].any()
    assert np.array_equal(refit.dependency_weights_[[0, 4]], weights[[0, 4]])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_stacked_products_do_not_see_their_company(k):
    dense = draw_matrix(
        seed=11 + k, k=k, num_rows=60,
        propensities=[0.3, 0.5, 0.8, 0.6, 0.2, 0.9], copy_probability=0.5,
    )
    designs = _NodeDesigns(SparseLabelMatrix.from_dense(dense), k > 2)
    rng = np.random.default_rng(k)
    X, W, R = {}, {}, {}
    for j in range(6):
        rows = np.count_nonzero(dense[:, j])
        X[j] = np.zeros((rows, 7))
        designs.fill(j, X[j], np.empty(rows))
        W[j], R[j] = rng.standard_normal(7), rng.random(rows) - 0.5

    def products_of(nodes):
        sizes = np.array([X[j].shape[0] for j in nodes])
        forward, backward = _group_products(np.vstack([X[j] for j in nodes]), sizes)
        scores = np.split(forward(np.stack([W[j] for j in nodes])), np.cumsum(sizes)[:-1])
        gradient = backward(np.concatenate([R[j] for j in nodes]))
        return {j: (scores[g], gradient[g]) for g, j in enumerate(nodes)}

    every = products_of(list(range(6)))
    for nodes in ([0, 1, 2], [5, 3], [4, 0, 5, 2, 1, 3], [2]):
        for j, (scores, gradient) in products_of(nodes).items():
            assert np.array_equal(scores, every[j][0])
            assert np.array_equal(gradient, every[j][1])
    # Within 1e-15 of the dense BLAS products, on the scale of each sum's terms.
    for j, (scores, gradient) in every.items():
        assert np.all(np.abs(scores - X[j] @ W[j]) <= 1e-15 * (np.abs(X[j]) @ np.abs(W[j])))
        assert np.all(
            np.abs(gradient - X[j].T @ R[j]) <= 1e-15 * (np.abs(X[j]).T @ np.abs(R[j]))
        )
    # Beside a gemv node in one batch, the stacked products do not change either.
    gemv = np.ones((4096, 7))
    parts = [(gemv, np.array([4096])), (X[1], np.array([len(X[1])]))]
    block, residual = np.stack([W[0], W[1]]), np.concatenate([np.ones(4096), R[1]])
    for active in ([True, True], [False, True]):  # a frozen gemv node's products read 0
        forward, backward = _batch_products(parts, np.array(active))
        scores, gradient = forward(block), backward(residual)
        assert np.array_equal(scores[4096:], every[1][0])
        assert np.array_equal(gradient[1], every[1][1])
        assert np.array_equal(scores[:4096], gemv @ W[0] if active[0] else np.zeros(4096))


def weighted_learner():
    learner = StructureLearner()
    learner.dependency_weights_ = np.array([[0.0, 0.3], [0.1, 0.0]])
    return learner


ALL_ONES = np.ones((20, 2), dtype=np.int64)
REFUSED = {
    "max_iter=-5": lambda: StructureLearner(max_iter=-5),
    "max_iter=0": lambda: StructureLearner(max_iter=0),
    "max_iter=2.5": lambda: StructureLearner(max_iter=2.5),
    "max_iter=True": lambda: StructureLearner(max_iter=True),
    "l1_strength=nan": lambda: StructureLearner(l1_strength=math.nan),
    "l1_strength=inf": lambda: StructureLearner(l1_strength=math.inf),
    "tol=nan": lambda: StructureLearner(tol=math.nan),
    "tol=-1e-6": lambda: StructureLearner(tol=-1e-6),
    "min_votes=-1": lambda: StructureLearner(min_votes=-1),
    "min_votes=2.5": lambda: StructureLearner(min_votes=2.5),
    "select(nan)": lambda: weighted_learner().select(math.nan),
    "sweep([0.1, nan])": lambda: weighted_learner().sweep([0.1, math.nan]),
    "fit-select:max_iter=-5": lambda: StructureLearner(max_iter=-5).fit(ALL_ONES).select(0.1),
    "fit-select:threshold=nan": lambda: StructureLearner().fit(ALL_ONES).select(math.nan),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_configurations_that_fit_nothing_or_nan_are_refused(call):
    with pytest.raises(LabelModelError):
        call()
