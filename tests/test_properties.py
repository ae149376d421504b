"""Property-based tests (hypothesis) for core invariants.

The second half fuzzes the PR-4 vectorized kernel layer with randomized
workloads (seeded/derandomized, ~50 draws each): random LF correlation
graphs must always produce a valid distance-2 coloring, a
:meth:`SamplerPlan.select_rows` mask must equal recompiling on the row
subset, and dense/sparse storage must compile to draw-identical plans —
the invariants ``tests/test_kernels.py`` pins with hand-built cases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.labeling.matrix import LabelMatrix
from repro.labeling.sparse import SparseLabelMatrix
from repro.labelmodel.advantage import estimate_advantage_bound, modeling_advantage
from repro.labelmodel.factor_graph import FactorGraphSpec
from repro.labelmodel.kernels import SamplerPlan, color_columns, run_joint_chain
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


# ======================================================= kernel-layer fuzzing
#
# Randomized (seeded) property tests for repro.labelmodel.kernels: the plan
# compiler and chain drivers must uphold their invariants on *arbitrary*
# correlation graphs and abstention patterns, not just the hand-built suites
# of tests/test_kernels.py.

kernel_settings = settings(max_examples=50, deadline=None, derandomize=True)


@st.composite
def correlation_graphs(draw):
    """A random LF count and a random set of correlation edges."""
    num_lfs = draw(st.integers(2, 10))
    num_pairs = draw(st.integers(0, 12))
    pairs = [
        (draw(st.integers(0, num_lfs - 1)), draw(st.integers(0, num_lfs - 1)))
        for _ in range(num_pairs)
    ]
    return num_lfs, [(j, k) for j, k in pairs if j != k]


@st.composite
def kernel_workloads(draw):
    """A correlation graph plus a random label matrix over it."""
    num_lfs, pairs = draw(correlation_graphs())
    cardinality = draw(st.sampled_from([2, 3]))
    num_rows = draw(st.integers(3, 40))
    seed = draw(st.integers(0, 2**16 - 1))
    rng = np.random.default_rng(seed)
    voted = rng.random((num_rows, num_lfs)) < 0.6
    if cardinality == 2:
        values = np.where(rng.random((num_rows, num_lfs)) < 0.5, 1, -1)
    else:
        values = rng.integers(1, cardinality + 1, size=(num_rows, num_lfs))
    matrix = np.where(voted, values, 0).astype(np.int64)
    spec = FactorGraphSpec(num_lfs, pairs, cardinality=cardinality)
    weights = rng.normal(scale=0.8, size=spec.layout.size)
    return spec, matrix, weights, seed


def _run_chain(plan, weights, seed, sweeps=3):
    values, y = run_joint_chain(
        plan, None, np.random.default_rng(seed), weights, sweeps=sweeps
    )
    return values, y


def _canonical_entries(plan):
    return set(
        zip(plan.entry_rows.tolist(), plan.entry_cols.tolist(), plan.entry_values.tolist())
    )


def _canonical_alignments(plan):
    triples = set()
    for update in plan.color_updates:
        self_abs = update.positions[update.local]
        for s, q, w in zip(self_abs, update.partners, update.weight_indices):
            triples.add(
                (
                    (int(plan.entry_rows[s]), int(plan.entry_cols[s])),
                    (int(plan.entry_rows[q]), int(plan.entry_cols[q])),
                    int(w),
                )
            )
    return triples


@given(correlation_graphs())
@kernel_settings
def test_fuzz_coloring_is_valid_distance_two(graph):
    num_lfs, pairs = graph
    spec = FactorGraphSpec(num_lfs, pairs)
    colors = color_columns(spec)
    adjacency = spec.neighbor_sets()
    # Direct edges never share a color (block-Gibbs validity) ...
    for j, k in spec.correlations:
        assert colors[j] != colors[k]
    # ... nor do two columns with a common correlated partner (distance 2),
    # and color 0 is exactly the partner-free columns.
    for a in range(num_lfs):
        assert (colors[a] == 0) == (not adjacency[a])
        for b in range(a + 1, num_lfs):
            if colors[a] == colors[b] and colors[a] != 0:
                assert not (adjacency[a] & adjacency[b])


@given(kernel_workloads())
@kernel_settings
def test_fuzz_dense_and_sparse_plans_draw_identical(workload):
    spec, matrix, weights, seed = workload
    dense_plan = SamplerPlan.compile(spec, matrix)
    sparse_storage = LabelMatrix(matrix, cardinality=spec.cardinality).to_sparse().storage
    sparse_plan = SamplerPlan.compile(spec, sparse_storage)
    assert np.array_equal(dense_plan.entry_rows, sparse_plan.entry_rows)
    assert np.array_equal(dense_plan.entry_cols, sparse_plan.entry_cols)
    assert np.array_equal(dense_plan.entry_values, sparse_plan.entry_values)
    dense_values, dense_y = _run_chain(dense_plan, weights, seed)
    sparse_values, sparse_y = _run_chain(sparse_plan, weights, seed)
    # Identical plans consume the identical RNG stream: same draws, bit for bit.
    assert np.array_equal(dense_values, sparse_values)
    assert np.array_equal(dense_y, sparse_y)


@given(kernel_workloads(), st.integers(0, 2**16 - 1))
@kernel_settings
def test_fuzz_select_rows_equals_recompilation(workload, subset_seed):
    spec, matrix, weights, seed = workload
    plan = SamplerPlan.compile(spec, matrix)
    rng = np.random.default_rng(subset_seed)
    size = int(rng.integers(1, matrix.shape[0] + 1))
    rows = np.sort(rng.choice(matrix.shape[0], size=size, replace=False))
    derived = plan.select_rows(rows)
    fresh = SamplerPlan.compile(spec, matrix[rows])
    # An ascending row subset preserves CSC order, so masking must equal
    # recompilation *exactly* — same entries, same independent set, same
    # per-color blocks.
    assert np.array_equal(derived.entry_rows, fresh.entry_rows)
    assert np.array_equal(derived.entry_cols, fresh.entry_cols)
    assert np.array_equal(derived.entry_values, fresh.entry_values)
    assert np.array_equal(derived.colors, fresh.colors)
    if fresh.independent is None:
        assert derived.independent is None
    else:
        assert np.array_equal(derived.independent, fresh.independent)
    assert len(derived.color_updates) == len(fresh.color_updates)
    for d, f in zip(derived.color_updates, fresh.color_updates):
        assert d.color == f.color
        for field in ("positions", "rows", "weight_indices"):
            assert np.array_equal(getattr(d, field), getattr(f, field)), field
        assert np.array_equal(d.positions[d.local], f.positions[f.local])
        assert np.array_equal(d.partners, f.partners)
    # ... and therefore the chains consume the same RNG stream.
    derived_values, derived_y = _run_chain(derived, weights, seed)
    fresh_values, fresh_y = _run_chain(fresh, weights, seed)
    assert np.array_equal(derived_values, fresh_values)
    assert np.array_equal(derived_y, fresh_y)


@given(kernel_workloads(), st.integers(0, 2**16 - 1))
@kernel_settings
def test_fuzz_select_rows_permuted_is_canonically_equal(workload, subset_seed):
    spec, matrix, weights, seed = workload
    plan = SamplerPlan.compile(spec, matrix)
    rng = np.random.default_rng(subset_seed)
    size = int(rng.integers(1, matrix.shape[0] + 1))
    rows = rng.permutation(matrix.shape[0])[:size]
    derived = plan.select_rows(rows)
    fresh = SamplerPlan.compile(spec, matrix[rows])
    # A permuted subset reorders entries (derived keeps the parent's CSC
    # filter order, a fresh compile re-sorts rows within each column), so
    # equality holds on the canonical entry/alignment sets.
    assert derived.nnz == fresh.nnz
    assert derived.num_colors == fresh.num_colors
    assert _canonical_entries(derived) == _canonical_entries(fresh)
    assert _canonical_alignments(derived) == _canonical_alignments(fresh)
    scattered = SparseLabelMatrix.from_triples(
        derived.entry_rows, derived.entry_cols, derived.entry_values, matrix[rows].shape
    )
    assert np.array_equal(scattered.to_dense(), matrix[rows])
