"""The vectorized Gibbs kernel layer: plans, coloring, equivalence, reuse.

Four guarantees are pinned down here:

* **Plan validity** — the graph coloring never puts two correlated columns
  (or two columns sharing a correlated partner) in one color, the
  correlation-free suite collapses to a single color, and a plan derived via
  ``select_rows`` is exactly the plan of the row-sliced matrix.
* **Kernel-independence of the deterministic paths** — ``label_posteriors``
  and the EM estimator never sample, so both kernels must produce
  bit-identical posteriors, weights, and probabilistic labels.
* **Seed stability** — each kernel is deterministic under a fixed seed, the
  reference kernel in particular (it is the auditable baseline the
  vectorized kernel is validated against), and both kernels draw
  identically for dense and sparse input (both are lowered to the same
  entries, so CD fits are equal too).
* **Distributional equivalence** — the vectorized fused updates sample from
  the same conditionals as the reference loop: exact closed-form marginals
  on independent suites, and reference-matched empirical marginals (within
  Monte-Carlo tolerance) on correlated ones, for k = 2 and k = 3, dense and
  sparse.
"""

import numpy as np
import pytest

from repro.datasets.synthetic import (
    generate_label_matrix,
    generate_multiclass_label_matrix,
)
from repro.exceptions import LabelModelError
from repro.labeling.sparse import SparseLabelMatrix, intersect_sorted, ranges_gather
from repro.labelmodel.factor_graph import FactorGraphSpec
from repro.labelmodel.generative import GenerativeModel
from repro.labelmodel.gibbs import GibbsSampler
from repro.labelmodel.kernels import (
    SamplerPlan,
    SamplerWorkspace,
    color_columns,
    resolve_kernel,
    run_joint_chain,
)


def _binary_task(num_points=200, num_lfs=8, propensity=0.4, seed=0):
    data = generate_label_matrix(
        num_points=num_points, num_lfs=num_lfs, propensity=propensity, seed=seed
    )
    return data.label_matrix


def _categorical_task(num_points=200, num_lfs=6, cardinality=3, propensity=0.5, seed=0):
    data = generate_multiclass_label_matrix(
        num_points=num_points,
        num_lfs=num_lfs,
        cardinality=cardinality,
        propensity=propensity,
        seed=seed,
    )
    return data.label_matrix


# ------------------------------------------------------------------- coloring
def test_coloring_is_valid_distance_two():
    rng = np.random.default_rng(0)
    for trial in range(20):
        num_lfs = int(rng.integers(4, 24))
        num_pairs = int(rng.integers(0, 2 * num_lfs))
        pairs = {
            (int(a), int(b))
            for a, b in rng.integers(0, num_lfs, size=(num_pairs, 2))
            if a != b
        }
        spec = FactorGraphSpec(num_lfs, pairs)
        colors = color_columns(spec)
        adjacency = spec.neighbor_sets()
        for j, k in spec.correlations:
            assert colors[j] != colors[k], (trial, j, k)
            # The stricter invariant: no shared correlated partner either.
            for a in range(num_lfs):
                for b in range(a + 1, num_lfs):
                    if colors[a] == colors[b] and colors[a] != 0:
                        assert not (adjacency[a] & adjacency[b]), (trial, a, b)
        # Color 0 is exactly the uncorrelated columns (when any exist).
        for j in range(num_lfs):
            assert (colors[j] == 0) == (not adjacency[j])


def test_independent_suite_collapses_to_one_color(backend):
    matrix = _binary_task().to_sparse()
    spec = FactorGraphSpec(matrix.num_lfs)
    plan = SamplerPlan.compile(spec, matrix.storage)
    assert plan.num_colors == 1
    assert plan.independent is None  # the no-gather fast path
    assert plan.correlated_positions is None
    assert plan.max_color_block == 0


def test_plan_compile_dense_equals_sparse(backend):
    matrix = _binary_task()
    spec = FactorGraphSpec(matrix.num_lfs, [(0, 1), (1, 2), (3, 4)])
    dense_plan = SamplerPlan.compile(spec, matrix.values)
    sparse_plan = SamplerPlan.compile(spec, matrix.to_sparse().storage)
    assert np.array_equal(dense_plan.entry_rows, sparse_plan.entry_rows)
    assert np.array_equal(dense_plan.entry_cols, sparse_plan.entry_cols)
    assert np.array_equal(dense_plan.entry_values, sparse_plan.entry_values)
    assert np.array_equal(dense_plan.colors, sparse_plan.colors)
    assert len(dense_plan.color_updates) == len(sparse_plan.color_updates)
    for d, s in zip(dense_plan.color_updates, sparse_plan.color_updates):
        for field in ("positions", "rows", "local", "partners", "weight_indices"):
            assert np.array_equal(getattr(d, field), getattr(s, field)), field


def test_plan_select_rows_matches_fresh_compile(backend):
    matrix = _binary_task(num_points=300).to_sparse()
    spec = FactorGraphSpec(matrix.num_lfs, [(0, 1), (2, 3), (1, 4)])
    plan = SamplerPlan.compile(spec, matrix.storage)
    rows = np.random.default_rng(3).permutation(300)[:77]
    derived = plan.select_rows(rows)
    batch = matrix.storage.select_rows(rows)
    scattered = SparseLabelMatrix.from_triples(
        derived.entry_rows, derived.entry_cols, derived.entry_values, batch.shape
    )
    assert np.array_equal(scattered.to_dense(), batch.to_dense())
    fresh = SamplerPlan.compile(spec, batch)

    def canonical_entries(p):
        return set(zip(p.entry_rows.tolist(), p.entry_cols.tolist(), p.entry_values.tolist()))

    def canonical_alignments(p):
        # Each alignment triple as ((self row, self col), (partner row,
        # partner col), weight index) — entry order within a column is a
        # plan-internal detail (the derived plan keeps the parent's CSC
        # filtering order, a fresh compile re-sorts by row).
        triples = set()
        for update in p.color_updates:
            self_abs = update.positions[update.local]
            for s, q, w in zip(self_abs, update.partners, update.weight_indices):
                triples.add(
                    (
                        (int(p.entry_rows[s]), int(p.entry_cols[s])),
                        (int(p.entry_rows[q]), int(p.entry_cols[q])),
                        int(w),
                    )
                )
        return triples

    assert canonical_entries(derived) == canonical_entries(fresh)
    assert canonical_alignments(derived) == canonical_alignments(fresh)
    assert derived.num_colors == fresh.num_colors


def test_kernel_selector_validation():
    assert resolve_kernel("auto") == "vectorized"
    assert resolve_kernel("reference") == "reference"
    with pytest.raises(LabelModelError):
        resolve_kernel("numba")
    with pytest.raises(LabelModelError):
        GibbsSampler(FactorGraphSpec(3), kernel="bogus")
    with pytest.raises(LabelModelError):
        GenerativeModel(gibbs_kernel="bogus")


def test_workspace_accommodates_derived_plans(backend):
    matrix = _binary_task(num_points=300).to_sparse()
    spec = FactorGraphSpec(matrix.num_lfs, [(0, 1)])
    plan = SamplerPlan.compile(spec, matrix.storage)
    workspace = SamplerWorkspace(plan)
    sub = plan.select_rows(np.arange(50))
    assert workspace.accommodates(plan)
    assert workspace.accommodates(sub)
    small_workspace = SamplerWorkspace(sub)
    assert not small_workspace.accommodates(plan)
    with pytest.raises(LabelModelError):
        run_joint_chain(plan, small_workspace, np.random.default_rng(0), spec.initial_weights())


# --------------------------------------------------- shared sparse primitives
def test_intersect_sorted_matches_intersect1d():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = np.unique(rng.integers(0, 60, size=rng.integers(0, 40)))
        b = np.unique(rng.integers(0, 60, size=rng.integers(0, 40)))
        expected_vals, expected_a, expected_b = np.intersect1d(
            a, b, assume_unique=True, return_indices=True
        )
        in_a, in_b = intersect_sorted(a, b)
        assert np.array_equal(in_a, expected_a)
        assert np.array_equal(in_b, expected_b)
        if in_a.size:
            assert np.array_equal(a[in_a], expected_vals)


def test_ranges_gather_concatenates_column_slices():
    starts = np.array([5, 0, 9])
    counts = np.array([2, 3, 0])
    expected = np.array([5, 6, 0, 1, 2])
    assert np.array_equal(ranges_gather(starts, counts), expected)
    assert ranges_gather(np.array([]), np.array([])).size == 0


# -------------------------------------------- deterministic paths, bit-identical
def test_label_posteriors_bit_identical_between_kernels(backend):
    for matrix in (_binary_task(), _categorical_task()):
        spec = FactorGraphSpec(matrix.num_lfs, cardinality=matrix.cardinality)
        weights = spec.initial_weights()
        for storage in (matrix.values, matrix.to_sparse().storage):
            reference = GibbsSampler(spec, seed=0, kernel="reference").label_posteriors(
                weights, storage
            )
            vectorized = GibbsSampler(spec, seed=0, kernel="vectorized").label_posteriors(
                weights, storage
            )
            assert np.array_equal(reference, vectorized)


def test_em_deterministic_outputs_bit_identical_between_kernels(backend):
    for matrix in (_binary_task(), _categorical_task()):
        for storage in (matrix, matrix.to_sparse()):
            reference = GenerativeModel(epochs=8, seed=0, gibbs_kernel="reference").fit(
                storage, correlations=[(0, 1)]
            )
            vectorized = GenerativeModel(epochs=8, seed=0, gibbs_kernel="vectorized").fit(
                storage, correlations=[(0, 1)]
            )
            assert np.abs(reference.weights - vectorized.weights).max() <= 1e-12
            assert (
                np.abs(
                    reference.predict_proba(storage) - vectorized.predict_proba(storage)
                ).max()
                <= 1e-12
            )


# ----------------------------------------------------------------- seed stability
def test_reference_kernel_seed_stable(backend):
    matrix = _binary_task()
    spec = FactorGraphSpec(matrix.num_lfs, [(0, 1)])
    weights = spec.initial_weights()
    weights[spec.layout.correlation_slice] = 0.6
    for storage in (matrix.values, matrix.to_sparse().storage):
        first = GibbsSampler(spec, seed=42, kernel="reference").sample_joint(
            weights, storage, sweeps=3
        )
        second = GibbsSampler(spec, seed=42, kernel="reference").sample_joint(
            weights, storage, sweeps=3
        )
        first_matrix = first[0].to_dense() if hasattr(first[0], "to_dense") else first[0]
        second_matrix = (
            second[0].to_dense() if hasattr(second[0], "to_dense") else second[0]
        )
        assert np.array_equal(first_matrix, second_matrix)
        assert np.array_equal(first[1], second[1])
    # Reference CD fits are seed-stable end to end.
    first_fit = GenerativeModel(method="cd", epochs=2, seed=7, gibbs_kernel="reference").fit(
        matrix
    )
    second_fit = GenerativeModel(method="cd", epochs=2, seed=7, gibbs_kernel="reference").fit(
        matrix
    )
    assert np.array_equal(first_fit.weights, second_fit.weights)


def test_vectorized_kernel_dense_sparse_identical_draws(backend):
    # Every input form is lowered to the same entries, so under either kernel
    # — binary and k = 3, with and without correlations — a dense input and
    # its CSR twin consume one RNG stream: draws, labels, posteriors and CD
    # fits are equal, not close.
    for matrix, pairs in (
        (_binary_task(), [(0, 1), (2, 3)]),
        (_binary_task(), []),
        (_categorical_task(), [(0, 1)]),
        (_categorical_task(), []),
    ):
        spec = FactorGraphSpec(
            matrix.num_lfs, pairs, cardinality=matrix.cardinality
        )
        weights = spec.initial_weights()
        # Unequal accuracy weights: a BLAS row sum and the CSR one round apart.
        weights[spec.layout.accuracy_slice] = np.linspace(0.1, 1.3, matrix.num_lfs) ** 3
        weights[spec.layout.correlation_slice] = 0.5
        sparse = matrix.to_sparse()
        fixed_y = GibbsSampler(spec, seed=1).sample_labels(weights, sparse)
        for kernel in ("vectorized", "reference"):
            dense_sampler = GibbsSampler(spec, seed=5, kernel=kernel)
            sparse_sampler = GibbsSampler(spec, seed=5, kernel=kernel)
            assert np.array_equal(
                dense_sampler.label_posteriors(weights, matrix.values),
                sparse_sampler.label_posteriors(weights, sparse.storage),
            )
            dense_sample, dense_y = dense_sampler.sample_joint(
                weights, matrix.values, sweeps=3
            )
            sparse_sample, sparse_y = sparse_sampler.sample_joint(
                weights, sparse.storage, sweeps=3
            )
            assert isinstance(dense_sample, np.ndarray)
            assert isinstance(sparse_sample, SparseLabelMatrix)
            assert np.array_equal(dense_sample, sparse_sample.to_dense())
            assert np.array_equal(dense_y, sparse_y)
            # The abstention pattern is held fixed.
            assert np.array_equal(dense_sample != 0, matrix.values != 0)
            assert np.array_equal(
                dense_sampler.sample_lf_outputs(weights, matrix.values, fixed_y, sweeps=2),
                sparse_sampler.sample_lf_outputs(weights, sparse, fixed_y, sweeps=2).to_dense(),
            )
            fits = [
                GenerativeModel(
                    method="cd", epochs=2, seed=3, gibbs_kernel=kernel,
                    cardinality=matrix.cardinality,
                ).fit(storage, correlations=pairs)
                for storage in (matrix, sparse, matrix.values, sparse.storage)
            ]
            for fit in fits[1:]:
                assert np.array_equal(fit.weights, fits[0].weights)
                assert np.array_equal(fit.predict_proba(matrix), fits[0].predict_proba(sparse))


# ------------------------------------------------------- distributional checks
def _match_rates(kernel, spec, storage, weights, y, repetitions, sweeps, seed):
    sampler = GibbsSampler(spec, seed=seed, kernel=kernel)
    dense = storage.to_dense() if isinstance(storage, SparseLabelMatrix) else storage
    mask = dense != 0
    totals = np.zeros(dense.shape)
    for _ in range(repetitions):
        sample = sampler.sample_lf_outputs(weights, storage, y, sweeps=sweeps)
        if isinstance(sample, SparseLabelMatrix):
            sample = sample.to_dense()
        totals += (sample == y[:, None]) & mask
    return totals[mask] / repetitions


@pytest.mark.parametrize("cardinality", [2, 3])
@pytest.mark.parametrize("storage_kind", ["dense", "sparse"])
def test_vectorized_matches_exact_independent_conditionals(
    backend, cardinality, storage_kind
):
    """No correlations: the entry conditional is closed-form, so the empirical
    match rate of every entry must sit on q_j = e^{w_j} / (e^{w_j} + k - 1)."""
    if cardinality == 2:
        matrix = _binary_task(num_points=60, num_lfs=4, propensity=0.7)
        y = np.where(np.random.default_rng(1).random(60) < 0.5, 1, -1)
    else:
        matrix = _categorical_task(num_points=60, num_lfs=4, propensity=0.7)
        y = np.random.default_rng(1).integers(1, cardinality + 1, size=60)
    storage = matrix.values if storage_kind == "dense" else matrix.to_sparse().storage
    spec = FactorGraphSpec(matrix.num_lfs, cardinality=cardinality)
    weights = spec.initial_weights()
    accuracy = weights[spec.layout.accuracy_slice]
    expected_q = 1.0 / (1.0 + (cardinality - 1) * np.exp(-accuracy))

    repetitions = 900
    rates = _match_rates("vectorized", spec, storage, weights, y, repetitions, 1, seed=0)
    rates_dense_layout = np.zeros(matrix.values.shape)
    rates_dense_layout[matrix.values != 0] = rates
    tolerance = 5.0 * np.sqrt(0.25 / repetitions)
    for j in range(matrix.num_lfs):
        column_rates = rates_dense_layout[matrix.values[:, j] != 0, j]
        assert np.abs(column_rates - expected_q[j]).max() < tolerance, j


@pytest.mark.parametrize("cardinality", [2, 3])
def test_vectorized_matches_reference_with_correlations(backend, cardinality):
    """Correlated suites: both kernels are valid Gibbs samplers of the same
    conditional, so their long-run per-entry marginals must agree within
    Monte-Carlo tolerance (the reference side is the one per-column CSC
    loop; the dense/sparse draw identity is covered above)."""
    if cardinality == 2:
        matrix = _binary_task(num_points=40, num_lfs=4, propensity=0.7)
        y = np.where(np.random.default_rng(1).random(40) < 0.5, 1, -1)
    else:
        matrix = _categorical_task(num_points=40, num_lfs=4, propensity=0.7)
        y = np.random.default_rng(1).integers(1, cardinality + 1, size=40)
    spec = FactorGraphSpec(matrix.num_lfs, [(0, 1), (1, 2)], cardinality=cardinality)
    weights = spec.initial_weights()
    weights[spec.layout.correlation_slice] = 0.7

    repetitions = 1200
    reference = _match_rates(
        "reference", spec, matrix.values, weights, y, repetitions, 3, seed=0
    )
    vectorized = _match_rates(
        "vectorized", spec, matrix.values, weights, y, repetitions, 3, seed=11
    )
    # Both estimates carry sqrt(p(1-p)/reps) noise; 5 sigma over the worst
    # case p = 0.5 keeps the flake rate negligible while still catching any
    # systematic conditional mismatch.
    tolerance = 5.0 * np.sqrt(0.5 / repetitions)
    assert np.abs(reference - vectorized).max() < tolerance


def test_vectorized_handles_adversarial_weights(backend):
    """Negative (adversarial) accuracy weights: the factored binary update
    must contribute w_j·sign(q−u), not |w_j|·sign(q−u) — regression test for
    a copysign that dropped the weight's sign (match probability σ(w) < ½
    pairs with a *negative* matched contribution)."""
    matrix = _binary_task(num_points=50, num_lfs=4, propensity=0.8)
    spec = FactorGraphSpec(matrix.num_lfs)
    weights = spec.initial_weights()
    weights[spec.layout.accuracy_slice] = np.array([-1.5, 1.0, 1.0, 1.0])
    repetitions = 1200

    def positive_rates(kernel, seed):
        sampler = GibbsSampler(spec, seed=seed, kernel=kernel)
        totals = np.zeros(matrix.num_candidates)
        for _ in range(repetitions):
            _, y = sampler.sample_joint(weights, matrix.values, sweeps=2)
            totals += y > 0
        return totals / repetitions

    reference = positive_rates("reference", 0)
    vectorized = positive_rates("vectorized", 9)
    assert np.abs(reference - vectorized).max() < 5.0 * np.sqrt(0.5 / repetitions)


def test_joint_chain_label_marginals_match(backend):
    """sample_joint mixes over (Λ, Y): the chains' y marginals must agree."""
    matrix = _binary_task(num_points=50, num_lfs=5, propensity=0.6)
    spec = FactorGraphSpec(matrix.num_lfs, [(0, 1)])
    weights = spec.initial_weights()
    weights[spec.layout.correlation_slice] = 0.5
    repetitions = 1200

    def positive_rates(kernel, seed):
        sampler = GibbsSampler(spec, seed=seed, kernel=kernel)
        totals = np.zeros(matrix.num_candidates)
        for _ in range(repetitions):
            _, y = sampler.sample_joint(weights, matrix.values, sweeps=2)
            totals += y > 0
        return totals / repetitions

    reference = positive_rates("reference", 0)
    vectorized = positive_rates("vectorized", 9)
    assert np.abs(reference - vectorized).max() < 5.0 * np.sqrt(0.5 / repetitions)


# ------------------------------------------------------------------ CD training
def test_cd_uses_one_plan_per_fit_and_learns(backend):
    matrix = _binary_task(num_points=400, num_lfs=6, propensity=0.4)
    gold = generate_label_matrix(
        num_points=400, num_lfs=6, propensity=0.4, seed=0
    ).gold_labels
    compiles = 0
    original = SamplerPlan.compile.__func__

    def counting_compile(cls, spec, label_matrix):
        nonlocal compiles
        compiles += 1
        return original(cls, spec, label_matrix)

    try:
        SamplerPlan.compile = classmethod(counting_compile)
        for storage in (matrix, matrix.to_sparse()):
            compiles = 0
            model = GenerativeModel(method="cd", epochs=3, seed=0).fit(
                storage, correlations=[(0, 1)]
            )
            assert compiles == 1, "plan must be compiled once per fit"
            assert model.score(storage, gold) > 0.6
    finally:
        SamplerPlan.compile = classmethod(original)


def test_cd_kernels_agree_statistically(backend):
    """Both kernels drive CD to comparable fits (same estimator, different
    valid sampler) — guards against a vectorized chain that runs but samples
    from the wrong distribution."""
    data = generate_label_matrix(num_points=500, num_lfs=8, propensity=0.5, seed=3)
    scores = {}
    for kernel in ("reference", "vectorized"):
        model = GenerativeModel(method="cd", epochs=4, seed=0, gibbs_kernel=kernel).fit(
            data.label_matrix
        )
        scores[kernel] = model.score(data.label_matrix, data.gold_labels)
    assert scores["vectorized"] > 0.7
    assert abs(scores["reference"] - scores["vectorized"]) < 0.1, scores
