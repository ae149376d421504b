"""The shared sparse primitives, and the label model's inert sampler keywords.

* ``intersect_sorted`` and ``ranges_gather`` are the alignment and gather
  primitives the EM correlation discounts, column selection and the
  structure learner's design assembly run on.
* ``GenerativeModel`` accepts ``gibbs_kernel``, ``step_size`` and ``seed``
  for callers written against the sampled estimator and ignores them: EM
  draws nothing, so every value yields the same fit bit for bit.
"""

import numpy as np

from repro.datasets.synthetic import (
    generate_label_matrix,
    generate_multiclass_label_matrix,
)
from repro.labeling.sparse import intersect_sorted, ranges_gather
from repro.labelmodel.generative import GenerativeModel


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


# ------------------------------------------------------------ inert keywords
def test_em_deterministic_outputs_bit_identical_between_kernels(backend):
    for matrix in (_binary_task(), _categorical_task()):
        for storage in (matrix, matrix.to_sparse()):
            plain = GenerativeModel(epochs=8).fit(storage, correlations=[(0, 1)])
            tuned = GenerativeModel(
                epochs=8, seed=7, step_size=0.3, gibbs_kernel="reference"
            ).fit(storage, correlations=[(0, 1)])
            assert np.array_equal(plain.weights, tuned.weights)
            assert plain.class_prior_weight_ == tuned.class_prior_weight_
            assert np.array_equal(plain.predict_proba(storage), tuned.predict_proba(storage))
