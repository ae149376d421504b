"""Sparse discriminative featurization: CSR features, equivalence, end model.

Mirrors the dense/sparse equivalence discipline of ``tests/test_sparse.py``:
the sparse batch-transform path must produce exactly the dense feature
values, every linear-algebra operation the end models use must agree with
its dense counterpart, and the noise-aware logistic regression must learn
the same weights from either storage.
"""

import numpy as np
import pytest
import scipy.sparse as scipy_sparse
from hypothesis import given, settings, strategies as st

from repro.context.candidates import Candidate, SentenceView, SpanView
from repro.discriminative import (
    CSRFeatureMatrix,
    HashingVectorizer,
    NoiseAwareLogisticRegression,
    RelationFeaturizer,
    as_float_features,
)
from repro.exceptions import ConfigurationError


def make_candidate(words, start1=0, end1=1, start2=None, end2=None, uid=0):
    start2 = len(words) - 2 if start2 is None else start2
    end2 = len(words) if end2 is None else end2
    return Candidate(
        uid=uid,
        span1=SpanView(words[start1], start1, end1, canonical_id="c1"),
        span2=SpanView(" ".join(words[start2:end2]), start2, end2, canonical_id="d1"),
        sentence=SentenceView(words=list(words), text=" ".join(words)),
    )


CANDIDATES = [
    make_candidate(["magnesium", "causes", "severe", "quake", "risk"], uid=0),
    make_candidate(["aspirin", "treats", "headache", "pain"], uid=1),
    make_candidate(["x", "y"], start1=0, end1=1, start2=1, end2=2, uid=2),
    make_candidate(["alpha", "beta", "gamma", "delta", "beta", "gamma"], uid=3),
]


# ------------------------------------------------------------------ transforms
def test_hashing_vectorizer_sparse_matches_dense(backend):
    vectorizer = HashingVectorizer(num_features=64).fit()
    sequences = [c.sentence.words for c in CANDIDATES]
    dense = vectorizer.transform(sequences)
    sparse = vectorizer.transform(sequences, sparse=True)
    assert isinstance(sparse, CSRFeatureMatrix)
    assert sparse.shape == dense.shape
    assert np.array_equal(sparse.toarray(), dense)
    # Zero-sum hash collisions are pruned, touched buckets are kept.
    assert sparse.nnz <= np.count_nonzero(dense) + 0  # no spurious entries
    assert sparse.nnz == np.count_nonzero(dense)


def test_relation_featurizer_sparse_matches_dense(backend):
    featurizer = RelationFeaturizer(num_features=128).fit()
    dense = featurizer.transform(CANDIDATES)
    sparse = featurizer.transform(CANDIDATES, sparse=True)
    assert sparse.shape == (len(CANDIDATES), featurizer.output_dim)
    assert np.array_equal(sparse.toarray(), dense)


def test_empty_transforms(backend):
    featurizer = RelationFeaturizer(num_features=32).fit()
    assert featurizer.transform([]).shape == (0, featurizer.output_dim)
    sparse = featurizer.transform([], sparse=True)
    assert sparse.shape == (0, featurizer.output_dim)
    assert sparse.nnz == 0
    vectorizer = HashingVectorizer(num_features=16).fit()
    assert vectorizer.transform([], sparse=True).shape == (0, 16)


# --------------------------------------------------------------------- algebra
def reference_matrix():
    featurizer = RelationFeaturizer(num_features=64).fit()
    return featurizer.transform(CANDIDATES), featurizer.transform(CANDIDATES, sparse=True)


def test_matvec_and_rmatvec(backend):
    dense, sparse = reference_matrix()
    rng = np.random.default_rng(0)
    w = rng.normal(size=dense.shape[1])
    v = rng.normal(size=dense.shape[0])
    assert np.allclose(sparse @ w, dense @ w)
    assert np.allclose(sparse.T @ v, dense.T @ v)
    assert sparse.T.shape == (dense.shape[1], dense.shape[0])


def test_row_selection(backend):
    dense, sparse = reference_matrix()
    idx = np.array([2, 0, 3])
    assert np.array_equal(sparse[idx].toarray(), dense[idx])
    mask = np.array([True, False, True, False])
    assert np.array_equal(sparse[mask].toarray(), dense[mask])


def test_shape_validation():
    with pytest.raises(ConfigurationError):
        CSRFeatureMatrix(np.array([0, 1]), np.array([5]), np.array([1.0]), (1, 3))
    with pytest.raises(ConfigurationError):
        CSRFeatureMatrix(np.array([0, 1, 1]), np.array([0]), np.array([1.0]), (1, 3))
    dense, sparse = reference_matrix()
    with pytest.raises(ConfigurationError):
        sparse @ np.zeros(3)
    with pytest.raises(ConfigurationError):
        sparse.rmatvec(np.zeros(3))


def test_constructor_rejects_malformed_csr():
    # Nothing downstream re-checks: the products and the row gather index
    # straight into the stored arrays.  Each of these constructed before.
    with pytest.raises(ConfigurationError, match="start at 0"):
        CSRFeatureMatrix([1, 2, 3], [0, 1, 0], [1.0, 2.0, 3.0], (2, 2))
    with pytest.raises(ConfigurationError, match="non-decreasing"):
        CSRFeatureMatrix([0, 2, 1, 3], [0, 1, 0], [1.0, 2.0, 3.0], (3, 2))
    for rows in ([0, 5], [-1, 0]):
        with pytest.raises(ConfigurationError, match="out of range"):
            CSRFeatureMatrix.from_triples(rows, [0, 1], [1.0, 2.0], (2, 2))


# ------------------------------------------- stored-array kernels vs scipy
@st.composite
def csr_cases(draw):
    """A CSR matrix with empty rows and explicit zeros, maybe 0 rows or 0 nnz."""
    m, d = draw(st.integers(0, 9)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    stored = rng.random((m, d)) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    stored[rng.random(m) < 0.3] = False  # empty rows
    rows, cols = np.nonzero(stored)
    values = np.where(rng.random(rows.size) < 0.2, 0.0, rng.standard_normal(rows.size))
    return CSRFeatureMatrix.from_triples(rows, cols, values, (m, d)), rng


def assert_same_csr(ours, theirs):
    theirs = theirs.tocsr()
    assert ours.shape == theirs.shape
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert np.array_equal(ours.data, theirs.data)
    entry_rows = np.repeat(np.arange(ours.shape[0]), np.diff(ours.indptr))
    assert np.array_equal(ours.entry_rows(), entry_rows)


@given(case=csr_cases(), data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_kernels_are_bitwise_scipys(case, data):
    matrix, rng = case
    oracle = matrix.to_scipy()
    m, d = matrix.shape
    w, v = rng.standard_normal(d), rng.standard_normal(m)
    assert np.array_equal(matrix @ w, oracle @ w)
    assert np.array_equal(matrix.T @ v, oracle.T @ v)
    assert np.array_equal(matrix.toarray(), oracle.toarray())

    picks = data.draw(st.lists(st.integers(-m, m - 1), max_size=12) if m else st.just([]))
    mask = rng.random(m) < 0.5
    for selector in (picks, np.array(picks, dtype=np.int32), mask, mask.tolist(), []):
        index = np.asarray(selector, dtype=bool if selector is mask else None)
        expected = oracle[np.flatnonzero(index) if index.dtype == bool else index.astype(int)]
        assert_same_csr(matrix[selector], expected)
        # A gathered block feeds the same kernels.
        assert np.array_equal(matrix[selector] @ w, expected @ w)
    if m:
        assert_same_csr(matrix[m - 1], oracle[[m - 1]])
        for bad in (m, -m - 1, [0, m]):
            with pytest.raises(IndexError):
                matrix[bad]

    start = data.draw(st.integers(0, m))
    stop = data.draw(st.integers(start, m))
    block = matrix.row_range(start, stop)
    assert_same_csr(block, oracle[start:stop])
    assert np.array_equal(block @ w, oracle[start:stop] @ w)
    assert np.array_equal(block.T @ v[start:stop], oracle[start:stop].T @ v[start:stop])

    parts = [matrix.row_range(0, start), block, matrix.row_range(stop, m), matrix[picks]]
    stacked = CSRFeatureMatrix.vstack(parts)
    assert_same_csr(stacked, scipy_sparse.vstack([part.to_scipy() for part in parts]))
    assert np.array_equal(stacked @ w, stacked.to_scipy() @ w)


def test_from_dense_round_trip(backend):
    dense, _ = reference_matrix()
    assert np.array_equal(CSRFeatureMatrix.from_dense(dense).toarray(), dense)


def test_as_float_features_dispatch(backend):
    dense, sparse = reference_matrix()
    assert as_float_features(sparse) is sparse
    out = as_float_features(dense.astype(np.float32))
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    converted = as_float_features(sparse.to_scipy())
    assert isinstance(converted, CSRFeatureMatrix)
    assert np.array_equal(converted.toarray(), dense)


# -------------------------------------------------------------------- end model
def test_logistic_regression_sparse_matches_dense(backend):
    dense, sparse = reference_matrix()
    rng = np.random.default_rng(1)
    soft = rng.random(dense.shape[0])
    dense_model = NoiseAwareLogisticRegression(epochs=4, seed=0).fit(dense, soft)
    sparse_model = NoiseAwareLogisticRegression(epochs=4, seed=0).fit(sparse, soft)
    assert np.allclose(dense_model.weights, sparse_model.weights, atol=1e-8)
    assert np.isclose(dense_model.bias, sparse_model.bias, atol=1e-8)
    assert np.allclose(
        dense_model.predict_proba(dense), sparse_model.predict_proba(sparse), atol=1e-8
    )


def test_mlp_densifies_sparse_features(backend):
    # Models without a sparse math path accept CSR inputs by densifying.
    from repro.discriminative import NoiseAwareMLP

    dense, sparse = reference_matrix()
    soft = np.random.default_rng(2).random(dense.shape[0])
    dense_model = NoiseAwareMLP(hidden_sizes=(8,), epochs=2, seed=0).fit(dense, soft)
    sparse_model = NoiseAwareMLP(hidden_sizes=(8,), epochs=2, seed=0).fit(sparse, soft)
    assert np.allclose(
        dense_model.predict_proba(dense), sparse_model.predict_proba(sparse), atol=1e-10
    )
