"""Sparse discriminative featurization: CSR features, equivalence, end model.

Mirrors the dense/sparse equivalence discipline of ``tests/test_sparse.py``:
the sparse batch-transform path must produce exactly the dense feature
values, every linear-algebra operation the end models use must agree with
its dense counterpart, and the noise-aware logistic regression must learn
the same weights from either storage.
"""

import numpy as np
import pytest

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
    # The malformed-CSR table both containers share is tests/test_csr_core.py;
    # here, that the operator spellings raise this class's error too.
    dense, sparse = reference_matrix()
    with pytest.raises(ConfigurationError):
        sparse @ np.zeros(3)
    with pytest.raises(ConfigurationError):
        sparse.T @ np.zeros(3)


def test_constructor_rejects_malformed_csr():
    # from_triples is this class's own front door (row-major triples).
    for rows in ([0, 5], [-1, 0]):
        with pytest.raises(ConfigurationError, match="out of range"):
            CSRFeatureMatrix.from_triples(rows, [0, 1], [1.0, 2.0], (2, 2))
    with pytest.raises(ConfigurationError, match="non-decreasing"):
        CSRFeatureMatrix.from_triples([1, 0], [0, 1], [1.0, 2.0], (2, 2))


def test_kernels_are_bitwise_scipys():
    # The kernels are held to scipy's answers on generated matrices, for this
    # class and SparseLabelMatrix at once, in tests/test_csr_core.py; what is
    # this class's own is their operator spelling.
    pytest.importorskip("scipy.sparse")
    dense, sparse = reference_matrix()
    oracle = sparse.to_scipy()
    rng = np.random.default_rng(0)
    w, v = rng.standard_normal(dense.shape[1]), rng.standard_normal(dense.shape[0])
    assert sparse.ndim == 2
    assert np.array_equal(sparse @ w, oracle @ w)
    assert np.array_equal(sparse.T @ v, oracle.T @ v)
    assert np.array_equal(sparse.toarray(), oracle.toarray())
    picked = sparse[[2, 0, -1, 2]]
    assert isinstance(picked, CSRFeatureMatrix)
    assert np.array_equal(picked.toarray(), oracle[[2, 0, -1, 2]].toarray())
    assert np.array_equal(sparse[1].toarray(), dense[[1]])
    with pytest.raises(IndexError):
        sparse[len(dense)]


def test_from_dense_round_trip(backend):
    dense, _ = reference_matrix()
    assert np.array_equal(CSRFeatureMatrix.from_dense(dense).toarray(), dense)


def test_as_float_features_dispatch(backend):
    dense, sparse = reference_matrix()
    assert as_float_features(sparse) is sparse
    out = as_float_features(dense.astype(np.float32))
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    pytest.importorskip("scipy.sparse")
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
