"""Sparse label-matrix backend: storage, dense/sparse equivalence, bugfixes.

The equivalence suite runs every consumer twice — once on dense storage,
once on CSR — and demands identical results: the EM fit and its
``predict_proba`` bit for bit (one kernel serves both storages, and is
itself checked against the naive oracle in ``reference_em.py`` to 1e-10),
structure selections, and every ``LabelMatrix`` statistic, including
all-abstain rows and empty-column edge cases.
"""

import numpy as np
import pytest
from reference_em import assert_matches_reference

from repro.datasets.synthetic import (
    generate_correlated_label_matrix,
    generate_label_matrix,
    generate_misspecification_example,
    stream_synthetic_candidates,
    synthetic_vote_lfs,
)
from repro.exceptions import LabelingError
from repro.labeling import LabelMatrix, LFAnalysis, LFApplier, SparseLabelMatrix
from repro.labelmodel import (
    GenerativeModel,
    MajorityVoter,
    StructureLearner,
    WeightedMajorityVoter,
    estimate_advantage_bound,
    modeling_advantage,
)
from repro.labelmodel.majority import MultiClassMajorityVoter
from repro.labelmodel.structure import _group_products, _spectral_norms_squared
from repro.types import ABSTAIN, NEGATIVE, POSITIVE


#: A small matrix exercising the edge cases: an all-abstain row (2), a row
#: with a single vote, and an empty column (2).
EDGE = np.array(
    [
        [1, -1, 0, 1],
        [0, 1, 0, -1],
        [0, 0, 0, 0],
        [-1, 0, 0, 0],
        [1, 1, 0, 1],
    ],
    dtype=np.int64,
)


# --------------------------------------------------------------------- storage
def test_roundtrip_and_counts(backend):
    storage = SparseLabelMatrix.from_dense(EDGE)
    assert storage.nnz == 9
    assert np.array_equal(storage.to_dense(), EDGE)
    assert storage.row_nnz().tolist() == [3, 2, 0, 1, 3]
    assert storage.col_nnz().tolist() == [3, 3, 0, 3]
    assert storage.count_per_row(POSITIVE).tolist() == [2, 1, 0, 0, 3]


def test_from_triples_any_order_and_errors(backend):
    rows, cols = np.nonzero(EDGE != ABSTAIN)
    vals = EDGE[rows, cols]
    shuffle = np.random.default_rng(0).permutation(rows.size)
    storage = SparseLabelMatrix.from_triples(
        rows[shuffle], cols[shuffle], vals[shuffle], EDGE.shape
    )
    assert np.array_equal(storage.to_dense(), EDGE)
    # Abstain triples are dropped, not stored.
    with_zeros = SparseLabelMatrix.from_triples([0, 0], [0, 1], [1, 0], (2, 2))
    assert with_zeros.nnz == 1
    with pytest.raises(LabelingError):
        SparseLabelMatrix.from_triples([0, 0], [1, 1], [1, -1], (2, 2))  # duplicate
    with pytest.raises(LabelingError):
        SparseLabelMatrix.from_triples([5], [0], [1], (2, 2))  # out of range


def test_canonical_triples_skip_the_sort_and_equal_their_shuffle():
    """The applier's merged triples arrive in strict (row, col) order and are
    not re-sorted; that path and the sorted one give identical arrays, and a
    repeat or a descent anywhere still takes the sort and its errors."""
    values = generate_label_matrix(num_points=300, num_lfs=7, propensity=0.4, seed=3)
    dense = values.label_matrix.values
    rows, cols = np.nonzero(dense)
    shuffle = np.random.default_rng(1).permutation(rows.size)
    canonical = SparseLabelMatrix.from_triples(rows, cols, dense[rows, cols], dense.shape)
    shuffled = SparseLabelMatrix.from_triples(
        rows[shuffle], cols[shuffle], dense[rows, cols][shuffle], dense.shape
    )
    for part in ("indptr", "indices", "data"):
        a, b = getattr(canonical, part), getattr(shuffled, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert np.array_equal(canonical.to_dense(), dense)
    swapped = SparseLabelMatrix.from_triples([0, 0, 1], [2, 1, 0], [1, -1, 1], (2, 3))
    assert swapped.indices.tolist() == [1, 2, 0]
    with pytest.raises(LabelingError, match="strictly increasing"):
        SparseLabelMatrix.from_triples([0, 1, 1], [0, 2, 2], [1, 1, -1], (2, 3))


def test_matvec_row_sums_and_csc(backend):
    storage = SparseLabelMatrix.from_dense(EDGE)
    weights = np.array([0.5, -1.5, 2.0, 0.25])
    assert np.allclose(storage.matvec(weights), EDGE @ weights)
    assert np.allclose(storage.row_sums(), EDGE.sum(axis=1))
    for j in range(EDGE.shape[1]):
        rows, vals = storage.column(j)
        expected = np.flatnonzero(EDGE[:, j] != ABSTAIN)
        assert rows.tolist() == expected.tolist()
        assert vals.tolist() == EDGE[expected, j].tolist()


def test_select_rows_and_columns(backend):
    storage = SparseLabelMatrix.from_dense(EDGE)
    rows = np.array([4, 0, 2])
    assert np.array_equal(storage.select_rows(rows).to_dense(), EDGE[rows])
    cols = np.array([3, 0])
    assert np.array_equal(storage.select_columns(cols).to_dense(), EDGE[:, cols])


def test_select_accepts_boolean_masks(backend):
    # Regression: a boolean mask must select rows like numpy fancy indexing,
    # not be cast to the integer index list [1, 1, 0, ...].
    storage = SparseLabelMatrix.from_dense(EDGE)
    row_mask = np.array([True, False, True, False, True])
    assert np.array_equal(storage.select_rows(row_mask).to_dense(), EDGE[row_mask])
    col_mask = np.array([True, False, False, True])
    assert np.array_equal(storage.select_columns(col_mask).to_dense(), EDGE[:, col_mask])
    with pytest.raises(LabelingError):
        storage.select_rows(np.array([True, False]))  # wrong mask length
    wrapped = LabelMatrix(EDGE).to_sparse()
    covered = wrapped.covered_rows()
    assert np.array_equal(wrapped.select_rows(covered).values, EDGE[covered])


def test_scipy_interop():
    sp = pytest.importorskip("scipy.sparse")

    storage = SparseLabelMatrix.from_scipy(sp.csr_matrix(EDGE))
    assert np.array_equal(storage.to_dense(), EDGE)
    assert np.array_equal(storage.to_scipy().toarray(), EDGE)
    # LabelMatrix accepts scipy matrices directly.
    wrapped = LabelMatrix(sp.coo_matrix(EDGE))
    assert wrapped.is_sparse
    assert np.array_equal(wrapped.values, EDGE)


# ------------------------------------------------------------------- wrapper
def test_label_matrix_statistics_match(backend):
    dense = LabelMatrix(EDGE)
    sparse = dense.to_sparse()
    assert sparse.is_sparse and not dense.is_sparse
    assert sparse.to_dense().is_sparse is False
    assert sparse.to_dense().csr is sparse.csr  # a dense view keeps its entries
    assert sparse.shape == dense.shape
    assert sparse.label_density() == pytest.approx(dense.label_density())
    assert sparse.coverage() == pytest.approx(dense.coverage())
    assert np.allclose(sparse.lf_coverage(), dense.lf_coverage())
    assert sparse.class_balance() == dense.class_balance()
    assert sparse.lf_polarity() == dense.lf_polarity()
    for label in (POSITIVE, NEGATIVE):
        assert np.array_equal(sparse.vote_counts(label), dense.vote_counts(label))
    assert np.allclose(sparse.row_sums(), dense.row_sums())
    assert np.array_equal(sparse.values, dense.values)
    assert np.array_equal(sparse.column("lf_1"), dense.column("lf_1"))
    assert np.array_equal(sparse[1], dense[1])


def test_dense_held_applier_output_is_never_lowered(monkeypatch):
    """Λ is built from the engine's triples; the dense-held matrix the applier
    (and so the pipeline default) returns carries them to every consumer."""
    lowered = []
    from_dense = SparseLabelMatrix.from_dense.__func__
    monkeypatch.setattr(
        SparseLabelMatrix,
        "from_dense",
        classmethod(lambda cls, dense: lowered.append(1) or from_dense(cls, dense)),
    )
    candidates = list(stream_synthetic_candidates(num_points=80, num_lfs=4, propensity=0.5, seed=3))
    for source in (candidates, iter(candidates)):
        matrix = LFApplier(synthetic_vote_lfs(4), chunk_size=32).apply(source)
        assert not matrix.is_sparse and not matrix.values.flags.writeable
        GenerativeModel(epochs=3, seed=0).fit(matrix).predict_proba(matrix)
        LFAnalysis(matrix).summary()
        assert np.array_equal(matrix.csr.to_dense(), matrix.values)
    assert lowered == []
    LabelMatrix(matrix.values).csr  # the counter does see a lowering
    assert lowered == [1]


def test_label_matrix_slicing_preserves_storage(backend):
    sparse = LabelMatrix(EDGE).to_sparse()
    rows = sparse.select_rows([0, 3, 4])
    assert rows.is_sparse
    assert np.array_equal(rows.values, EDGE[[0, 3, 4]])
    lfs = sparse.select_lfs(["lf_3", "lf_0"])
    assert lfs.is_sparse
    assert np.array_equal(lfs.values, EDGE[:, [3, 0]])
    assert lfs.lf_names == ["lf_3", "lf_0"]


def test_label_matrix_array_is_immutable_by_contract():
    # Pins the contract in repro/labeling/matrix.py: the wrapper's view is
    # read-only, an int64 array is wrapped without a copy, and the lowering
    # is kept — so a write to the caller's own array is unsupported (it is
    # not seen), and wrapping a copy is the way to keep editing.
    array = np.array([[1, 0, -1], [0, 1, 1]], dtype=np.int64)
    matrix = LabelMatrix(array)
    with pytest.raises(ValueError, match="read-only"):
        matrix.values[0, 0] = -1
    assert np.shares_memory(matrix.values, array) and array.flags.writeable
    assert matrix.csr is matrix.csr
    detached = LabelMatrix(array.copy())
    before = detached.label_density()
    array[0, 1] = 1
    assert detached.label_density() == before
    assert np.array_equal(detached.csr.to_dense(), detached.values)


def test_sparse_label_validation(backend):
    bad = SparseLabelMatrix.from_triples([0], [0], [2], (2, 2))
    with pytest.raises(LabelingError):
        LabelMatrix(bad)  # 2 is outside the binary vocabulary
    LabelMatrix(bad, cardinality=3)  # but fine for a 3-class task


@pytest.mark.parametrize("indices", [[1, 1], [1, 0]], ids=["repeated", "descending"])
def test_non_canonical_csr_rows_are_rejected(indices):
    # Repeated column ids used to build with nnz == 2 and lose a vote in
    # to_dense(); descending ones broke every sorted-slice consumer silently.
    with pytest.raises(LabelingError, match="row 1 repeats or descends at column"):
        SparseLabelMatrix([0, 1, 3], [0] + indices, [1, 1, -1], (2, 2))
    # Column ids restart at row boundaries, empty rows included.
    SparseLabelMatrix([0, 2, 2, 4], [0, 1, 0, 1], [1, -1, 1, 1], (3, 2))


def test_from_sparse_classmethod(backend):
    storage = SparseLabelMatrix.from_dense(EDGE)
    wrapped = LabelMatrix(storage, lf_names=list("abcd"))
    assert wrapped.is_sparse
    assert wrapped.lf_names == list("abcd")


# ----------------------------------------------------------- model equivalence
@pytest.fixture(scope="module")
def correlated_data():
    return generate_correlated_label_matrix(
        num_points=900, num_independent=6, num_groups=4, group_size=3,
        propensity=0.3, seed=0,
    )


def test_em_dense_sparse_equivalence(backend, correlated_data):
    dense = correlated_data.label_matrix
    sparse = dense.to_sparse()
    pairs = correlated_data.correlated_pairs
    for correlations, balance in (((), None), (pairs, None), (pairs, 0.3)):
        dense_model = GenerativeModel(epochs=15, class_balance=balance, seed=0).fit(
            dense, correlations=correlations
        )
        sparse_model = GenerativeModel(epochs=15, class_balance=balance, seed=0).fit(
            sparse, correlations=correlations
        )
        # Both storages are lowered to the same kernel entries: bitwise equal.
        assert np.array_equal(
            dense_model.predict_proba(dense), sparse_model.predict_proba(sparse)
        )
        assert np.array_equal(
            dense_model.learned_accuracies(), sparse_model.learned_accuracies()
        )
        assert np.array_equal(dense_model.weights, sparse_model.weights)
        assert dense_model.class_prior_weight_ == sparse_model.class_prior_weight_
        # Cross-storage scoring also agrees.
        assert np.array_equal(
            dense_model.predict_proba(sparse), dense_model.predict_proba(dense)
        )
        # ... and the one kernel agrees with the independent naive oracle.
        assert_matches_reference(
            sparse_model, dense.values, 2,
            correlations=correlations, class_balance=balance, epochs=15,
        )


def test_em_equivalence_with_edge_rows_and_columns(backend):
    # All-abstain rows and an entirely empty column must not diverge.
    dense = LabelMatrix(EDGE)
    sparse = dense.to_sparse()
    dense_model = GenerativeModel(epochs=10, seed=0).fit(dense)
    sparse_model = GenerativeModel(epochs=10, seed=0).fit(sparse)
    assert np.array_equal(
        dense_model.predict_proba(dense), sparse_model.predict_proba(sparse)
    )
    assert np.array_equal(dense_model.weights, sparse_model.weights)
    assert_matches_reference(sparse_model, EDGE, 2, epochs=10)


def test_structure_dense_sparse_equivalence(backend, correlated_data):
    dense = correlated_data.label_matrix
    sparse = dense.to_sparse()
    dense_learner = StructureLearner(seed=0).fit(dense)
    sparse_learner = StructureLearner(seed=0).fit(sparse)
    assert np.allclose(
        dense_learner.dependency_weights_, sparse_learner.dependency_weights_, atol=1e-10
    )
    for threshold in (0.05, 0.1, 0.3):
        assert dense_learner.select(threshold) == sparse_learner.select(threshold)


def test_majority_and_advantage_equivalence(backend, correlated_data):
    dense = correlated_data.label_matrix
    sparse = dense.to_sparse()
    gold = correlated_data.gold_labels
    assert np.allclose(
        MajorityVoter().predict_proba(dense), MajorityVoter().predict_proba(sparse)
    )
    assert np.array_equal(
        MajorityVoter().predict(dense), MajorityVoter().predict(sparse)
    )
    weights = np.linspace(0.2, 1.2, dense.num_lfs)
    wmv = WeightedMajorityVoter(weights)
    assert np.allclose(wmv.predict_proba(dense), wmv.predict_proba(sparse), atol=1e-12)
    assert estimate_advantage_bound(dense) == pytest.approx(
        estimate_advantage_bound(sparse), abs=1e-12
    )
    assert modeling_advantage(dense, gold, weights) == pytest.approx(
        modeling_advantage(sparse, gold, weights), abs=1e-12
    )


def test_multiclass_majority_sparse(backend):
    matrix = np.array([[1, 1, 2], [0, 3, 3], [0, 0, 0]])
    sparse = LabelMatrix(matrix, cardinality=3).to_sparse()
    voter = MultiClassMajorityVoter(cardinality=3)
    assert np.array_equal(voter.predict(matrix), voter.predict(sparse))
    assert np.allclose(voter.predict_proba(matrix), voter.predict_proba(sparse))


# ------------------------------------------------------------------ generators
def test_synthetic_generators_sparse_option(backend):
    dense = generate_label_matrix(num_points=300, num_lfs=8, propensity=0.1, seed=4)
    sparse = generate_label_matrix(num_points=300, num_lfs=8, propensity=0.1, seed=4, sparse=True)
    assert sparse.label_matrix.is_sparse
    assert np.array_equal(dense.label_matrix.values, sparse.label_matrix.values)
    assert np.array_equal(dense.gold_labels, sparse.gold_labels)
    corr = generate_correlated_label_matrix(num_points=100, seed=1, sparse=True)
    assert corr.label_matrix.is_sparse
    mis = generate_misspecification_example(num_points=100, seed=1, sparse=True)
    assert mis.label_matrix.is_sparse


# ------------------------------------------------------------------- bugfixes
def test_em_reestimates_class_balance():
    # 80% of the covered rows receive only positive votes; with the balance
    # re-estimated each iteration the recorded class-prior weight is positive,
    # and fixing a small balance pulls it negative.
    matrix = np.array([[1, 1, 0]] * 80 + [[0, -1, -1]] * 20)
    free = GenerativeModel(epochs=10, seed=0).fit(matrix)
    assert free.class_prior_weight_ > 0.0
    fixed = GenerativeModel(epochs=10, class_balance=0.05, seed=0).fit(matrix)
    assert fixed.class_prior_weight_ == pytest.approx(0.5 * np.log(0.05 / 0.95))
    assert free.predict_proba(matrix).mean() > fixed.predict_proba(matrix).mean()
    # The estimated prior calibrates rows with no evidence: an all-abstain row
    # now scores at the estimated balance instead of an uninformative 0.5,
    # while covered rows keep their evidence-only posterior.
    with_empty = np.vstack([matrix, [[0, 0, 0]]])
    probs = free.predict_proba(with_empty)
    implied_balance = 1.0 / (1.0 + np.exp(-2.0 * free.class_prior_weight_))
    assert probs[-1] == pytest.approx(implied_balance)
    assert probs[-1] > 0.5
    # A supplied balance shifts every row (the seed semantics).
    assert fixed.predict_proba(with_empty)[-1] == pytest.approx(0.05)


def test_em_estimated_balance_does_not_collapse_on_imbalanced_data():
    # Regression: estimating the balance from prior-shifted posteriors is a
    # positive-feedback loop that runs away to the all-negative solution on
    # imbalanced matrices (probabilities -> 0, F1 -> 0).  The stable
    # estimator must track the evidence instead.
    data = generate_label_matrix(
        num_points=2000, num_lfs=20, accuracy=0.75, propensity=0.3,
        class_balance=0.25, seed=0,
    )
    model = GenerativeModel(epochs=30, seed=0).fit(data.label_matrix)
    balance = 1.0 / (1.0 + np.exp(-2.0 * model.class_prior_weight_))
    assert 0.1 < balance < 0.45  # near the true 0.25, far from the 1e-3 clip
    # Covered rows keep their evidence-only posterior: predictions stay sane.
    accuracy = model.score(data.label_matrix, data.gold_labels)
    assert accuracy > 0.7


def test_structure_learner_seed_is_threaded():
    features = np.random.default_rng(3).standard_normal((40, 6))
    products = _group_products(features, np.array([40]))

    def estimate(seed):
        start = StructureLearner(seed=seed)._start_vectors(1, 6)
        return float(_spectral_norms_squared(*products, start, iterations=1)[0])

    one, two = estimate(1), estimate(2)
    assert one != two  # different starting vectors actually reach the estimate
    assert one == pytest.approx(estimate(1))
    data = generate_correlated_label_matrix(num_points=300, seed=1)
    first = StructureLearner(seed=7).fit(data.label_matrix).dependency_weights_
    second = StructureLearner(seed=7).fit(data.label_matrix).dependency_weights_
    assert np.array_equal(first, second)
    # A Generator seed is accepted too.
    StructureLearner(seed=np.random.default_rng(0)).fit(data.label_matrix)


def test_structure_proxy_excludes_own_vote():
    # Two always-voting, independent LFs.  With the old leaky proxy
    # (sign of the row sum INCLUDING LF j), the pair (v1, proxy) determines
    # v0 exactly — proxy==0 implies v0 == -v1 — so the node-wise regression
    # reached perfect separation through the dependency coefficient and
    # inflated the pair's score.  Excluding the own vote removes the leak and
    # the independent pair scores near zero.
    rng = np.random.default_rng(0)
    matrix = np.where(rng.random((2000, 2)) < 0.5, 1, -1).astype(np.int64)
    learner = StructureLearner(seed=0).fit(matrix)
    assert learner.pair_scores()[(0, 1)] < 0.1


def test_structure_proxy_still_finds_planted_pairs():
    data = generate_correlated_label_matrix(
        num_points=1000, num_independent=4, num_groups=3, group_size=2,
        propensity=0.5, copy_probability=0.95, seed=3,
    )
    scores = StructureLearner(seed=0).fit(data.label_matrix).pair_scores()
    planted = np.mean([scores[pair] for pair in data.correlated_pairs])
    others = np.mean(
        [score for pair, score in scores.items() if pair not in set(data.correlated_pairs)]
    )
    assert planted > others
