"""The one CSR core (``repro/utils/csr.py``), held for both typed subclasses.

* a hypothesis differential: every shared kernel of ``SparseLabelMatrix``
  and ``CSRFeatureMatrix`` against ``to_scipy()``'s answer, bit for bit, on
  generated matrices with empty rows and columns, zero rows, boolean masks,
  negative and repeated indices;
* narrow blocks: a ``CSRFeatureMatrix`` carrying the int column ids and
  values ``narrowed`` gives (as ``from_chunk`` builds them and a
  checkpointed run loads them) computes, carves and stacks byte for byte
  like its widened twin, and reaches scipy widened;
* the malformed-input table, once, for both (each subclass raises its own
  exception and names its own columns);
* a subprocess that forbids ``import scipy`` and then drives the pipeline,
  the online model, structure learning, the optimizer, CD under both kernels
  and Dawid–Skene: nothing on those paths may even try the import.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.discriminative import CSRFeatureMatrix
from repro.exceptions import ConfigurationError, LabelingError
from repro.labeling import SparseLabelMatrix
from repro.labeling.blockstore import BlockStore, ChunkCheckpointer
from repro.labeling.engine.accumulator import ChunkResult
from repro.utils.csr import narrowed

BOTH = pytest.mark.parametrize(
    "cls, error, columns",
    [
        (SparseLabelMatrix, LabelingError, "labeling functions"),
        (CSRFeatureMatrix, ConfigurationError, "features"),
    ],
    ids=["labels", "features"],
)


def make_case(cls, m, d, density, seed):
    """A matrix with empty rows and columns; features also store explicit zeros."""
    rng = np.random.default_rng(seed)
    stored = rng.random((m, d)) < density
    stored[rng.random(m) < 0.3] = False
    stored[:, rng.random(d) < 0.2] = False
    rows, cols = np.nonzero(stored)
    if cls is SparseLabelMatrix:
        values = rng.choice([-1, 1, 2, 3], size=rows.size)
    else:
        values = np.where(rng.random(rows.size) < 0.2, 0.0, rng.standard_normal(rows.size))
    return cls.from_triples(rows, cols, values, (m, d)), rng


def assert_same_csr(ours, theirs):
    theirs = theirs.tocsr()
    assert ours.shape == theirs.shape
    assert ours.data.dtype == theirs.data.dtype
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert np.array_equal(ours.data, theirs.data)
    entry_rows = np.repeat(np.arange(ours.shape[0]), np.diff(ours.indptr))
    assert np.array_equal(ours.entry_rows(), entry_rows)


@BOTH
@given(
    m=st.integers(0, 9),
    d=st.integers(1, 7),
    density=st.sampled_from([0.0, 0.3, 0.8]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_core_is_bitwise_scipys(cls, error, columns, m, d, density, seed, data):
    scipy_sparse = pytest.importorskip("scipy.sparse")
    matrix, rng = make_case(cls, m, d, density, seed)
    oracle = matrix.to_scipy()
    w, v = rng.standard_normal(d), rng.standard_normal(m)
    assert np.array_equal(matrix.matvec(w), oracle @ w)
    assert np.array_equal(matrix.rmatvec(v), oracle.T @ v)
    dense = matrix.to_dense()
    assert dense.dtype == oracle.dtype and np.array_equal(dense, oracle.toarray())
    assert matrix.nnz == oracle.nnz

    picks = data.draw(st.lists(st.integers(-m, m - 1), max_size=12) if m else st.just([]))
    mask = rng.random(m) < 0.5
    for selector in (picks, np.array(picks, dtype=np.int32), mask, mask.tolist(), []):
        index = np.asarray(selector, dtype=bool if selector is mask else None)
        expected = oracle[np.flatnonzero(index) if index.dtype == bool else index.astype(int)]
        gathered = matrix.select_rows(selector)
        assert type(gathered) is cls
        assert_same_csr(gathered, expected)
        # A gathered block feeds the same kernels.
        assert np.array_equal(gathered.matvec(w), expected @ w)
    with pytest.raises(error, match="boolean index mask must have length"):
        matrix.select_rows(np.ones(m + 1, dtype=bool))
    with pytest.raises(IndexError):
        matrix.select_rows(np.zeros((1, 1), dtype=int))
    if m:
        assert_same_csr(matrix.select_rows(m - 1), oracle[[m - 1]])
        for bad in (m, -m - 1, [0, m]):
            with pytest.raises(IndexError):
                matrix.select_rows(bad)

    start = data.draw(st.integers(0, m))
    stop = data.draw(st.integers(start, m))
    block = matrix.row_range(start, stop)
    assert_same_csr(block, oracle[start:stop])
    assert np.array_equal(block.matvec(w), oracle[start:stop] @ w)
    assert np.array_equal(block.rmatvec(v[start:stop]), oracle[start:stop].T @ v[start:stop])
    with pytest.raises(error, match="row range"):
        matrix.row_range(stop + 1, stop)

    rest = matrix.row_range(stop, m)
    parts = [matrix.row_range(0, start), block, rest, matrix.select_rows(picks)]
    stacked = cls.vstack(parts)
    assert type(stacked) is cls
    assert_same_csr(stacked, scipy_sparse.vstack([part.to_scipy() for part in parts]))
    assert np.array_equal(stacked.matvec(w), stacked.to_scipy() @ w)

    if cls is SparseLabelMatrix:
        # Repeats, reordering, negative ids and masks: the canonical matrix
        # scipy's own column indexing gives.
        col_picks = data.draw(st.lists(st.integers(-d, d - 1), max_size=9))
        col_mask = rng.random(d) < 0.5
        for selector in (col_picks, col_mask, []):
            index = np.asarray(selector, dtype=bool if selector is col_mask else int)
            expected = SparseLabelMatrix.from_scipy(oracle[:, index])
            assert_same_csr(matrix.select_columns(selector), expected.to_scipy())
        with pytest.raises(IndexError):
            matrix.select_columns([d])
        with pytest.raises(LabelingError, match="boolean index mask must have length"):
            matrix.select_columns(np.ones(d + 1, dtype=bool))


def narrow_twin(wide, dtypes=None):
    """``wide`` as a checkpointed run holds a stored feature block: column
    ids and values in the store's narrowed dtypes (or in ``dtypes``)."""
    indices, data = (
        (narrowed(wide.indices), narrowed(wide.data))
        if dtypes is None
        else (wide.indices.astype(dtypes[0]), wide.data.astype(dtypes[1]))
    )
    return CSRFeatureMatrix._carved(wide.indptr.copy(), indices, data, wide.shape)


def widened(matrix):
    return (
        matrix.shape,
        matrix.indptr.tobytes(),
        matrix.indices.astype(np.int64).tobytes(),
        matrix.data.astype(np.float64).tobytes(),
    )


@given(
    m=st.integers(0, 12),
    d=st.sampled_from([1, 5, 100, 300]),
    density=st.sampled_from([0.0, 0.3, 0.8]),
    scale=st.sampled_from([3, 300, 70_000]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_narrow_stored_blocks_compute_like_their_widened_twins(m, d, density, scale, seed, data):
    """Every kernel the end-model trainer reaches gathers, multiplies or
    assigns into float64, which holds any stored integer exactly: a block
    over narrow arrays answers byte for byte like the wide block."""
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((m, d)) < density, rng.integers(-scale, scale + 1, (m, d)), 0)
    wide = CSRFeatureMatrix.from_dense(dense.astype(np.float64))
    narrow = narrow_twin(wide)
    if wide.nnz:
        assert narrow.indices.itemsize < 8 and narrow.data.dtype.kind == "i"
    w, v = rng.standard_normal(d), rng.standard_normal(m)
    assert narrow.matvec(w).tobytes() == wide.matvec(w).tobytes()
    assert narrow.rmatvec(v).tobytes() == wide.rmatvec(v).tobytes()
    assert narrow.to_dense().tobytes() == wide.to_dense().tobytes()

    start = data.draw(st.integers(0, m))
    stop = data.draw(st.integers(start, m))
    assert widened(narrow.row_range(start, stop)) == widened(wide.row_range(start, stop))
    picks = data.draw(st.lists(st.integers(-m, m - 1), max_size=12) if m else st.just([]))
    mask = rng.random(m) < 0.5
    for selector in (picks, mask):
        gathered = narrow.select_rows(selector)
        assert widened(gathered) == widened(wide.select_rows(selector))
        assert gathered.matvec(w).tobytes() == wide.select_rows(selector).matvec(w).tobytes()
    kept = np.flatnonzero(mask)
    shrunk, reference = narrow_twin(wide).keep_rows(kept), wide.select_rows(kept)
    assert widened(shrunk) == widened(reference)
    assert shrunk.rmatvec(v[kept]).tobytes() == reference.rmatvec(v[kept]).tobytes()

    # Blocks whose stored dtypes differ (and a block kept wide, as a run
    # that lost its store mid-pass holds one) stack like their wide twins.
    cut = data.draw(st.integers(0, m))
    wide_parts = [wide.row_range(0, cut), wide.row_range(cut, m), wide.row_range(0, m)]
    narrow_parts = [
        narrow_twin(wide_parts[0], (np.int16, np.int8 if scale < 128 else np.int32)),
        narrow_twin(wide_parts[1], (np.int32, np.int32)),
        wide_parts[2],
    ]
    stacked = CSRFeatureMatrix.vstack(narrow_parts)
    assert widened(stacked) == widened(CSRFeatureMatrix.vstack(wide_parts))
    assert stacked.matvec(w).tobytes() == CSRFeatureMatrix.vstack(wide_parts).matvec(w).tobytes()


@BOTH
def test_dense_round_trip_and_scipy_view_share_memory(cls, error, columns):
    pytest.importorskip("scipy.sparse")
    dense = np.array([[0, 2, 0], [0, 0, 0], [1, 0, 3]])
    matrix = cls.from_dense(dense)
    assert matrix.nnz == 3 and np.array_equal(matrix.to_dense(), dense)
    assert np.shares_memory(matrix.to_scipy().data, matrix.data)
    with pytest.raises(error, match="must be 2-D"):
        cls.from_dense(np.arange(3))


def test_scipy_view_of_a_stored_block_widens_its_narrow_values(tmp_path):
    """scipy keeps int8 data int8 through its products, so a block read back
    narrow from a store reaches scipy in float64: the Gram entry of a row
    ``[100, 100]`` is 20000, not the 32 int8 wraps it to."""
    pytest.importorskip("scipy.sparse")
    features = ChunkResult(0, 0, 1, np.zeros(2, np.int64), np.array([3, 7]), np.full(2, 100.0))
    with BlockStore(str(tmp_path / "store")) as store:
        checkpoint = ChunkCheckpointer(store, "train")
        checkpoint.record(ChunkResult(0, 0, 1, *[np.zeros(0, np.int64)] * 3, features=features))
        [block] = checkpoint.feature_blocks(1, 16, {})
    assert block.data.dtype == np.int8
    view = block.to_scipy()
    assert view.dtype == np.float64
    assert (view @ view.T).toarray().tolist() == [[20000.0]]


MALFORMED = [
    # (indptr, indices, data, shape), message
    (([0, 1, 1], [0], [1], (1, 3)), "indptr must have length 2 for 1 rows"),
    (([1, 2, 3], [0, 1, 0], [1, 2, 3], (2, 2)), "indptr must start at 0"),
    (([0, 2, 1, 3], [0, 1, 0], [1, 2, 3], (3, 2)), "non-decreasing"),
    (([0, 2], [0], [1], (1, 2)), "indices/data must have length 2"),
    (([0, 1], [0], [1, 1], (1, 2)), "indices/data must have length 1"),
    (([0, 1], [5], [1], (1, 3)), "column indices out of range for 3 {columns}"),
    (([0, 1], [-1], [1], (1, 3)), "column indices out of range for 3 {columns}"),
]


@BOTH
@pytest.mark.parametrize("arrays, message", MALFORMED)
def test_constructor_rejects_malformed_csr(cls, error, columns, arrays, message):
    # Nothing downstream re-checks: the products and the row gather index
    # straight into the stored arrays.
    with pytest.raises(error, match=message.format(columns=columns)):
        cls(*arrays)


@BOTH
def test_product_and_stack_shapes_are_checked(cls, error, columns):
    matrix = cls.from_dense(np.eye(2, 3))
    with pytest.raises(error, match="expected 3 weights"):
        matrix.matvec(np.zeros(2))
    with pytest.raises(error, match="expected 2 values"):
        matrix.rmatvec(np.zeros(3))
    with pytest.raises(error, match="at least one block"):
        cls.vstack([])
    with pytest.raises(error, match="widths 3 and 2"):
        cls.vstack([matrix, cls.from_dense(np.eye(2))])


NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # from here on any `import scipy[.x]` raises ImportError

import numpy as np
from repro.datasets.synthetic import (
    generate_label_matrix, generate_multiclass_label_matrix,
    stream_text_candidates, stream_text_gold, text_vote_lfs,
)
from repro.labelmodel import (
    DawidSkeneModel, GenerativeModel, ModelingStrategyOptimizer,
    OnlineGenerativeModel, StructureLearner,
)
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

for k in (2, 3):
    config = PipelineConfig(chunk_size=64, generative_epochs=4, discriminative_epochs=2)
    result = SnorkelPipeline(config=config).run_streams(
        stream_text_candidates(200, num_lfs=6, cardinality=k, seed=0),
        stream_text_candidates(60, num_lfs=6, cardinality=k, seed=1),
        stream_text_gold(60, cardinality=k, seed=1),
        lfs=text_vote_lfs(6, cardinality=k),
    )
    assert result.label_matrix.cardinality == k and result.generative_model is not None

binary = generate_label_matrix(num_points=300, num_lfs=6, propensity=0.4, seed=0).label_matrix
ternary = generate_multiclass_label_matrix(
    num_points=300, num_lfs=6, cardinality=3, propensity=0.5, seed=0
).label_matrix

online = OnlineGenerativeModel(cardinality=2, epochs=4, seed=0)
online.update(binary.values[:150])
online.update(binary.to_sparse().select_rows(np.arange(150, 300)))
online.add_lf(binary.values[:, 0])
online.remove_lf(1)
online.drain().predict_proba(binary.values[:, [0, 2, 3, 4, 5, 0]])

StructureLearner(seed=0).fit(binary)
ModelingStrategyOptimizer().choose(binary.to_sparse())
for matrix in (binary, ternary.to_sparse()):
    GenerativeModel(epochs=1).fit(matrix, correlations=[(0, 1)]).predict_proba(matrix)
DawidSkeneModel(3).fit(ternary).predict_proba(ternary.to_sparse())
DawidSkeneModel(2).fit(binary.values).predict()

try:
    binary.csr.to_scipy()
except ImportError:
    pass
else:
    raise SystemExit("the scipy ban did not take")
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy" and name != "scipy")
assert not loaded, loaded
print("ran without scipy")
"""


def test_no_path_tries_to_import_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(NO_SCIPY_SCRIPT)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("ran without scipy")
