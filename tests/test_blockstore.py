"""The crash-safe block store: durability, recovery, and the checkpointers.

What this suite pins down:

* **Round trips** — named arrays (any dtype, byte order, layout or shape,
  including empty and 0-d) and pickled objects come back byte-identical
  and read-only, in their original dtype, though the block holds each
  int or float array in the narrowest signed int dtype that keeps it
  bit-exact (a fused chunk block is at most a quarter of its arrays'
  bytes).
* **Recovery** — the store is one append-only log of records that check
  themselves (length, crc32 trailer, magic, header, key): opening a store
  keeps the log's longest valid prefix, so a torn or corrupted record and
  every record after it are dropped, as is a record of another format;
  the log, ``blockstore.log``, shares its directory with the caller's
  files, so an open removes only a rewrite's temp file and no other file
  beside the log is read or touched, through any put, delete, clear or
  rewrite (a file named ``log``, an old store's ``index.jsonl`` and the
  previous layout's ``blocks/`` directory included, which reopens
  empty); what survives recovery is exactly what was durably
  committed, also after a generated sequence of puts and deletes whose
  last record is damaged.
* **Durability cost** — a store in an existing directory creates no
  directory, a put is one fsync of the log (the store's first put adds
  one of the directory), the log keeps disk reserved ahead of its
  end without growing, opening a clean store and reading make no
  fsync, rename or unlink, ``clear`` rewrites a non-empty log durably and
  leaves an empty or absent one untouched, a fresh checkpointed pipeline
  run makes puts + 1 fsyncs and no rename or unlink while its replay makes
  none, and a crashed then resumed run creates one file and no
  directory.
* **Reclamation** — ``delete`` is durable, an epoch-stamped put drops the
  superseded epochs of its family (so do opens, after a kill between the
  put and the drop), same-key churn keeps the log within twice its live
  bytes plus one record, and views served before a rewrite keep their
  bytes.
* **Checkpointers** — ``ChunkCheckpointer`` records chunk results whose
  label triples ``replay`` and feature blocks ``feature_blocks`` bring
  back losslessly, and degrades with one warning on a full disk;
  ``EpochCheckpoint`` snapshots end-model training state the same way.
* **Stored feature blocks** — ``ChunkCheckpointer.feature_blocks``
  refuses incomplete stores, serves RAM overrides for chunks a degraded run
  never persisted, and loads each stored block in its narrow stored dtypes
  as arrays the caller owns — the dtypes and bytes an in-RAM run's block
  has, on every backend; ``completed`` trusts only canonical keys.
"""

import builtins
import errno
import itertools
import json
import os
import signal
import stat
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.datasets.synthetic import stream_text_candidates, text_vote_lfs
from repro.discriminative import RelationFeaturizer
from repro.exceptions import LabelingError
from repro.labeling import LFApplier, blockstore
from repro.labeling.blockstore import (
    MAGIC,
    RESERVE,
    BlockStore,
    ChunkCheckpointer,
    EpochCheckpoint,
)
from repro.utils.csr import narrowed

#: The log's file name inside the store's root.
LOG = "blockstore.log"


def record_span(store, key) -> tuple[int, int]:
    """Where ``key``'s live record lies in the log: its start and end."""
    _epoch, start, _base, end = store._records[key]
    return start, end


def flip_byte(path, offset) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0xFF]))
from repro.labeling.engine import faults
from repro.labeling.engine.accumulator import ChunkResult, detach_arrays


def make_result(index, num_candidates=10, with_features=True):
    rng = np.random.default_rng(index)
    nnz = 1 + index
    result = ChunkResult(
        index=index,
        start_row=index * num_candidates,
        num_candidates=num_candidates,
        row_offsets=rng.integers(0, num_candidates, nnz),
        cols=rng.integers(0, 4, nnz),
        values=rng.integers(-1, 2, nnz),
        errors={"lf_a": index},
        seconds=0.5,
    )
    if with_features:
        result.features = ChunkResult(
            index=index,
            start_row=index * num_candidates,
            num_candidates=num_candidates,
            row_offsets=rng.integers(0, num_candidates, 2 * nnz),
            cols=rng.integers(0, 16, 2 * nnz),
            values=rng.random(2 * nnz),
        )
    return result


# -------------------------------------------------------------- round trips
def test_put_get_round_trip(tmp_path):
    with BlockStore(str(tmp_path / "store")) as store:
        arrays = {
            "ints": np.arange(7, dtype=np.int64),
            "floats": np.linspace(0, 1, 5),
            "empty": np.empty(0, dtype=np.int32),
            "matrix": np.arange(6, dtype=np.float32).reshape(2, 3),
        }
        store.put("block/one", arrays, {"note": "hello"})
        loaded, meta = store.get("block/one")
        assert meta == {"note": "hello"}
        for name, array in arrays.items():
            assert np.array_equal(loaded[name], array)
            assert loaded[name].dtype == array.dtype
        assert "block/one" in store
        assert "block/two" not in store
        with pytest.raises(LabelingError):
            store.get("block/two")


def nan_with_payload(dtype: str, bits: int) -> np.ndarray:
    return np.array([bits], dtype=f"u{np.dtype(dtype).itemsize}").view(dtype)


#: Stored dtypes the encoding must round-trip, byte orders included.
DTYPES = (
    "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", "f2", "f4", "f8",
    "?", ">i2", ">i8", ">u8", ">f4", ">f8",
)
#: The values a narrowing decision turns on.
EDGES = (
    0, 1, -1, 127, -128, 128, -129, 32767, -32768, 32768, -32769,
    2**31 - 1, -(2**31), 2**31, -(2**31) - 1, 2**53, 2**53 + 1, 2**63 - 1, -(2**63),
    2**63, 2**64 - 1, 0.5, -0.0, 2.0**-1074, 2.0**-149, float("inf"), -float("inf"),
)


@st.composite
def stored_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    if dtype.kind == "b":
        edges = [False, True]
    elif dtype.kind == "f":
        largest = float(np.finfo(dtype).max)
        edges = [float(v) for v in EDGES if abs(v) <= largest or abs(v) == float("inf")]
    else:
        info = np.iinfo(dtype)
        edges = [v for v in EDGES if isinstance(v, int) and info.min <= v <= info.max]
    elements = st.sampled_from(edges)
    if draw(st.booleans()):
        elements = elements | hnp.from_dtype(dtype)
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6))
    array = draw(hnp.arrays(dtype, shape, elements=elements))
    layout = draw(st.sampled_from(("contiguous", "strided", "transposed")))
    if layout == "strided" and array.ndim:
        array = array[::2]
    elif layout == "transposed":
        array = array.T
    return array


@pytest.fixture(scope="module")
def shared_store(tmp_path_factory):
    """One store for every example of a property test, each under its own
    key: the examples append to one log instead of each making a store."""
    return BlockStore(str(tmp_path_factory.mktemp("shared"))), itertools.count()


@settings(max_examples=150, deadline=None)
@given(arrays=st.lists(stored_arrays(), min_size=1, max_size=4))
@example([np.array([-128, 127, 0]), np.array([128, -129]), np.array([2**53 + 1, -(2**31)])])
@example([np.array([-0.0, 1.0]), np.array([0.5, 2.0]), np.array([1e300, 3.0])])
@example([nan_with_payload("f8", 0x7FF8_0000_0000_0123), nan_with_payload("f4", 0x7FC0_0042)])
@example([np.array([2**63, 1], dtype=np.uint64), np.array([-np.inf, 4.0], dtype=">f8")])
@example([np.array(3.0), np.array(7, dtype=np.int64), np.empty((0, 3)), np.empty(0, "u8")])
@example([np.arange(12, dtype=">i8").reshape(3, 4).T, np.arange(10.0)[::3]])
def test_narrow_encoding_round_trips_bytes(shared_store, arrays):
    """Whatever a block holds narrowed, ``get`` returns each array in its
    original dtype and shape, byte for byte, read-only."""
    store, keys = shared_store
    key = f"block/{next(keys)}"
    named = {f"x{position}": array for position, array in enumerate(arrays)}
    store.put(key, named)
    loaded, _ = store.get(key)
    for name, array in named.items():
        assert loaded[name].dtype == array.dtype, name
        assert loaded[name].shape == array.shape, name
        assert loaded[name].tobytes() == array.tobytes(), name
        assert not loaded[name].flags.writeable, name


@pytest.mark.parametrize(
    "values, dtype, stored",
    [
        ([-128, 127], "i8", "i1"),
        ([128], "i8", "i2"),
        ([-32769, 5], "i8", "i4"),
        ([2**31], "i8", "i8"),
        ([2**63], "u8", "u8"),
        ([300], ">u4", "i2"),
        ([1, 2], "i2", "i1"),
        ([7], "i1", "i1"),
        ([1.0, -3.0, 0.0], "f8", "i1"),
        ([2.0**20], "f8", "i4"),
        ([2.0**40], "f8", "f8"),
        ([2.0**20], "f4", "f4"),
        ([-0.0], "f8", "f8"),
        ([0.5], "f8", "f8"),
        ([np.nan], "f8", "f8"),
        ([np.inf], "f4", "f4"),
        ([2.0**63], "f8", "f8"),
        ([True], "?", "?"),
        ([], "i8", "i8"),
    ],
)
def test_narrowed_picks_the_narrowest_exact_signed_dtype(values, dtype, stored):
    assert narrowed(np.array(values, dtype=dtype)).dtype == np.dtype(stored)


def recorded_fused_pass(store, candidates=600, chunk_size=256) -> list:
    """Record a fused cardinality-4 pass over ``candidates`` rows into
    ``store``, and return each recorded chunk result with the arrays
    :func:`detach_arrays` split off it then (the pass goes on to drop
    them)."""
    lfs = text_vote_lfs(10, cardinality=4)
    checkpoint = ChunkCheckpointer(store, "train")
    recorded, record = [], checkpoint.record

    def recording(result):
        recorded.append((result, detach_arrays(result)[1]))
        record(result)

    checkpoint.record = recording
    LFApplier(lfs, chunk_size=chunk_size).apply_with_features(
        stream_text_candidates(candidates, num_lfs=10, cardinality=4, seed=0),
        RelationFeaturizer(num_features=512).fit(),
        checkpoint=checkpoint,
    )
    assert checkpoint.completed == {result.index for result, _ in recorded}
    return recorded


def test_fused_chunk_block_is_at_most_a_sixth_of_its_bytes(tmp_path):
    """Votes, LF ids, feature buckets and count features are small
    integers, and row ids that do not decrease are their rows' counts: a
    chunk block of the fused pass holds at most a sixth of the bytes of the
    arrays the engine merges."""
    with BlockStore(str(tmp_path / "store")) as store:
        recorded = recorded_fused_pass(store)
        assert len(recorded) == 3
        for result, arrays in recorded:
            logical = sum(array.nbytes for array in arrays)
            start, end = record_span(store, f"chunk/train/{result.index}")
            assert end - start <= logical / 6, (result.index, end - start, logical)


def test_sorted_chunk_block_holds_no_row_id_per_entry(tmp_path):
    """Of a fused chunk's arrays, only the label and feature columns and
    values have one entry per Λ or feature entry: both blocks' row ids are
    stored as one count per row."""
    with BlockStore(str(tmp_path / "store")) as store:
        for result, (_, cols, _, _, feature_cols, _) in recorded_fused_pass(store):
            arrays, meta = store.get(f"chunk/train/{result.index}")
            assert meta["counts"] == {"a0": "<i8", "a3": "<i8"}
            rows, nnz = result.num_candidates, (cols.size, feature_cols.size)
            assert rows not in nnz
            assert arrays["a0"].shape == arrays["a3"].shape == (rows,)
            per_entry = {name for name, array in arrays.items() if array.size in nnz}
            assert per_entry - {"meta"} == {"a1", "a2", "a4", "a5"}


@pytest.mark.parametrize(
    "ids",
    [
        np.array([3, 1, 1, 4], dtype=np.int64),  # decreasing
        np.array([0, 2, 2, 9], dtype=np.int32),  # sorted, narrow dtype
        np.array([0, 2, 10], dtype=np.int64),  # past the chunk's rows
        np.array([-1, 0, 0], dtype=np.int64),  # negative
        np.array([], dtype=np.int16),
        np.array([1, 1, 5], dtype=">i8"),  # sorted, big-endian
    ],
)
def test_any_chunk_block_replays_bitwise(tmp_path, ids):
    """Row ids in any order, range or dtype come back bitwise: those that
    do not decrease from their counts, every other block as given."""
    result = make_result(0, num_candidates=10, with_features=False)
    result.row_offsets = ids
    result.cols, result.values = np.arange(ids.size), np.arange(ids.size) - 1
    with BlockStore(str(tmp_path / "store")) as store:
        ChunkCheckpointer(store, "train").record(result)
        replayed = ChunkCheckpointer(store, "train").replay(0)
    for field in ("row_offsets", "cols", "values"):
        ours, theirs = getattr(replayed, field), getattr(result, field)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), field


def test_label_modeling_record_holds_the_model_not_its_posteriors(tmp_path):
    """The label-modeling checkpoint is the strategy and the fitted model,
    whose posteriors a resume recomputes: the model is within 1 KB, and the
    record is as long at 6 000 rows as at 600."""
    from repro.datasets.synthetic import stream_text_gold
    from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

    make = dict(num_lfs=6, cardinality=4)
    lengths = []
    for rows in (600, 6_000):
        root = str(tmp_path / str(rows))
        config = PipelineConfig(
            seed=0, use_optimizer=False, generative_epochs=5, discriminative_epochs=1,
            num_features=64, sparse_labels=True, checkpoint_dir=root,
        )
        pipeline = SnorkelPipeline(lfs=text_vote_lfs(**make), config=config)
        first = pipeline.run_streams(
            stream_text_candidates(rows, seed=0, **make),
            stream_text_candidates(60, seed=1, **make),
            stream_text_gold(60, cardinality=4, seed=1),
        )
        with BlockStore(root) as store:
            start, end = record_span(store, "phase/label_modeling")
            lengths.append(end - start)
            assert store.get("phase/label_modeling")[0]["pickle"].size <= 1024, rows
            strategy, model = store.get_pickle("phase/label_modeling")
        assert strategy is None
        assert model.predict_proba(first.label_matrix).tobytes() == first.training_probs.tobytes()
    assert lengths[0] == lengths[1], lengths


def test_reput_last_wins_across_reopen(tmp_path):
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("k", {"a": np.array([1])})
        store.put("k", {"a": np.array([2, 3])})
    with BlockStore(root) as store:
        arrays, _ = store.get("k")
        assert np.array_equal(arrays["a"], [2, 3])
        assert store.keys() == ["k"]


def test_pickle_round_trip(tmp_path):
    with BlockStore(str(tmp_path / "store")) as store:
        payload = {"weights": np.arange(4.0), "epoch": 3}
        store.put_pickle("phase/thing", payload)
        loaded = store.get_pickle("phase/thing")
        assert loaded["epoch"] == 3
        assert np.array_equal(loaded["weights"], payload["weights"])


def test_bad_key_rejected(tmp_path):
    with BlockStore(str(tmp_path / "store")) as store:
        with pytest.raises(LabelingError):
            store.put("bad key!", {"a": np.zeros(1)})


# ----------------------------------------------------------------- recovery
def sealed_record(header: bytes, header_length=None) -> bytes:
    """A record of this format around ``header`` (no payloads), sealed with
    the crc32 trailer that makes it check out."""
    header_length = len(header) if header_length is None else header_length
    length = len(MAGIC) + 16 + len(header) + 4
    body = MAGIC + length.to_bytes(8, "little") + header_length.to_bytes(8, "little") + header
    return body + zlib.crc32(body).to_bytes(4, "little")


def test_torn_block_file_dropped(tmp_path):
    """A record cut short (a crash mid-append) fails its length or crc on
    reopen and is dropped; the committed record before it survives, and the
    reopen rewrites the log without the torn tail."""
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("good", {"a": np.arange(3)})
        store.put("torn", {"a": np.arange(50)})
        good, torn = record_span(store, "good"), record_span(store, "torn")
        path = store.path
    os.truncate(path, (torn[0] + torn[1]) // 2)
    with BlockStore(root) as store:
        assert store.keys() == ["good"]
        arrays, _ = store.get("good")
        assert np.array_equal(arrays["a"], [0, 1, 2])
    assert os.path.getsize(path) == good[1] - good[0]


def test_corrupt_block_file_detected_and_deleted(tmp_path):
    """The prefix rule: a byte flipped in a record ends the log there, so
    that record and every record after it are dropped on reopen, however
    whole; the ones before it survive."""
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("before", {"a": np.arange(5)})
        store.put("victim", {"a": np.arange(100)})
        store.put("after", {"a": np.arange(7)})
        start, end = record_span(store, "victim")
    flip_byte(store.path, (start + end) // 2)
    with BlockStore(root) as store:
        assert store.keys() == ["before"]
        assert np.array_equal(store.get("before")[0]["a"], np.arange(5))


def files_beside_the_log(root) -> dict:
    """Every file under ``root`` but the store's own two names, by path
    relative to ``root``, with its bytes."""
    found = {}
    for directory, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            relative = os.path.relpath(path, root)
            if relative not in (LOG, LOG + ".tmp"):
                with open(path, "rb") as handle:
                    found[relative] = handle.read()
    return found


def test_recovery_touches_no_name_but_the_store_s_own(tmp_path):
    """Recovery reads the log and removes its temp file, and nothing else:
    a format-2 store's ``index.jsonl`` whose lines point out of the root, a
    stray file beside it and a copy of the log under another name stay
    byte for byte as they were, and the copy is not read."""
    root = tmp_path / "store"
    victim = tmp_path / "victim.txt"
    victim.write_text("keep me")
    with BlockStore(str(root)) as store:
        store.put("good", {"a": np.arange(3)})
    (root / "index.jsonl").write_text("".join(
        json.dumps(record) + "\n"
        for record in (
            {"key": "chunk/train/0", "file": "../../victim.txt", "size": 1, "crc": 0},
            {"key": "chunk/train/1", "file": "../outside.blk", "size": 1, "crc": zlib.crc32(b"x")},
            {"key": "../outside", "file": "..~outside.blk", "size": 1, "crc": 0},
        )
    ))
    (root / "outside.blk").write_bytes(b"x")
    with BlockStore(str(tmp_path / "other")) as other:
        other.put("theirs", {"a": np.arange(4)})
    (root / "chunk~train~0.blk").write_bytes((tmp_path / "other" / LOG).read_bytes())
    before = files_beside_the_log(root)
    with BlockStore(str(root)) as store:
        assert store.keys() == ["good"]
    assert victim.read_text() == "keep me"
    assert files_beside_the_log(root) == before


@pytest.mark.parametrize(
    "magic", [b"RBLK1\n", b"RBLK2\n", b"RBLK3\n", b"RBLK4\n", b"RBLK9\n"]
)
def test_block_of_another_format_recovers_as_empty(tmp_path, magic):
    """A record whose magic is not this format's ends the log on reopen like
    a corrupt one — even with a matching trailer crc — so an old store
    resumes empty instead of failing at the first read."""
    assert magic != MAGIC
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("survivor", {"a": np.arange(2)})
        store.put("chunk/train/0", {"a": np.arange(5)})
        start, end = record_span(store, "chunk/train/0")
        path = store.path
    with open(path, "rb") as handle:
        log = handle.read()
    body = magic + log[start + len(magic) : end - 4]
    with open(path, "wb") as handle:
        handle.write(log[:start] + body + zlib.crc32(body).to_bytes(4, "little"))
    with BlockStore(root) as store:
        assert store.keys() == ["survivor"]
        assert ChunkCheckpointer(store, "train").completed == set()


def test_the_previous_layout_is_left_unread_and_reopens_empty(tmp_path):
    """A store in the previous layout — a ``blocks/`` directory holding a
    valid ``blocks/log``, per-key ``RBLK3`` block files and a temp file,
    beside a format-2 ``index.jsonl`` — reopens empty, and its files stay
    byte for byte as they were: an open neither reads nor removes them, and
    the first put starts the log beside them."""
    with BlockStore(str(tmp_path / "current")) as store:
        store.put("chunk/train/0", {"a": np.arange(5)})
    root = tmp_path / "store"
    (root / "blocks").mkdir(parents=True)
    (root / "blocks" / "log").write_bytes((tmp_path / "current" / LOG).read_bytes())
    header = json.dumps({"key": "chunk/train/1", "epoch": None, "meta": {}, "arrays": []}).encode()
    body = b"RBLK3\n" + len(header).to_bytes(8, "little") + header
    sealed = body + zlib.crc32(body).to_bytes(4, "little")
    (root / "blocks" / "chunk~train~1.blk").write_bytes(sealed)
    (root / "blocks" / "chunk~train~2.blk.123.tmp").write_bytes(b"torn")
    (root / "index.jsonl").write_text('{"key": "chunk/train/1", "file": "../../victim.txt"}\n')
    before = files_beside_the_log(root)
    with BlockStore(str(root)) as store:
        assert store.keys() == []
        assert ChunkCheckpointer(store, "train").completed == set()
        assert sorted(os.listdir(root)) == ["blocks", "index.jsonl"]
        store.put("chunk/train/0", {"a": np.arange(5)})
    with BlockStore(str(root)) as store:
        assert store.keys() == ["chunk/train/0"]
    assert sorted(os.listdir(root)) == sorted(["blocks", "index.jsonl", LOG])
    assert files_beside_the_log(root) == before


def test_block_with_an_unreadable_header_is_dropped(tmp_path):
    """A sealed record whose header overruns it, lacks its key, is no
    object, holds a key that is no key or an epoch that is no integer, or
    specs an array beyond the record ends the log on reopen: the record
    before it survives, and the log is rewritten without it."""
    complete = (
        b'{"epoch": null, "meta": {}, "arrays": []}',
        b'["k"]',
        b'{"key": "k", "epoch": "1", "meta": {}, "arrays": []}',
        b'{"key": "k k", "epoch": null, "meta": {}, "arrays": []}',
        b'{"key": "k", "epoch": null, "meta": {}, "arrays": [{"name": "a", "dtype": "<i8",'
        b' "stored": "<i8", "shape": [100], "offset": 0, "nbytes": 800}]}',
    )
    root = str(tmp_path / "store")
    for record in [sealed_record(b'{"key": "k"', 10**6)] + [sealed_record(h) for h in complete]:
        with BlockStore(root) as store:
            store.clear()
            store.put("good", {"a": np.arange(5)})
            path = store.path
        good = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(record)
        with BlockStore(root) as store:
            assert store.keys() == ["good"], record
        assert os.path.getsize(path) == good, record


def test_open_removes_its_temp_file_and_nothing_beside_it(tmp_path):
    """An open removes a rewrite's leftover ``blockstore.log.tmp``; an
    orphan block file, a file named ``log`` and its ``log.tmp`` stay."""
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("real", {"a": np.arange(3)})
    for name in ("orphan.blk", "log", "log.tmp", LOG + ".tmp"):
        open(os.path.join(root, name), "wb").close()
    with BlockStore(root) as store:
        assert store.keys() == ["real"]
    assert sorted(os.listdir(root)) == sorted([LOG, "orphan.blk", "log", "log.tmp"])


def test_files_beside_the_log_are_never_touched(tmp_path):
    """The root is the caller's directory: a file named ``log`` holding a
    valid log of this format, a ``log.tmp``, any other file and a
    subdirectory's files stay byte-identical through open, put,
    ``delete``, a compaction, ``clear`` and a reopen that rewrites a torn
    tail away, and the store never reads them."""
    with BlockStore(str(tmp_path / "other")) as other:
        other.put("theirs", {"a": np.arange(4)})
    root = tmp_path / "ckpt"
    (root / "sub").mkdir(parents=True)
    (root / "log").write_bytes((tmp_path / "other" / LOG).read_bytes())
    (root / "log.tmp").write_bytes(b"user data")
    (root / "notes.txt").write_text("keep me")
    (root / "sub" / "log").write_bytes(b"nested")
    before = files_beside_the_log(root)
    with BlockStore(str(root)) as store:
        assert store.keys() == []
        store.put("a", {"x": np.arange(3)})
        store.put("b", {"x": np.arange(4)})
        assert files_beside_the_log(root) == before
        store.delete("a")
        assert files_beside_the_log(root) == before
        inode = os.stat(store.path).st_ino
        for _round in range(4):
            store.put("hot", {"x": np.arange(64)})
        assert os.stat(store.path).st_ino != inode  # the re-puts compacted the log
        assert files_beside_the_log(root) == before
        store.clear()
        assert files_beside_the_log(root) == before
        store.put("c", {"x": np.arange(5)})
    with open(root / LOG, "ab") as handle:
        handle.write(MAGIC + bytes(40))
    with BlockStore(str(root)) as store:
        assert store.keys() == ["c"]
        assert os.path.getsize(store.path) == store._size
    assert files_beside_the_log(root) == before
    assert sorted(os.listdir(root)) == sorted(["log", "log.tmp", "notes.txt", "sub", LOG])


def test_a_failed_append_never_precedes_the_next_record(tmp_path, monkeypatch):
    """A put whose append fails part-way (a full disk) raises, and the bytes
    it left are rewritten away before the next put appends, so the records
    put before and after it both survive a reopen."""
    from repro.labeling import blockstore

    write = blockstore._write_synced

    def write_half(path, flags, chunks, *end):
        record = b"".join(chunks)
        write(path, flags, [record[: len(record) // 2]], *end)
        raise OSError(errno.ENOSPC, "disk full half-way")

    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("before", {"a": np.arange(3)})
        monkeypatch.setattr(blockstore, "_write_synced", write_half)
        with pytest.raises(OSError):
            store.put("lost", {"a": np.arange(300)})
        monkeypatch.undo()
        assert store.keys() == ["before"]
        store.put("after", {"a": np.arange(4)})
    with BlockStore(root) as store:
        assert store.keys() == ["after", "before"]
        assert np.array_equal(store.get("after")[0]["a"], np.arange(4))


def test_clear_empties_store(tmp_path):
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("a", {"x": np.arange(3)})
        store.put("b", {"x": np.arange(4)})
        store.clear()
        assert store.keys() == []
        assert os.listdir(store.root) == [LOG]
        assert os.path.getsize(store.path) == 0
    with BlockStore(root) as store:
        assert store.keys() == []


def test_put_after_clear_is_durable(tmp_path):
    """A block put after ``clear()`` survives a reopen, and the cleared ones
    stay gone."""
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("old", {"x": np.arange(2)})
        store.clear()
        store.put("fresh", {"x": np.arange(5)})
    with BlockStore(root) as store:
        assert store.keys() == ["fresh"]
        arrays, _ = store.get("fresh")
        assert np.array_equal(arrays["x"], np.arange(5))


# ------------------------------------------------------------ fsync budget
@pytest.fixture
def fs_calls(monkeypatch):
    """Every ``os.fsync`` / ``os.unlink`` / ``os.rename`` / ``os.mkdir`` /
    ``os.makedirs`` call and every file ``os.open`` or ``open`` creates, in
    order: an fsync is recorded as ``("fsync", "dir")`` or ``("fsync",
    "file")``, the others by the file's name (a ``makedirs`` that creates
    a directory also records the ``mkdir`` it calls)."""
    calls = []
    fsync, unlink, rename, open_ = os.fsync, os.unlink, os.rename, os.open
    mkdir, makedirs = os.mkdir, os.makedirs

    def record_fsync(fd):
        calls.append(("fsync", "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"))
        return fsync(fd)

    def record_unlink(path, *args, **kwargs):
        calls.append(("unlink", os.path.basename(path)))
        return unlink(path, *args, **kwargs)

    def record_rename(src, dst, *args, **kwargs):
        calls.append(("rename", os.path.basename(dst)))
        return rename(src, dst, *args, **kwargs)

    def record_mkdir(path, *args, **kwargs):
        calls.append(("mkdir", os.path.basename(path)))
        return mkdir(path, *args, **kwargs)

    def record_makedirs(path, *args, **kwargs):
        calls.append(("makedirs", os.path.basename(path)))
        return makedirs(path, *args, **kwargs)

    def record_open(path, flags, *args, **kwargs):
        if flags & os.O_CREAT and not os.path.exists(path):
            calls.append(("create", os.path.basename(path)))
        return open_(path, flags, *args, **kwargs)

    def record_file_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and set(mode) & set("wax"):
            if not os.path.exists(file):
                calls.append(("create", os.path.basename(file)))
        return file_open(file, mode, *args, **kwargs)

    file_open = builtins.open
    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "unlink", record_unlink)
    monkeypatch.setattr(os, "rename", record_rename)
    monkeypatch.setattr(os, "mkdir", record_mkdir)
    monkeypatch.setattr(os, "makedirs", record_makedirs)
    monkeypatch.setattr(os, "open", record_open)
    monkeypatch.setattr(builtins, "open", record_file_open)
    return calls


def fsyncs(calls) -> int:
    return sum(1 for op, _ in calls if op == "fsync")


def test_put_is_one_fsync_and_open_and_get_make_none(tmp_path, fs_calls):
    """A store in an existing directory makes no directory; a put appends
    to the log and fsyncs it, and the put that creates the log also fsyncs
    the root.  Reopening and reading fsync, rename and unlink nothing."""
    root = str(tmp_path)
    with BlockStore(root) as store:
        store.put("chunk/train/0", {"a": np.arange(9)})
        assert fs_calls == [("create", LOG), ("fsync", "file"), ("fsync", "dir")]
        fs_calls.clear()
        store.put("chunk/train/1", {"a": np.arange(4)})
        assert fs_calls == [("fsync", "file")]
    fs_calls.clear()
    with BlockStore(root) as store:
        store.get("chunk/train/0")
        assert "chunk/train/1" in store
    assert fs_calls == []


@pytest.mark.skipif(blockstore._fallocate is None, reason="no fallocate(2) on this platform")
def test_the_log_keeps_disk_reserved_ahead_of_its_end(tmp_path):
    """The log keeps at least ``RESERVE`` bytes of disk allocated, then the
    next power-of-two multiple of it that holds its records, while its size
    stays the bytes of its records."""
    with BlockStore(str(tmp_path / "store")) as store:
        store.put("small", {"a": np.arange(3)})
        path = store.path
        assert os.path.getsize(path) == store._size < RESERVE
        assert os.stat(path).st_blocks * 512 >= RESERVE
        store.put("big", {"a": np.arange(RESERVE // 8) + 0.5})  # fractions stay float64
        assert RESERVE < os.path.getsize(path) == store._size < 2 * RESERVE
        assert os.stat(path).st_blocks * 512 >= 2 * RESERVE
    with BlockStore(str(tmp_path / "store")) as store:
        assert store.keys() == ["big", "small"]


def test_clear_rewrites_a_log_once_and_leaves_an_empty_one_untouched(tmp_path, fs_calls):
    """``clear`` of a non-empty log is one durable rewrite — an empty file
    fsynced, renamed over the log, then the root fsynced — before the
    next put appends; ``clear`` of an absent or empty log touches nothing."""
    root = str(tmp_path)
    with BlockStore(root) as store:
        store.clear()
        assert fs_calls == []
        for key in ("a", "b", "c"):
            store.put(key, {"x": np.arange(3)})
        fs_calls.clear()
        store.clear()
        rewrite = [("create", LOG + ".tmp"), ("fsync", "file"), ("rename", LOG), ("fsync", "dir")]
        assert fs_calls == rewrite
        fs_calls.clear()
        store.clear()
        assert fs_calls == []
        store.put("meta/fingerprint", {"x": np.arange(2)})
    with BlockStore(root) as store:
        assert store.keys() == ["meta/fingerprint"]


def counted_puts(monkeypatch) -> list:
    """The keys of every ``BlockStore.put`` from here on."""
    puts = []
    put = BlockStore.put

    def counted_put(store, key, *args, **kwargs):
        puts.append(key)
        return put(store, key, *args, **kwargs)

    monkeypatch.setattr(BlockStore, "put", counted_put)
    return puts


def test_checkpointed_run_fsyncs_once_per_put_and_replay_never(tmp_path, fs_calls, monkeypatch):
    """A fresh run into a missing ``checkpoint_dir`` creates it with one
    ``makedirs`` and makes puts + 1 fsyncs and no rename or unlink; its
    replay makes no call at all."""
    from repro.datasets.synthetic import stream_text_gold
    from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

    puts = counted_puts(monkeypatch)
    config = PipelineConfig(
        seed=0, chunk_size=32, generative_epochs=2, discriminative_epochs=3,
        num_features=64, checkpoint_dir=str(tmp_path / "ckpt"),
    )

    def run():
        return SnorkelPipeline(lfs=text_vote_lfs(4), config=config).run_streams(
            stream_text_candidates(num_points=100, num_lfs=4, seed=0),
            stream_text_candidates(num_points=40, num_lfs=4, seed=1),
            stream_text_gold(40, seed=1),
        )

    first = run()
    assert len(puts) == 1 + 4 + 2 + 1 + 3  # fingerprint, chunks, label model, epochs
    assert fsyncs(fs_calls) == len(puts) + 1  # + the root's fsync at the log's creation
    assert [op for op, _ in fs_calls if op in ("rename", "unlink")] == []
    assert [name for op, name in fs_calls if op == "makedirs"] == ["ckpt"]
    puts.clear()
    fs_calls.clear()
    replayed = run()
    assert puts == [] and fs_calls == []
    assert replayed.training_probs.tobytes() == first.training_probs.tobytes()


class _PlannedCrash(Exception):
    """Raised by a train stream mid-pass."""


def test_crashed_then_resumed_run_creates_one_file_and_no_directory(
    tmp_path, fs_calls, monkeypatch
):
    """Shaped like the ``kary_crash_resume`` benchmark: a cardinality-4
    checkpointed run into an existing empty directory whose train stream
    raises half-way, then the run resumed over the same store.  The log is
    the one file either run creates, neither creates a directory, renames
    or unlinks, their fsyncs are puts + 1, and the resumed run equals an
    uncheckpointed one."""
    from repro.datasets.synthetic import stream_text_gold
    from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

    make = dict(num_lfs=6, cardinality=4)
    train = list(stream_text_candidates(300, seed=0, **make))
    test = list(stream_text_candidates(60, seed=1, **make))
    gold = stream_text_gold(60, cardinality=4, seed=1)

    def run(stream, checkpoint_dir=None):
        config = PipelineConfig(
            seed=0, chunk_size=64, use_optimizer=False, generative_epochs=3,
            discriminative_epochs=4, num_features=128, sparse_labels=True,
            checkpoint_dir=checkpoint_dir,
        )
        pipeline = SnorkelPipeline(lfs=text_vote_lfs(**make), config=config)
        return pipeline.run_streams(stream, iter(test), gold)

    def crashing():
        for index, candidate in enumerate(train):
            if index == len(train) // 2:
                raise _PlannedCrash
            yield candidate

    root = str(tmp_path / "ckpt")
    os.mkdir(root)
    fs_calls.clear()
    puts = counted_puts(monkeypatch)
    with pytest.raises(_PlannedCrash):
        run(crashing(), root)
    assert 0 < puts.count("meta/fingerprint") == 1 < len(puts)
    resumed = run(iter(train), root)
    kinds = ("create", "mkdir", "makedirs", "rename", "unlink")
    assert [call for call in fs_calls if call[0] in kinds] == [("create", LOG)]
    assert fsyncs(fs_calls) == len(puts) + 1
    assert os.listdir(root) == [LOG]
    monkeypatch.undo()
    plain = run(iter(train))
    assert resumed.training_probs.tobytes() == plain.training_probs.tobytes()
    assert resumed.discriminative_model.weights.tobytes() == (
        plain.discriminative_model.weights.tobytes()
    )


# ---------------------------------------------------------- generated crash
KEYS = ("fam/a", "fam/b", "fam/c", "solo", "deep/x/y", "deep/x/z")


@st.composite
def store_histories(draw):
    """A run of put / re-put / delete operations ending in a put, plus how
    the last record of the log is damaged afterwards."""
    values = st.integers(-300, 300) | st.integers(-(2**40), 2**40)

    def put(min_size, epochs):
        arrays = st.lists(values, min_size=min_size, max_size=64)
        return st.tuples(st.just("put"), st.sampled_from(KEYS), arrays, epochs)

    delete = st.tuples(st.just("delete"), st.sampled_from(KEYS))
    ops = draw(st.lists(put(0, st.none() | st.integers(0, 4)) | delete, max_size=12))
    # The last put carries no epoch or the highest one, so it survives to be damaged.
    ops.append(draw(put(8, st.none() | st.just(4))))
    damage = draw(st.sampled_from(("truncate", "flip")))
    return ops, damage, draw(st.floats(0, 1, exclude_max=True))


def committed_after(ops) -> dict:
    """What the store holds after ``ops``: every key's last put, without
    deleted keys and without epoch-stamped keys whose family holds a newer
    epoch."""
    held = {}
    for op in ops:
        if op[0] == "delete":
            held.pop(op[1], None)
            continue
        _, key, values, epoch = op
        held[key] = (values, epoch)
        if epoch is not None:
            newest = {}
            for other, (_, stamp) in held.items():
                if stamp is not None:
                    family = other.rsplit("/", 1)[0]
                    newest[family] = max(newest.get(family, stamp), stamp)
            held = {
                other: (kept, stamp)
                for other, (kept, stamp) in held.items()
                if stamp is None or stamp >= newest[other.rsplit("/", 1)[0]]
            }
    return held


@settings(max_examples=100, deadline=None)
@given(store_histories())
@example(([("put", "fam/a", [1, 2], 3), ("put", "solo", [2**40] * 64, 1)], "flip", 0.8))
@example(([("put", "solo", [7], None), ("put", "solo", [8, 9], None)], "truncate", 0.0))
@example(([("put", "solo", [7], None)] * 2 + [("put", "solo", [8] * 9, None)], "flip", 0.5))
def test_reopen_holds_exactly_the_committed_blocks(history):
    """After any history of puts, re-puts and deletes, with the log's last
    record — the last put's — truncated or byte-flipped at any offset, a
    reopened store holds exactly what the log's valid prefix commits, each
    key byte-equal to what was put: what the store held before that put,
    or, when the put's reclamation left no superseded record to fall back
    on, what it held after it less the damaged key."""
    ops, damage, where = history
    damaged = ops[-1][1]
    with tempfile.TemporaryDirectory() as root:
        with BlockStore(root) as store:
            for op in ops:
                if op[0] == "delete":
                    store.delete(op[1])
                else:
                    store.put(op[1], {"v": np.array(op[2], dtype=np.int64)}, epoch=op[3])
            assert store.keys() == sorted(committed_after(ops))
            start, end = record_span(store, damaged)
            path = store.path
            assert end == store._size == os.path.getsize(path)
            dead = store._size > store._live
        expected = committed_after(ops[:-1] if dead else ops)
        if not dead:
            expected.pop(damaged)
        offset = start + int(where * (end - start))
        if damage == "truncate":
            os.truncate(path, offset)
        else:
            flip_byte(path, offset)
        with BlockStore(root) as store:
            assert store.keys() == sorted(expected)
            for key, (values, _) in expected.items():
                loaded = store.get(key)[0]["v"]
                assert loaded.tobytes() == np.array(values, dtype=np.int64).tobytes(), key
            assert os.listdir(store.root) == [LOG]
            assert os.path.getsize(path) == store._size


# ------------------------------------------------------ deletion & retention
def test_delete_removes_block_and_survives_reopen(tmp_path):
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("dead", {"a": np.arange(3)})
        store.put("alive", {"a": np.arange(4)})
        alive = record_span(store, "alive")
        assert store.delete("dead")
        assert not store.delete("dead")  # already gone
        assert store.keys() == ["alive"]
        assert os.path.getsize(store.path) == alive[1] - alive[0]
    # The rewrite is durable: reopening must not resurrect the key.
    with BlockStore(root) as store:
        assert store.keys() == ["alive"]


def test_retention_latest_epoch_deletes_superseded_blocks(tmp_path):
    """A multi-epoch run's store must not keep superseded snapshot versions,
    in memory or, past twice the live bytes, in the log."""
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        for version in range(5):
            store.put(f"model/state/v{version}", {"w": np.arange(version + 1)},
                      epoch=version)
        assert store.keys() == ["model/state/v4"]
        assert os.listdir(store.root) == [LOG]
        assert os.path.getsize(store.path) <= 2 * store._live
    with BlockStore(root) as store:
        assert store.keys() == ["model/state/v4"]
        arrays, _ = store.get("model/state/v4")
        assert np.array_equal(arrays["w"], np.arange(5))


def test_retention_latest_epoch_prunes_stale_families_at_open(tmp_path):
    """A process killed right after a durable epoch-stamped put leaves the
    epoch it supersedes in the log; the next open drops it, since the
    newest epoch of a family wins at scan time."""
    root = str(tmp_path / "store")
    pid = os.fork()
    if pid == 0:  # child
        try:
            faults.install("die_block@2")
            with BlockStore(root) as store:
                store.put("other", {"a": np.arange(3)})  # no epoch: never dropped
                store.put("fam/v1", {"a": np.arange(1)}, epoch=1)
                store.put("fam/v2", {"a": np.arange(2)}, epoch=2)
        finally:
            os._exit(1)  # only reached if the injected kill never fired
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL, status
    assert os.listdir(root) == [LOG]
    with open(os.path.join(root, LOG), "rb") as handle:
        assert handle.read().count(MAGIC) == 3  # fam/v1's record is still there
    for _reopen in range(2):
        with BlockStore(root) as store:
            assert store.keys() == ["fam/v2", "other"]
            assert np.array_equal(store.get("fam/v2")[0]["a"], np.arange(2))


def test_reputs_under_churn_leave_one_file(tmp_path):
    """500 re-puts of one key leave one file, the log, which never exceeds
    twice its live bytes plus one record, and the last put wins, also
    across a reopen."""
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        path = store.path
        for round_ in range(500):
            store.put("hot", {"a": np.array([round_])})
            start, end = record_span(store, "hot")
            assert os.path.getsize(path) <= 2 * store._live + (end - start), round_
        assert os.listdir(store.root) == [LOG]
        assert store.get("hot")[0]["a"][0] == 499
    with BlockStore(root) as store:
        assert store.keys() == ["hot"]
        assert store.get("hot")[0]["a"][0] == 499


def test_served_arrays_keep_their_bytes_through_every_rewrite(tmp_path):
    """The log is never truncated or written in place: a ``get()`` view of
    the mapped log and the arrays ``feature_blocks`` returned read the same
    bytes after ``clear()``, ``delete()``, a compaction and a reopen that
    drops a torn tail — each of which renames a new log into place."""
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        checkpoint = ChunkCheckpointer(store, "train")
        for index in range(3):
            checkpoint.record(row_major_result(index))
        store.put("wide", {"x": np.linspace(0.0, 1.0, 50)})
        view = store.get("wide")[0]["x"]
        assert view.base is not None and not view.flags.owndata  # a view of the mapping
        blocks = checkpoint.feature_blocks(3, 16, {})

        def served():
            return [view.tobytes()] + [b.indices.tobytes() + b.data.tobytes() for b in blocks]

        expected = served()

        def churn():
            for _round in range(8):
                store.put("hot", {"a": np.arange(4096.0)})

        def torn_reopen():
            with open(store.path, "ab") as handle:
                handle.write(MAGIC + bytes(40))
            assert BlockStore(root).keys() == sorted(store.keys())

        for rewrite in (lambda: store.delete("chunk/train/2"), churn, torn_reopen, store.clear):
            inode = os.stat(store.path).st_ino
            rewrite()
            assert os.stat(store.path).st_ino != inode
            assert served() == expected


def test_chunk_checkpointer_prune_beyond(tmp_path):
    with BlockStore(str(tmp_path / "store")) as store:
        ckpt = ChunkCheckpointer(store, "train")
        for index in range(6):
            ckpt.record(make_result(index, with_features=False))
        assert ckpt.prune_beyond(4) == 2
        assert ckpt.completed == {0, 1, 2, 3}
        assert ckpt.prune_beyond(4) == 0


def test_pruning_many_chunks_rewrites_the_log_once(tmp_path, fs_calls):
    """``prune_beyond`` forgets every stale chunk and rewrites the log once;
    pruning nothing touches nothing."""
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        ckpt = ChunkCheckpointer(store, "train")
        for index in range(5):
            ckpt.record(make_result(index, with_features=False))
        fs_calls.clear()
        assert ckpt.prune_beyond(2) == 3
        rewrite = [("create", LOG + ".tmp"), ("fsync", "file"), ("rename", LOG), ("fsync", "dir")]
        assert fs_calls == rewrite
        fs_calls.clear()
        assert ckpt.prune_beyond(2) == 0
        assert fs_calls == []
    with BlockStore(root) as store:
        assert store.keys() == ["chunk/train/0", "chunk/train/1"]


# ------------------------------------------------------- chunk checkpointer
def test_chunk_checkpointer_round_trip(tmp_path):
    """What a resumed run reads back — ``replay``'s label triples and meta,
    ``feature_blocks``' feature block — is what was recorded, byte for
    byte."""
    from repro.discriminative.sparse_features import CSRFeatureMatrix

    with BlockStore(str(tmp_path / "store")) as store:
        ckpt = ChunkCheckpointer(store, "train")
        for index in range(3):
            ckpt.record(row_major_result(index))
        assert ckpt.completed == {0, 1, 2}
        blocks = ckpt.feature_blocks(3, 16, {})
        for index in range(3):
            original = row_major_result(index)
            replayed = ckpt.replay(index)
            for field in ("index", "start_row", "num_candidates", "errors", "seconds"):
                assert getattr(replayed, field) == getattr(original, field), field
            assert replayed.features is None
            for field in ("row_offsets", "cols", "values"):
                ours, theirs = getattr(replayed, field), getattr(original, field)
                assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), field
            in_ram = CSRFeatureMatrix.from_chunk(original.features, 16)
            assert blocks[index].shape == in_ram.shape
            assert same_arrays(blocks[index], in_ram)
        # Reopening sees the same completed set.
        fresh = ChunkCheckpointer(store, "train")
        assert fresh.completed == {0, 1, 2}
        # Splits are independent namespaces.
        assert ChunkCheckpointer(store, "test").completed == set()


def test_chunk_checkpointer_disables_on_disk_full(tmp_path):
    with BlockStore(str(tmp_path / "store")) as store:
        ckpt = ChunkCheckpointer(store, "train")
        ckpt.record(make_result(0, with_features=False))
        faults.install("disk_full@1")
        try:
            with pytest.warns(RuntimeWarning, match="checkpointing disabled"):
                ckpt.record(make_result(1, with_features=False))
        finally:
            faults.install(None)
        assert ckpt.disabled
        assert ckpt.completed == {0}
        # Further records are silent no-ops.
        ckpt.record(make_result(2, with_features=False))
        assert ckpt.completed == {0}


# ------------------------------------------------------- epoch checkpointer
def test_epoch_checkpoint_round_trip(tmp_path):
    with BlockStore(str(tmp_path / "store")) as store:
        ckpt = EpochCheckpoint(store, "end_model")
        assert ckpt.load() is None
        state = {"epoch": 4, "packed": np.arange(6.0), "adam": {"step_count": 9}}
        ckpt.save(state)
        loaded = ckpt.load()
        assert loaded["epoch"] == 4
        assert np.array_equal(loaded["packed"], state["packed"])
        # Saves supersede each other.
        ckpt.save({"epoch": 5, "packed": np.zeros(2)})
        assert ckpt.load()["epoch"] == 5


def test_epoch_checkpoint_disables_on_disk_full(tmp_path):
    with BlockStore(str(tmp_path / "store")) as store:
        ckpt = EpochCheckpoint(store, "end_model")
        faults.install("disk_full@0")
        try:
            with pytest.warns(RuntimeWarning, match="epoch checkpointing disabled"):
                ckpt.save({"epoch": 1, "packed": np.zeros(2)})
        finally:
            faults.install(None)
        assert ckpt.disabled
        assert ckpt.load() is None


# ------------------------------------------------------ stored feature blocks
def test_stored_feature_blocks_require_completeness(tmp_path):
    with BlockStore(str(tmp_path / "store")) as store:
        ckpt = ChunkCheckpointer(store, "train")
        ckpt.record(make_result(0))
        with pytest.raises(LabelingError, match="missing chunks"):
            ckpt.feature_blocks(3, 16, {})


def test_stored_feature_blocks_must_be_row_major(tmp_path):
    """A feature block whose row ids decrease is stored as given and has no
    CSR form: reading it raises, as building it in RAM does."""
    with BlockStore(str(tmp_path / "store")) as store:
        ckpt = ChunkCheckpointer(store, "train")
        result = make_result(0)
        result.features.row_offsets = np.array([5, 2])
        ckpt.record(result)
        assert store.get("chunk/train/0")[1]["counts"] == {"a0": "<i8"}
        with pytest.raises(LabelingError, match="no row-major feature block"):
            ckpt.feature_blocks(1, 16, {})


def row_major_result(index, num_candidates=10):
    """A fused chunk result whose feature triples are row-major counts, as
    the featurizer emits them."""
    result = make_result(index, num_candidates)
    features = result.features
    features.row_offsets = np.sort(features.row_offsets)
    features.values = np.floor(features.values * 4) + 1
    return result


def same_arrays(block, other) -> bool:
    """Whether two CSR blocks hold the same dtypes and bytes."""
    return all(
        getattr(block, part).dtype == getattr(other, part).dtype
        and getattr(block, part).tobytes() == getattr(other, part).tobytes()
        for part in ("indptr", "indices", "data")
    )


def test_stored_feature_blocks_serve_overrides(tmp_path):
    """Stored blocks come back once, in their narrow stored dtypes, as owned
    writable copies with the dtypes and bytes of the in-RAM build; overrides
    are served as given."""
    from repro.discriminative.sparse_features import CSRFeatureMatrix

    with BlockStore(str(tmp_path / "store")) as store:
        ckpt = ChunkCheckpointer(store, "train")
        ckpt.record(row_major_result(0))
        sentinel = object()
        blocks = ckpt.feature_blocks(2, 16, {1: sentinel})
        assert len(blocks) == 2
        assert blocks[1] is sentinel
        built = blocks[0]
        assert built.shape == (10, 16)
        assert (built.indices.dtype, built.data.dtype) == (np.int8, np.int8)
        for array in (built.indices, built.data):
            assert array.flags.writeable and array.flags.owndata
        assert same_arrays(built, CSRFeatureMatrix.from_chunk(row_major_result(0).features, 16))


@pytest.mark.parametrize("backend", ["sequential", "threads", "processes"])
def test_fresh_checkpoint_and_in_ram_blocks_are_the_same_bytes(tmp_path, backend):
    """``apply_with_features`` returns the same feature blocks into a fresh
    checkpoint as in RAM, dtypes and bytes, on every backend: the store and
    ``from_chunk`` narrow by one rule.  A 512-feature text stream's blocks
    hold int16 column ids and int8 counts, 3 B per entry either way."""
    featurizer = RelationFeaturizer(num_features=512).fit()
    applier = LFApplier(text_vote_lfs(4), chunk_size=64, backend=backend, num_workers=2)

    def candidates():
        return stream_text_candidates(num_points=300, num_lfs=4, seed=3)

    _, in_ram = applier.apply_with_features(candidates(), featurizer)
    with BlockStore(str(tmp_path / "store")) as store:
        checkpoint = ChunkCheckpointer(store, "train")
        _, stored = applier.apply_with_features(candidates(), featurizer, checkpoint=checkpoint)
    assert checkpoint.completed == set(range(5)) and len(in_ram) == 5
    for block, reference in zip(stored, in_ram, strict=True):
        assert same_arrays(block, reference)
        assert block.nnz and block.indices.nbytes + block.data.nbytes == 3 * block.nnz


def test_completed_trusts_only_canonical_keys(tmp_path):
    """A block under ``chunk/train/01`` is not chunk 1: a run over such a
    store recomputes chunk 1 rather than failing to replay
    ``chunk/train/1``."""
    featurizer = RelationFeaturizer(num_features=64).fit()
    lfs = text_vote_lfs(4)

    def candidates():
        return stream_text_candidates(num_points=60, num_lfs=4, seed=3)

    applier = LFApplier(lfs, chunk_size=16)
    matrix, blocks = applier.apply_with_features(candidates(), featurizer)
    with BlockStore(str(tmp_path / "store")) as store:
        ckpt = ChunkCheckpointer(store, "train")
        ckpt.record(make_result(1))
        store.put("chunk/train/01", store.get("chunk/train/1")[0])
        store.delete("chunk/train/1")
        ckpt = ChunkCheckpointer(store, "train")
        assert ckpt.completed == set()
        resumed, stored = applier.apply_with_features(candidates(), featurizer, checkpoint=ckpt)
    assert np.array_equal(resumed.values, matrix.values)
    for block, reference in zip(stored, blocks, strict=True):
        assert np.array_equal(block.to_dense(), reference.to_dense())
