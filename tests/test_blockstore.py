"""The crash-safe block store: durability, recovery, and the checkpointers.

What this suite pins down:

* **Round trips** — named arrays (any dtype, byte order, layout or shape,
  including empty and 0-d) and pickled objects come back byte-identical
  and read-only, in their original dtype, though the block holds each
  int or float array in the narrowest signed int dtype that keeps it
  bit-exact (a fused chunk block is at most a quarter of its arrays'
  bytes).
* **Recovery** — a block file checks itself (crc32 trailer, magic, header,
  key): opening a store drops torn and corrupted block files, blocks of
  another format and blocks whose file name is not their header key's,
  sweeps orphaned and temp files, and never reads or touches a path
  outside ``blocks/`` (an old store's ``index.jsonl`` included); what
  survives recovery is exactly what was durably committed, also after a
  generated sequence of puts and deletes whose last block is damaged.
* **Durability cost** — a put makes exactly two fsyncs (the temp file,
  then ``blocks/``), opening a clean store and reading make none,
  ``clear`` makes its unlinks durable before the next put commits, and a
  fresh checkpointed pipeline run makes 2 × puts + 1 fsyncs while its
  replay makes none.
* **Reclamation** — ``delete`` is durable, an epoch-stamped put drops the
  superseded epochs of its family (so do opens, after a kill between the
  put and the drop), and same-key churn leaves one file.
* **Checkpointers** — ``ChunkCheckpointer`` records chunk results whose
  label triples ``replay`` and feature blocks ``feature_blocks`` bring
  back losslessly, and degrades with one warning on a full disk;
  ``EpochCheckpoint`` snapshots end-model training state the same way.
* **Stored feature blocks** — ``ChunkCheckpointer.feature_blocks``
  refuses incomplete stores, serves RAM overrides for chunks a degraded run
  never persisted, and loads each stored block in its narrow stored dtypes
  as arrays the caller owns; ``completed`` trusts only canonical keys.
"""

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
from repro.labeling import LFApplier
from repro.labeling.blockstore import (
    MAGIC,
    BlockStore,
    ChunkCheckpointer,
    EpochCheckpoint,
    _narrowed,
)
from repro.labeling.engine import faults
from repro.labeling.engine.accumulator import ChunkResult


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


@settings(max_examples=150, deadline=None)
@given(st.lists(stored_arrays(), min_size=1, max_size=4))
@example([np.array([-128, 127, 0]), np.array([128, -129]), np.array([2**53 + 1, -(2**31)])])
@example([np.array([-0.0, 1.0]), np.array([0.5, 2.0]), np.array([1e300, 3.0])])
@example([nan_with_payload("f8", 0x7FF8_0000_0000_0123), nan_with_payload("f4", 0x7FC0_0042)])
@example([np.array([2**63, 1], dtype=np.uint64), np.array([-np.inf, 4.0], dtype=">f8")])
@example([np.array(3.0), np.array(7, dtype=np.int64), np.empty((0, 3)), np.empty(0, "u8")])
@example([np.arange(12, dtype=">i8").reshape(3, 4).T, np.arange(10.0)[::3]])
def test_narrow_encoding_round_trips_bytes(arrays):
    """Whatever a block holds narrowed, ``get`` returns each array in its
    original dtype and shape, byte for byte, read-only."""
    with tempfile.TemporaryDirectory() as root, BlockStore(root) as store:
        named = {f"x{position}": array for position, array in enumerate(arrays)}
        store.put("block", named)
        loaded, _ = store.get("block")
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
    assert _narrowed(np.array(values, dtype=dtype)).dtype == np.dtype(stored)


def test_fused_chunk_block_is_at_most_a_quarter_of_its_bytes(tmp_path):
    """Votes, LF ids, row offsets, feature buckets and count features are
    small integers: a chunk block of the fused pass stores each narrowed."""
    lfs = text_vote_lfs(10, cardinality=4)
    candidates = stream_text_candidates(600, num_lfs=10, cardinality=4, seed=0)
    with BlockStore(str(tmp_path / "store")) as store:
        checkpoint = ChunkCheckpointer(store, "train")
        LFApplier(lfs, chunk_size=256).apply_with_features(
            candidates, RelationFeaturizer(num_features=512).fit(), checkpoint=checkpoint
        )
        assert checkpoint.completed == {0, 1, 2}
        for index in sorted(checkpoint.completed):
            arrays, _ = store.get(f"chunk/train/{index}")
            logical = sum(array.nbytes for array in arrays.values())
            on_disk = os.path.getsize(os.path.join(store.blocks_dir, f"chunk~train~{index}.blk"))
            assert on_disk <= logical / 4, (index, on_disk, logical)


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
def sealed(body: bytes) -> bytes:
    """``body`` with the crc32 trailer that makes a block file check out."""
    return body + zlib.crc32(body).to_bytes(4, "little")


def test_torn_block_file_dropped(tmp_path):
    """A block cut short (a crash mid-write) fails its trailer crc on
    reopen and is unlinked; the committed block beside it survives."""
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("good", {"a": np.arange(3)})
        store.put("torn", {"a": np.arange(50)})
        path = os.path.join(store.blocks_dir, "torn.blk")
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)
    with BlockStore(root) as store:
        assert store.keys() == ["good"]
        arrays, _ = store.get("good")
        assert np.array_equal(arrays["a"], [0, 1, 2])
    assert not os.path.exists(path)


def test_corrupt_block_file_detected_and_deleted(tmp_path):
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("victim", {"a": np.arange(100)})
        store.put("survivor", {"a": np.arange(5)})
        path = os.path.join(store.blocks_dir, "victim.blk")
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.seek(size // 2)
        byte = handle.read(1)
        handle.seek(size // 2)
        handle.write(bytes([byte[0] ^ 0xFF]))
    with BlockStore(root) as store:
        assert store.keys() == ["survivor"]
        assert not os.path.exists(path)


def test_recovery_never_touches_paths_outside_blocks(tmp_path):
    """Recovery lists ``blocks/`` only: a format-2 store's ``index.jsonl``
    whose lines point out of ``blocks/`` and stray files beside it stay
    byte for byte as they were, and a block copied under another key's
    file name is dropped."""
    root = tmp_path / "store"
    victim = tmp_path / "victim.txt"
    victim.write_text("keep me")
    with BlockStore(str(root)) as store:
        store.put("good", {"a": np.arange(3)})
    index = root / "index.jsonl"
    index.write_text("".join(
        json.dumps(record) + "\n"
        for record in (
            {"key": "chunk/train/0", "file": "../../victim.txt", "size": 1, "crc": 0},
            {"key": "chunk/train/1", "file": "../outside.blk", "size": 1, "crc": zlib.crc32(b"x")},
            {"key": "../outside", "file": "..~outside.blk", "size": 1, "crc": 0},
        )
    ))
    before = index.read_bytes()
    (root / "outside.blk").write_bytes(b"x")
    copy = root / "blocks" / "chunk~train~0.blk"
    copy.write_bytes((root / "blocks" / "good.blk").read_bytes())
    with BlockStore(str(root)) as store:
        keys = store.keys()
    assert keys == ["good"]
    assert not copy.exists()
    assert victim.read_text() == "keep me"
    assert (root / "outside.blk").read_bytes() == b"x"
    assert index.read_bytes() == before


@pytest.mark.parametrize("magic", [b"RBLK1\n", b"RBLK2\n", b"RBLK9\n"])
def test_block_of_another_format_recovers_as_empty(tmp_path, magic):
    """A block whose magic is not this format's is dropped on reopen like a
    corrupt one — even with a matching trailer crc — so an old store
    resumes empty instead of failing at the first read."""
    assert magic != MAGIC
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("chunk/train/0", {"a": np.arange(5)})
        store.put("survivor", {"a": np.arange(2)})
        path = os.path.join(store.blocks_dir, "chunk~train~0.blk")
    with open(path, "rb") as handle:
        body = handle.read()[:-4]
    with open(path, "wb") as handle:
        handle.write(sealed(magic + body[len(magic):]))
    with BlockStore(root) as store:
        assert store.keys() == ["survivor"]
        assert ChunkCheckpointer(store, "train").completed == set()
    assert not os.path.exists(path)


def test_block_with_an_unreadable_header_is_dropped(tmp_path):
    """A sealed block whose header overruns the file, lacks its key, is no
    object, or holds a key that is no key or an epoch that is no integer is
    dropped on reopen."""
    complete = (
        b'{"epoch": null, "meta": {}, "arrays": []}',
        b'["k"]',
        b'{"key": "k", "epoch": "1", "meta": {}, "arrays": []}',
        b'{"key": "k k", "epoch": null, "meta": {}, "arrays": []}',
    )
    root = str(tmp_path / "store")
    for header, length in [(b'{"key": "k"', 10**6)] + [(h, len(h)) for h in complete]:
        with BlockStore(root) as store:
            store.put("k", {"a": np.arange(5)})
            path = os.path.join(store.blocks_dir, "k.blk")
        with open(path, "wb") as handle:
            handle.write(sealed(MAGIC + length.to_bytes(8, "little") + header))
        with BlockStore(root) as store:
            assert store.keys() == [], header
        assert not os.path.exists(path), header


def test_orphan_and_tmp_files_swept(tmp_path):
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("real", {"a": np.arange(3)})
        blocks_dir = store.blocks_dir
    orphan = os.path.join(blocks_dir, "orphan.blk")
    leftover = os.path.join(blocks_dir, "real.blk.12345.tmp")
    open(orphan, "wb").close()
    open(leftover, "wb").close()
    with BlockStore(root) as store:
        assert store.keys() == ["real"]
    assert not os.path.exists(orphan)
    assert not os.path.exists(leftover)


def test_clear_empties_store(tmp_path):
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("a", {"x": np.arange(3)})
        store.put("b", {"x": np.arange(4)})
        store.clear()
        assert store.keys() == []
        assert os.listdir(store.blocks_dir) == []
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
    """Every ``os.fsync`` / ``os.unlink`` / ``os.rename`` call, in order: an
    fsync is recorded as ``("fsync", "dir")`` or ``("fsync", "file")``."""
    calls = []
    fsync, unlink, rename = os.fsync, os.unlink, os.rename

    def record_fsync(fd):
        calls.append(("fsync", "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"))
        return fsync(fd)

    def record_unlink(path, *args, **kwargs):
        calls.append(("unlink", os.path.basename(path)))
        return unlink(path, *args, **kwargs)

    def record_rename(src, dst, *args, **kwargs):
        calls.append(("rename", os.path.basename(dst)))
        return rename(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "unlink", record_unlink)
    monkeypatch.setattr(os, "rename", record_rename)
    return calls


def fsyncs(calls) -> int:
    return sum(1 for op, _ in calls if op == "fsync")


def test_put_makes_two_fsyncs_and_open_and_get_none(tmp_path, fs_calls):
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("chunk/train/0", {"a": np.arange(9)})
        assert fs_calls == [("fsync", "file"), ("rename", "chunk~train~0.blk"), ("fsync", "dir")]
    fs_calls.clear()
    with BlockStore(root) as store:
        store.get("chunk/train/0")
        assert "chunk/train/0" in store
    assert fs_calls == []


def test_clear_is_durable_before_the_next_put_commits(tmp_path, fs_calls):
    with BlockStore(str(tmp_path / "store")) as store:
        for key in ("a", "b", "c"):
            store.put(key, {"x": np.arange(3)})
        fs_calls.clear()
        store.clear()
        store.put("meta/fingerprint", {"x": np.arange(2)})
    unlinks = [i for i, (op, _) in enumerate(fs_calls) if op == "unlink"]
    dir_syncs = [i for i, call in enumerate(fs_calls) if call == ("fsync", "dir")]
    commit = fs_calls.index(("rename", "meta~fingerprint.blk"))
    assert len(unlinks) == 3
    assert unlinks[-1] < dir_syncs[0] < commit
    assert fsyncs(fs_calls) == 3  # clear's one, then the put's two


def test_checkpointed_run_fsyncs_twice_per_put_and_replay_never(tmp_path, fs_calls, monkeypatch):
    from repro.datasets.synthetic import stream_text_gold
    from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

    puts = []
    put = BlockStore.put

    def counted_put(store, key, *args, **kwargs):
        puts.append(key)
        return put(store, key, *args, **kwargs)

    monkeypatch.setattr(BlockStore, "put", counted_put)
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
    assert fsyncs(fs_calls) == 2 * len(puts) + 1  # + clear's one
    puts.clear()
    fs_calls.clear()
    replayed = run()
    assert puts == [] and fs_calls == []
    assert replayed.training_probs.tobytes() == first.training_probs.tobytes()


# ---------------------------------------------------------- generated crash
KEYS = ("fam/a", "fam/b", "fam/c", "solo", "deep/x/y", "deep/x/z")


@st.composite
def store_histories(draw):
    """A run of put / re-put / delete operations ending in a put, plus how
    the last-written block file is damaged afterwards."""
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
def test_reopen_holds_exactly_the_committed_blocks(history):
    """After any history of puts, re-puts and deletes, with the last-written
    block file truncated or byte-flipped at any offset, a reopened store
    holds exactly the committed keys, each byte-equal to what was put — the
    damaged key either whole or absent."""
    ops, damage, where = history
    expected = committed_after(ops)
    damaged = ops[-1][1]
    with tempfile.TemporaryDirectory() as root:
        with BlockStore(root) as store:
            for op in ops:
                if op[0] == "delete":
                    store.delete(op[1])
                else:
                    store.put(op[1], {"v": np.array(op[2], dtype=np.int64)}, epoch=op[3])
            assert store.keys() == sorted(expected)
            path = os.path.join(store.blocks_dir, damaged.replace("/", "~") + ".blk")
        if os.path.exists(path):
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                if damage == "truncate":
                    handle.truncate(int(where * size))
                else:
                    handle.seek(int(where * size))
                    byte = handle.read(1)[0]
                    handle.seek(int(where * size))
                    handle.write(bytes([byte ^ 0xFF]))
        with BlockStore(root) as store:
            keys = store.keys()
            if damaged not in keys:
                expected.pop(damaged, None)
            assert keys == sorted(expected)
            for key, (values, _) in expected.items():
                loaded = store.get(key)[0]["v"]
                assert loaded.tobytes() == np.array(values, dtype=np.int64).tobytes(), key
            assert sorted(os.listdir(store.blocks_dir)) == sorted(
                key.replace("/", "~") + ".blk" for key in keys
            )


# ------------------------------------------------------ deletion & retention
def test_delete_removes_block_and_survives_reopen(tmp_path):
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        store.put("dead", {"a": np.arange(3)})
        store.put("alive", {"a": np.arange(4)})
        path = os.path.join(store.blocks_dir, "dead.blk")
        assert store.delete("dead")
        assert not store.delete("dead")  # already gone
        assert not os.path.exists(path)
        assert store.keys() == ["alive"]
    # The unlink is durable: reopening must not resurrect the key.
    with BlockStore(root) as store:
        assert store.keys() == ["alive"]


def test_retention_latest_epoch_deletes_superseded_blocks(tmp_path):
    """A multi-epoch run's store directory must not retain dead block files
    for superseded snapshot versions."""
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        for version in range(5):
            store.put(f"model/state/v{version}", {"w": np.arange(version + 1)},
                      epoch=version)
        assert store.keys() == ["model/state/v4"]
        assert os.listdir(store.blocks_dir) == ["model~state~v4.blk"]
    with BlockStore(root) as store:
        arrays, _ = store.get("model/state/v4")
        assert np.array_equal(arrays["w"], np.arange(5))


def test_retention_latest_epoch_prunes_stale_families_at_open(tmp_path):
    """A process killed between a durable epoch-stamped put and the drop of
    the epoch it supersedes leaves both files; the next open drops the
    stale one."""
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
    blocks_dir = os.path.join(root, "blocks")
    assert sorted(os.listdir(blocks_dir)) == ["fam~v1.blk", "fam~v2.blk", "other.blk"]
    with BlockStore(root) as store:
        assert store.keys() == ["fam/v2", "other"]
    assert sorted(os.listdir(blocks_dir)) == ["fam~v2.blk", "other.blk"]


def test_reputs_under_churn_leave_one_file(tmp_path):
    """500 re-puts of one key leave one block file, and the last one wins,
    also across a reopen."""
    root = str(tmp_path / "store")
    with BlockStore(root) as store:
        for round_ in range(500):
            store.put("hot", {"a": np.array([round_])})
        assert os.listdir(store.blocks_dir) == ["hot.blk"]
        assert store.get("hot")[0]["a"][0] == 499
    with BlockStore(root) as store:
        assert store.keys() == ["hot"]
        assert store.get("hot")[0]["a"][0] == 499


def test_chunk_checkpointer_prune_beyond(tmp_path):
    with BlockStore(str(tmp_path / "store")) as store:
        ckpt = ChunkCheckpointer(store, "train")
        for index in range(6):
            ckpt.record(make_result(index, with_features=False))
        assert ckpt.prune_beyond(4) == 2
        assert ckpt.completed == {0, 1, 2, 3}
        assert ckpt.prune_beyond(4) == 0


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
            assert blocks[index].indptr.tobytes() == in_ram.indptr.tobytes()
            assert blocks[index].indices.astype(np.int64).tobytes() == in_ram.indices.tobytes()
            assert blocks[index].data.astype(np.float64).tobytes() == in_ram.data.tobytes()
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


def row_major_result(index, num_candidates=10):
    """A fused chunk result whose feature triples are row-major counts, as
    the featurizer emits them."""
    result = make_result(index, num_candidates)
    features = result.features
    features.row_offsets = np.sort(features.row_offsets)
    features.values = np.floor(features.values * 4) + 1
    return result


def test_stored_feature_blocks_serve_overrides(tmp_path):
    """Stored blocks come back once, in their narrow stored dtypes, as owned
    writable copies equal to the in-RAM build after widening; overrides are
    served as given."""
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
        in_ram = CSRFeatureMatrix.from_chunk(row_major_result(0).features, 16)
        assert np.array_equal(built.indptr, in_ram.indptr)
        assert built.indices.astype(np.int64).tobytes() == in_ram.indices.tobytes()
        assert built.data.astype(np.float64).tobytes() == in_ram.data.tobytes()


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
