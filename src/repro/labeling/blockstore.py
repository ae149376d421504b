"""Crash-safe disk store for the streaming pipeline's intermediate blocks.

The fused labeling pass produces one :class:`ChunkResult` per chunk — label
triples, and for ``apply_with_features`` a CSR feature block riding along.
Keeping those in RAM only (the pre-block-store design) means a killed run
loses everything.  This module makes the blocks durable the moment they
arrive at the master, with three layers:

:class:`BlockStore`
    A directory of immutable block files, each of which checks itself.  A
    block file is the magic, a JSON header (the block's key, its optional
    epoch, its meta and the named arrays' specs), the 64-byte-aligned raw
    payloads, and a crc32 of everything before it.  Each ``put`` assembles
    the block in memory, writes it to a temp file, fsyncs it, renames it to
    its key's file name and fsyncs ``blocks/`` — the rename is the commit
    point, so a crash at any byte leaves either a durable block or garbage
    recovery drops, never a trusted torn block.  Opening a store lists
    ``blocks/`` once and keeps exactly the files whose trailer crc, magic
    and header hold and whose name is their header key's file name; every
    other file (temp residue, torn or renamed blocks, blocks of another
    format) is unlinked.  Nothing outside ``blocks/`` is read or unlinked.

    Block format 3 stores every int or float array in the narrowest signed
    int dtype that holds it bit-exactly (votes, column ids, row offsets and
    count-valued features are small integers; ``-0.0``, NaN, ∞ and
    fractions stay wide), and the header records the original dtype.  A
    read maps the block file once and serves each array as a read-only
    ``np.frombuffer`` view of the mapping, widened back to its original
    dtype where it was narrowed: replaying a block is page-cache traffic,
    not recompute.

:class:`ChunkCheckpointer`
    The engine-facing wrapper: records each :class:`ChunkResult` (via
    :func:`detach_arrays`, so the exact arrays the engine merges are what's
    stored) under ``chunk/<split>/<index>``, knows which chunk indices are
    durably complete, and reloads them as results indistinguishable from
    freshly computed ones — the replayed result flows through the same
    accumulator transform chain, which is what makes a resumed run
    bit-identical to an uninterrupted one.  A full disk degrades rather
    than kills: the first failed write warns and disables further
    checkpointing, and the labeling run continues in RAM.

:meth:`ChunkCheckpointer.feature_blocks`
    Reads each chunk's stored feature block once, at the end of the pass,
    through one mapping of its file, and keeps its column ids and values in
    the narrow dtypes they were stored in (int16 columns and int8 counts for
    hashed n-grams: 3 B per entry against the 16 B of int64 + float64),
    copied out of the mapping into arrays the run owns.  The end model then
    trains on them exactly as on an in-RAM run's blocks: shrunk in place to
    the kept rows and planned once per fit.  X is resident, narrow — the
    "Λ + X CSR bytes" of the memory target — and the store's files are
    never written through.

Fault-injection hooks (:mod:`repro.labeling.engine.faults`) are threaded
through the write path so the crash-recovery gate can deterministically
produce torn blocks, full disks, and mid-pass master deaths.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import pickle
import re
import warnings
import zlib
from typing import Optional

import numpy as np

from repro.exceptions import LabelingError
from repro.labeling.engine import faults
from repro.labeling.engine.accumulator import (
    ChunkResult,
    attach_arrays,
    detach_arrays,
)

__all__ = [
    "BlockStore",
    "ChunkCheckpointer",
    "EpochCheckpoint",
]

#: First bytes of every block file; bumping the trailing digit invalidates
#: all existing stores (recovery checks it, so they recover as empty and
#: their chunks re-execute).
MAGIC = b"RBLK3\n"

#: Array payloads are aligned to this many bytes within the block file so a
#: view of any standard dtype is well-aligned.
ALIGN = 64

#: Bytes of the crc32 trailer that ends every block file.
_TRAILER = 4

#: The dtypes an array may be narrowed to, narrowest first.
_NARROW = tuple(np.dtype(f"<i{size}") for size in (1, 2, 4, 8))

#: Keys are path-like identifiers; ``/`` separates namespaces and maps to a
#: filename-safe character on disk.
_KEY_RE = re.compile(r"^[A-Za-z0-9._/-]+$")


def _key_family(key: str) -> str:
    """The reclamation grouping of a key: everything before its last segment.

    ``online/state/v7`` and ``online/state/v9`` share the family
    ``online/state``, so the store treats them as snapshots of one logical
    object and keeps only the newest epoch.
    """
    return key.rsplit("/", 1)[0] if "/" in key else key


def _key_filename(key: str) -> str:
    return key.replace("/", "~") + ".blk"


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _narrowed(array: np.ndarray) -> np.ndarray:
    """``array`` in the narrowest signed int dtype that holds it bit-exactly,
    or ``array`` itself when no narrower dtype does.

    Ints need only their range.  Floats must also come back bit-equal from
    the round trip, which keeps ``-0.0``, NaN, ∞ and fractions wide.
    """
    kind, itemsize = array.dtype.kind, array.dtype.itemsize
    if kind not in "iuf" or itemsize == 1 or not array.size:
        return array
    low, high = array.min().item(), array.max().item()  # exact Python numbers
    if kind == "f" and not (-(2.0**63) <= low and high < 2.0**63):
        return array  # NaN, ±∞ or beyond int64
    for dtype in _NARROW:
        if dtype.itemsize >= itemsize:
            return array
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            break
    narrow = array.astype(dtype)
    if kind == "f":
        back = narrow.astype(array.dtype)
        bits = np.dtype(f"u{itemsize}")
        if not np.array_equal(back.reshape(-1).view(bits), array.reshape(-1).view(bits)):
            return array
    return narrow


def _layout(mapped) -> tuple[dict, int]:
    """The header of a block file's bytes and the offset its payloads are
    relative to; raises ``ValueError`` (or ``KeyError`` / ``TypeError`` for a
    malformed header) unless it is a block of this format whose arrays all
    lie before its trailer."""
    if mapped[: len(MAGIC)] != MAGIC:
        raise ValueError("bad magic")
    start = len(MAGIC) + 8
    base = start + int.from_bytes(mapped[len(MAGIC) : start], "little")
    header = json.loads(mapped[start:base])
    for spec in header["arrays"]:
        count = math.prod(spec["shape"])
        end = base + spec["offset"] + spec["nbytes"]
        nbytes = count * np.dtype(spec["stored"]).itemsize
        negative = min(0, spec["offset"], *spec["shape"]) < 0
        if negative or spec["nbytes"] != nbytes or end > len(mapped) - _TRAILER:
            raise ValueError(f"array {spec['name']!r} overruns the file")
    return header, base


def _checked_header(path: str) -> Optional[dict]:
    """The header of the block file at ``path`` when its trailer crc, magic,
    header, key and epoch are all valid, else ``None``."""
    try:
        with open(path, "rb") as handle:
            body = handle.read()
        if zlib.crc32(memoryview(body)[:-_TRAILER]) != int.from_bytes(body[-_TRAILER:], "little"):
            return None
        header = _layout(body)[0]
        key, epoch = header["key"], header["epoch"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if isinstance(key, str) and _KEY_RE.match(key) and isinstance(epoch, (int, type(None))):
        return header
    return None


def _decode(mapped, base: int, spec: dict, widen: bool) -> np.ndarray:
    """One array of a mapped block: a read-only view, widened back to its
    original dtype if it was stored narrowed — or, without ``widen``, an
    owned, writable copy in the dtype it was stored in."""
    stored, dtype = np.dtype(spec["stored"]), np.dtype(spec["dtype"])
    shape = tuple(spec["shape"])
    array = np.frombuffer(
        mapped, stored, count=math.prod(shape), offset=base + spec["offset"]
    ).reshape(shape)
    if not widen:
        return array.copy()
    if stored != dtype:
        array = array.astype(dtype)
        array.flags.writeable = False
    return array


class BlockStore:
    """Atomic, self-checking, mmap-readable storage of named-array blocks.

    Layout under ``root``::

        blocks/<key>.blk     immutable block files, ``/`` in the key as
                             ``~`` (written via temp + rename; ``*.tmp``
                             files are crash residue and deleted on open)

    A block file is the whole record of its key: the rename of its fsynced
    temp file onto ``<key>.blk``, followed by an fsync of ``blocks/``, is
    the commit point, and on open a file is trusted only when its trailer
    crc32, magic and header are this format's and its name is the file
    name of the key its header holds.  Re-``put`` of an existing key
    atomically replaces the file.  :meth:`delete` unlinks the file and
    fsyncs ``blocks/``; :meth:`clear` unlinks every file and fsyncs
    ``blocks/`` once before it returns, so a block put afterwards never
    becomes durable beside a stale one that comes back.  A put costs two
    fsyncs; opening a clean store and reading cost none.

    Reclamation: the store keeps only the newest epoch of each *family*
    (a key minus its last ``/`` segment) of epoch-stamped keys.  A
    ``put(..., epoch=E)`` deletes the superseded ones once its block is
    durable, and opening a store drops those a killed process left behind
    — epoch snapshots and versioned model states do not accumulate dead
    block files.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.blocks_dir = os.path.join(self.root, "blocks")
        os.makedirs(self.blocks_dir, exist_ok=True)
        #: Every durable key and its epoch (``None`` when unstamped).
        self._records: dict[str, Optional[int]] = {}
        #: Ordinal of the next ``put`` in this process — the trigger index
        #: for write-path fault rules (``disk_full@N`` etc.).
        self._write_ordinal = 0
        for name in os.listdir(self.blocks_dir):
            path = os.path.join(self.blocks_dir, name)
            header = _checked_header(path)
            if header is not None and name == _key_filename(header["key"]):
                self._records[header["key"]] = header["epoch"]
            else:
                os.unlink(path)
        self._drop_superseded()

    # --------------------------------------------------------------- writes
    def put(
        self,
        key: str,
        arrays: dict[str, np.ndarray],
        meta: Optional[dict] = None,
        epoch: Optional[int] = None,
    ) -> None:
        """Durably store named arrays (plus JSON-safe ``meta``) under ``key``.

        ``epoch`` stamps the block with a supersession ordinal: once it is
        durable, the store keeps only the newest epoch of the key's family
        and deletes every epoch-stamped key of it with a lower one.
        """
        if not _KEY_RE.match(key):
            raise LabelingError(f"bad block key {key!r}")
        ordinal = self._write_ordinal
        self._write_ordinal += 1
        faults.maybe_disk_full(ordinal)
        epoch = None if epoch is None else int(epoch)
        payload = self._encode(key, epoch, arrays, meta or {})
        path = os.path.join(self.blocks_dir, _key_filename(key))
        tmp = path + f".{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.rename(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        _fsync_dir(self.blocks_dir)
        # Injected post-rename corruption: the trailer keeps the *intended*
        # crc, so the torn block is detected (and re-executed) when the
        # store is next opened.
        faults.corrupt_block_file(path, ordinal)
        self._records[key] = epoch
        faults.maybe_die_at_block(ordinal)
        if epoch is not None:
            self._drop_superseded()

    @staticmethod
    def _encode(key: str, epoch: Optional[int], arrays: dict[str, np.ndarray], meta: dict) -> bytes:
        # Header length depends on the offsets, which depend on the header
        # length — resolve with payload offsets relative to the payload
        # section, which starts right after the header.
        specs = []
        offset = 0
        chunks: list[bytes] = []
        for name, array in arrays.items():
            array = np.asarray(array, order="C")
            stored = _narrowed(array)
            pad = (-offset) % ALIGN
            chunks.append(b"\x00" * pad)
            offset += pad
            raw = stored.tobytes()
            specs.append(
                {
                    "name": name,
                    "dtype": array.dtype.str,
                    "stored": stored.dtype.str,
                    "shape": list(array.shape),
                    "offset": offset,
                    "nbytes": len(raw),
                }
            )
            chunks.append(raw)
            offset += len(raw)
        header = json.dumps({"key": key, "epoch": epoch, "meta": meta, "arrays": specs}).encode()
        body = b"".join([MAGIC, len(header).to_bytes(8, "little"), header, *chunks])
        return body + zlib.crc32(body).to_bytes(_TRAILER, "little")

    def delete(self, key: str) -> bool:
        """Durably remove a key: unlink its file, then fsync ``blocks/``.
        Returns whether the key existed."""
        if key not in self._records:
            return False
        del self._records[key]
        os.unlink(os.path.join(self.blocks_dir, _key_filename(key)))
        _fsync_dir(self.blocks_dir)
        return True

    def _drop_superseded(self) -> None:
        """Delete every epoch-stamped key whose family holds a newer epoch."""
        newest: dict[str, int] = {}
        for key, epoch in self._records.items():
            if epoch is not None:
                family = _key_family(key)
                newest[family] = max(newest.get(family, epoch), epoch)
        for key, epoch in list(self._records.items()):
            if epoch is not None and epoch < newest[_key_family(key)]:
                self.delete(key)

    # ---------------------------------------------------------------- reads
    def get(self, key: str) -> tuple[dict[str, np.ndarray], dict]:
        """Load ``key``'s arrays, read-only and in their original dtypes,
        plus meta."""
        return self._read(key, None)

    def _read(
        self, key: str, names: Optional[tuple[str, ...]], widen: bool = True
    ) -> tuple[dict[str, np.ndarray], dict]:
        """:meth:`get`, decoding only the arrays in ``names`` (all for
        ``None``): the block file is mapped once, and each array is a view
        of the mapping or, if it was stored narrowed, its widened copy —
        or, without ``widen``, its owned copy in the stored dtype."""
        if key not in self._records:
            raise LabelingError(f"block {key!r} not in store {self.root}")
        path = os.path.join(self.blocks_dir, _key_filename(key))
        with open(path, "rb") as handle:
            try:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                header, base = _layout(mapped)
            except (ValueError, KeyError, TypeError) as exc:
                raise LabelingError(f"block file {path} is not a readable block ({exc})") from exc
        arrays = {
            spec["name"]: _decode(mapped, base, spec, widen)
            for spec in header["arrays"]
            if names is None or spec["name"] in names
        }
        return arrays, header["meta"]

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def keys(self) -> list[str]:
        return sorted(self._records)

    # ------------------------------------------------------- pickle helpers
    def put_pickle(self, key: str, obj: object) -> None:
        """Store an arbitrary picklable object (phase checkpoints)."""
        self.put(key, {"pickle": np.frombuffer(pickle.dumps(obj), dtype=np.uint8)})

    def get_pickle(self, key: str) -> object:
        arrays, _ = self.get(key)
        return pickle.loads(arrays["pickle"].tobytes())

    # ------------------------------------------------------------- lifecycle
    def clear(self) -> None:
        """Drop every block (used when a store's fingerprint is stale); the
        unlinks are durable before it returns."""
        self._records = {}
        for name in os.listdir(self.blocks_dir):
            os.unlink(os.path.join(self.blocks_dir, name))
        _fsync_dir(self.blocks_dir)

    def __enter__(self) -> "BlockStore":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


class ChunkCheckpointer:
    """Durable per-chunk checkpoints of one labeling pass over one split.

    ``record`` persists a freshly computed :class:`ChunkResult` before the
    accumulator transform consumes it; ``replay`` reconstructs the label
    half of a durably recorded one (triple arrays read from the mapped
    block), which a resumed run feeds through the identical transform
    chain, and :meth:`feature_blocks` its feature block once the pass is
    over.  ``completed`` is the set of chunk indices the store holds —
    ``run_plan`` skips exactly these.

    A failed write (disk full, permissions) disables the checkpointer with
    a single warning instead of aborting the labeling run: durability
    degrades, correctness doesn't.
    """

    def __init__(self, store: BlockStore, split: str) -> None:
        self.store = store
        self.split = split
        self.disabled = False
        # Only a canonical key names a chunk: ``chunk/train/01`` is not
        # chunk 1, whose block ``replay`` would look for under
        # ``chunk/train/1``.
        prefix = f"chunk/{split}/"
        self.completed = set()
        for key in store.keys():
            tail = key[len(prefix):]
            if key.startswith(prefix) and tail.isdigit() and self._key(int(tail)) == key:
                self.completed.add(int(tail))

    def _key(self, index: int) -> str:
        return f"chunk/{self.split}/{index}"

    def record(self, result: ChunkResult) -> None:
        if self.disabled or result.index in self.completed:
            return
        meta, arrays = detach_arrays(result)
        named = {"meta": np.frombuffer(pickle.dumps(meta), dtype=np.uint8)}
        for position, array in enumerate(arrays):
            named[f"a{position}"] = array
        try:
            self.store.put(self._key(result.index), named)
        except OSError as exc:
            warnings.warn(
                f"chunk checkpointing disabled after write failure on chunk "
                f"{result.index} ({exc}); the run continues without durability",
                RuntimeWarning,
                stacklevel=2,
            )
            self.disabled = True
            return
        self.completed.add(result.index)

    def replay(self, index: int) -> ChunkResult:
        """A durably recorded chunk's result without its feature block, which
        is not decoded: the accumulator transform drops a replayed chunk's
        features, and :meth:`feature_blocks` reads them once the pass is
        over."""
        arrays = self.store._read(self._key(index), ("meta", "a0", "a1", "a2"))[0]
        meta = pickle.loads(arrays["meta"].tobytes())
        meta.features = None
        return attach_arrays(meta, [arrays["a0"], arrays["a1"], arrays["a2"]])

    def feature_blocks(self, num_blocks: int, output_dim: int, overrides: dict) -> list:
        """Every chunk's feature block of a finished pass, in chunk order.

        A stored block is read once, through one mapping of its file: its
        column ids and values stay in the dtypes they were stored in, copied
        out of the mapping into arrays the caller owns (so it may shrink
        them in place), and its ``indptr`` is built from its row ids.  The
        CSR container carries narrow arrays as they are, since every product
        and carve of it gathers, multiplies or assigns into float64, which
        holds any stored integer exactly.  ``overrides`` are the blocks a
        degraded run (disk full) kept in RAM because the store missed them.
        """
        from repro.discriminative.sparse_features import CSRFeatureMatrix

        missing = sorted(set(range(num_blocks)) - self.completed - set(overrides))
        if missing:
            raise LabelingError(
                f"stored feature blocks incomplete: missing chunks {missing[:5]}"
                f"{'...' if len(missing) > 5 else ''}"
            )
        blocks = []
        for index in range(num_blocks):
            if index in overrides:
                blocks.append(overrides[index])
                continue
            arrays, _ = self.store._read(self._key(index), ("meta", "a3", "a4", "a5"), False)
            features = pickle.loads(arrays["meta"].tobytes()).features
            if features is None:
                raise LabelingError(
                    f"stored chunk {index} has no feature block (was the pass fused?)"
                )
            rows = features.num_candidates
            indptr = np.zeros(rows + 1, dtype=np.int64)
            np.cumsum(np.bincount(arrays["a3"], minlength=rows), out=indptr[1:])
            shape = (rows, output_dim)
            blocks.append(CSRFeatureMatrix._carved(indptr, arrays["a4"], arrays["a5"], shape))
        return blocks

    def prune_beyond(self, num_chunks: int) -> int:
        """Delete stored chunks at index >= ``num_chunks``.

        A shorter stream under the same fingerprint (fewer candidates this
        run) leaves the earlier run's high-index chunk blocks dead on disk;
        the pipeline calls this after every checkpointed pass.  Returns the
        number deleted.
        """
        stale = sorted(index for index in self.completed if index >= num_chunks)
        for index in stale:
            self.store.delete(self._key(index))
            self.completed.discard(index)
        return len(stale)


class EpochCheckpoint:
    """Durable per-epoch training state for one end-model fit.

    The shared end-model trainer
    (:meth:`repro.discriminative.base.NoiseAwareClassifier._train_minibatches`)
    calls :meth:`save` after every completed epoch with its full update
    state — packed parameters, optimizer moments, loss history, epoch count
    — and :meth:`load` on entry.  A resumed fit re-draws its RNG initialization
    (keeping the RNG stream identical to the uninterrupted run) and then
    overwrites everything from the snapshot, so the minibatch updates it
    replays from ``state["epoch"]`` onward are bit-identical.

    Like :class:`ChunkCheckpointer`, a failed save degrades durability with
    one warning instead of aborting training.
    """

    def __init__(self, store: BlockStore, name: str) -> None:
        if not _KEY_RE.match(name):
            raise LabelingError(f"bad epoch checkpoint name {name!r}")
        self.store = store
        self.key = f"epoch/{name}"
        self.disabled = False

    def load(self) -> Optional[dict]:
        """The last durably saved state, or ``None`` for a fresh fit."""
        if self.key not in self.store:
            return None
        state = self.store.get_pickle(self.key)
        if not isinstance(state, dict) or "epoch" not in state:
            return None
        return state

    def save(self, state: dict) -> None:
        """Durably replace the snapshot; ``state["epoch"]`` = epochs done."""
        if self.disabled:
            return
        try:
            self.store.put_pickle(self.key, state)
        except OSError as exc:
            warnings.warn(
                f"epoch checkpointing disabled after write failure at epoch "
                f"{state.get('epoch')} ({exc}); training continues without "
                f"durability",
                RuntimeWarning,
                stacklevel=2,
            )
            self.disabled = True
            return
        # Crash *after* the durable save: the resumed run starts from this
        # epoch.  The hook ordinal is the 0-based index of the epoch that
        # just completed.
        faults.maybe_die_at_epoch(int(state["epoch"]) - 1)
