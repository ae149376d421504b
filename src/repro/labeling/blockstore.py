"""Crash-safe disk store for the streaming pipeline's intermediate blocks.

The fused labeling pass produces one :class:`ChunkResult` per chunk — label
triples, and for ``apply_with_features`` a CSR feature block riding along.
Keeping those in RAM only (the pre-block-store design) means a killed run
loses everything.  This module makes the blocks durable the moment they
arrive at the master, with three layers:

:class:`BlockStore`
    One append-only log per store, ``blockstore.log`` in the store's root
    directory, of self-checking records.  A record is the magic, its own
    length and its header's, a JSON header (the block's key, its optional
    epoch, its meta and the named arrays' specs), the 64-byte-aligned raw
    payloads, and a crc32 of everything before it.

    *Durability per put.*  ``put`` appends one record and fsyncs the log —
    the put that starts an empty log also fsyncs the root — so a block is
    durable when ``put`` returns.  There is no group commit: a
    checkpointed run's time did not go to fsyncs but to the files and
    directories it created, renamed and deleted.  The store makes no
    directory of its own (only a missing root is created), and the log
    keeps disk reserved ahead of its end (:data:`RESERVE`), so its appends
    fill one extent and deleting the store frees one extent and the root.

    *The prefix rule.*  Opening a store scans the log once and keeps its
    longest valid prefix: the first record whose length, crc, magic or
    header does not hold ends the log, and every record after it is
    dropped with it, however whole — a torn append, or a byte flipped in
    record 2 of 10, recomputes records 2 to 10.  Within the prefix the last
    record of a key wins, and an epoch-stamped record supersedes the lower
    epochs of its family (see :meth:`BlockStore.put`); there are no
    tombstones.  The root is shared with the caller's own files, so an
    open reads the log and removes a rewrite's temp file,
    ``blockstore.log.tmp``, and touches no other name.  The layout before
    this one, a ``blocks/`` directory holding ``blocks/log`` (or per-key
    ``*.blk`` files), is neither read nor removed: such a store reopens
    empty and its chunks are recomputed, as after a format change.

    *The reclamation rule.*  The log is rewritten only when its dead bytes
    (superseded records) exceed its live bytes, on ``delete`` and
    ``clear``, and when an open drops a torn tail: the live records are
    copied to a new file, which is fsynced and renamed over the log.  The
    log is never truncated or written in place, so an array served from an
    earlier mapping keeps its bytes.

    Every int or float array is stored in the narrowest signed int dtype
    that holds it bit-exactly (:func:`repro.utils.csr.narrowed`: votes,
    column ids, row offsets and count-valued features are small integers;
    ``-0.0``, NaN, ∞ and fractions stay wide), and the header records the
    original dtype.  A
    read maps the log and serves each array as a read-only
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
    bit-identical to an uninterrupted one.  A record holds only what a
    resume cannot derive: a block's row ids that do not decrease (every
    producer's order) are stored as one count per row, from which
    ``np.repeat`` rebuilds them bit for bit, and any other row ids as
    given.  A full disk degrades rather than kills: the first failed write
    warns and disables further checkpointing, and the labeling run
    continues in RAM.

:meth:`ChunkCheckpointer.feature_blocks`
    Reads each chunk's stored feature block once, at the end of the pass,
    through one mapping of the log, and keeps its column ids and values in
    the narrow dtypes they were stored in (int16 columns and int8 counts for
    hashed n-grams: 3 B per entry), copied out of the mapping into arrays
    the run owns, and takes its ``indptr`` from the cumulative sum of its
    stored row counts.  Those are the dtypes and bytes an in-RAM run's
    block has from birth (``CSRFeatureMatrix.from_chunk`` narrows by the
    same rule), so the end model trains on the same bits either way: each
    block shrunk in place to the kept rows and planned once per fit.  X is
    resident, narrow — the "Λ + X CSR bytes" of the memory target — and the
    log is never written through.

Fault-injection hooks (:mod:`repro.labeling.engine.faults`) are threaded
through the write path so the crash-recovery gate can deterministically
produce torn records, full disks, and mid-pass master deaths.
"""

from __future__ import annotations

import ctypes
import itertools
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
from repro.labeling.engine.accumulator import ChunkResult, attach_arrays, detach_arrays
from repro.utils.csr import narrowed

__all__ = ["BlockStore", "ChunkCheckpointer", "EpochCheckpoint"]

#: First bytes of every record; bumping the trailing digit invalidates all
#: existing stores (an open stops at the first record without it, so they
#: recover as empty and their chunks re-execute).
MAGIC = b"RBLK5\n"

#: Records start, and their payloads are aligned, at multiples of this many
#: bytes of the log, so a view of any standard dtype is well-aligned.
ALIGN = 64

#: Bytes of the crc32 trailer that ends every record.
_TRAILER = 4

#: Bytes before a record's header: the magic, the record's length and the
#: header's length.
_PREFIX = len(MAGIC) + 16

#: The file name of the log inside the store's root.  It names the store,
#: since the root also holds the caller's files: an open that found no valid
#: record in a file of this name would rewrite it empty.
_LOG = "blockstore.log"

#: Keys are path-like identifiers; ``/`` separates namespaces.
_KEY_RE = re.compile(r"^[A-Za-z0-9._/-]+$")

#: The log keeps disk allocated ahead of its end, in power-of-two multiples
#: of this many bytes (see :func:`_write_synced`), so its fsynced appends
#: fill one reserved extent instead of each asking the allocator for blocks,
#: which can scatter a 1.8 MB log over five extents.  Deleting a file costs
#: per extent where freed blocks are discarded (≈ 0.06 s an extent, whatever
#: its length, on ext4 mounted ``discard`` over a virtio disk), and removing
#: a directory frees its block at the same price (≈ 0.05 s), which is why the
#: log sits in the root and not in a directory of its own.  A reserved log
#: is cheaper to delete, at the price of up to twice its bytes, at least
#: 4 MiB, of disk until it is deleted.  Trimming the reservation when a run
#: ends would free the reserved blocks as an extent of their own: one more
#: discard per run.
RESERVE = 4 << 20

try:  # Linux's fallocate(2); elsewhere the log allocates as it grows
    _fallocate = ctypes.CDLL(None).fallocate
    _fallocate.argtypes = (ctypes.c_int, ctypes.c_int, ctypes.c_int64, ctypes.c_int64)
except (AttributeError, OSError, TypeError):
    _fallocate = None


def _key_family(key: str) -> str:
    """The reclamation grouping of a key: everything before its last segment.

    ``online/state/v7`` and ``online/state/v9`` share the family
    ``online/state``, so the store treats them as snapshots of one logical
    object and keeps only the newest epoch.
    """
    return key.rsplit("/", 1)[0]


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_synced(path: str, flags: int, chunks, end: int = 0) -> None:
    """Write ``chunks`` to ``path``, opened (and created if need be) with
    ``flags``, and fsync it before returning.

    With ``end`` (the file's size after the write), first ask the file
    system to keep the file allocated up to the smallest power-of-two
    multiple of :data:`RESERVE` that holds ``end``, without changing its
    size — a hint: where it is refused or unsupported, the write allocates
    as it goes."""
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT | flags, 0o644), "wb") as handle:
        if end and _fallocate is not None:  # mode 1 is FALLOC_FL_KEEP_SIZE
            _fallocate(handle.fileno(), 1, 0, RESERVE << ((end - 1) // RESERVE).bit_length())
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        os.fsync(handle.fileno())


def _row_counts(ids: np.ndarray, rows: int) -> Optional[np.ndarray]:
    """How many of ``ids`` name each of ``rows`` rows, when they are row ids
    in ``[0, rows)`` that do not decrease — the order every producer emits,
    which ``np.repeat`` rebuilds from the counts — else ``None``."""
    if ids.dtype.kind not in "iu" or ids.ndim != 1 or ids.size and (
        ids[0] < 0 or ids[-1] >= rows or (ids[1:] < ids[:-1]).any()
    ):
        return None
    return np.bincount(ids.astype(np.intp, copy=False), minlength=rows)


def _encode(key: str, epoch: Optional[int], arrays: dict[str, np.ndarray], meta: dict) -> bytes:
    """One record.  Payload offsets are relative to the payload section;
    the header is padded with spaces so that section starts at a multiple
    of :data:`ALIGN` of the record, each payload is padded to one, and zeros
    before the trailer make the record's length one too."""
    specs, payloads, offset = [], [], 0
    for name, array in arrays.items():
        array = np.asarray(array, order="C")
        stored = narrowed(array)
        raw = stored.tobytes()
        specs.append({"name": name, "dtype": array.dtype.str, "stored": stored.dtype.str,
                      "shape": list(array.shape), "offset": offset, "nbytes": len(raw)})
        payloads.append(raw + bytes(-len(raw) % ALIGN))
        offset += len(payloads[-1])
    header = json.dumps({"key": key, "epoch": epoch, "meta": meta, "arrays": specs}).encode()
    header += b" " * (-(_PREFIX + len(header)) % ALIGN)
    length = _PREFIX + len(header) + offset + ALIGN
    sizes = length.to_bytes(8, "little") + len(header).to_bytes(8, "little")
    body = b"".join([MAGIC, sizes, header, *payloads, bytes(ALIGN - _TRAILER)])
    return body + zlib.crc32(body).to_bytes(_TRAILER, "little")


def _record_at(log, start: int) -> Optional[tuple[dict, int, int]]:
    """``(header, base, end)`` of the record at ``start`` of ``log``'s bytes
    — its header, the offset its payloads are relative to and the offset
    after it — when its length, crc32, magic, header, key, epoch and array
    specs all hold, else ``None``."""
    head = start + _PREFIX
    try:
        if log[start : start + len(MAGIC)] != MAGIC:
            return None
        end = start + int.from_bytes(log[head - 16 : head - 8], "little")
        base = head + int.from_bytes(log[head - 8 : head], "little")
        if not base + _TRAILER <= end <= len(log):
            return None
        trailer = int.from_bytes(log[end - _TRAILER : end], "little")
        if zlib.crc32(log[start : end - _TRAILER]) != trailer:
            return None
        header = json.loads(log[head:base])
        key, epoch = header["key"], header["epoch"]
        for spec in header["arrays"]:
            nbytes = math.prod(spec["shape"]) * np.dtype(spec["stored"]).itemsize
            negative = min(0, spec["offset"], *spec["shape"]) < 0
            beyond = base + spec["offset"] + nbytes > end - _TRAILER
            if negative or beyond or spec["nbytes"] != nbytes:
                return None
    except (ValueError, KeyError, TypeError):
        return None
    if isinstance(key, str) and _KEY_RE.match(key) and isinstance(epoch, (int, type(None))):
        return header, base, end
    return None


def _decode(mapped, base: int, spec: dict, widen: bool) -> np.ndarray:
    """One array of a mapped record: a read-only view, widened back to its
    original dtype if it was stored narrowed — or, without ``widen``, an
    owned, writable copy in the dtype it was stored in."""
    stored, dtype = np.dtype(spec["stored"]), np.dtype(spec["dtype"])
    shape = tuple(spec["shape"])
    count, offset = math.prod(shape), base + spec["offset"]
    array = np.frombuffer(mapped, stored, count=count, offset=offset).reshape(shape)
    if not widen:
        return array.copy()
    if stored != dtype:
        array = array.astype(dtype)
        array.flags.writeable = False
    return array


class BlockStore:
    """Atomic, self-checking, mmap-readable storage of named-array blocks.

    Layout under ``root``, which the store shares with the caller's files::

        blockstore.log       the append-only log: one record per put
        blockstore.log.tmp   a rewrite in progress (crash residue on open)

    The store creates ``root`` if it is missing and no directory otherwise.
    ``put`` appends a record and fsyncs the log (plus ``root`` when the log
    was empty): one fsync per put, no rename, no unlink, so a checkpointed
    run into an existing directory creates one file and no directory.
    Opening a store removes ``blockstore.log.tmp`` if it is there and keeps
    the log's longest valid prefix, where the last record of a key wins; it
    touches no other name in ``root``.  A ``blocks/`` directory of the
    previous layout is left as it is and not read, so such a store opens
    empty.  Opening a clean store and reading it make no fsync, rename or
    unlink.

    Reclamation: the store keeps only the newest epoch of each *family*
    (a key minus its last ``/`` segment) of epoch-stamped keys, and the
    records of the keys it no longer holds are dead bytes.  When they
    exceed the live bytes, and on :meth:`delete`, :meth:`clear` and an
    open that drops a torn tail, the live records are copied to
    ``blockstore.log.tmp``, which is fsynced and renamed over the log
    before ``root`` is fsynced — so the log stays within twice its live
    bytes plus one record, and a delete or clear is durable when it returns.
    :meth:`clear` of an empty or absent log touches nothing.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        if not os.path.isdir(self.root):
            os.makedirs(self.root, exist_ok=True)
        #: The log's path: ``blockstore.log`` in ``root``.
        self.path = os.path.join(self.root, _LOG)
        #: Every live key's record, in log order: its epoch (``None`` when
        #: unstamped) and its start, payload base and end offsets.
        self._records: dict[str, tuple[Optional[int], int, int, int]] = {}
        #: Bytes of the log held by live records, and by all valid records.
        self._live = self._size = 0
        #: Whether bytes of a failed append may follow the valid records.
        self._torn = False
        #: The latest read-only mapping of the log, or ``None``.
        self._mapped: Optional[mmap.mmap] = None
        #: Ordinals of the ``put`` calls in this process — the trigger
        #: indexes of write-path fault rules (``disk_full@N`` etc.).
        self._ordinals = itertools.count()
        if os.path.exists(self.path + ".tmp"):
            os.unlink(self.path + ".tmp")
        if not os.path.exists(self.path) or not os.path.getsize(self.path):
            return
        log = self._map(1)
        while (record := _record_at(log, self._size)) is not None:
            self._commit(*record, self._size)
            self._size = record[2]
        if self._size < len(log) or self._size > 2 * self._live:
            self._rewrite()

    # --------------------------------------------------------------- writes
    def put(
        self,
        key: str,
        arrays: dict[str, np.ndarray],
        meta: Optional[dict] = None,
        epoch: Optional[int] = None,
    ) -> None:
        """Durably store named arrays (plus JSON-safe ``meta``) under ``key``.

        ``epoch`` stamps the block with a supersession ordinal: the store
        keeps only the newest epoch of the key's family, and drops every
        epoch-stamped key of it with a lower one.
        """
        if not _KEY_RE.match(key):
            raise LabelingError(f"bad block key {key!r}")
        ordinal = next(self._ordinals)
        faults.maybe_disk_full(ordinal)
        record = _encode(key, None if epoch is None else int(epoch), arrays, meta or {})
        if self._torn:
            self._rewrite()
        start = self._size
        try:
            _write_synced(self.path, os.O_APPEND, [record], start + len(record))
        except OSError:
            self._torn = True  # what reached the log must not precede the next record
            raise
        if not start:
            _fsync_dir(self.root)
        # Injected corruption of the durable record: its trailer keeps the
        # *intended* crc, so the next open ends the log before it (and its
        # chunk, like every later one, is re-executed).
        faults.corrupt_block_file(self.path, ordinal, start)
        header, base, end = _record_at(record, 0)
        self._size += end
        self._commit(header, base + start, end + start, start)
        faults.maybe_die_at_block(ordinal)
        if self._size > 2 * self._live:
            self._rewrite()

    def _commit(self, header: dict, base: int, end: int, start: int) -> None:
        """Make a valid record at ``start`` its key's, and drop the
        epoch-stamped keys of its family it leaves below the newest epoch."""
        key, epoch = header["key"], header["epoch"]
        if key in self._records:
            self._forget(key)
        self._records[key] = (epoch, start, base, end)
        self._live += end - start
        if epoch is not None:
            family = {
                other: record[0] for other, record in self._records.items()
                if record[0] is not None and _key_family(other) == _key_family(key)
            }
            for other, stamp in family.items():
                if stamp < max(family.values()):
                    self._forget(other)

    def _forget(self, key: str) -> None:
        _epoch, start, _base, end = self._records.pop(key)
        self._live -= end - start

    def _rewrite(self) -> None:
        """Reclamation: copy the live records, in log order, to a new file,
        fsync it, rename it over the log and fsync the root."""
        log = self._map(self._size) if self._records else b""
        records, spans, size = {}, [], 0
        for key, (epoch, start, base, end) in self._records.items():
            records[key] = (epoch, size, base - start + size, end - start + size)
            spans.append((start, end))
            size += end - start
        tmp = self.path + ".tmp"
        _write_synced(tmp, os.O_TRUNC, (log[start:end] for start, end in spans))
        os.rename(tmp, self.path)
        _fsync_dir(self.root)
        self._records, self._live, self._size = records, size, size
        self._torn, self._mapped = False, None

    def delete(self, *keys: str) -> int:
        """Durably remove keys: the log is rewritten once without their
        records.  Returns how many of them the store held."""
        held = self._records.keys() & keys
        for key in held:
            self._forget(key)
        if held:
            self._rewrite()
        return len(held)

    # ---------------------------------------------------------------- reads
    def _map(self, end: int) -> mmap.mmap:
        """A read-only mapping of the log reaching at least ``end``; an
        earlier one stays alive as long as an array viewing it."""
        if self._mapped is None or len(self._mapped) < end:
            with open(self.path, "rb") as handle:
                self._mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        return self._mapped

    def get(self, key: str) -> tuple[dict[str, np.ndarray], dict]:
        """Load ``key``'s arrays, read-only and in their original dtypes,
        plus meta."""
        return self._read(key, None)

    def _read(self, key: str, names: Optional[tuple], widen: bool = True) -> tuple[dict, dict]:
        """:meth:`get`, decoding only the arrays in ``names`` (all for
        ``None``): each array is a view of the log's mapping or, if it was
        stored narrowed, its widened copy — or, without ``widen``, its owned
        copy in the stored dtype."""
        if key not in self._records:
            raise LabelingError(f"block {key!r} not in store {self.root}")
        _epoch, start, base, end = self._records[key]
        mapped = self._map(end)
        header = json.loads(mapped[start + _PREFIX : base])
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
        """Drop every block (used when a store's fingerprint is stale): the
        log is rewritten empty, durably before it returns.  An empty or
        absent log is left untouched."""
        self._records, self._live = {}, 0
        if self._size or self._torn:
            self._rewrite()

    def __enter__(self) -> "BlockStore":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def _disable(checkpointer, failure: str) -> None:
    """Degrade a checkpointer after its first failed write: one warning,
    attributed to its caller's caller, and no further writes."""
    warnings.warn(f"{failure}; the run continues without durability", RuntimeWarning, 3)
    checkpointer.disabled = True


class ChunkCheckpointer:
    """Durable per-chunk checkpoints of one labeling pass over one split.

    ``record`` persists a freshly computed :class:`ChunkResult` before the
    accumulator transform consumes it; ``replay`` reconstructs the label
    half of a durably recorded one (triple arrays read from the mapped
    log, row ids rebuilt from their counts), which a resumed run feeds
    through the identical transform
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
        """Durably store a freshly computed result: its metadata pickled, its
        arrays as ``a0``..``a5`` in :func:`detach_arrays`' order — except
        that a block's row ids (``a0``, ``a3``) that do not decrease are
        stored as per-row counts, and the record's ``meta["counts"]`` maps
        their names to the ids' dtype."""
        if self.disabled or result.index in self.completed:
            return
        meta, arrays = detach_arrays(result)
        named, counted = {"meta": np.frombuffer(pickle.dumps(meta), dtype=np.uint8)}, {}
        for position, array in enumerate(map(np.asarray, arrays)):
            rows = (result, result.features)[position // 3].num_candidates
            if not position % 3 and (counts := _row_counts(array, rows)) is not None:
                counted[f"a{position}"], array = array.dtype.str, counts
            named[f"a{position}"] = array
        try:
            self.store.put(self._key(result.index), named, {"counts": counted})
        except OSError as exc:
            _disable(self, f"chunk checkpointing disabled after write failure on chunk "
                           f"{result.index} ({exc})")
            return
        self.completed.add(result.index)

    def replay(self, index: int) -> ChunkResult:
        """A durably recorded chunk's result without its feature block, which
        is not decoded: the accumulator transform drops a replayed chunk's
        features, and :meth:`feature_blocks` reads them once the pass is
        over.  Row ids stored as counts are rebuilt in their own dtype by
        ``np.repeat``; the result equals the recorded one bit for bit."""
        arrays, stored = self.store._read(self._key(index), ("meta", "a0", "a1", "a2"))
        meta = pickle.loads(arrays["meta"].tobytes())
        meta.features = None
        dtype = stored["counts"].get("a0")
        if dtype is not None:
            arrays["a0"] = np.repeat(np.arange(arrays["a0"].size, dtype=dtype), arrays["a0"])
        return attach_arrays(meta, [arrays["a0"], arrays["a1"], arrays["a2"]])

    def feature_blocks(self, num_blocks: int, output_dim: int, overrides: dict) -> list:
        """Every chunk's feature block of a finished pass, in chunk order.

        A stored block is read once, through one mapping of the log: its
        column ids and values stay in the dtypes they were stored in, copied
        out of the mapping into arrays the caller owns (so it may shrink
        them in place), and its ``indptr`` is the cumulative sum of its
        stored row counts (a block whose row ids are not row-major has
        none, and raises, as ``CSRFeatureMatrix.from_triples`` does).  The
        CSR container carries narrow arrays as they are, since every product
        and carve of it gathers, multiplies or assigns into float64, which
        holds any stored integer exactly.  ``overrides`` are the blocks a
        degraded run (disk full) kept in RAM because the store missed them.
        """
        from repro.discriminative.sparse_features import CSRFeatureMatrix

        missing = sorted(set(range(num_blocks)) - self.completed - set(overrides))
        if missing:
            raise LabelingError(f"stored feature blocks incomplete: missing chunks {missing[:5]}"
                                f"{'...' if len(missing) > 5 else ''}")
        blocks = []
        for index in range(num_blocks):
            if index in overrides:
                blocks.append(overrides[index])
                continue
            arrays, stored = self.store._read(self._key(index), ("a3", "a4", "a5"), False)
            if "a3" not in stored["counts"]:
                raise LabelingError(f"stored chunk {index} has no row-major feature block "
                                    f"(was the pass fused?)")
            counts = arrays["a3"]
            indptr = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            shape = (counts.size, output_dim)
            blocks.append(CSRFeatureMatrix._carved(indptr, arrays["a4"], arrays["a5"], shape))
        return blocks

    def prune_beyond(self, num_chunks: int) -> int:
        """Delete stored chunks at index >= ``num_chunks``.

        A shorter stream under the same fingerprint (fewer candidates this
        run) leaves the earlier run's high-index chunk blocks dead on disk;
        the pipeline calls this after every checkpointed pass.  Returns the
        number deleted.
        """
        stale = {index for index in self.completed if index >= num_chunks}
        self.completed -= stale
        return self.store.delete(*map(self._key, stale))


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
            _disable(self, f"epoch checkpointing disabled after write failure at epoch "
                           f"{state.get('epoch')} ({exc})")
            return
        # Crash *after* the durable save: the resumed run starts from this
        # epoch.  The hook ordinal is the 0-based index of the epoch that
        # just completed.
        faults.maybe_die_at_epoch(int(state["epoch"]) - 1)
