#!/usr/bin/env python
"""Crash-recovery gate: kill it every way we know, then prove resume.

The block store claims a SIGKILLed pipeline resumes bit-identically, and
the worker runtime claims crashed and hung workers are detected and
survived.  This script is the CI gate on those claims: it
drives the full fault matrix the fault-injection layer
(:mod:`repro.labeling.engine.faults`) can express —

* master SIGKILLed after N durable chunk blocks, then resumed;
* the same kill, resumed under an LF edited but kept under its name (the
  old body's blocks must not be replayed);
* master SIGKILLed mid end-model training (after N epochs), then resumed;
* the log's last record torn, as by a crash mid-append (the reopen drops
  it, and its chunk re-executes);
* a byte of the log's 2nd record flipped *after* its durable append: by
  the prefix rule the reopen keeps only the record before it, and every
  chunk from it on re-executes;
* a completed log of the previous record format, ``RBLK4``, which stored
  row ids and training posteriors (it reopens empty, and the resumed run
  recomputes everything);
* a completed store in the previous layout: its ``RBLK5`` log as
  ``blocks/log`` beside per-key ``RBLK3`` block files of the format before
  the log, and a format-2 ``index.jsonl`` naming a path outside the store
  (it reopens empty, the resumed run recomputes everything, and recovery
  leaves every file of it and the path byte-identical);
* a worker hung past the chunk deadline (warned, killed, resubmitted —
  EN101);
* the disk filling mid-run (checkpointing degrades with one warning, the
  run completes);
* the disk filling at a mid-pass chunk block, so the end model trains on
  stored blocks read back in their narrow dtypes mixed with the blocks the
  degraded run kept in RAM (the result must equal the in-RAM run bit for
  bit, and the store must hold no temp residue).

Every resumed or degraded run must match an uninterrupted reference run
bit-for-bit (labels) and to 1e-12 (probabilities, weights).  After all of
it, the operating system must be back where it started: zero surviving
worker processes (including workers orphaned by the SIGKILLed masters),
zero ``*.tmp`` residue in any block store's directory, and zero ``repro-eng-*``
segments in ``/dev/shm`` (nothing should create one).  Exit status 1 on
any violation.

    PYTHONPATH=src python scripts/check_crash_recovery.py
"""

from __future__ import annotations

import glob
import json
import os
import signal
import sys
import tempfile
import time
import warnings
import zlib
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

NUM_LFS = 5
TRAIN_POINTS = 200
TEST_POINTS = 60
#: The store's log, in its root.
LOG = "blockstore.log"


def _segments() -> list[str]:
    return sorted(glob.glob("/dev/shm/repro-eng-*"))


def _reparented_clones() -> list[int]:
    """Pids of processes that share our command line but were reparented
    to init — workers orphaned by a SIGKILLed forked master.  ``fork``
    (no exec) preserves the command line, so this finds exactly them."""
    try:
        with open(f"/proc/{os.getpid()}/cmdline", "rb") as handle:
            own = handle.read()
    except OSError:
        return []
    clones = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                if handle.read() != own:
                    continue
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == 1:
            clones.append(int(entry))
    return clones


def edited_vote(candidate):
    """The suite's last LF after an edit: same name, another body."""
    return -1 if candidate.uid % 2 else 0


def run_pipeline(checkpoint_dir=None, backend="sequential", edited=False):
    from repro.datasets.synthetic import (
        stream_text_candidates,
        stream_text_gold,
        text_vote_lfs,
    )
    from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

    config = PipelineConfig(
        seed=0,
        chunk_size=32,
        generative_epochs=3,
        discriminative_epochs=4,
        num_features=128,
        applier_backend=backend,
        applier_workers=2,
        checkpoint_dir=checkpoint_dir,
    )
    from repro.labeling import LabelingFunction

    lfs = text_vote_lfs(NUM_LFS)
    if edited:
        lfs[-1] = LabelingFunction(lfs[-1].name, edited_vote)
    return SnorkelPipeline(lfs=lfs, config=config).run_streams(
        stream_text_candidates(num_points=TRAIN_POINTS, num_lfs=NUM_LFS, seed=0),
        stream_text_candidates(num_points=TEST_POINTS, num_lfs=NUM_LFS, seed=1),
        stream_text_gold(TEST_POINTS, seed=1),
    )


def run_and_die(checkpoint_dir, fault_spec, backend="sequential"):
    """Fork a child that runs the pipeline under ``fault_spec`` until the
    injected SIGKILL; assert it really died that way."""
    from repro.labeling.engine import runtime

    pid = os.fork()
    if pid == 0:  # child
        # Inherited pool references belong to the parent — drop, don't close.
        runtime._POOLS.clear()
        os.environ["REPRO_ENGINE_FAULTS"] = fault_spec
        try:
            run_pipeline(checkpoint_dir, backend)
        finally:
            os._exit(1)  # only reached if the injected kill never fired
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL, (
        f"child under {fault_spec!r} exited with status {status}, "
        "expected death by SIGKILL"
    )


def as_previous_layout(root: str, victim: str) -> dict[str, bytes]:
    """Move the store at ``root`` into the layout before this one: its log
    as ``blocks/log``, beside one ``RBLK3`` block file per key (the format
    before the log: named after the key, holding the magic, the header's
    length, a JSON header, the payloads and a crc32 of everything before
    it), and a format-2 ``index.jsonl`` naming ``victim``.  Returns every
    file under ``root`` with its bytes."""
    import numpy as np

    from repro.labeling.blockstore import BlockStore

    blocks = os.path.join(root, "blocks")
    os.mkdir(blocks)
    store = BlockStore(root)
    for key in store.keys():
        arrays, meta = store.get(key)
        specs, payloads, offset = [], [], 0
        for name, array in arrays.items():
            raw = np.ascontiguousarray(array).tobytes()
            dtype = array.dtype.str
            specs.append({"name": name, "dtype": dtype, "stored": dtype,
                          "shape": list(array.shape), "offset": offset, "nbytes": len(raw)})
            payloads.append(raw)
            offset += len(raw)
        header = json.dumps({"key": key, "epoch": None, "meta": meta, "arrays": specs}).encode()
        body = b"RBLK3\n" + len(header).to_bytes(8, "little") + header + b"".join(payloads)
        with open(os.path.join(blocks, key.replace("/", "~") + ".blk"), "wb") as handle:
            handle.write(body + zlib.crc32(body).to_bytes(4, "little"))
    os.rename(store.path, os.path.join(blocks, "log"))
    with open(os.path.join(root, "index.jsonl"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"key": "chunk/train/0", "file": os.path.relpath(victim, root)}))
    return files_beside_the_log(root)


def files_beside_the_log(root: str) -> dict[str, bytes]:
    """Every file under ``root`` but the store's log, with its bytes."""
    found = {}
    for directory, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            if path != os.path.join(root, LOG):
                with open(path, "rb") as handle:
                    found[os.path.relpath(path, root)] = handle.read()
    return found


def as_log_of(root: str, magic: bytes) -> None:
    """Re-stamp every record of the log at ``root`` with ``magic`` (and the
    crc32 that matches it), as a log of that record format holds them."""
    path = os.path.join(root, LOG)
    with open(path, "rb") as handle:
        log = handle.read()
    records, start = [], 0
    while start < len(log):
        end = start + int.from_bytes(log[start + len(magic) : start + len(magic) + 8], "little")
        body = magic + log[start + len(magic) : end - 4]
        records.append(body + zlib.crc32(body).to_bytes(4, "little"))
        start = end
    with open(path, "wb") as handle:
        handle.write(b"".join(records))


def assert_matches(result, reference, scenario: str) -> None:
    import numpy as np

    assert np.array_equal(
        result.label_matrix.values, reference.label_matrix.values
    ), scenario
    assert (
        np.abs(result.training_probs - reference.training_probs).max() <= 1e-12
    ), scenario
    assert (
        np.abs(
            result.discriminative_model.weights
            - reference.discriminative_model.weights
        ).max()
        <= 1e-12
    ), scenario


def assert_bitwise(result, reference, scenario: str) -> None:
    import numpy as np

    model, expected = result.discriminative_model, reference.discriminative_model
    for ours, theirs in (
        (result.label_matrix.values, reference.label_matrix.values),
        (result.training_probs, reference.training_probs),
        (model.weights, expected.weights),
        (np.asarray(model.bias), np.asarray(expected.bias)),
        (np.asarray(model.loss_history), np.asarray(expected.loss_history)),
    ):
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), scenario


def main() -> int:
    import numpy as np

    from repro.labeling import LFApplier
    from repro.labeling.blockstore import BlockStore, ChunkCheckpointer
    from repro.labeling.engine import faults
    from repro.labeling.engine.runtime import shutdown_pools

    preexisting = _segments()
    if preexisting:
        print(f"warning: segments present before the run: {preexisting}")

    print("reference run (uninterrupted, no checkpoint)...")
    reference = run_pipeline()

    stores: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        # --- master SIGKILLed after 2 durable chunk blocks, then resumed.
        root = os.path.join(tmp, "kill-block")
        stores.append(root)
        run_and_die(root, "die_block@2")
        with BlockStore(root) as store:
            completed = ChunkCheckpointer(store, "train").completed
            assert completed, "kill left no durable chunks"
            assert len(completed) < -(-TRAIN_POINTS // 32), "kill fired too late"
        assert_matches(run_pipeline(root), reference, "die_block resume")
        print("SIGKILL after 2 durable blocks: resumed bit-identically")

        # --- the same kill, resumed under an LF edited under its old name:
        # the store holds the old body's blocks, which must not be replayed.
        edited = run_pipeline(edited=True)
        assert not np.array_equal(edited.label_matrix.values, reference.label_matrix.values)
        root = os.path.join(tmp, "kill-edited")
        stores.append(root)
        run_and_die(root, "die_block@2")
        assert_matches(run_pipeline(root, edited=True), edited, "edited-LF resume")
        print("SIGKILL, resumed under an edited LF of the same name: equals the edited suite's run")

        # --- master SIGKILLed mid end-model training, pool workers active.
        root = os.path.join(tmp, "kill-epoch")
        stores.append(root)
        run_and_die(root, "die_epoch@1", "processes")
        with BlockStore(root) as store:
            assert store.get_pickle("epoch/end_model")["epoch"] >= 1
        assert_matches(run_pipeline(root, "processes"), reference, "die_epoch resume")
        print("SIGKILL mid end-model (processes): resumed bit-identically")

        # --- the log's last record torn, as by a kill mid-append: the
        # reopen drops it, and its chunk re-executes.
        root = os.path.join(tmp, "torn-tail")
        stores.append(root)
        run_and_die(root, "die_block@4")  # the fingerprint, then train chunks 0-3
        log = os.path.join(root, LOG)
        os.truncate(log, os.path.getsize(log) - 10)
        with BlockStore(root) as store:
            completed = ChunkCheckpointer(store, "train").completed
            assert completed == {0, 1, 2}, f"torn tail record survived recovery: {completed}"
        assert_bitwise(run_pipeline(root), reference, "torn tail resume")
        print("torn tail record: dropped on reopen, its chunk re-executed, bitwise")

        # --- a byte of record 2 (train chunk 0) flipped after its durable
        # append: the prefix rule keeps only record 1 (the fingerprint),
        # and every chunk from record 2 on is recomputed.
        root = os.path.join(tmp, "corrupt-record")
        stores.append(root)
        run_and_die(root, "corrupt_block@1;die_block@4")
        with BlockStore(root) as store:
            assert store.keys() == ["meta/fingerprint"], (
                f"records at or after the corrupt one survived: {store.keys()}"
            )
        assert_bitwise(run_pipeline(root), reference, "corrupt record resume")
        print("corrupt record 2: the log ends before it, chunks from it on recomputed, bitwise")

        # --- a completed log of the previous record format: it must reopen
        # empty, and the run recomputes everything.
        root = os.path.join(tmp, "rblk4-log")
        stores.append(root)
        run_pipeline(root)
        as_log_of(root, b"RBLK4\n")
        with BlockStore(root) as store:
            assert store.keys() == [], f"RBLK4 log: records survived: {store.keys()}"
        assert os.path.getsize(os.path.join(root, LOG)) == 0, "RBLK4 log kept"
        assert_bitwise(run_pipeline(root), reference, "RBLK4 log resume")
        print("RBLK4 log: reopened empty, recomputed bitwise")

        # --- a completed store in the previous layout (blocks/log, per-key
        # RBLK3 files and a format-2 index naming a path outside it): it
        # reopens empty, the run recomputes everything, and recovery leaves
        # every file of it, and the path, byte-identical.
        root = os.path.join(tmp, "previous-layout", "store")
        stores.append(root)
        run_pipeline(root)
        victim = os.path.join(tmp, "victim.txt")
        with open(victim, "w") as handle:
            handle.write("keep me")
        before = as_previous_layout(root, victim)
        assert sorted(os.listdir(root)) == ["blocks", "index.jsonl"], os.listdir(root)
        with BlockStore(root) as store:
            assert store.keys() == [], f"previous layout: records survived: {store.keys()}"
        assert_bitwise(run_pipeline(root), reference, "previous layout resume")
        assert files_beside_the_log(root) == before, "recovery touched the previous layout"
        with open(victim) as handle:
            assert handle.read() == "keep me", "recovery wrote to a path outside the store"
        print("previous layout (blocks/log, per-key files, format-2 index): reopened empty, "
              "left byte-identical, recomputed bitwise")

        # The engine-level faults drive LFApplier directly: a reference
        # matrix, then a hung worker, resubmitted.
        from repro.datasets.synthetic import stream_text_candidates, text_vote_lfs

        lfs = text_vote_lfs(NUM_LFS)
        candidates = list(
            stream_text_candidates(num_points=TRAIN_POINTS, num_lfs=NUM_LFS, seed=0)
        )
        matrix_ref = LFApplier(lfs).apply(candidates)

        # --- a worker hangs past the chunk deadline: warned, killed,
        # resubmitted (EN101), and the run still completes correctly.
        shutdown_pools()  # workers must be forked after the plan installs
        faults.install(f"hang@2:seconds=60:flag={os.path.join(tmp, 'hung-once')}")
        try:
            applier = LFApplier(
                lfs,
                chunk_size=32,
                backend="processes",
                num_workers=2,
                fault_tolerant=True,
                chunk_timeout=0.5,
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                matrix = applier.apply(candidates)
            assert any("deadline" in str(w.message) for w in caught), (
                "hung worker drew no deadline warning"
            )
            assert np.array_equal(matrix.values, matrix_ref.values)
        finally:
            faults.install(None)
        print("hung worker: warned, killed, resubmitted (EN101), result correct")

        # --- the disk fills mid-run: checkpointing degrades with one
        # warning, the run completes and still matches.
        root = os.path.join(tmp, "disk-full")
        stores.append(root)
        faults.install("disk_full@3")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run_pipeline(root)
            assert any(
                "checkpointing disabled" in str(w.message) for w in caught
            ), "disk-full drew no degradation warning"
            assert_matches(result, reference, "disk-full degraded run")
        finally:
            faults.install(None)
        print("disk full: checkpointing degraded with a warning, result correct")

        # --- the disk fills at train chunk 3 (write 0 is the fingerprint):
        # chunks 0-2 come back from the store narrow, 3-6 stay in RAM, and
        # the end model trains on the mix bit for bit like the in-RAM run.
        root = os.path.join(tmp, "disk-full-mixed")
        stores.append(root)
        faults.install("disk_full@4")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = run_pipeline(root)
        finally:
            faults.install(None)
        with BlockStore(root) as store:
            assert ChunkCheckpointer(store, "train").completed == {0, 1, 2}, (
                "the disk-full write did not split the pass into stored and RAM blocks"
            )
        assert_bitwise(result, reference, "disk-full mixed blocks")
        leftover = glob.glob(os.path.join(root, "**", "*.tmp"), recursive=True)
        assert not leftover, f"disk-full write left temp residue: {leftover}"
        print("disk full mid-pass: stored + in-RAM blocks train bit-identically, no residue")

        # --- nothing left behind: no temp residue in any block store...
        residue = [
            path
            for root in stores
            for path in glob.glob(os.path.join(root, "*.tmp"))
        ]

        shutdown_pools()

        problems: list[str] = []
        if residue:
            problems.append(f"orphaned temp block files: {residue}")
        # ...no shared-memory segments...
        leftovers = [name for name in _segments() if name not in preexisting]
        if leftovers:
            problems.append(f"shared-memory segments appeared: {leftovers}")
        # ...and no surviving workers, including ones orphaned by the
        # SIGKILLed masters (they detect the master's death and exit; give
        # them a moment).
        deadline = time.monotonic() + 15.0
        orphans = _reparented_clones()
        while orphans and time.monotonic() < deadline:
            time.sleep(0.25)
            orphans = _reparented_clones()
        if orphans:
            problems.append(f"surviving worker processes (pids): {orphans}")

    if problems:
        print("crash recovery check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        "crash recovery check passed: kill/hang/corruption/disk-full matrix, "
        "resumes bit-identical, 0 segments, 0 surviving workers, "
        "0 temp residue"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
