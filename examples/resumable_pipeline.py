"""Resumable pipeline: crash mid-run, restart, get the identical answer.

Demonstrates the crash-safe block store.  Giving the pipeline a
``checkpoint_dir`` — for ``run(task)`` and ``run_streams`` alike, they are
one path — makes every unit of completed work durable the moment it
finishes:

* each labeled+featurized **chunk** is appended to the store's one log
  file, ``blockstore.log`` in ``checkpoint_dir``, as a record (checksummed
  by its own crc32 trailer) and the log is fsynced before the next chunk
  starts;
* the label-modeling outcome and every **end-model epoch** snapshot
  (weights, Adam moments, loss history) land the same way.

A killed run therefore restarts from the last durable chunk/epoch: the
reopen keeps the log's longest valid prefix, chunks already in it replay
as read-only views of the mapped log (zero LF executions, zero featurizer
calls), training resumes at the first unfinished epoch, and the final
result is **bit-identical** to a run that was never interrupted —
resumability is a durability feature, never a numerics change.

This script proves it the hard way, using the deterministic
fault-injection layer the test suite uses
(:mod:`repro.labeling.engine.faults`): a forked child runs the pipeline
with a plan that SIGKILLs the process after its 5th durable record, the
parent verifies the child really died mid-run and inspects the partial
store, then resumes — and the resumed numbers match an uninterrupted
reference bit for bit.  A final run over the now-complete store shows the
replay economics: everything streams back from the mapped log with
nothing recomputed.

Run with::

    PYTHONPATH=src python examples/resumable_pipeline.py
"""

import os
import signal
import tempfile
import time

import numpy as np

from repro.datasets.synthetic import (
    stream_text_candidates,
    stream_text_gold,
    text_vote_lfs,
)
from repro.labeling.blockstore import BlockStore, ChunkCheckpointer
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

NUM_TRAIN = 4_000
NUM_TEST = 1_000
NUM_LFS = 12
CHUNK_SIZE = 512


def LINT_LFS():
    """The synthetic text-vote LF suite, for ``python -m repro.analysis``."""
    return text_vote_lfs(NUM_LFS)


def run_pipeline(checkpoint_dir=None):
    config = PipelineConfig(
        chunk_size=CHUNK_SIZE,
        use_optimizer=False,
        generative_epochs=10,
        discriminative_epochs=10,
        seed=0,
        # The whole feature: point the run at a directory and
        # every completed chunk/epoch becomes durable; `resume=True` (the
        # default) replays whatever a previous run left there.
        checkpoint_dir=checkpoint_dir,
    )
    pipeline = SnorkelPipeline(lfs=text_vote_lfs(NUM_LFS), config=config)
    return pipeline.run_streams(
        stream_text_candidates(num_points=NUM_TRAIN, num_lfs=NUM_LFS, seed=0),
        stream_text_candidates(num_points=NUM_TEST, num_lfs=NUM_LFS, seed=1),
        stream_text_gold(NUM_TEST, seed=1),
    )


def main() -> None:
    # An uninterrupted, checkpoint-free reference to compare against.
    reference = run_pipeline()
    print("reference run (no checkpointing)")
    print(f"  discriminative F1 = {reference.discriminative_f1:.3f}")

    with tempfile.TemporaryDirectory() as root:
        # --- crash: a child runs the same pipeline against the store, with
        # an injected SIGKILL after its 5th durable record (the fault plan
        # rides an environment variable, so it crosses the fork for free).
        pid = os.fork()
        if pid == 0:
            os.environ["REPRO_ENGINE_FAULTS"] = "die_block@4"
            try:
                run_pipeline(root)
            finally:
                os._exit(1)  # only reached if the kill never fired
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        print("\nchild run SIGKILLed mid-stream (fault plan: die_block@4)")

        # The store holds exactly the chunks that durably completed before
        # the kill — a real partial run, not all-or-nothing.
        with BlockStore(root) as store:
            done = sorted(ChunkCheckpointer(store, "train").completed)
        total = -(-NUM_TRAIN // CHUNK_SIZE)
        print(f"  durable train chunks: {done} ({len(done)}/{total})")
        assert 0 < len(done) < total

        # --- resume: same config, same directory.  Durable chunks replay
        # from the mapped log, the rest are computed, and the result is
        # bit-identical to never having crashed.
        resumed = run_pipeline(root)
        assert np.array_equal(
            resumed.label_matrix.values, reference.label_matrix.values
        )
        assert np.array_equal(resumed.training_probs, reference.training_probs)
        assert np.array_equal(
            resumed.discriminative_model.weights,
            reference.discriminative_model.weights,
        )
        print("resumed run: labels, probs, and end-model weights bit-identical")

        # --- replay: with everything durable, a re-run recomputes nothing —
        # chunks stream back as views of the log, the end model restores
        # from its last epoch snapshot.
        start = time.perf_counter()
        replayed = run_pipeline(root)
        replay_seconds = time.perf_counter() - start
        assert np.array_equal(replayed.training_probs, reference.training_probs)
        print(f"full replay from the store: {replay_seconds:.2f}s, still bit-identical")


if __name__ == "__main__":
    main()
