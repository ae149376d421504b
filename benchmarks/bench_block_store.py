"""Crash-safe block store: mmap replay of durable work vs recomputing it.

The PR-9 BENCH section.  One synthetic streaming text task is run three
ways:

* **recompute** — the plain streaming pipeline, no checkpointing: every
  chunk is labeled + featurized and every end-model epoch trained from
  scratch (the cost a crash used to re-pay in full);
* **checkpointed** — the same run with ``checkpoint_dir`` set: each chunk
  block and end-model epoch is durably persisted as it completes (the
  write-amplification price of crash safety);
* **resume** — a second run over the now-complete store: every chunk
  replays from one read-only mapping of its block and the end model
  restores from the last epoch snapshot, so the pipeline re-derives its
  result with zero LF executions and zero training epochs.

Besides wall-clock the record carries **peak traced memory** for the
recompute and resume paths (``tracemalloc``, which numpy allocations
report into) — replay never materializes candidates, so its peak tracks
the block nnz — and the value-parity deltas the differential crash suite
guarantees at test sizes, re-checked here at benchmark scale: the
checkpointed and resumed runs must match the recompute run bit for bit.

``run_block_store_benchmark`` is importable — ``scripts/run_benchmarks.py``
calls it to write the ``block_store`` section of the ``BENCH_*.json``
snapshot, whose ``*_seconds`` metrics the ``--compare`` regression gate
checks.
"""

import tempfile
import time
import tracemalloc

import numpy as np

from repro.datasets.synthetic import (
    stream_text_candidates,
    stream_text_gold,
    text_vote_lfs,
)
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

DEFAULT_NUM_CANDIDATES = 20_000
DEFAULT_NUM_TEST = 2_000
DEFAULT_NUM_LFS = 10
DEFAULT_NUM_FEATURES = 256


def _measure(func):
    """Run ``func`` under tracemalloc; return (result, seconds, peak bytes)."""
    tracemalloc.start()
    start = time.perf_counter()
    result = func()
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak


def run_block_store_benchmark(
    num_candidates: int = DEFAULT_NUM_CANDIDATES,
    num_test: int = DEFAULT_NUM_TEST,
    num_lfs: int = DEFAULT_NUM_LFS,
    num_features: int = DEFAULT_NUM_FEATURES,
    generative_epochs: int = 5,
    discriminative_epochs: int = 5,
    seed: int = 0,
):
    """Time recompute vs checkpointed-fresh vs mmap-replay resume runs."""
    lfs = text_vote_lfs(num_lfs)
    test_gold = stream_text_gold(num_test, seed=seed + 1)

    def make_config(checkpoint_dir=None) -> PipelineConfig:
        return PipelineConfig(
            use_optimizer=False,
            generative_epochs=generative_epochs,
            discriminative_epochs=discriminative_epochs,
            num_features=num_features,
            seed=seed,
            checkpoint_dir=checkpoint_dir,
        )

    def run(checkpoint_dir=None):
        pipeline = SnorkelPipeline(lfs=lfs, config=make_config(checkpoint_dir))
        return pipeline.run_streams(
            stream_text_candidates(
                num_points=num_candidates, num_lfs=num_lfs, seed=seed
            ),
            stream_text_candidates(num_points=num_test, num_lfs=num_lfs, seed=seed + 1),
            test_gold,
        )

    with tempfile.TemporaryDirectory() as root:
        recompute, recompute_seconds, recompute_peak = _measure(run)
        checkpointed, checkpointed_seconds, _ = _measure(lambda: run(root))
        resumed, resume_seconds, resume_peak = _measure(lambda: run(root))

    max_prob_diff = float(
        np.abs(recompute.training_probs - resumed.training_probs).max()
    )
    max_weight_diff = float(
        np.abs(
            recompute.discriminative_model.weights
            - resumed.discriminative_model.weights
        ).max()
    )
    checkpointed_prob_diff = float(
        np.abs(recompute.training_probs - checkpointed.training_probs).max()
    )
    return {
        "num_candidates": num_candidates,
        "num_test": num_test,
        "num_lfs": num_lfs,
        "num_features": num_features,
        "discriminative_epochs": discriminative_epochs,
        "recompute_seconds": recompute_seconds,
        "checkpointed_seconds": checkpointed_seconds,
        "resume_seconds": resume_seconds,
        "recompute_peak_mb": recompute_peak / 1e6,
        "resume_peak_mb": resume_peak / 1e6,
        "resume_speedup": recompute_seconds / max(resume_seconds, 1e-12),
        "checkpoint_overhead": checkpointed_seconds / max(recompute_seconds, 1e-12),
        "max_training_prob_diff": max_prob_diff,
        "max_end_model_weight_diff": max_weight_diff,
        "checkpointed_training_prob_diff": checkpointed_prob_diff,
    }


def format_record(record) -> str:
    return (
        f"{record['num_candidates']} candidates x {record['num_lfs']} LFs "
        f"(d={record['num_features']}): recompute "
        f"{record['recompute_seconds']:.2f}s / {record['recompute_peak_mb']:.0f}MB peak, "
        f"checkpointed {record['checkpointed_seconds']:.2f}s "
        f"({record['checkpoint_overhead']:.2f}x), mmap resume "
        f"{record['resume_seconds']:.2f}s / {record['resume_peak_mb']:.0f}MB peak "
        f"({record['resume_speedup']:.1f}x faster); "
        f"max Δprobs {record['max_training_prob_diff']:.2e}, "
        f"max Δweights {record['max_end_model_weight_diff']:.2e}"
    )


def test_block_store_replay_parity(run_once):
    record = run_once(
        run_block_store_benchmark,
        num_candidates=1_500,
        num_test=400,
        discriminative_epochs=4,
    )
    print("\n[Block store] " + format_record(record))
    assert record["max_training_prob_diff"] == 0.0
    assert record["max_end_model_weight_diff"] == 0.0
    assert record["checkpointed_training_prob_diff"] == 0.0
    assert record["resume_seconds"] < record["checkpointed_seconds"]
