"""Out-of-core discriminative stage: the one pipeline path, fed two ways.

The PR-5 BENCH section.  One synthetic text task (planted vote tokens +
class-indicative features, :func:`repro.datasets.synthetic.
stream_text_candidates`) is run end-to-end twice through the pipeline's
single execution path (one fused apply+featurize engine pass per split, CSR
feature blocks, minibatch ``fit_stream`` training):

* **list-fed** — ``SnorkelPipeline.run(task)`` on a ``TaskDataset`` that
  holds both splits as candidate lists (charged for building them);
* **generator-fed** — ``SnorkelPipeline.run_streams`` on generators: no
  candidate list ever exists.

The two runs must be *equal* — training probabilities and end-model weights
differ by exactly 0 — which is what let the former materialized pipeline
body be deleted.  Besides wall-clock throughput the record carries **peak
traced memory** for each feeding (``tracemalloc``, which numpy allocations
report into): the generator-fed peak grows with the feature nnz only, the
list-fed one additionally holds the candidates.

``run_discriminative_streaming_benchmark`` is importable —
``scripts/run_benchmarks.py`` calls it to write the
``discriminative_streaming`` section of the ``BENCH_*.json`` snapshot,
whose ``*_seconds`` metrics the ``--compare`` regression gate checks.  The
default workload is the acceptance-scale 50k-candidate run; CI's
``--compare --quick`` smoke shrinks it.
"""

import time
import tracemalloc

import numpy as np

from repro.datasets.base import TaskDataset
from repro.datasets.synthetic import (
    stream_text_candidates,
    stream_text_gold,
    text_vote_lfs,
)
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

DEFAULT_NUM_CANDIDATES = 50_000
DEFAULT_NUM_TEST = 5_000
DEFAULT_NUM_LFS = 20
DEFAULT_NUM_FEATURES = 512


def _measure(func):
    """Run ``func`` under tracemalloc; return (result, seconds, peak bytes)."""
    tracemalloc.start()
    start = time.perf_counter()
    result = func()
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak


def run_discriminative_streaming_benchmark(
    num_candidates: int = DEFAULT_NUM_CANDIDATES,
    num_test: int = DEFAULT_NUM_TEST,
    num_lfs: int = DEFAULT_NUM_LFS,
    num_features: int = DEFAULT_NUM_FEATURES,
    generative_epochs: int = 5,
    discriminative_epochs: int = 5,
    seed: int = 0,
):
    """Run the pipeline list-fed and generator-fed on one synthetic task."""
    lfs = text_vote_lfs(num_lfs)
    test_gold = stream_text_gold(num_test, seed=seed + 1)
    config = PipelineConfig(
        use_optimizer=False,
        generative_epochs=generative_epochs,
        discriminative_epochs=discriminative_epochs,
        num_features=num_features,
        seed=seed,
    )

    def train_stream():
        return stream_text_candidates(
            num_points=num_candidates, num_lfs=num_lfs, seed=seed
        )

    def test_stream():
        return stream_text_candidates(
            num_points=num_test, num_lfs=num_lfs, seed=seed + 1
        )

    def run_list_fed():
        task = TaskDataset(
            name="stream-bench",
            candidates={"train": list(train_stream()), "test": list(test_stream())},
            gold={"test": test_gold},
            lfs=lfs,
        )
        return SnorkelPipeline(config=config).run(task)

    def run_generator_fed():
        return SnorkelPipeline(lfs=lfs, config=config).run_streams(
            train_stream(), test_stream(), test_gold
        )

    list_fed, list_seconds, list_peak = _measure(run_list_fed)
    generator_fed, generator_seconds, generator_peak = _measure(run_generator_fed)

    max_prob_diff = float(
        np.abs(list_fed.training_probs - generator_fed.training_probs).max()
    )
    max_weight_diff = float(
        np.abs(
            list_fed.discriminative_model.weights
            - generator_fed.discriminative_model.weights
        ).max()
    )
    return {
        "num_candidates": num_candidates,
        "num_test": num_test,
        "num_lfs": num_lfs,
        "num_features": num_features,
        "discriminative_epochs": discriminative_epochs,
        "list_fed_seconds": list_seconds,
        "generator_fed_seconds": generator_seconds,
        "list_fed_peak_mb": list_peak / 1e6,
        "generator_fed_peak_mb": generator_peak / 1e6,
        "list_fed_candidates_per_second": num_candidates / max(list_seconds, 1e-12),
        "generator_fed_candidates_per_second": num_candidates
        / max(generator_seconds, 1e-12),
        "max_training_prob_diff": max_prob_diff,
        "max_end_model_weight_diff": max_weight_diff,
        "list_fed_f1": float(list_fed.discriminative_f1),
        "generator_fed_f1": float(generator_fed.discriminative_f1),
    }


def format_record(record) -> str:
    return (
        f"{record['num_candidates']} candidates x {record['num_lfs']} LFs "
        f"(d={record['num_features']}): list-fed run(task) "
        f"{record['list_fed_seconds']:.2f}s / {record['list_fed_peak_mb']:.0f}MB peak, "
        f"generator-fed run_streams {record['generator_fed_seconds']:.2f}s / "
        f"{record['generator_fed_peak_mb']:.0f}MB peak "
        f"({record['generator_fed_candidates_per_second']:.0f} cand/s); "
        f"max Δprobs {record['max_training_prob_diff']:.2e}, "
        f"max Δweights {record['max_end_model_weight_diff']:.2e}"
    )


def test_discriminative_streaming_parity(run_once):
    record = run_once(
        run_discriminative_streaming_benchmark,
        num_candidates=1_500,
        num_test=400,
        discriminative_epochs=4,
    )
    print("\n[Discriminative streaming] " + format_record(record))
    assert record["max_training_prob_diff"] == 0
    assert record["max_end_model_weight_diff"] == 0
    assert record["list_fed_f1"] == record["generator_fed_f1"]
    assert record["generator_fed_peak_mb"] < record["list_fed_peak_mb"]
