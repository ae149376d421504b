"""Dense-input vs sparse-input label-model fits: time and peak memory.

The generative model has one EM kernel over the non-abstain entries of Λ;
a dense input is lowered to CSR storage at the ``fit`` boundary and then
runs the very same iteration.  The "dense" column here therefore measures
``SparseLabelMatrix.from_dense`` plus the O(nnz)-per-epoch fit, not a
separate dense estimator: the two fits must produce bit-identical
probabilistic labels (``max_prob_diff == 0``) and the lowering must stay
cheap next to the fit itself.  This bench generates identical vote sets in
both storages (same seed, same draws), fits both, and records the times,
the peak traced memory of each (the dense input still *holds* an ``(m, n)``
array the sparse one never allocates) and the parity.

``run_scaling`` is importable — ``scripts/run_benchmarks.py`` calls it to
write the ``BENCH_sparse.json`` perf snapshot that future PRs compare
against.
"""

import time
import tracemalloc

import numpy as np

from repro.datasets.synthetic import (
    generate_label_matrix,
    stream_synthetic_candidates,
    synthetic_vote_lfs,
)
from repro.labeling.applier import LFApplier
from repro.labelmodel.generative import GenerativeModel

#: (num_points, num_lfs, coverage) grid; the last entry is the acceptance
#: configuration (50k rows x 100 LFs at 2% coverage).
DEFAULT_CONFIGS = (
    (10_000, 50, 0.02),
    (50_000, 100, 0.02),
)

FIT_EPOCHS = 12


def _timed_fit(label_matrix, epochs: int, seed: int):
    start = time.perf_counter()
    model = GenerativeModel(epochs=epochs, seed=seed).fit(label_matrix)
    return model, time.perf_counter() - start


def _peak_fit_memory(label_matrix, seed: int) -> int:
    """Peak traced allocation of a short fit (peak is epoch-independent)."""
    tracemalloc.start()
    GenerativeModel(epochs=2, seed=seed).fit(label_matrix)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return int(peak)


def run_scaling(configs=DEFAULT_CONFIGS, epochs=FIT_EPOCHS, seed=0):
    """Fit dense and sparse inputs of identical matrices; return one record each.

    Each record carries the configuration, both fit times (tracemalloc off),
    both peak memories (separate short fits with tracemalloc on), the
    time/memory ratios, and the max absolute difference of the probabilistic
    labels between the two backends.
    """
    records = []
    for num_points, num_lfs, coverage in configs:
        data = generate_label_matrix(
            num_points=num_points,
            num_lfs=num_lfs,
            accuracy=0.75,
            propensity=coverage,
            seed=seed,
        )
        dense = data.label_matrix
        sparse = dense.to_sparse()

        dense_model, dense_seconds = _timed_fit(dense, epochs, seed)
        sparse_model, sparse_seconds = _timed_fit(sparse, epochs, seed)
        max_prob_diff = float(
            np.abs(dense_model.predict_proba(dense) - sparse_model.predict_proba(sparse)).max()
        )
        dense_peak = _peak_fit_memory(dense, seed)
        sparse_peak = _peak_fit_memory(sparse, seed)

        records.append(
            {
                "num_points": num_points,
                "num_lfs": num_lfs,
                "coverage": coverage,
                "nnz": int(sparse.storage.nnz),
                "epochs": epochs,
                "dense_seconds": dense_seconds,
                "sparse_seconds": sparse_seconds,
                "speedup": dense_seconds / max(sparse_seconds, 1e-12),
                "dense_peak_bytes": dense_peak,
                "sparse_peak_bytes": sparse_peak,
                "memory_ratio": dense_peak / max(sparse_peak, 1),
                "max_prob_diff": max_prob_diff,
            }
        )
    return records


def format_records(records) -> str:
    header = (
        f"{'rows':>8} {'LFs':>5} {'cov':>5} {'dense s':>9} {'sparse s':>9} "
        f"{'speedup':>8} {'dense MB':>9} {'sparse MB':>10} {'mem x':>6}"
    )
    lines = [header, "-" * len(header)]
    for r in records:
        lines.append(
            f"{r['num_points']:>8} {r['num_lfs']:>5} {r['coverage']:>5.2f} "
            f"{r['dense_seconds']:>9.3f} {r['sparse_seconds']:>9.3f} {r['speedup']:>8.1f} "
            f"{r['dense_peak_bytes'] / 1e6:>9.1f} {r['sparse_peak_bytes'] / 1e6:>10.1f} "
            f"{r['memory_ratio']:>6.1f}"
        )
    return "\n".join(lines)


def test_parallel_streaming_applier_matches_sequential():
    """The engine's parallel executors reproduce the sequential CSR matrix.

    Exercises the sparse-scaling regime end to end through the streaming
    applier: candidates are generated lazily (never materialized as a list)
    and the sparse accumulation path produces identical matrices under the
    sequential, thread, and process backends.
    """
    num_points, num_lfs, coverage = 3000, 20, 0.02
    lfs = synthetic_vote_lfs(num_lfs)

    def stream():
        return stream_synthetic_candidates(
            num_points=num_points, num_lfs=num_lfs, propensity=coverage, seed=7
        )

    sequential = LFApplier(lfs, chunk_size=256).apply(stream(), sparse=True)
    for backend in ("threads", "processes"):
        applier = LFApplier(lfs, chunk_size=256, backend=backend, num_workers=2)
        parallel = applier.apply(stream(), sparse=True)
        assert parallel.is_sparse
        assert np.array_equal(sequential.values, parallel.values), backend
        assert applier.last_report.num_workers == 2
        assert applier.last_report.num_chunks == -(-num_points // 256)


def test_sparse_scaling(run_once):
    records = run_once(run_scaling)
    print("\n[Sparse scaling]\n" + format_records(records))
    for record in records:
        # One kernel: both inputs reach the same entries, bit for bit.
        assert record["max_prob_diff"] == 0.0, record
    # Acceptance at 50k rows x 100 LFs x 2% coverage: the dense input pays
    # one O(m·n) lowering scan on top of the same O(nnz)-per-epoch fit — at
    # this coverage about half the fit again (measured ~1.6x); a dense input
    # that ran anything slower than the kernel would blow through 2.5x.
    largest = records[-1]
    assert largest["num_points"] == 50_000
    assert largest["dense_seconds"] <= 2.5 * largest["sparse_seconds"], (
        f"dense-input fit {largest['dense_seconds']:.3f}s vs "
        f"sparse-input {largest['sparse_seconds']:.3f}s"
    )
    assert largest["memory_ratio"] > 1.0
