"""EM epoch time: binary vs k=4 categorical, dense vs sparse input.

One EM kernel serves every cardinality and every input storage: a dense
input is lowered to its non-abstain entries at the ``fit`` boundary, the
binary task is the kernel's ``k = 2`` case, and each epoch is a handful of
``bincount`` reductions over the entries — O(nnz) plus the O(m·k) row
posteriors.  This bench fits the generative model on identical matrices in
both storages for the binary and the cardinality-4 setting, reports seconds
per EM epoch (total fit time, including the dense input's lowering, divided
by the epochs actually run — the estimator may converge early), and
verifies the two inputs' probabilistic labels are bit-identical.

``run_em_epoch_benchmark`` is importable — ``scripts/run_benchmarks.py``
calls it to write the ``em_epoch`` section of the ``BENCH_sparse.json``
snapshot, whose ``*_seconds`` metrics the ``--compare`` regression gate
checks.
"""

import time

import numpy as np

from repro.datasets.synthetic import generate_label_matrix, generate_multiclass_label_matrix
from repro.labelmodel.generative import GenerativeModel

#: (label, cardinality, num_points, num_lfs, coverage) per measured setting.
DEFAULT_CONFIGS = (
    ("binary", 2, 20_000, 50, 0.05),
    ("k4", 4, 20_000, 50, 0.05),
)

FIT_EPOCHS = 12


def _epoch_time(label_matrix, epochs: int, seed: int):
    """Fit once; return (model, seconds per EM epoch actually run)."""
    start = time.perf_counter()
    model = GenerativeModel(epochs=epochs, seed=seed).fit(label_matrix)
    elapsed = time.perf_counter() - start
    return model, elapsed / max(model.history.epochs, 1)


def run_em_epoch_benchmark(configs=DEFAULT_CONFIGS, epochs=FIT_EPOCHS, seed=0):
    """Measure per-epoch EM time for every configured (cardinality, storage)."""
    records = []
    for label, cardinality, num_points, num_lfs, coverage in configs:
        if cardinality == 2:
            data = generate_label_matrix(
                num_points=num_points, num_lfs=num_lfs, propensity=coverage, seed=seed
            )
        else:
            data = generate_multiclass_label_matrix(
                num_points=num_points,
                num_lfs=num_lfs,
                cardinality=cardinality,
                propensity=coverage,
                seed=seed,
            )
        dense = data.label_matrix
        sparse = dense.to_sparse()
        dense_model, dense_epoch_seconds = _epoch_time(dense, epochs, seed)
        sparse_model, sparse_epoch_seconds = _epoch_time(sparse, epochs, seed)
        max_prob_diff = float(
            np.abs(
                dense_model.predict_proba(dense) - sparse_model.predict_proba(sparse)
            ).max()
        )
        records.append(
            {
                "label": label,
                "cardinality": cardinality,
                "num_points": num_points,
                "num_lfs": num_lfs,
                "coverage": coverage,
                "nnz": int(sparse.storage.nnz),
                "epochs_run": int(sparse_model.history.epochs),
                "dense_epoch_seconds": dense_epoch_seconds,
                "sparse_epoch_seconds": sparse_epoch_seconds,
                "speedup": dense_epoch_seconds / max(sparse_epoch_seconds, 1e-12),
                "max_prob_diff": max_prob_diff,
            }
        )
    return records


def format_records(records) -> str:
    lines = []
    for record in records:
        lines.append(
            f"{record['label']:>6} (k={record['cardinality']}): "
            f"{record['dense_epoch_seconds'] * 1e3:.2f}ms dense / "
            f"{record['sparse_epoch_seconds'] * 1e3:.2f}ms sparse per epoch "
            f"({record['speedup']:.1f}x), max diff {record['max_prob_diff']:.2e}"
        )
    return "\n".join(lines)


def test_em_epoch_benchmark(run_once):
    records = run_once(run_em_epoch_benchmark)
    print("\n[EM epoch time]\n" + format_records(records))
    assert {record["label"] for record in records} == {"binary", "k4"}
    for record in records:
        assert record["max_prob_diff"] == 0.0, record
