"""Featurizer throughput: dense vs CSR batch transform (BENCH open item).

Times :meth:`repro.discriminative.featurizers.RelationFeaturizer.transform`
over a synthetic relation corpus in both output modes.  Both run the one
chunk kernel (the dense output is the CSR matrix's ``toarray()``), so
``max_value_diff`` compares them against the per-candidate
``candidate_entries`` specification — built here row by row, untimed — not
against each other; it must be exactly zero.

``run_featurizer_benchmark`` is importable — ``scripts/run_benchmarks.py``
calls it to write the ``featurizer_throughput`` section of the
``BENCH_*.json`` snapshot, whose ``*_seconds`` metrics the ``--compare``
regression gate checks.
"""

import time

import numpy as np

from repro.context.candidates import Candidate, SentenceView, SpanView
from repro.discriminative.featurizers import RelationFeaturizer
from repro.utils.rng import ensure_rng

DEFAULT_NUM_CANDIDATES = 1500
DEFAULT_NUM_FEATURES = 2048

#: Small word pool: repeated tokens exercise hash-bucket accumulation.
_VOCAB = [
    "binds", "inhibits", "treats", "causes", "induces", "reduces", "protein",
    "disease", "patient", "dose", "trial", "response", "signal", "cell",
    "tumor", "marker", "acute", "chronic", "severe", "mild", "study", "report",
    "the", "a", "of", "in", "with", "and", "was", "were", "shown", "observed",
]


def build_synthetic_candidates(
    num_candidates: int = DEFAULT_NUM_CANDIDATES, seed: int = 0
) -> list[Candidate]:
    """Generate relation candidates over random cue-word sentences."""
    rng = ensure_rng(seed)
    candidates = []
    for uid in range(num_candidates):
        length = int(rng.integers(8, 24))
        words = [_VOCAB[int(i)] for i in rng.integers(0, len(_VOCAB), size=length)]
        start1 = int(rng.integers(0, length - 4))
        end1 = start1 + 1 + int(rng.integers(0, 2))
        start2 = int(rng.integers(end1, length - 1))
        end2 = min(start2 + 1 + int(rng.integers(0, 2)), length)
        candidates.append(
            Candidate(
                uid=uid,
                span1=SpanView(
                    " ".join(words[start1:end1]), start1, end1, canonical_id=f"e1-{uid % 37}"
                ),
                span2=SpanView(
                    " ".join(words[start2:end2]), start2, end2, canonical_id=f"e2-{uid % 53}"
                ),
                sentence=SentenceView(words=words, text=" ".join(words)),
            )
        )
    return candidates


def run_featurizer_benchmark(
    num_candidates: int = DEFAULT_NUM_CANDIDATES,
    num_features: int = DEFAULT_NUM_FEATURES,
    seed: int = 0,
):
    """Time the dense and sparse batch transforms on one candidate list."""
    candidates = build_synthetic_candidates(num_candidates, seed=seed)
    featurizer = RelationFeaturizer(num_features=num_features).fit()

    start = time.perf_counter()
    dense = featurizer.transform(candidates)
    dense_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sparse = featurizer.transform(candidates, sparse=True)
    sparse_seconds = time.perf_counter() - start

    specification = np.zeros_like(dense)
    for row, candidate in enumerate(candidates):
        entries = featurizer.candidate_entries(candidate)
        specification[row, list(entries)] = list(entries.values())
    max_value_diff = float(
        max(np.abs(dense - specification).max(), np.abs(sparse.toarray() - specification).max())
    )
    return {
        "num_candidates": num_candidates,
        "num_features": num_features,
        "output_dim": featurizer.output_dim,
        "nnz": int(sparse.nnz),
        "fill_ratio": float(sparse.nnz / dense.size),
        "dense_transform_seconds": dense_seconds,
        "sparse_transform_seconds": sparse_seconds,
        "dense_candidates_per_second": num_candidates / max(dense_seconds, 1e-12),
        "sparse_candidates_per_second": num_candidates / max(sparse_seconds, 1e-12),
        "max_value_diff": max_value_diff,
    }


def format_record(record) -> str:
    return (
        f"{record['num_candidates']} candidates x {record['output_dim']} features "
        f"(fill {record['fill_ratio']:.1%}): dense {record['dense_transform_seconds']:.3f}s "
        f"({record['dense_candidates_per_second']:.0f}/s), sparse "
        f"{record['sparse_transform_seconds']:.3f}s "
        f"({record['sparse_candidates_per_second']:.0f}/s)"
    )


def test_featurizer_throughput(run_once):
    record = run_once(run_featurizer_benchmark)
    print("\n[Featurizer throughput] " + format_record(record))
    assert record["max_value_diff"] == 0.0
    assert record["fill_ratio"] < 0.2
