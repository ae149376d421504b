"""Featurizer throughput: dense vs CSR batch transform (BENCH open item).

Times :meth:`repro.discriminative.featurizers.RelationFeaturizer.transform`
over a synthetic relation corpus in both output modes.  Both run the one
chunk kernel (the dense output is the CSR matrix's ``toarray()``), so
``max_value_diff`` compares them against the per-candidate
``candidate_entries`` specification — built here row by row, untimed — not
against each other; it must be exactly zero.

The ``chunked`` part of the record times what a streaming run does: fourteen
chunks of 1 024 candidates through *one* fitted featurizer, starting from
empty process tables (what the vectorizers of a process intern and hash is
kept from chunk to chunk and run to run).  That memo pays where
chunks share ``(scope, n-gram)`` keys and costs where they do not, so three
corpora bracket it — the e2e ``text_stream`` generator (a few dozen tokens),
Zipf(1.3) draws over a 50 000-token vocabulary, and fourteen chunks with
pairwise disjoint vocabularies (the zero-repeat worst case) — each with the
keys it spelled and hashed (``keys_hashed``), how many of those are distinct
(hashing per chunk would make the two differ by the repeats), and the entries
its tables ended with.  Every chunk is compared with the specification too.

``run_featurizer_benchmark`` is importable — ``scripts/run_benchmarks.py``
calls it to write the ``featurizer_throughput`` section of the
``BENCH_*.json`` snapshot, whose ``*_seconds`` metrics the ``--compare``
regression gate checks.
"""

import time

import numpy as np

from repro.context.candidates import Candidate, SentenceView, SpanView
from repro.datasets.synthetic import stream_text_candidates
from repro.discriminative import featurizers
from repro.discriminative.featurizers import RelationFeaturizer
from repro.utils.rng import ensure_rng

DEFAULT_NUM_CANDIDATES = 1500
DEFAULT_NUM_FEATURES = 2048
DEFAULT_CHUNK_ROWS = 1024
NUM_CHUNKS = 14

#: Small word pool: repeated tokens exercise hash-bucket accumulation.
_VOCAB = [
    "binds", "inhibits", "treats", "causes", "induces", "reduces", "protein",
    "disease", "patient", "dose", "trial", "response", "signal", "cell",
    "tumor", "marker", "acute", "chronic", "severe", "mild", "study", "report",
    "the", "a", "of", "in", "with", "and", "was", "were", "shown", "observed",
]


def _cue_words(rng, uid: int, length: int) -> list[str]:
    return [_VOCAB[int(i)] for i in rng.integers(0, len(_VOCAB), size=length)]


def build_synthetic_candidates(
    num_candidates: int = DEFAULT_NUM_CANDIDATES, seed: int = 0, draw=_cue_words
) -> list[Candidate]:
    """Generate relation candidates over random sentences (``draw(rng, uid, length)`` words)."""
    rng = ensure_rng(seed)
    candidates = []
    for uid in range(num_candidates):
        length = int(rng.integers(8, 24))
        words = draw(rng, uid, length)
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


def _zipf_words(rng, uid: int, length: int) -> list[str]:
    ranks = rng.zipf(1.3, size=8 * length)
    return [f"z{rank}" for rank in ranks[ranks <= 50_000][:length]]


def _chunked_corpora(chunk_rows: int, seed: int) -> dict[str, list[Candidate]]:
    total = NUM_CHUNKS * chunk_rows

    def disjoint_words(rng, uid, length):  # chunk i draws from 4 096 words of its own
        return [f"c{uid // chunk_rows}w{int(i)}" for i in rng.integers(0, 4096, size=length)]

    return {
        "text_stream": list(stream_text_candidates(total, num_lfs=20, seed=seed)),
        "zipf": build_synthetic_candidates(total, seed, _zipf_words),
        "disjoint": build_synthetic_candidates(total, seed, disjoint_words),
    }


def _max_triples_diff(actual, expected) -> float:
    """Largest value difference of two triple sets; ``inf`` when their patterns differ."""
    same_pattern = all(np.array_equal(a, e) for a, e in zip(actual[:2], expected[:2]))
    return float(np.abs(actual[2] - expected[2]).max(initial=0.0)) if same_pattern else np.inf


def run_chunked_benchmark(chunk_rows: int = DEFAULT_CHUNK_ROWS, seed: int = 0, repeats: int = 3):
    """One fitted featurizer over fourteen chunks of each corpus (see the module docstring)."""
    record = {}
    for name, candidates in _chunked_corpora(chunk_rows, seed).items():
        chunks = [candidates[i : i + chunk_rows] for i in range(0, len(candidates), chunk_rows)]
        seconds = []
        for _ in range(repeats):  # each repeat starts from empty process tables
            featurizers._TABLES.clear()
            featurizer = RelationFeaturizer(num_features=512).fit()
            start = time.perf_counter()
            triples = [featurizer.chunk_triples(chunk) for chunk in chunks]
            seconds.append(time.perf_counter() - start)
        tables = featurizers._TABLES[tuple(featurizer.vectorizer.ngram_range)].hashed.values()

        # Untimed: one more run with every spelled key recorded on its way to the hash.
        hashed_keys: list[str] = []

        def recording(keys):
            keys = list(keys)
            hashed_keys.extend(keys)
            return stable_hashes(keys)

        stable_hashes, featurizers._stable_hashes = featurizers._stable_hashes, recording
        try:
            featurizers._TABLES.clear()
            counted = RelationFeaturizer(num_features=512).fit()
            recounted = [counted.chunk_triples(chunk) for chunk in chunks]
        finally:
            featurizers._stable_hashes = stable_hashes
        specification = (
            featurizers._spec_triples(map(featurizer.candidate_entries, chunk)) for chunk in chunks
        )
        record[name] = {
            "num_candidates": len(candidates),
            "kernel_seconds": min(seconds),
            "keys_hashed": len(hashed_keys),
            "keys_distinct": len(set(hashed_keys)),
            "table_entries": sum(codes.size for codes, _ in tables),
            "table_cap": featurizers._TABLE_CAP,
            "max_value_diff": max(
                max(_max_triples_diff(first, spec), _max_triples_diff(second, spec))
                for first, second, spec in zip(triples, recounted, specification)
            ),
        }
    return record


def run_featurizer_benchmark(
    num_candidates: int = DEFAULT_NUM_CANDIDATES,
    num_features: int = DEFAULT_NUM_FEATURES,
    seed: int = 0,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
):
    """Time the dense and sparse batch transforms on one candidate list, then the chunked runs."""
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
        "chunked": run_chunked_benchmark(chunk_rows, seed=seed),
    }


def format_record(record) -> str:
    chunked = "".join(
        f"\n  {name}: {NUM_CHUNKS} chunks in {part['kernel_seconds']:.3f}s, hashed "
        f"{part['keys_hashed']} keys ({part['keys_distinct']} distinct), "
        f"{part['table_entries']} table entries"
        for name, part in record["chunked"].items()
    )
    return (
        f"{record['num_candidates']} candidates x {record['output_dim']} features "
        f"(fill {record['fill_ratio']:.1%}): dense {record['dense_transform_seconds']:.3f}s "
        f"({record['dense_candidates_per_second']:.0f}/s), sparse "
        f"{record['sparse_transform_seconds']:.3f}s "
        f"({record['sparse_candidates_per_second']:.0f}/s)" + chunked
    )


def test_featurizer_throughput(run_once):
    record = run_once(run_featurizer_benchmark)
    print("\n[Featurizer throughput] " + format_record(record))
    assert record["max_value_diff"] == 0.0
    assert record["fill_ratio"] < 0.2
    for part in record["chunked"].values():
        assert part["max_value_diff"] == 0.0
        assert part["table_entries"] <= part["table_cap"]
        assert part["keys_distinct"] <= part["keys_hashed"] >= part["table_entries"]
