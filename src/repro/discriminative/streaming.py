"""Engine-routed streaming featurization.

LF application has run on the :mod:`repro.labeling.engine` backends since
PR 2; this module gives featurization the same treatment.
:func:`featurize_stream` maps candidate chunks to CSR feature blocks via
:func:`repro.labeling.engine.tasks.featurize_chunk` — sequential, threaded,
or process-parallel, with the engine's one scheduler keeping at most a
window of chunks in flight (bounded memory) — and merges them through the
existing accumulator machinery into one
:class:`~repro.discriminative.sparse_features.CSRFeatureMatrix`.  The
produced matrix is bit-identical to ``featurizer.transform(candidates,
sparse=True)`` for every backend and chunk size (the differential suite in
``tests/test_streaming_discriminative.py`` pins this down), but the
candidate iterable is consumed lazily and no dense ``(m, d)`` array exists
at any point.

For the fused one-pass variant (labels *and* features from the same chunk
stream) see :meth:`repro.labeling.applier.LFApplier.apply_with_features`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.discriminative.featurizers import RelationFeaturizer
from repro.discriminative.sparse_features import CSRFeatureMatrix
from repro.labeling.engine import ExecutionPlan, run_plan
from repro.labeling.engine.tasks import featurize_chunk


def featurize_stream(
    featurizer: RelationFeaturizer,
    candidates: Iterable,
    chunk_size: int = 1024,
    backend: str = "sequential",
    num_workers: Optional[int] = 1,
) -> CSRFeatureMatrix:
    """Featurize a candidate iterable through the execution engine.

    Parameters mirror :class:`repro.labeling.applier.LFApplier`: the
    candidate iterable may be a list, generator, or cursor (consumed chunk
    by chunk); ``backend`` selects how chunks are scheduled.  The process
    backend runs on the persistent worker pool
    (:mod:`repro.labeling.engine.runtime`), so a featurize stream following
    an LF apply in the same process reuses the already-spawned workers.
    ``featurizer`` must be fitted — the fitted check also runs worker-side
    in every chunk, so a stale featurizer shipped to a pool worker fails
    loudly instead of emitting misaligned columns.
    """
    featurizer.require_fitted()
    plan = ExecutionPlan(chunk_size=chunk_size, backend=backend, num_workers=num_workers)
    result = run_plan(featurizer, candidates, plan, task=featurize_chunk)
    return CSRFeatureMatrix.from_triples(
        result.rows,
        result.cols,
        result.values,
        (result.num_candidates, featurizer.output_dim),
    )
