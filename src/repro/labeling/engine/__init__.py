"""The streaming, parallel labeling-function execution engine.

The engine splits LF application into three orthogonal pieces:

* a **plan** (:class:`ExecutionPlan`) — chunking/partitioning policy, backend
  choice, worker count, and fault policy;
* a **chunk task** (:func:`apply_chunk`, the compiled
  ``label_chunk_pushdown``, :func:`featurize_chunk`, or a label task wrapped
  by :func:`label_and_featurize_chunk`) — what runs on each work unit;
* an **accumulator** (:class:`CSRAccumulator`) — per-chunk CSR triple blocks
  merged deterministically into one :class:`EngineResult`.

:func:`run_plan` is the one pass that wires them together: candidates stream
in (any iterable — lists, generators, database cursors), chunks go to
``plan.backend`` (the in-process loop, or a thread pool or the persistent
worker runtime under one scheduler with a bounded in-flight window), triple
blocks fan back in, and the result is identical for every backend.  The
:class:`repro.labeling.applier.LFApplier` facade is the main consumer.
"""

from repro.labeling.engine.accumulator import (
    ChunkResult,
    CSRAccumulator,
    EngineResult,
    apply_chunk,
)
from repro.labeling.engine.executors import ChunkTask, run_plan
from repro.labeling.engine.plan import (
    BACKENDS,
    Chunk,
    ExecutionPlan,
    available_workers,
    iter_chunks,
)
from repro.labeling.engine.runtime import (
    TaskSpec,
    WorkerCrashError,
    WorkerPool,
    WorkerTimeoutError,
    get_global_pool,
    run_attached_chunk,
    shutdown_pools,
)
from repro.labeling.engine.tasks import featurize_chunk, label_and_featurize_chunk

__all__ = [
    "BACKENDS",
    "Chunk",
    "ChunkResult",
    "ChunkTask",
    "CSRAccumulator",
    "EngineResult",
    "ExecutionPlan",
    "TaskSpec",
    "WorkerCrashError",
    "WorkerPool",
    "WorkerTimeoutError",
    "apply_chunk",
    "available_workers",
    "featurize_chunk",
    "get_global_pool",
    "iter_chunks",
    "label_and_featurize_chunk",
    "run_attached_chunk",
    "run_plan",
    "shutdown_pools",
]
