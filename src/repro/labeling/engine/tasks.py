"""Chunk tasks beyond LF application: featurization and fused label+featurize.

The execution engine schedules *chunk tasks* — picklable callables with the
:func:`repro.labeling.engine.accumulator.apply_chunk` signature — over any
candidate iterable.  This module adds the discriminative stage's tasks:

* :func:`featurize_chunk` maps one candidate chunk to its sparse feature
  triples with one call of the featurizer's batch kernel (``payload`` is a
  fitted :class:`repro.discriminative.featurizers.RelationFeaturizer`; the
  kernel hashes each distinct n-gram once per *process* — one table per
  ``ngram_range``, shared by every vectorizer and kept across runs — and
  emits the triples from numpy; no per-candidate loop runs here), giving
  featurization the same streaming, parallel, deterministically-merged
  execution path LF application has had since PR 2;
* :func:`label_and_featurize_chunk` is the one fused wrapper: it runs a
  label task *and* the featurizer over each chunk in one pass (``payload``
  is ``(label_task, label_payload, featurizer)`` — :func:`apply_chunk` with
  the LF list, or the compiled ``label_chunk_pushdown`` with its plan), so
  an out-of-core pipeline run touches every candidate exactly once — the
  label triples are the primary block and the feature triples ride along as
  ``ChunkResult.features``, to be claimed master-side by an accumulator
  ``transform``.

Feature values are floats; the accumulator concatenates them untouched, and
because the kernel emits every chunk's rows in ascending order with ascending
columns within each row, the merged triples are already in canonical CSR
order.

Under the processes backend these tasks run inside the persistent worker
runtime (:mod:`repro.labeling.engine.runtime`): the payload is attached to
each long-lived worker once as a :class:`~repro.labeling.engine.runtime.
TaskSpec` and only candidate chunks travel per call, as pickled bytes over
the worker's pipe.  Tasks notice none of this — the dispatch kernel hands
them the same ``(payload, fault_tolerant, index, start_row, candidates)``
call in process or in a worker — but it is why a task must be a
module-level callable and must treat the payload as read-only (worker-side
payload mutations would persist across chunks *and* runs; the payload
fingerprint shim of ``tests/reference_purity.py`` holds every built-in task
to it).

"Read-only" means: no write that can change an output or travel to another
process.  The featurizer's kernel writes only the process's hash tables
(one per ``ngram_range``, in ``repro.discriminative.featurizers``, not on the
payload), and they are neither — a memo of constants (the hash of a spelled
key) that no emitted value depends on, so the purity fingerprint and the
``TaskSpec`` a worker receives are those of the featurizer's configuration
and every worker process grows its own tables.  That is legitimate only
because a chunk's triples are the same whatever the process has seen
before; the history-independence differentials in
``tests/test_featurizer_kernel.py`` are the tests that carry the contract.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.labeling.engine.accumulator import ChunkResult
from repro.labeling.pushdown.fields import ColumnarChunk


def featurize_chunk(
    featurizer,
    fault_tolerant: bool,
    index: int,
    start_row: int,
    candidates: Sequence,
) -> ChunkResult:
    """Featurize one chunk of candidates into sparse feature triples.

    ``featurizer`` must expose the batch kernel ``chunk_triples(candidates)
    -> (row_offsets, cols, values)`` and be *fitted* (see
    :meth:`repro.discriminative.featurizers.RelationFeaturizer.fit`) — the
    fitted check runs worker-side, once per chunk, so a stale featurizer
    shipped to a pool worker fails loudly instead of emitting misaligned
    columns.  ``fault_tolerant`` is accepted for signature compatibility but
    ignored: featurization failures are library bugs, not user-LF
    misbehavior, and always propagate.
    """
    start = time.perf_counter()
    featurizer.require_fitted()
    row_offsets, cols, values = featurizer.chunk_triples(candidates)
    return ChunkResult(
        index=index,
        start_row=start_row,
        num_candidates=len(candidates),
        row_offsets=row_offsets,
        cols=cols,
        values=values,
        seconds=time.perf_counter() - start,
    )


def label_and_featurize_chunk(
    payload: tuple,
    fault_tolerant: bool,
    index: int,
    start_row: int,
    candidates: Sequence,
) -> ChunkResult:
    """Run a label task and the featurizer over one chunk in a single pass.

    ``payload`` is ``(label_task, label_payload, featurizer)``: the label
    task (interpreted :func:`~repro.labeling.engine.accumulator.apply_chunk`
    or compiled :func:`~repro.labeling.pushdown.task.label_chunk_pushdown`)
    is called with its own payload.  Both are handed one
    :class:`~repro.labeling.pushdown.fields.ColumnarChunk` over the chunk,
    so a candidate is read, and its words looked up, once: the compiled
    programs and the featurizer's kernel take their fields from it (the
    interpreted task iterates it as the candidates it is).  Returns the
    label task's :class:`ChunkResult` with the feature block attached as
    ``features`` — the streaming pipeline's one-pass work unit.
    """
    label_task, label_payload, featurizer = payload
    block = ColumnarChunk(candidates)
    result = label_task(label_payload, fault_tolerant, index, start_row, block)
    result.features = featurize_chunk(featurizer, fault_tolerant, index, start_row, block)
    result.seconds += result.features.seconds
    return result
