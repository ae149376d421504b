"""Streaming pipeline: a generator-fed, out-of-core end-to-end run.

The pipeline has one execution path, and it is out-of-core: candidates are
*generated on the fly* and handed to ``run_streams`` as plain generators —
no candidate list, no dense ``(m, d)`` feature matrix, ever.  Per split the
execution engine makes one fused pass (LF application + featurization on
each chunk), the generative model fits on the accumulated label matrix, and
the noise-aware end model trains from CSR feature blocks via minibatch
``fit_stream``.  ``run(task)`` is the same path fed from a task dataset's
splits.

It also demonstrates the persistent worker runtime behind the
``processes`` backend.  The lifecycle is:

* **spawn once** — the first ``processes`` run creates a pool of
  long-lived workers (``repro.labeling.engine.runtime.WorkerPool``);
  every later stage and every later run on the same worker count reuses
  them.  This script proves it by printing ``total_spawned`` after the
  whole pipeline (apply, fused apply+featurize, featurize) has run: it
  equals the worker count, not stages × workers.
* **attach, then submit** — each stage hands the pool a ``TaskSpec``
  (*configuration*, e.g. the LF suite and featurizer — never compiled
  plans or open handles); workers build their own suite once per spec
  and then only chunk bytes move.
* **transport** — those bytes are pickled chunks going out and pickled
  results coming back over each worker's pipe, one chunk in flight per
  worker.  Pickling the candidates is most of what a parallel run pays
  (see ``transport_share`` in the ``engine_transport`` BENCH section), so
  larger chunks amortize it and cheap compiled LFs often run faster in
  process.  Results are bit-identical to the sequential run.
* **close** — ``shutdown_pools()`` (also wired to ``atexit``) asks the
  workers to exit and reaps them.

The generator-fed run is bit-identical to ``run(task)`` over a task dataset
that holds the same candidates as lists — this script re-runs that way (on
the default in-process sequential backend) to show it — so the feeding
style and the worker pool are purely memory/throughput decisions, not quality tradeoffs.

Run with::

    PYTHONPATH=src python examples/streaming_pipeline.py
"""

import numpy as np

from repro.datasets.base import TaskDataset
from repro.datasets.synthetic import (
    stream_text_candidates,
    stream_text_gold,
    text_vote_lfs,
)
from repro.labeling.engine.runtime import get_global_pool, shutdown_pools
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

NUM_TRAIN = 4_000
NUM_TEST = 1_000
NUM_LFS = 12
NUM_WORKERS = 2


def LINT_LFS():
    """The synthetic text-vote LF suite, for ``python -m repro.analysis``."""
    return text_vote_lfs(NUM_LFS)


def main() -> None:
    lfs = text_vote_lfs(NUM_LFS)
    test_gold = stream_text_gold(NUM_TEST, seed=1)

    config = PipelineConfig(
        chunk_size=512,
        # Persistent worker runtime: one pool of NUM_WORKERS long-lived
        # processes serves every stage, fed pickled chunks over its pipes.
        applier_backend="processes",
        applier_workers=NUM_WORKERS,
        use_optimizer=False,
        generative_epochs=10,
        discriminative_epochs=10,
        seed=0,
    )
    pipeline = SnorkelPipeline(lfs=lfs, config=config)

    # run_streams takes raw iterables: these generators are consumed
    # exactly once, chunk by chunk, inside the engine.
    result = pipeline.run_streams(
        stream_text_candidates(num_points=NUM_TRAIN, num_lfs=NUM_LFS, seed=0),
        stream_text_candidates(num_points=NUM_TEST, num_lfs=NUM_LFS, seed=1),
        test_gold,
    )
    print("generator-fed run_streams")
    print(f"  generative     F1 = {result.generative_f1:.3f}")
    print(f"  discriminative F1 = {result.discriminative_f1:.3f}")

    # The whole run — LF apply and the fused apply+featurize pass on both
    # splits — went through one persistent pool: workers were spawned
    # exactly once, at first use, and reused for every later stage.
    pool = get_global_pool(NUM_WORKERS)
    print(f"worker processes spawned across all stages = {pool.total_spawned}")

    # The same run from a task dataset holding candidate lists, on the
    # default sequential backend and chunking: same seeds, same numbers.
    from_task = SnorkelPipeline(
        lfs=lfs,
        config=PipelineConfig(
            use_optimizer=False, generative_epochs=10, discriminative_epochs=10, seed=0
        ),
    ).run(
        TaskDataset(
            name="stream-example",
            candidates={
                "train": list(
                    stream_text_candidates(num_points=NUM_TRAIN, num_lfs=NUM_LFS, seed=0)
                ),
                "test": list(stream_text_candidates(num_points=NUM_TEST, num_lfs=NUM_LFS, seed=1)),
            },
            gold={"test": test_gold},
            lfs=lfs,
        )
    )
    print("list-fed run(task)")
    print(f"  generative     F1 = {from_task.generative_f1:.3f}")
    print(f"  discriminative F1 = {from_task.discriminative_f1:.3f}")
    delta = np.abs(result.training_probs - from_task.training_probs).max()
    print(f"max |training prob delta| = {delta:.2e}")
    weight_delta = np.abs(
        result.discriminative_model.weights - from_task.discriminative_model.weights
    ).max()
    print(f"max |end-model weight delta| = {weight_delta:.2e}")

    # Explicit teardown (atexit would also do it): reaps the workers.
    shutdown_pools()


if __name__ == "__main__":
    main()
