"""Online label model: fold a stream, serve posteriors, edit an LF live.

Demonstrates the PR-10 online incremental estimator,
:class:`repro.labelmodel.OnlineGenerativeModel`.  The batch
:class:`GenerativeModel` refits from scratch whenever anything changes; a
long-lived labeling service can't afford that.  The online model instead
maintains the EM *sufficient statistics* — per-LF expected-correct and
vote-count accumulators, the damped class-balance state — so that:

* ``update(chunk)`` folds an arriving chunk at **O(chunk)** cost (one
  E-pass over the chunk plus an O(#LFs) M-step), never rescanning rows
  already accumulated;
* ``serve_posteriors(chunks)`` streams probabilistic labels under a
  monotonically versioned model, auto-draining when the configured
  staleness bound is exceeded;
* ``add_lf`` / ``remove_lf`` rewire the statistics and the modeled
  correlation structure without a full refit;
* ``drain()`` is the exact tier: it refits the accumulated matrix through
  the batch estimator, **bit-identical** to having fit everything at once
  — however the stream was chunked.

This script walks the whole service lifecycle: stream → update → serve →
drain → edit an LF → serve again, verifying the exactness claims along the
way.  ``save`` / ``load`` keep the statistics durable in a block store,
which keeps only the newest snapshot on disk.  ``SnorkelPipeline`` itself
fits in batch: its Λ is complete before label modeling starts, and the
drained model is that fit.

Run with::

    PYTHONPATH=src python examples/online_label_model.py
"""

import numpy as np

from repro.datasets.synthetic import generate_label_matrix
from repro.labeling.sparse import SparseLabelMatrix
from repro.labelmodel import GenerativeModel, OnlineGenerativeModel

NUM_POINTS = 6_000
NUM_LFS = 12
CHUNK_SIZE = 500


def main() -> None:
    data = generate_label_matrix(
        num_points=NUM_POINTS,
        num_lfs=NUM_LFS,
        accuracy=[0.9] * 4 + [0.7] * 8,
        propensity=0.3,
        seed=0,
    )
    dense = data.label_matrix.values

    # --- stream → update: fold the corpus chunk by chunk.  A staleness
    # bound of 4 means serving drains (exact-refits) whenever more than 4
    # chunks were folded since the last exact fit.
    online = OnlineGenerativeModel(epochs=20, seed=0, max_staleness=4)
    for start in range(0, NUM_POINTS, CHUNK_SIZE):
        online.update(dense[start:start + CHUNK_SIZE])
    print(f"folded {NUM_POINTS} rows in chunks of {CHUNK_SIZE}: "
          f"version={online.model_version_}, "
          f"{online.updates_since_drain_} updates since last exact fit")

    # --- serve: the first chunk trips the staleness bound, so serving
    # drains first; after that every chunk is scored by the exact model.
    served = list(online.serve_posteriors(
        dense[start:start + CHUNK_SIZE]
        for start in range(0, NUM_POINTS, CHUNK_SIZE)
    ))
    versions = {result.model_version for result in served}
    print(f"served {len(served)} chunks under model version(s) {sorted(versions)}")

    # --- the exactness claim: draining the stream reproduces the batch fit
    # on the full matrix bit for bit.
    drained = online.drain()
    batch = GenerativeModel(epochs=20, seed=0).fit(data.label_matrix.to_sparse())
    assert np.array_equal(drained.weights, batch.weights)
    served_probs = np.concatenate([result.probs for result in served])
    assert np.array_equal(served_probs, batch.predict_proba(dense))
    print("drained model ≡ batch fit (bitwise); served posteriors ≡ batch")
    accuracy = float((np.where(served_probs > 0.5, 1, -1) == data.gold_labels).mean())
    print(f"accuracy of served labels vs gold: {accuracy:.3f}")

    # --- edit an LF live: a new labeling function arrives (here: a noisy
    # copy of the gold labels, voting on 30% of rows).  add_lf splices it
    # into the statistics without touching the accumulated rows' work.
    rng = np.random.default_rng(1)
    votes = np.where(
        rng.random(NUM_POINTS) < 0.3,
        np.where(rng.random(NUM_POINTS) < 0.85, data.gold_labels, -data.gold_labels),
        0,
    )
    column = online.add_lf(votes)
    print(f"\nadded LF at column {column}: version={online.model_version_}")

    # --- serve again: chunks now carry the new LF's column too.  One edit
    # sits within the staleness bound, so this serve uses the warm
    # parameters (the new LF at its prior accuracy); the explicit drain
    # below then estimates it exactly — equal to refitting the grown
    # matrix from scratch.
    grown = np.column_stack([dense, votes])
    [fresh] = list(online.serve_posteriors([grown[:CHUNK_SIZE]]))
    refit = GenerativeModel(epochs=20, seed=0).fit(SparseLabelMatrix.from_dense(grown))
    assert np.array_equal(online.drain().weights, refit.weights)
    learned = online.drain().learned_accuracies()
    print(f"post-edit serve at version {fresh.model_version}; "
          f"new LF's learned accuracy {learned[column]:.3f} "
          f"(drain ≡ full refit, bitwise)")

    # --- and removal: drop the worst LF; the drain again matches a
    # from-scratch fit on the reduced matrix.
    worst = int(np.argmin(learned))
    online.remove_lf(worst)
    reduced = np.delete(grown, worst, axis=1)
    assert np.array_equal(
        online.drain().weights,
        GenerativeModel(epochs=20, seed=0).fit(SparseLabelMatrix.from_dense(reduced)).weights,
    )
    print(f"removed LF {worst}: drain ≡ refit on the reduced matrix (bitwise)")


if __name__ == "__main__":
    main()
