#!/usr/bin/env python
"""Differential check of label-model fits, Λ statistics, end-model fits and
whole pipeline runs between two checkouts.

The EM kernel's contract is that CSR-input fits (weights, class prior,
history, ``predict_proba``) stay bit-identical across refactors; the
end-model trainer's is that weights, biases/layers and ``loss_history`` do.
Dump the fits of one checkout, dump the other's, and diff::

    PYTHONPATH=/path/to/parent/src python scripts/diff_label_model_fits.py dump a.pkl
    PYTHONPATH=src                 python scripts/diff_label_model_fits.py dump b.pkl
    python scripts/diff_label_model_fits.py diff a.pkl b.pkl

The grid is k ∈ {2, 3, 4} × {no, planted correlations} × {estimated,
supplied class balance} × {CSR, dense input}, plus CD fits under both Gibbs
kernels, Dawid–Skene fits (full and symmetric, signed-binary recode at
k = 2), online folds/drains/edits and the all-abstain-row / empty-column
edge matrix.  CD and Dawid–Skene read the CSR entries like everything else,
so their dense-input records must equal their CSR-input twins.

The ``stats`` groups record everything else that is read off Λ, over the
same k × {plain, planted} × {CSR, dense} grid plus the edge matrix: the
``LabelMatrix`` statistics, ``LFAnalysis`` (every method, ``summary`` with
and without gold), the three voters, ``class_vote_counts``,
``modeling_advantage`` and the advantage bound, ``StructureLearner`` and
``ModelingStrategyOptimizer.choose``.  All of them compute on the CSR
entries, so CSR-input records are held bit-identical and dense-input ones
may move only where a BLAS product became a CSR one (``stats dense-input
weighted vote``, last digits).

The structure learner is recorded under two groups so the table shows the
one that may move: ``structure weights`` (``fit`` / ``refit_nodes``
dependency weights — summation order inside the node-wise solver may change
them in the last digits, bound 1e-12) and ``structure select`` (``select``
at all ten ε the optimizer sweeps — held identical, like ``optimizer``).
Besides the grid above they cover a matrix whose every node is below the
solver's gemv size, one whose nodes straddle it, one with no stacked node
(``GEMV_ONLY``), and the served node-size profiles (a cdr-shaped Λ, every
node stacked; an edit-loop-shaped one, 21 gemv nodes and one stacked); the
dump itself fails unless ``refit_nodes`` on a subset is bitwise the rows of
``fit``.  The diff's last line is ``structure contract: PASS|FAIL`` (exit
status 1 on FAIL): PASS means every ``structure select`` and ``optimizer``
group is bit-identical, every ``structure weights`` group is within
``STRUCTURE_WEIGHTS_BOUND`` and the ``GEMV_ONLY`` weights are bit-identical.

The ``end_models`` groups fit logistic (± ``class_balance``, dense and CSR
input, ± ``sample_weights``), softmax (k=3, hard and soft targets) and the
MLP (± dropout) through every front door: ``fit`` shuffled,
``fit(shuffle=False)``, ``fit_stream`` at block sizes {1, 37, batch, all},
and a checkpointed ``fit_stream`` killed after epoch 2 and resumed (the dump
itself fails unless that equals the uninterrupted fit bit for bit).  Each
also gets three pipeline-shaped records: blocks of ``PIPELINE_BLOCKS`` rows
(none a multiple of the batch) carved to a partial kept mask, fed once as
a sequence carved in place (``CSRMatrix.keep_rows``, as the pipeline does
with the blocks it owns) and once as a callable that carves copies per
epoch (as it does with disk-backed ones), plus ``fit(X[keep],
shuffle=False)``.  The ``pipeline`` groups run ``run_streams`` and
``run(task)`` on a k=2 and a k=3 task.

The ``labeling`` groups hold what one labeling pass hands back: Λ (CSR
``indptr/indices/data`` or the dense array, as held), the chunk-ordered
feature blocks and the deterministic ``ApplyReport`` fields, for ``apply``
and ``apply_with_features`` × ``pushdown`` ∈ {off, auto} × ``sparse`` ×
list / generator / empty input × {a clean suite, a fault-tolerant run with
a planted raising LF under the sequential and the processes backend}, plus
``warm_featurizer``: the same pass with a featurizer that has already been
through a different corpus (its run tables must not show in any block).

The diff prints, per group, how many recorded arrays are bit-identical and
the largest absolute difference; records only one checkout has (e.g. a
``loss_history`` the older one did not keep) are counted, not compared.
It then prints one line per dump comparing every dense-input record with its
CSR-input twin inside that dump, the structure contract line, and last
``end-model contract: PASS|FAIL``: PASS means every ``end_models`` and
``pipeline`` group is bit-identical and, inside each dump, every
pipeline-shaped sequence fit equals its callable twin bit for bit and its
``fit(X[keep])`` twin bit for bit too, except under ``class_balance``:
there that twin is held within ``CLASS_BALANCE_FIT_RTOL`` relative, because
a stream sums the positive mass block by block and ``fit`` in one pass.
The exit status is 1 when either verdict is FAIL.
"""

from __future__ import annotations

import itertools
import pickle
import sys
import tempfile

import numpy as np

EDGE = np.array(
    [[1, -1, 0, 1], [0, 1, 0, -1], [0, 0, 0, 0], [-1, 0, 0, 0], [1, 1, 0, 1]]
)

#: The structure case with no stacked node: its weights are BLAS products
#: only, so the contract holds them bit-identical.
GEMV_ONLY = "gemv-only nodes"

#: The bound the ``structure weights`` groups may move by.
STRUCTURE_WEIGHTS_BOUND = 1e-12

#: How far a ``class_balance`` pipeline-shaped stream fit may sit from its
#: ``fit(X[keep])`` twin, relatively: a stream sums the positive mass block
#: by block and ``fit`` in one pass, so the two agree only to rounding.
CLASS_BALANCE_FIT_RTOL = 1e-12

#: Block sizes of the pipeline-shaped end-model records: engine-chunk-like
#: blocks, none a multiple of the batch size (32), one a single row.
PIPELINE_BLOCKS = (37, 70, 1, 95, 97)


def dump(path: str) -> None:
    from repro.datasets.synthetic import (
        generate_label_matrix,
        generate_multiclass_label_matrix,
    )
    from repro.labeling import LabelMatrix, SparseLabelMatrix
    from repro.labelmodel import GenerativeModel, OnlineGenerativeModel

    out: dict[str, object] = {}

    def record(tag, model, inputs):
        history = model.history
        out[f"{tag}/weights"] = model.weights.copy()
        out[f"{tag}/prior_weight"] = np.float64(model.class_prior_weight_)
        out[f"{tag}/priors"] = model.class_priors_
        out[f"{tag}/history"] = np.array(
            [history.epochs, *history.weight_deltas, *history.mean_accuracy_weights]
        )
        for name, matrix in inputs.items():
            out[f"{tag}/predict {name}"] = model.predict_proba(matrix)

    rng = np.random.default_rng(0)
    pairs = [(0, 1), (2, 3), (0, 4), (1, 4)]
    for k in (2, 3, 4):
        if k == 2:
            data = generate_label_matrix(num_points=700, num_lfs=9, propensity=0.35, seed=k)
        else:
            data = generate_multiclass_label_matrix(
                num_points=700, num_lfs=9, cardinality=k, propensity=0.35, seed=k
            )
        base = data.label_matrix.values.copy()
        base[5] = 0  # an all-abstain row
        planted = base.copy()
        for a, b in pairs[:3]:
            copied = rng.random(700) < 0.7
            planted[copied, b] = planted[copied, a]
        test = base[rng.permutation(700)[:150]]
        tests = {"dense": test, "csr": SparseLabelMatrix.from_dense(test)}
        supplied = 0.3 if k == 2 else list(np.arange(1, k + 1) / np.arange(1, k + 1).sum())
        for corr_name, dense, corr in (("plain", base, ()), ("correlated", planted, pairs)):
            for storage in ("csr", "dense"):
                matrix = LabelMatrix(dense, cardinality=k)
                if storage == "csr":
                    matrix = matrix.to_sparse()
                dump_stats(
                    out, f"{storage}-input", f"k{k} {corr_name}", matrix,
                    data.gold_labels, data.lf_accuracies,
                )
            for balance_name, balance in (("estimated", None), ("supplied", supplied)):
                for storage in ("csr", "dense"):
                    matrix = LabelMatrix(dense, cardinality=k)
                    if storage == "csr":
                        matrix = matrix.to_sparse()
                    model = GenerativeModel(epochs=14, class_balance=balance, seed=0)
                    model.fit(matrix, correlations=corr)
                    record(
                        f"em {storage}-input fit/k{k} {corr_name} {balance_name}",
                        model,
                        {f"train {storage}": matrix, **tests},
                    )
        for storage in ("csr", "dense"):
            matrix = LabelMatrix(base[:200], cardinality=k)
            if storage == "csr":
                matrix = matrix.to_sparse()
            for corr in ((), [(0, 1)]):
                model = GenerativeModel(method="cd", epochs=3, seed=0)
                model.fit(matrix, correlations=corr)
                record(f"cd {storage}-input fit/k{k} {len(corr)} pairs", model, tests)
            model = GenerativeModel(method="cd", epochs=2, seed=0, gibbs_kernel="reference")
            model.fit(matrix, correlations=[(0, 1)])
            record(f"cd {storage}-input fit/k{k} reference kernel", model, tests)
            dump_dawid_skene(out, storage, f"k{k}", k, matrix, tests)
        for corr in ((), pairs[:2]):
            tag = f"k{k} {len(corr)} pairs"
            online = OnlineGenerativeModel(cardinality=k, correlations=corr, epochs=9, seed=0)
            for start in range(0, 700, 175):
                online.update(base[start:start + 175])
                for name, chunk in tests.items():
                    out[f"online warm/{tag} {start}/predict {name}"] = online.posteriors(chunk)
                out[f"online state/{tag} accuracies {start}"] = online.accuracies_.copy()
            record(f"online drain/{tag}", online.drain(), tests)
            out[f"online state/{tag} re-anchored accuracies"] = online.accuracies_.copy()
            out[f"online state/{tag} re-anchored counts"] = online.expected_correct_.copy()
            out[f"online state/{tag} re-anchored mass"] = np.asarray(online.posterior_mass_)
            online.update(base[:100])
            online.add_lf(np.concatenate([base[:, 0], base[:100, 0]]))
            online.remove_lf(1)
            record(f"online drain/{tag} after edits", online.drain(), {})
    for storage in ("csr", "dense"):
        matrix = LabelMatrix(EDGE).to_sparse() if storage == "csr" else LabelMatrix(EDGE)
        model = GenerativeModel(epochs=10, seed=0).fit(matrix, correlations=[(0, 3)])
        record(f"em {storage}-input fit/edge", model, {f"train {storage}": matrix})
        dump_stats(
            out, f"{storage}-input", "edge", matrix,
            np.array([1, -1, 1, -1, 1]), np.array([0.8, 0.7, 0.6, 0.9]),
        )
    # Node sizes on either side of the structure solver's gemv rule (4096
    # design elements: 315 voted rows at 12 LFs, 455 at 8, 178 at 22, 512 at
    # 7), plus the served node-size profiles: a cdr-shaped Λ (every node
    # stacked) and an edit-loop-shaped one (21 gemv nodes, one stacked).
    for case, settings in (
        ("small nodes", dict(num_points=600, num_lfs=12, propensity=0.1, seed=5)),
        (
            "straddling nodes",
            dict(
                num_points=2500,
                num_lfs=8,
                propensity=[0.04, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0],
                seed=6,
            ),
        ),
        (
            "cdr-shaped nodes",
            dict(
                num_points=485,
                num_lfs=32,
                propensity=[*np.linspace(10 / 485, 114 / 485, 20), *[0.01] * 12],
                seed=7,
            ),
        ),
        (
            "edit-loop-shaped nodes",
            dict(
                num_points=5000,
                num_lfs=22,
                propensity=[*np.linspace(0.05, 0.54, 21), 0.027],
                seed=8,
            ),
        ),
        (
            GEMV_ONLY,
            dict(num_points=3000, num_lfs=7, propensity=np.linspace(0.3, 0.9, 7), seed=9),
        ),
    ):
        matrix = generate_label_matrix(**settings).label_matrix
        dump_structure(out, "csr-input", case, matrix.to_sparse())
        dump_structure(out, "dense-input", case, matrix)
    dump_end_models(out)
    dump_pipelines(out)
    dump_labeling(out)
    with open(path, "wb") as handle:
        pickle.dump(out, handle)
    print(f"{len(out)} records -> {path}")


def dump_stats(out: dict, storage: str, case: str, matrix, gold, lf_accuracies) -> None:
    """Everything read off one Λ besides the label-model fit."""
    from repro.labeling import LFAnalysis
    from repro.labeling.sparse import class_vote_counts
    from repro.labelmodel import (
        MajorityVoter,
        ModelingStrategyOptimizer,
        MultiClassMajorityVoter,
        WeightedMajorityVoter,
        modeling_advantage,
    )
    from repro.labelmodel.advantage import estimate_advantage_bound_detail

    def put(group, name, value):
        # NaN (an LF with no votes has no accuracy) would never diff as equal.
        value = np.nan_to_num(np.asarray(value, dtype=float), nan=-1.0)
        out[f"stats {storage} {group}/{case} {name}"] = value

    def pairs_of(lists):
        return [[j, value] for j, values in enumerate(lists) for value in values]

    k = matrix.cardinality
    labels = (-1, 1) if k == 2 else range(1, k + 1)
    weights = 0.5 * np.log(lf_accuracies * (k - 1) / (1 - lf_accuracies))

    put("LabelMatrix", "density, coverage", [matrix.label_density(), matrix.coverage()])
    put("LabelMatrix", "lf_coverage", matrix.lf_coverage())
    put("LabelMatrix", "lf_polarity", pairs_of(matrix.lf_polarity()))
    put("LabelMatrix", "class_balance", sorted(matrix.class_balance().items()))
    put("LabelMatrix", "vote_counts", [matrix.vote_counts(label) for label in labels])
    put("LabelMatrix", "covered_rows", matrix.covered_rows())
    put("LabelMatrix", "row_sums", matrix.row_sums())

    analysis = LFAnalysis(matrix)
    put(
        "LFAnalysis",
        "matrix level",
        [
            analysis.coverage(),
            analysis.label_density(),
            analysis.overlap_fraction(),
            analysis.conflict_fraction(),
        ],
    )
    put("LFAnalysis", "lf_coverages", analysis.lf_coverages())
    put("LFAnalysis", "lf_overlaps", analysis.lf_overlaps())
    put("LFAnalysis", "lf_conflicts", analysis.lf_conflicts())
    put("LFAnalysis", "lf_empirical_accuracies", analysis.lf_empirical_accuracies(gold))
    for name, summary in (("no gold", analysis.summary()), ("gold", analysis.summary(gold))):
        put(
            "LFAnalysis",
            f"summary {name}",
            [
                [
                    row.coverage,
                    row.overlap,
                    row.conflict,
                    -1.0 if row.empirical_accuracy is None else row.empirical_accuracy,
                    row.num_labeled,
                ]
                for row in summary
            ],
        )
        put("LFAnalysis", f"summary {name} polarity", pairs_of(row.polarity for row in summary))

    if k == 2:
        voter = MajorityVoter()
        put("voters", "MV scores", voter.vote_scores(matrix))
        put("voters", "MV predict_proba", voter.predict_proba(matrix))
        put("voters", "MV predict", voter.predict(matrix))
        weighted = WeightedMajorityVoter(weights)
        put("weighted vote", "WMV scores", weighted.vote_scores(matrix))
        put("weighted vote", "WMV predict_proba", weighted.predict_proba(matrix))
        put("voters", "WMV predict", weighted.predict(matrix))
        put("advantage", "modeling_advantage", modeling_advantage(matrix, gold, weights))
        detail = estimate_advantage_bound_detail(matrix)
        put(
            "advantage",
            "bound detail",
            [
                detail.bound,
                detail.label_density,
                detail.num_candidates,
                detail.num_disagreement_rows,
            ],
        )
    else:
        voter = MultiClassMajorityVoter(k)
        put("voters", "multi-class MV predict_proba", voter.predict_proba(matrix))
        put("voters", "multi-class MV predict", voter.predict(matrix))
        put("voters", "class_vote_counts", class_vote_counts(matrix, k))
        put("voters", "class_vote_counts weighted", class_vote_counts(matrix, k, weights))

    dump_structure(out, storage, case, matrix)

    strategy = ModelingStrategyOptimizer().choose(matrix)
    threshold = strategy.correlation_threshold
    put(
        "optimizer",
        "strategy, bound, threshold",
        [
            strategy.use_generative_model,
            strategy.advantage_bound,
            -1.0 if threshold is None else threshold,
        ],
    )
    put("optimizer", "pairs", strategy.correlations)
    put("optimizer", "sweep sizes", [point.num_correlations for point in strategy.sweep])


def dump_dawid_skene(out: dict, storage: str, case: str, k: int, matrix, tests) -> None:
    """Dawid–Skene fits (full and symmetric) and held-out posteriors of one Λ."""
    from repro.labeling import LabelMatrix
    from repro.labelmodel import DawidSkeneModel

    for symmetric in (False, True):
        model = DawidSkeneModel(k, max_iter=25, symmetric=symmetric).fit(matrix)
        tag = f"dawid-skene {storage}-input/{case} {'symmetric' if symmetric else 'full'}"
        out[f"{tag} confusion"] = model.confusion.copy()
        out[f"{tag} class_priors"] = model.class_priors.copy()
        out[f"{tag} posteriors"] = model.posteriors_.copy()
        out[f"{tag} predict"] = model.predict(matrix)
        for name, held_out in tests.items():
            # Wrapped: before it read the CSR entries the model took raw arrays
            # and ``LabelMatrix`` only, and the dump must run on that parent too.
            held_out = LabelMatrix(held_out, cardinality=k)
            out[f"{tag} predict_proba {name}"] = model.predict_proba(held_out)


def dump_structure(out: dict, storage: str, case: str, matrix) -> None:
    """Structure weights and selections of one Λ, under separate groups."""
    from repro.labelmodel import ModelingStrategyOptimizer, StructureLearner

    def put(group, name, value):
        out[f"stats {storage} structure {group}/{case} {name}"] = np.asarray(value, dtype=float)

    learner = StructureLearner(seed=0).fit(matrix)
    fitted = learner.dependency_weights_.copy()
    put("weights", "fit", fitted)
    for threshold in ModelingStrategyOptimizer()._sweep_thresholds():
        put("select", f"{threshold}", learner.select(threshold))
    nodes = [0, matrix.num_lfs - 1]
    learner.dependency_weights_[nodes] = 7.0  # refit_nodes must overwrite exactly these rows
    refitted = learner.refit_nodes(matrix, nodes).dependency_weights_
    put("weights", "refit_nodes", refitted)
    if not np.array_equal(refitted, fitted):
        raise SystemExit(f"structure {storage} {case}: refit_nodes differs from the rows of fit")


class _Killed(Exception):
    pass


class _DieAfterEpoch:
    """An epoch checkpoint whose fit dies right after one durable save."""

    def __init__(self, inner, epoch: int) -> None:
        self.inner, self.epoch = inner, epoch

    def load(self):
        return self.inner.load()

    def save(self, state: dict) -> None:
        self.inner.save(state)
        if state["epoch"] == self.epoch:
            raise _Killed


def dump_end_models(out: dict) -> None:
    from repro.datasets.synthetic import stream_text_candidates
    from repro.discriminative import (
        NoiseAwareLogisticRegression,
        NoiseAwareMLP,
        RelationFeaturizer,
    )
    from repro.discriminative.softmax import NoiseAwareSoftmaxRegression
    from repro.labeling.blockstore import BlockStore, EpochCheckpoint

    candidates = list(stream_text_candidates(num_points=300, num_lfs=6, seed=0))
    csr = RelationFeaturizer(num_features=96).fit().transform(candidates, sparse=True)
    rng = np.random.default_rng(0)
    soft = rng.random(300)
    distributions = rng.random((300, 3))
    distributions /= distributions.sum(axis=1, keepdims=True)
    sample_weights = rng.random(300) + 0.5
    # The kept-row mask of the pipeline-shaped records: the first block kept
    # whole, the one-row block dropped, the other three carved.
    kept = rng.random(300) < 0.8
    kept[:37], kept[107] = True, False
    epochs, batch = 5, 32

    def parameters(model) -> dict:
        if hasattr(model, "_layers"):
            return {
                f"layer {index} {part}": np.array(array)
                for index, layer in enumerate(model._layers)
                for part, array in zip(("weight", "bias"), layer)
            }
        return {"weights": np.array(model.weights), "bias": np.array(model.bias)}

    def record(tag, model):
        for name, array in parameters(model).items():
            out[f"{tag}/{name}"] = array
        if hasattr(model, "loss_history"):
            out[f"{tag}/loss_history"] = np.array(model.loss_history)

    def blocks_of(features, targets, size):
        return [
            (features[np.arange(start, min(start + size, 300))], targets[start : start + size])
            for start in range(0, 300, size)
        ]

    def pipeline_shaped(features, targets, in_place):
        # Chunk-sized blocks that do not divide the batch, each carved to its
        # kept rows as the pipeline does: in its own arrays for the sequence
        # it owns, as a copy per epoch for the callable it hands over.  (A
        # checkout without `keep_rows` carves copies for both.)
        start = 0
        for size in PIPELINE_BLOCKS:
            block = features[np.arange(start, start + size)]
            local = np.flatnonzero(kept[start : start + size])
            if 0 < local.size < size:
                owned = in_place and hasattr(block, "keep_rows")
                block = block.keep_rows(local) if owned else block[local]
            if local.size:
                yield block, targets[start + local]
            start += size

    def every_front_door(tag, make, features, targets, resumable=True):
        record(f"{tag} fit shuffled", make().fit(features, targets))
        record(f"{tag} fit ordered", make(shuffle=False).fit(features, targets))
        for size in (1, 37, batch, 300):
            blocks = blocks_of(features, targets, size)
            record(f"{tag} fit_stream blocks of {size}", make(shuffle=False).fit_stream(blocks))
        sequence = list(pipeline_shaped(features, targets, in_place=True))
        record(f"{tag} pipeline-shaped sequence", make(shuffle=False).fit_stream(sequence))
        record(
            f"{tag} pipeline-shaped callable",
            make(shuffle=False).fit_stream(lambda: pipeline_shaped(features, targets, False)),
        )
        record(
            f"{tag} pipeline-shaped fit(X[keep])",
            make(shuffle=False).fit(features[np.flatnonzero(kept)], targets[kept]),
        )
        if not resumable:
            return
        blocks = blocks_of(features, targets, 37)
        uninterrupted = make(shuffle=False).fit_stream(blocks)
        with tempfile.TemporaryDirectory() as root, BlockStore(root) as store:
            checkpoint = EpochCheckpoint(store, "fit")
            try:
                make(shuffle=False).fit_stream(blocks, checkpoint=_DieAfterEpoch(checkpoint, 2))
            except _Killed:
                pass
            resumed = make(shuffle=False).fit_stream(blocks, checkpoint=checkpoint)
        record(f"{tag} killed after epoch 2 and resumed", resumed)
        for name, array in parameters(resumed).items():
            if not np.array_equal(array, parameters(uninterrupted)[name]):
                raise SystemExit(f"{tag}: resumed fit differs from uninterrupted in {name}")

    for balance in (None, 0.3):
        for storage, features in (("csr", csr), ("dense", csr.toarray())):
            every_front_door(
                f"end_models logistic/balance {balance} {storage}",
                lambda **kw: NoiseAwareLogisticRegression(
                    epochs=epochs, batch_size=batch, class_balance=balance, seed=0, **kw
                ),
                features,
                soft,
            )
        model = NoiseAwareLogisticRegression(
            epochs=epochs, batch_size=batch, class_balance=balance, seed=0
        )
        record(
            f"end_models logistic/balance {balance} sample_weights",
            model.fit(csr, soft, sample_weights=sample_weights),
        )
    for name, targets in (("hard", 1 + (np.arange(300) % 3)), ("soft", distributions)):
        every_front_door(
            f"end_models softmax/{name} targets",
            lambda **kw: NoiseAwareSoftmaxRegression(
                num_classes=3, epochs=epochs, batch_size=batch, seed=0, **kw
            ),
            csr,
            targets,
        )
    for dropout in (0.0, 0.2):
        every_front_door(
            f"end_models mlp/dropout {dropout}",
            lambda **kw: NoiseAwareMLP(
                hidden_sizes=(8, 4), epochs=epochs, batch_size=batch, dropout=dropout, seed=0, **kw
            ),
            csr,
            soft,
            resumable=dropout == 0.0,
        )
    record(
        "end_models mlp/sample_weights",
        NoiseAwareMLP(hidden_sizes=(8,), epochs=epochs, batch_size=batch, seed=0).fit(
            csr, soft, sample_weights=sample_weights
        ),
    )


def dump_pipelines(out: dict) -> None:
    from repro.datasets.base import load_task
    from repro.datasets.synthetic import build_multiclass_task
    from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

    tasks = {
        "k2": (load_task("cdr", scale=0.05, seed=0), {}),
        "k3": (
            build_multiclass_task(num_points=200, num_lfs=10, cardinality=3, seed=3),
            dict(use_optimizer=False, generative_epochs=5, discriminative_epochs=8),
        ),
    }
    for name, (task, settings) in tasks.items():
        for sparse_labels in (False, True):
            config = PipelineConfig(seed=0, chunk_size=64, sparse_labels=sparse_labels, **settings)
            runs = {
                "pipeline run_streams": SnorkelPipeline(config=config).run_streams(
                    task.stream_candidates("train"),
                    task.stream_candidates("test"),
                    task.split_gold("test"),
                    lfs=task.lfs,
                ),
                "pipeline run(task)": SnorkelPipeline(config=config).run(task),
            }
            for group, result in runs.items():
                tag = f"{group}/{name} sparse_labels={sparse_labels}"
                model = result.discriminative_model
                out[f"{tag} label matrix"] = result.label_matrix.values
                out[f"{tag} training_probs"] = result.training_probs
                out[f"{tag} end-model weights"] = np.array(model.weights)
                out[f"{tag} end-model bias"] = np.array(model.bias)
                out[f"{tag} test F1s"] = np.array(
                    [result.generative_f1, result.discriminative_f1]
                )


def raises_on_thirds(candidate) -> int:
    """The planted faulty LF of the ``labeling`` groups (module level: it
    has to reach pool workers)."""
    if candidate.uid % 3 == 0:
        raise KeyError(f"boom on {candidate.uid}")
    return 1 if candidate.uid % 2 else -1


def dump_labeling(out: dict) -> None:
    from repro.datasets.synthetic import stream_text_candidates, text_vote_lfs
    from repro.discriminative import RelationFeaturizer
    from repro.labeling import LabelingFunction, LFApplier
    from repro.labeling.engine import shutdown_pools

    def text(value) -> np.ndarray:
        # Names and nested dicts, as bytes: the diff compares numeric arrays.
        return np.frombuffer(repr(value).encode(), dtype=np.uint8)

    candidates = list(stream_text_candidates(num_points=150, num_lfs=6, seed=0))
    inputs = {"list": lambda: candidates, "generator": lambda: iter(candidates), "empty": list}
    featurizer = RelationFeaturizer(num_features=64).fit()
    clean = text_vote_lfs(6)
    faulty = clean + [LabelingFunction("raises_on_thirds", raises_on_thirds)]
    suites = {
        "clean sequential": (clean, dict()),
        "faulty sequential": (faulty, dict(fault_tolerant=True)),
        "faulty processes": (
            faulty, dict(fault_tolerant=True, backend="processes", num_workers=2)
        ),
    }
    def record(tag, matrix, blocks, report):
        out[f"{tag} held"] = np.array([matrix.is_sparse, *matrix.shape])
        if matrix.is_sparse:
            for part in ("indptr", "indices", "data"):
                out[f"{tag} Λ {part}"] = getattr(matrix.storage, part)
        else:
            out[f"{tag} Λ dense"] = matrix.values
        out[f"{tag} blocks"] = np.array([block.shape for block in blocks]).reshape(-1, 2)
        for index, block in enumerate(blocks):
            for part in ("indptr", "indices", "data"):
                out[f"{tag} block {index} {part}"] = getattr(block, part)
        pushdown = report.pushdown
        out[f"{tag} report"] = text(
            (
                report.num_candidates,
                report.num_lfs,
                report.num_chunks,
                report.errors,
                {name: detail.type_counts for name, detail in report.error_details.items()},
                pushdown and (pushdown.compiled, sorted(pushdown.fallback)),
                report.transport.mode,
            )
        )

    try:
        for (suite, (lfs, settings)), pushdown in itertools.product(
            suites.items(), ("off", "auto")
        ):
            # One applier per suite and tier, as a caller would hold it: the
            # repeat applies below also run on its cached plan and payloads.
            applier = LFApplier(lfs, chunk_size=32, pushdown=pushdown, **settings)
            for sparse, (source, make) in itertools.product((True, False), inputs.items()):
                case = f"{suite} pushdown={pushdown} sparse={sparse} {source}"
                matrix = applier.apply(make(), sparse=sparse)
                record(f"labeling apply/{case}", matrix, [], applier.last_report)
                matrix, blocks = applier.apply_with_features(make(), featurizer, sparse=sparse)
                record(
                    f"labeling apply_with_features/{case}", matrix, blocks, applier.last_report
                )
        # A featurizer keeps what it interned and hashed from chunk to chunk;
        # no block may depend on it.  This one has been through another
        # corpus (other tokens, k = 3) before it meets the recorded one.
        warm = RelationFeaturizer(num_features=64).fit()
        warm.transform(list(stream_text_candidates(200, num_lfs=9, cardinality=3, seed=7)))
        for suite in ("clean sequential", "faulty processes"):
            lfs, settings = suites[suite]
            applier = LFApplier(lfs, chunk_size=32, **settings)
            matrix, blocks = applier.apply_with_features(candidates, warm, sparse=True)
            record(f"labeling warm_featurizer/{suite}", matrix, blocks, applier.last_report)
    finally:
        shutdown_pools()


def diff(path_a: str, path_b: str) -> int:
    with open(path_a, "rb") as handle_a, open(path_b, "rb") as handle_b:
        a, b = pickle.load(handle_a), pickle.load(handle_b)
    one_sided = sorted(set(a) ^ set(b))
    groups: dict[str, list] = {}
    for key in a.keys() & b.keys():
        group = key.partition("/")[0]
        if "/predict " in key:
            group += ", predict " + key.rsplit(" ", 1)[1]
        if a[key] is None or b[key] is None:
            delta = 0.0 if a[key] is b[key] else float("inf")
        else:
            x, y = np.asarray(a[key], dtype=float), np.asarray(b[key], dtype=float)
            delta = float("inf") if x.shape != y.shape else float(np.abs(x - y).max(initial=0.0))
        stats = groups.setdefault(group, [0, 0, 0.0])
        stats[0] += 1
        stats[1] += delta == 0.0
        stats[2] = max(stats[2], delta)
    for group, (count, exact, worst) in sorted(groups.items()):
        print(f"{group:42s} {exact:3d}/{count:3d} bit-identical, max |diff| = {worst:.3e}")
    if one_sided:
        print(f"{len(one_sided)} records in one dump only, e.g. {one_sided[:3]}")
    # Within each dump: a dense-input record against its CSR-input twin.
    for path, records in ((path_a, a), (path_b, b)):
        count, exact, worst = 0, 0, 0.0
        for key, value in records.items():
            twin_key = key.replace("dense-input", "csr-input").replace("train dense", "train csr")
            twin = records.get(twin_key)
            if twin_key == key or value is None or twin is None:
                continue
            x, y = np.asarray(value, dtype=float), np.asarray(twin, dtype=float)
            delta = float(np.abs(x - y).max(initial=0.0))
            count, exact, worst = count + 1, exact + (delta == 0.0), max(worst, delta)
        print(
            f"{path}: dense-input vs CSR-input twins {exact}/{count} bit-identical, "
            f"max |diff| = {worst:.3e}"
        )
    structure = structure_contract(groups, a, b)
    print(f"structure contract: {'PASS' if structure else 'FAIL'}")
    end_model = end_model_contract(groups, (a, b))
    print(f"end-model contract: {'PASS' if end_model else 'FAIL'}")
    return 0 if structure and end_model else 1


def end_model_contract(groups: dict, dumps: tuple) -> bool:
    """Every ``end_models`` / ``pipeline`` group bit-identical, and inside
    each dump every pipeline-shaped sequence fit bitwise its callable twin
    and ``fit(X[keep], shuffle=False)`` — the latter only within
    ``CLASS_BALANCE_FIT_RTOL`` for a ``class_balance`` fit."""
    for group, (count, exact, _) in groups.items():
        if group.startswith(("end_models", "pipeline")) and exact != count:
            return False
    for records in dumps:
        for key, value in records.items():
            if " pipeline-shaped sequence/" not in key:
                continue
            twin = records[key.replace(" sequence/", " callable/")]
            fitted = records[key.replace(" sequence/", " fit(X[keep])/")]
            balanced = "/balance " in key and "/balance None " not in key
            same_fit = (
                np.allclose(value, fitted, rtol=CLASS_BALANCE_FIT_RTOL, atol=0)
                if balanced
                else np.array_equal(value, fitted)
            )
            if not (np.array_equal(value, twin) and same_fit):
                return False
    return True


def structure_contract(groups: dict, a: dict, b: dict) -> bool:
    """``structure select`` / ``optimizer`` groups bit-identical, ``structure
    weights`` within ``STRUCTURE_WEIGHTS_BOUND`` and bit-identical where no
    node is stacked."""
    for group, (count, exact, worst) in groups.items():
        if group.endswith((" structure select", " optimizer")) and exact != count:
            return False
        if group.endswith(" structure weights") and worst > STRUCTURE_WEIGHTS_BOUND:
            return False
    return all(
        np.array_equal(a[key], b[key])
        for key in a.keys() & b.keys()
        if f" structure weights/{GEMV_ONLY} " in key
    )


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "diff":
        raise SystemExit(diff(sys.argv[2], sys.argv[3]))
    else:
        raise SystemExit(__doc__)
