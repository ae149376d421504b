"""The four end-to-end benchmark workloads and their per-layer probes.

Each workload has two halves that run in different processes:

* ``generate(seed, quick)`` runs in the benchmark driver.  It is the load
  generator and the oracle: it makes the inputs from the seed, computes the
  expected outputs with reference code paths, and returns both as one
  picklable dict.  Nothing it does is timed.
* ``setup(inputs)`` / ``op(state, tracer)`` / ``trace(...)`` run in a fresh
  child process and are the system under test.  The seed never reaches
  them; every model seed below is the constant 0.

Why these four (see README.md for the numbers): ``text_stream`` is the
flagship streaming pipeline (featurization and the interpreted LF loop);
``kary_crash_resume`` is the only one where the block store, the k-ary EM
and the softmax end model do work; ``cdr_docs_to_model`` is the only one
that starts from documents (``context`` + ``db``) and uses the compiled LF
tier; ``lf_edit_loop`` uses ``labeling`` and ``labelmodel`` the other way
round (one column, incremental model), so a batch gain that costs the edit
path shows.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import math
import multiprocessing
import os
import shutil
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np
from spans import NULL

from repro.context.corpus import Corpus
from repro.context.extraction import CandidateExtractor, PairedEntityCandidateSpace
from repro.context.preprocessing import DictionaryEntityTagger, TextPreprocessor
from repro.datasets.base import TaskDataset
from repro.datasets.cdr import build_cdr_task, build_spec
from repro.datasets.kb import KnowledgeBase
from repro.datasets.lf_library import (
    distant_supervision_lfs,
    keyword_pattern_lfs,
    regex_variant_lfs,
    structure_based_lfs,
)
from repro.datasets.synth_text import build_relation_task
from repro.datasets.synthetic import (
    stream_relation_candidates,
    stream_text_candidates,
    stream_text_gold,
    text_vote_lfs,
)
from repro.discriminative.featurizers import RelationFeaturizer
from repro.discriminative.logistic import NoiseAwareLogisticRegression
from repro.discriminative.softmax import NoiseAwareSoftmaxRegression
from repro.discriminative.streaming import featurize_stream
from repro.evaluation.scorer import BinaryScorer, MultiClassScorer
from repro.labeling.analysis import LFAnalysis
from repro.labeling.applier import LFApplier
from repro.labeling.blockstore import BlockStore
from repro.labeling.declarative import lf_search, pattern_lf
from repro.labeling.engine.runtime import shutdown_pools
from repro.labeling.lf import LabelingFunction
from repro.labeling.matrix import LabelMatrix
from repro.labeling.pushdown import build_plan
from repro.labelmodel.generative import GenerativeModel
from repro.labelmodel.majority import MajorityVoter, MultiClassMajorityVoter
from repro.labelmodel.online import OnlineGenerativeModel
from repro.labelmodel.optimizer import ModelingStrategyOptimizer
from repro.labelmodel.structure import StructureLearner
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline
from repro.types import NEGATIVE, POSITIVE

#: name, unit, better, regression bound (share of the parent's median).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cand_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("py_calls_per_cand", "count", "lower", 0.02),
)

#: name, unit, better.  A workload reports 0 for a layer it does not use.
PER_LAYER = (
    ("context.ingest_s", "s", "lower"),
    ("context.extract_s", "s", "lower"),
    ("context.materialize_s", "s", "lower"),
    ("context.docs", "count", "higher"),
    ("context.candidates", "count", "higher"),
    ("labeling.apply_s", "s", "lower"),
    ("labeling.fused_pass_s", "s", "lower"),
    ("labeling.pushdown_compile_s", "s", "lower"),
    ("labeling.apply_one_lf_s", "s", "lower"),
    ("labeling.lf_calls", "count", "lower"),
    ("labeling.nnz", "count", "higher"),
    ("labeling.chunks", "count", "lower"),
    ("labeling.compiled_lfs", "count", "higher"),
    ("labeling.fallback_lfs", "count", "lower"),
    ("labeling.lf_errors", "count", "lower"),
    ("labeling.analysis_summary_s", "s", "lower"),
    ("blockstore.ckpt_overhead_s", "s", "lower"),
    ("blockstore.bytes_written", "B", "lower"),
    ("blockstore.blocks_written", "count", "lower"),
    ("blockstore.replay_s", "s", "lower"),
    ("blockstore.put_mb_per_s", "MB/s", "higher"),
    ("blockstore.get_mb_per_s", "MB/s", "higher"),
    ("blockstore.leftover_files", "count", "lower"),
    ("engine.procs2_apply_s", "s", "lower"),
    ("engine.procs2_speedup", "x", "higher"),
    ("engine.transport_share", "ratio", "lower"),
    ("engine.leaked_segments", "count", "lower"),
    ("labelmodel.fit_s", "s", "lower"),
    ("labelmodel.predict_s", "s", "lower"),
    ("labelmodel.optimizer_choose_s", "s", "lower"),
    ("labelmodel.structure_fit_s", "s", "lower"),
    ("labelmodel.structure_refit_s", "s", "lower"),
    ("labelmodel.online_update_s", "s", "lower"),
    ("labelmodel.online_edit_s", "s", "lower"),
    ("labelmodel.online_drain_s", "s", "lower"),
    ("discriminative.featurize_s", "s", "lower"),
    ("discriminative.feature_nnz", "count", "lower"),
    ("discriminative.fit_s", "s", "lower"),
    ("discriminative.epoch_s", "s", "lower"),
    ("discriminative.minibatches", "count", "lower"),
    ("discriminative.predict_s", "s", "lower"),
    ("evaluation.score_s", "s", "lower"),
    ("pipeline.stage_lf_application_s", "s", "lower"),
    ("pipeline.stage_label_modeling_s", "s", "lower"),
    ("pipeline.stage_discriminative_training_s", "s", "lower"),
    ("pipeline.overhead_s", "s", "lower"),
    ("labeling.fused_pass_peak_mb", "MB", "lower"),
    ("labelmodel.fit_peak_mb", "MB", "lower"),
    ("discriminative.fit_peak_mb", "MB", "lower"),
    ("edit_ms_p50", "ms", "lower"),
    ("edit_ms_hi", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

@dataclass
class OpResult:
    """What one op produced: its size, a digest of its outputs, and notes."""

    candidates: int
    digest: str
    #: ``PipelineResult.timings`` of the op's (last) pipeline run, if any.
    timings: dict = field(default_factory=dict)
    #: Wall-clock seconds of each scripted edit (``lf_edit_loop`` only).
    edit_seconds: list = field(default_factory=list)
    #: Correctness checks the op itself found violated.
    failures: list = field(default_factory=list)
    f1: Optional[float] = None


def digest(*arrays) -> str:
    """sha256 over dtype, shape and bytes of every array: bit-identity or not."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _matrix_arrays(label_matrix: LabelMatrix) -> tuple:
    storage = label_matrix.storage
    if label_matrix.is_sparse:
        return storage.indptr, storage.indices, storage.data
    return (storage,)


def _pipeline_digest(label_matrix, training_probs, end_model, generative_f1, end_f1) -> str:
    return digest(
        *_matrix_arrays(label_matrix),
        training_probs,
        end_model.weights,
        np.asarray(end_model.bias),
        np.array([generative_f1, end_f1]),
    )


def _result_digest(result) -> str:
    return _pipeline_digest(
        result.label_matrix,
        result.training_probs,
        result.discriminative_model,
        result.generative_f1,
        result.discriminative_f1,
    )


def _stream_config(**overrides) -> PipelineConfig:
    """The streaming configuration of the two synthetic-text workloads."""
    settings = dict(
        use_optimizer=False,
        generative_epochs=5,
        discriminative_epochs=5,
        num_features=512,
        streaming=True,
        sparse_labels=True,
        seed=0,
    )
    settings.update(overrides)
    return PipelineConfig(**settings)


def _count_apply(tracer, applier: LFApplier) -> None:
    """Counters of one apply call, read off its public report."""
    report = applier.last_report
    compiled = len(report.pushdown.compiled) if report.pushdown else 0
    tracer.count("labeling.lf_calls", report.num_candidates * (report.num_lfs - compiled))
    tracer.count("labeling.chunks", report.num_chunks)
    tracer.count("labeling.lf_errors", report.num_errors)


def traced_pipeline(tracer, lfs, train, test, test_gold, config: PipelineConfig) -> str:
    """``SnorkelPipeline.run_streams`` re-expressed as its public layer calls.

    Same calls, same order, same arguments as the pipeline makes (streaming,
    sparse Λ, no checkpointing), each inside a span; returns the digest of
    the outputs, which must equal the pipeline's own.
    """
    featurizer = RelationFeaturizer(num_features=config.num_features)
    featurizer.fit()
    applier = LFApplier(lfs, chunk_size=config.chunk_size, pushdown=config.lf_pushdown)
    matrices, blocks = [], []
    for candidates in (train, test):
        with tracer.span("labeling.fused_pass"):
            matrix, split_blocks = applier.apply_with_features(
                iter(candidates), featurizer, sparse=True
            )
        _count_apply(tracer, applier)
        tracer.count("labeling.nnz", matrix.storage.nnz)
        tracer.count("discriminative.feature_nnz", sum(block.nnz for block in split_blocks))
        matrices.append(matrix)
        blocks.append(split_blocks)
    (label_matrix, test_matrix), (train_blocks, test_blocks) = matrices, blocks
    if applier.last_report.pushdown is not None:
        tracer.count("labeling.compiled_lfs", len(applier.last_report.pushdown.compiled))
        tracer.count("labeling.fallback_lfs", len(applier.last_report.pushdown.fallback))

    cardinality = label_matrix.cardinality
    use_generative, correlations = True, []
    if config.use_optimizer:
        with tracer.span("labelmodel.optimizer_choose"):
            strategy = ModelingStrategyOptimizer(
                advantage_tolerance=config.advantage_tolerance,
                learn_correlations=config.learn_correlations,
            ).choose(label_matrix)
        use_generative, correlations = strategy.use_generative_model, strategy.correlations
    if use_generative:
        label_model = GenerativeModel(
            epochs=config.generative_epochs,
            step_size=config.generative_step_size,
            cardinality=cardinality,
            gibbs_kernel=config.gibbs_kernel,
            seed=config.seed,
        )
        with tracer.span("labelmodel.fit"):
            label_model.fit(label_matrix, correlations=correlations)
    elif cardinality == 2:
        label_model = MajorityVoter()
    else:
        label_model = MultiClassMajorityVoter(cardinality)
    with tracer.span("labelmodel.predict"):
        training_probs = label_model.predict_proba(label_matrix)
        test_probs = label_model.predict_proba(test_matrix)
    scorer = BinaryScorer() if cardinality == 2 else MultiClassScorer(cardinality)
    with tracer.span("evaluation.score"):
        generative_report = scorer.score_probabilities(test_gold, test_probs)

    # The rows the end model trains on: covered and informative, as the
    # pipeline's keep rule has it.
    if training_probs.ndim == 2:
        uninformative = np.isclose(training_probs.max(axis=1), 1.0 / training_probs.shape[1])
    else:
        uninformative = np.isclose(training_probs, 0.5)
    keep_mask = label_matrix.covered_rows() & ~uninformative
    if not keep_mask.any():
        keep_mask[:] = True

    def kept_blocks():
        start = 0
        for block in train_blocks:
            stop = start + block.shape[0]
            local = np.flatnonzero(keep_mask[start:stop])
            if local.size:
                yield block[local], training_probs[start + local]
            start = stop

    if cardinality == 2:
        end_model = NoiseAwareLogisticRegression(
            epochs=config.discriminative_epochs, shuffle=False, seed=config.seed
        )
    else:
        end_model = NoiseAwareSoftmaxRegression(
            num_classes=cardinality,
            epochs=config.discriminative_epochs,
            shuffle=False,
            seed=config.seed,
        )
    with tracer.span("discriminative.fit"):
        end_model.fit_stream(kept_blocks)
    tracer.count("discriminative.epochs", config.discriminative_epochs)
    tracer.count(
        "discriminative.minibatches",
        config.discriminative_epochs * math.ceil(int(keep_mask.sum()) / end_model.batch_size),
    )
    with tracer.span("discriminative.predict"):
        end_probs = np.concatenate([end_model.predict_proba(block) for block in test_blocks])
    with tracer.span("evaluation.score"):
        end_report = scorer.score_probabilities(test_gold, end_probs)
    return _pipeline_digest(
        label_matrix, training_probs, end_model, generative_report.f1, end_report.f1
    )


def _paced(tracer, candidates, every: int = 256) -> Iterator:
    """The candidates as a stream that ticks ``tracer`` every ``every`` items.

    Only the timed ops' ``ReferenceClock`` does work in a tick, but the
    profiled op reads its streams through here too, so that it runs the code
    the timed ops run.
    """
    for index, candidate in enumerate(candidates):
        if index % every == 0:
            tracer.tick()
        yield candidate


def _timed(metrics: dict, name: str, call):
    """Run ``call()`` once, alone, and record its seconds under ``name``."""
    start = time.perf_counter()
    value = call()
    metrics[name] = time.perf_counter() - start
    return value


def _peak_mb(metrics: dict, name: str, call):
    """Run ``call()`` under ``tracemalloc`` and record its peak in MB."""
    tracemalloc.start()
    try:
        value = call()
        metrics[name] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return value


class Workload:
    """One benchmark workload; see the module docstring for the two halves."""

    name = ""
    why = ""

    def generate(self, seed: int, quick: bool) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict, scratch: Optional[str] = None) -> dict:
        """System set-up before the first op (timed as part of ``setup_s``).

        ``scratch`` is an empty directory the ops may write temporary files to.
        """
        return {**inputs, "scratch": scratch}

    def op(self, state: dict, tracer=NULL) -> OpResult:
        raise NotImplementedError

    def check(self, state: dict, result: OpResult) -> list:
        """Failures of one op's result against the generator's expectations."""
        failures = list(result.failures) + state.get("oracle_failures", [])
        expected = state.get("expected_digest")
        if expected is not None and result.digest != expected:
            failures.append("output differs from the reference computed at generation")
        return failures

    def traced_op(self, state: dict, tracer) -> OpResult:
        """The op with a span around each layer call."""
        return self.op(state, tracer)

    def probe_layers(self, state: dict, tracer, metrics: dict, scratch: str) -> list:
        """Isolated-layer calls of the traced run; returns check failures."""
        return []


# ---------------------------------------------------------------------------
class TextStream(Workload):
    name = "text_stream"
    why = (
        "flagship streaming pipeline: 20 interpreted LFs + featurizer over generated "
        "text, binary EM, logistic end model; blockstore and compiled tier bypassed"
    )
    cardinality = 2
    num_lfs = 20
    sizes = (12_000, 1_200)
    quick_sizes = (400, 100)

    def generate(self, seed: int, quick: bool) -> dict:
        num_train, num_test = self.quick_sizes if quick else self.sizes
        make = dict(num_lfs=self.num_lfs, cardinality=self.cardinality)
        return {
            "train": list(stream_text_candidates(num_train, seed=2 * seed, **make)),
            "test": list(stream_text_candidates(num_test, seed=2 * seed + 1, **make)),
            "test_gold": stream_text_gold(
                num_test, cardinality=self.cardinality, seed=2 * seed + 1
            ),
            "min_f1": None if quick else 0.85,
        }

    def setup(self, inputs: dict, scratch: Optional[str] = None) -> dict:
        state = super().setup(inputs, scratch)
        state["lfs"] = text_vote_lfs(self.num_lfs, cardinality=self.cardinality)
        state["config"] = _stream_config()
        return state

    def _run(self, state: dict, train, config: PipelineConfig, tracer=NULL):
        return SnorkelPipeline(lfs=state["lfs"], config=config).run_streams(
            train, _paced(tracer, state["test"]), state["test_gold"]
        )

    def op(self, state: dict, tracer=NULL) -> OpResult:
        result = self._run(state, _paced(tracer, state["train"]), state["config"], tracer)
        return OpResult(
            candidates=len(state["train"]) + len(state["test"]),
            digest=_result_digest(result),
            timings=result.timings,
            f1=result.discriminative_f1,
        )

    def check(self, state: dict, result: OpResult) -> list:
        failures = super().check(state, result)
        if None not in (state["min_f1"], result.f1) and result.f1 < state["min_f1"]:
            failures.append(f"end-model F1 {result.f1:.3f} below {state['min_f1']}")
        return failures

    def traced_op(self, state: dict, tracer) -> OpResult:
        return OpResult(
            candidates=len(state["train"]) + len(state["test"]),
            digest=traced_pipeline(
                tracer,
                state["lfs"],
                state["train"],
                state["test"],
                state["test_gold"],
                state["config"],
            ),
        )

    def probe_layers(self, state: dict, tracer, metrics: dict, scratch: str) -> list:
        lfs, train = state["lfs"], state["train"]
        featurizer = RelationFeaturizer(num_features=state["config"].num_features)
        featurizer.fit()
        applier = LFApplier(lfs)
        sequential = _timed(
            metrics, "labeling.apply_s", lambda: applier.apply(iter(train), sparse=True)
        )
        _timed(
            metrics,
            "discriminative.featurize_s",
            lambda: featurize_stream(featurizer, iter(train)),
        )
        self._memory_pass(state, featurizer, metrics)
        return self._engine_probe(lfs, train, sequential, metrics)

    def _memory_pass(self, state: dict, featurizer, metrics: dict) -> None:
        """Peak traced memory of the three heaviest calls, in a pass of its own."""
        config = state["config"]
        applier = LFApplier(state["lfs"])
        label_matrix, blocks = _peak_mb(
            metrics,
            "labeling.fused_pass_peak_mb",
            lambda: applier.apply_with_features(iter(state["train"]), featurizer, sparse=True),
        )
        label_model = GenerativeModel(epochs=config.generative_epochs, seed=0)
        _peak_mb(metrics, "labelmodel.fit_peak_mb", lambda: label_model.fit(label_matrix))
        probs = label_model.predict_proba(label_matrix)
        starts = np.cumsum([0] + [block.shape[0] for block in blocks])
        end_model = NoiseAwareLogisticRegression(
            epochs=config.discriminative_epochs, shuffle=False, seed=0
        )
        _peak_mb(
            metrics,
            "discriminative.fit_peak_mb",
            lambda: end_model.fit_stream(
                lambda: (
                    (block, probs[start : start + block.shape[0]])
                    for block, start in zip(blocks, starts)
                )
            ),
        )

    def _engine_probe(self, lfs, train, sequential: LabelMatrix, metrics: dict) -> list:
        """``processes`` x 2 beside the sequential apply.  Recorded, not gated:
        two shared cores cannot repeat a parallel wall clock."""
        failures = []
        try:
            parallel = LFApplier(lfs, backend="processes", num_workers=2)
            parallel.apply(iter(train), sparse=True)  # spawns and warms the pool
            matrix = _timed(
                metrics, "engine.procs2_apply_s", lambda: parallel.apply(iter(train), sparse=True)
            )
            metrics["engine.transport_share"] = (
                parallel.last_report.transport.transport_fraction
            )
        finally:
            shutdown_pools()
        metrics["engine.procs2_speedup"] = (
            metrics["labeling.apply_s"] / metrics["engine.procs2_apply_s"]
        )
        metrics["engine.leaked_segments"] = len(
            glob.glob(f"/dev/shm/repro-eng-{os.getpid()}-*")
        )
        if digest(*_matrix_arrays(matrix)) != digest(*_matrix_arrays(sequential)):
            failures.append("processes backend produced a different label matrix")
        if metrics["engine.leaked_segments"]:
            failures.append("engine probe leaked shared-memory segments")
        if multiprocessing.active_children():
            failures.append("engine probe left worker processes running")
        return failures


# ---------------------------------------------------------------------------
class _PlannedCrash(Exception):
    """Raised by the train stream of ``kary_crash_resume`` mid-pass."""


def _crashing(candidates, after: int) -> Iterator:
    for index, candidate in enumerate(candidates):
        if index == after:
            raise _PlannedCrash(f"planned crash after {after} candidates")
        yield candidate


class KaryCrashResume(TextStream):
    name = "kary_crash_resume"
    why = (
        "cardinality-4 stream, checkpointed run killed mid-pass then resumed: the only "
        "workload where blockstore write+replay, k-ary EM and the softmax model work"
    )
    cardinality = 4
    sizes = (9_000, 900)
    quick_sizes = (1_100, 60)

    def generate(self, seed: int, quick: bool) -> dict:
        inputs = super().generate(seed, quick)
        inputs["min_f1"] = None
        # Half-way, and late enough that one whole chunk is durable by then.
        inputs["crash_after"] = max(len(inputs["train"]) // 2, _stream_config().chunk_size + 1)
        # The oracle: one uninterrupted, checkpoint-free run.
        reference = self._run(self.setup(inputs), iter(inputs["train"]), _stream_config())
        inputs["expected_digest"] = _result_digest(reference)
        return inputs

    def op(self, state: dict, tracer=NULL) -> OpResult:
        failures = []
        root = tempfile.mkdtemp(prefix="ckpt-", dir=state["scratch"])
        try:
            config = _stream_config(checkpoint_dir=root)
            try:
                with tracer.span("pipeline.crash_run"):
                    crashing = _crashing(_paced(tracer, state["train"]), state["crash_after"])
                    self._run(state, crashing, config, tracer)
                failures.append("the crashing stream did not raise")
            except _PlannedCrash:
                pass
            with tracer.span("pipeline.resume_run"):
                result = self._run(state, _paced(tracer, state["train"]), config, tracer)
        finally:
            shutil.rmtree(root)
        if os.path.exists(root):
            failures.append("checkpoint directory survived the op")
        return OpResult(
            candidates=len(state["train"]) + len(state["test"]),
            digest=_result_digest(result),
            timings=result.timings,
            failures=failures,
        )

    def traced_op(self, state: dict, tracer) -> OpResult:
        return self.op(state, tracer)

    def probe_layers(self, state: dict, tracer, metrics: dict, scratch: str) -> list:
        failures = []
        # Layer breakdown of the plain k-ary pipeline, outside the op.
        with tracer.op("plain_pipeline"):
            plain_digest = super().traced_op(state, tracer).digest
        if plain_digest != state["expected_digest"]:
            failures.append("layer-by-layer pipeline differs from the reference run")
        seconds = {}
        plain = _timed(
            seconds, "plain", lambda: self._run(state, iter(state["train"]), _stream_config())
        )
        root = tempfile.mkdtemp(prefix="ckpt-", dir=scratch)
        try:
            _timed(
                seconds,
                "checkpointed",
                lambda: self._run(
                    state, iter(state["train"]), _stream_config(checkpoint_dir=root)
                ),
            )
            block_files = glob.glob(os.path.join(root, "blocks", "*"))
            metrics["blockstore.blocks_written"] = len(block_files)
            metrics["blockstore.bytes_written"] = sum(map(os.path.getsize, block_files))
            replayed = self._run(
                state, iter(state["train"]), _stream_config(checkpoint_dir=root)
            )
            metrics["blockstore.replay_s"] = replayed.timings["lf_application"]
        finally:
            shutil.rmtree(root)
        metrics["blockstore.ckpt_overhead_s"] = seconds["checkpointed"] - seconds["plain"]
        if _result_digest(replayed) != _result_digest(plain):
            failures.append("replayed run differs from the plain run")
        self._store_probe(plain.label_matrix, metrics, scratch)
        metrics["blockstore.leftover_files"] = sum(
            len(files) for _root, _dirs, files in os.walk(scratch)
        )
        if metrics["blockstore.leftover_files"]:
            failures.append("files left behind in the scratch directory")
        return failures

    @staticmethod
    def _store_probe(label_matrix: LabelMatrix, metrics: dict, scratch: str, rounds: int = 20):
        """Direct ``BlockStore.put``/``get`` of one chunk's worth of arrays."""
        chunk = label_matrix.select_rows(np.arange(min(1024, label_matrix.shape[0])))
        arrays = dict(zip(("indptr", "indices", "data"), _matrix_arrays(chunk)))
        megabytes = rounds * sum(array.nbytes for array in arrays.values()) / 1e6
        root = tempfile.mkdtemp(prefix="store-", dir=scratch)
        try:
            with BlockStore(root) as store:
                start = time.perf_counter()
                for index in range(rounds):
                    store.put(f"probe/{index}", arrays)
                put_seconds = time.perf_counter() - start
                start = time.perf_counter()
                for index in range(rounds):
                    loaded, _meta = store.get(f"probe/{index}")
                    for array in loaded.values():
                        int(np.asarray(array).sum())  # touch every page
                get_seconds = time.perf_counter() - start
        finally:
            shutil.rmtree(root)
        metrics["blockstore.put_mb_per_s"] = megabytes / put_seconds
        metrics["blockstore.get_mb_per_s"] = megabytes / get_seconds


# ---------------------------------------------------------------------------
class CdrDocsToModel(Workload):
    name = "cdr_docs_to_model"
    why = (
        "the only workload that starts from raw documents: context ingest/extract over "
        "the db layer, then the compiled 32-LF CDR suite, optimizer, structure learning"
    )
    #: Documents, each with exactly this many sentences.  The registered
    #: spec draws 3-8 sentences per document; ingestion cost is quadratic in
    #: corpus size today, so a free sentence count makes calls-per-candidate
    #: swing 3 % between seeds, more than the metric's bound.
    num_documents = 130
    quick_documents = 12
    sentences_per_document = 5

    @staticmethod
    def _config(lf_pushdown: str = "auto") -> PipelineConfig:
        return PipelineConfig(
            use_optimizer=True,
            lf_pushdown=lf_pushdown,
            streaming=True,
            sparse_labels=True,
            seed=0,
        )

    def generate(self, seed: int, quick: bool) -> dict:
        documents = self.quick_documents if quick else self.num_documents
        spec = dataclasses.replace(
            build_spec(documents / 900),
            sentences_per_document=(self.sentences_per_document,) * 2,
        )
        data = build_relation_task(spec, seed=seed)
        inputs = {
            "spec": spec,
            "lf_seed": seed,
            "documents": [
                (document.name, document.text, document.split)
                for document in data.corpus.documents()
            ],
            "test_gold": data.gold["test"],
            "true_pairs": data.true_pairs,
        }
        # The oracle: the library's own candidates through the interpreted LF
        # tier, so a match covers candidate extraction and compiled == interpreted.
        task = TaskDataset(
            name="cdr", candidates=data.candidates, gold=data.gold, lfs=self._lfs(inputs)
        )
        reference = SnorkelPipeline(config=self._config("off")).run(task)
        inputs["expected_digest"] = _result_digest(reference)
        inputs["expected_candidates"] = len(data.candidates["train"]) + len(
            data.candidates["test"]
        )
        return inputs

    @staticmethod
    def _lfs(inputs: dict) -> list:
        """The registered 32-LF CDR suite for this seed's planted relation.

        LF closures do not pickle, so both halves build the suite from the
        smallest registered task; its knowledge bases depend only on the
        planted relation, which is drawn before any document is written.
        """
        task = build_cdr_task(scale=10 / 900, seed=inputs["lf_seed"])
        if task.metadata["true_pairs"] != inputs["true_pairs"]:
            raise RuntimeError("registered CDR task planted a different relation")
        return task.lfs

    def setup(self, inputs: dict, scratch: Optional[str] = None) -> dict:
        state = super().setup(inputs, scratch)
        state["lfs"] = self._lfs(inputs)
        state["config"] = self._config()
        return state

    def _candidates(self, state: dict, tracer) -> dict:
        spec = state["spec"]
        tagger = DictionaryEntityTagger(
            {spec.entity_type1: dict(spec.entities1), spec.entity_type2: dict(spec.entities2)}
        )
        corpus = Corpus(name=spec.name, preprocessor=TextPreprocessor(entity_tagger=tagger))
        with tracer.span("context.ingest"):
            for index, (name, text, split) in enumerate(state["documents"]):
                corpus.add_document(name=name, text=text, split=split)
                if index % 2 == 0:
                    tracer.tick()
        extractor = CandidateExtractor(
            PairedEntityCandidateSpace(
                relation_type=spec.relation_type,
                type1=spec.entity_type1,
                type2=spec.entity_type2,
            )
        )
        with tracer.span("context.extract"):
            extractor.extract(corpus)
        tracer.tick()
        with tracer.span("context.materialize"):
            candidates = {split: corpus.candidates(split) for split in ("train", "test")}
        tracer.tick()
        tracer.count("context.docs", corpus.num_documents)
        tracer.count("context.candidates", sum(map(len, candidates.values())))
        return candidates

    def op(self, state: dict, tracer=NULL) -> OpResult:
        candidates = self._candidates(state, tracer)
        count = len(candidates["train"]) + len(candidates["test"])
        failures = []
        if count != state["expected_candidates"]:
            failures.append(
                f"{count} candidates extracted, the library's builder made "
                f"{state['expected_candidates']}"
            )
        if tracer.enabled:
            result_digest = traced_pipeline(
                tracer,
                state["lfs"],
                candidates["train"],
                candidates["test"],
                state["test_gold"],
                state["config"],
            )
            timings = {}
        else:
            task = TaskDataset(
                name="cdr",
                candidates=candidates,
                gold={"test": state["test_gold"]},
                lfs=state["lfs"],
            )
            result = SnorkelPipeline(config=state["config"]).run(task)
            result_digest, timings = _result_digest(result), result.timings
        return OpResult(candidates=count, digest=result_digest, timings=timings, failures=failures)

    def probe_layers(self, state: dict, tracer, metrics: dict, scratch: str) -> list:
        train = self._candidates(state, NULL)["train"]
        lfs = state["lfs"]
        _timed(metrics, "labeling.pushdown_compile_s", lambda: build_plan(lfs, cardinality=2))
        applier = LFApplier(lfs, pushdown="auto")
        applier.apply(train, sparse=True)  # compiles the plan once
        label_matrix = _timed(
            metrics, "labeling.apply_s", lambda: applier.apply(train, sparse=True)
        )
        _timed(
            metrics, "labelmodel.structure_fit_s", lambda: StructureLearner().fit(label_matrix)
        )
        return []


# ---------------------------------------------------------------------------
_POSITIVE_CUES = ("causes", "caused", "causing")
_NEGATIVE_CUES = ("treats", "treated", "treating", "prevents", "given", "received")
_STEMS = (("caus", POSITIVE), ("treat", NEGATIVE), ("prevent", NEGATIVE), ("monitor", NEGATIVE))
_CORRELATION_THRESHOLD = 0.05


def _edit_suite() -> list:
    """The 22-LF library suite the developer session starts from."""
    primary = KnowledgeBase(
        name="ctd",
        subsets={
            "causes": [("aspirin", "headache"), ("caffeine", "insomnia")],
            "treats": [("water", "headache")],
        },
    )
    secondary = KnowledgeBase(
        name="drugbank",
        subsets={"adverse": [("ibuprofen", "fever")], "indications": [("aspirin", "headache")]},
    )
    return (
        keyword_pattern_lfs(_POSITIVE_CUES, _NEGATIVE_CUES)
        + regex_variant_lfs(_STEMS)
        + distant_supervision_lfs(primary, "causes", "treats")
        + distant_supervision_lfs(secondary, "adverse", "indications")
        + structure_based_lfs()
    )


def _scripted_edits() -> list:
    """Eight ``(column to drop, LF to add)`` edits across the LF families."""
    far_apart = structure_based_lfs(far_distance=10)[0]
    return [
        (0, pattern_lf("measured", label=NEGATIVE, name="edit_measured")),
        (3, pattern_lf("monitored", label=NEGATIVE, name="edit_monitored")),
        (9, lf_search(r"\w*receiv\w*", label=NEGATIVE, name="edit_stem_receiv")),
        (5, pattern_lf("history", label=NEGATIVE, name="edit_history")),
        (17, LabelingFunction("edit_far_apart_10", far_apart.function, source_type="structure")),
        (2, pattern_lf("causing", label=POSITIVE, name="edit_causing")),
        (11, lf_search(r"\w*giv\w*", label=NEGATIVE, name="edit_stem_giv")),
        (7, pattern_lf("prevents", label=NEGATIVE, name="edit_prevents")),
    ]


class LfEditLoop(Workload):
    name = "lf_edit_loop"
    why = (
        "a developer session: online label model, 8 single-LF edits each with compiled "
        "one-column apply, structure refit, drain and LF summary; no end model at all"
    )
    num_candidates = 5_000
    quick_candidates = 250
    generative_epochs = 10

    def generate(self, seed: int, quick: bool) -> dict:
        count = self.quick_candidates if quick else self.num_candidates
        inputs = {"candidates": list(stream_relation_candidates(count, seed=seed))}
        # The oracle: the same session with every edit's drain() compared to a
        # from-scratch batch fit of the edited matrix.
        oracle = self.op(self.setup(inputs), verify=True)
        inputs["expected_digest"] = oracle.digest
        inputs["oracle_failures"] = oracle.failures
        return inputs

    def setup(self, inputs: dict, scratch: Optional[str] = None) -> dict:
        state = super().setup(inputs, scratch)
        state["suite"] = _edit_suite()
        state["edits"] = _scripted_edits()
        # Λ of the starting suite is applied once, here: the session edits it.
        state["label_matrix"] = LFApplier(state["suite"], pushdown="auto").apply(
            state["candidates"], sparse=True
        )
        return state

    def op(self, state: dict, tracer=NULL, verify: bool = False) -> OpResult:
        candidates, label_matrix = state["candidates"], state["label_matrix"]
        names = list(label_matrix.lf_names)
        num_rows = label_matrix.shape[0]
        failures, outputs, edit_seconds = [], [], []
        online = OnlineGenerativeModel(epochs=self.generative_epochs, seed=0)
        with tracer.span("labelmodel.online_update"):
            for start in range(0, num_rows, 1024):
                rows = np.arange(start, min(start + 1024, num_rows))
                online.update(label_matrix.select_rows(rows))
                tracer.tick()
        learner = StructureLearner(seed=0)
        with tracer.span("labelmodel.structure_fit"):
            online.relearn_structure(learner, _CORRELATION_THRESHOLD)
        for column, lf in state["edits"]:
            edit_start = time.perf_counter()
            applier = LFApplier([lf], pushdown="auto")
            with tracer.span("labeling.apply_one_lf"):
                votes = applier.apply(candidates).values[:, 0]
            _count_apply(tracer, applier)
            tracer.count("labeling.compiled_lfs", len(applier.last_report.pushdown.compiled))
            tracer.count("labeling.fallback_lfs", len(applier.last_report.pushdown.fallback))
            tracer.count("labeling.nnz", int(np.count_nonzero(votes)))
            tracer.tick()
            with tracer.span("labelmodel.online_edit"):
                online.remove_lf(column)
                del names[column]
                # Removal shifts the later columns down; realign the learner
                # as StructureLearner.refit_nodes documents.
                learner.dependency_weights_ = np.delete(
                    np.delete(learner.dependency_weights_, column, axis=0), column, axis=1
                )
                added = online.add_lf(votes)
                names.append(lf.name)
            tracer.tick()
            with tracer.span("labelmodel.structure_refit"):
                online.relearn_structure(learner, _CORRELATION_THRESHOLD, nodes=[added])
            tracer.tick()
            with tracer.span("labelmodel.online_drain"):
                model = online.drain()
            accumulated = online.accumulated_matrix()
            with tracer.span("labelmodel.predict"):
                probs = model.predict_proba(accumulated)
            current = LabelMatrix(accumulated, lf_names=list(names), cardinality=2)
            tracer.tick()
            with tracer.span("labeling.analysis_summary"):
                summary = LFAnalysis(current).summary()
            tracer.tick()
            edit_seconds.append(time.perf_counter() - edit_start)
            outputs += [
                model.weights,
                probs,
                np.array([[row.coverage, row.overlap, row.conflict] for row in summary]),
            ]
            if verify:
                scratch_fit = GenerativeModel(epochs=self.generative_epochs, seed=0).fit(
                    current, correlations=online.correlations_
                )
                if not np.array_equal(scratch_fit.weights, model.weights):
                    failures.append(f"drain after edit {lf.name} differs from a from-scratch fit")
        return OpResult(
            candidates=len(state["edits"]) * num_rows,
            digest=digest(*outputs),
            edit_seconds=edit_seconds,
            failures=failures,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (TextStream(), KaryCrashResume(), CdrDocsToModel(), LfEditLoop())
}


def span_metrics(tracer, metrics: dict) -> None:
    """Fill ``metrics`` from the recorded spans and counters.

    A counter is reported under its own name and a span ``x`` as ``x_s``.
    Every layer span name is recorded at one place per workload, so the sum
    over all spans of a name is that layer's time in the traced op.
    """
    for name, _unit, _better in PER_LAYER:
        if name in tracer.counters:
            metrics[name] = tracer.counters[name]
        elif name.endswith("_s") and tracer.seconds(name[:-2]):
            metrics[name] = tracer.seconds(name[:-2])
    if "discriminative.epochs" in tracer.counters:
        metrics["discriminative.epoch_s"] = (
            metrics["discriminative.fit_s"] / tracer.counters["discriminative.epochs"]
        )
