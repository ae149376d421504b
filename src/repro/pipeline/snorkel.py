"""The end-to-end Snorkel pipeline.

``SnorkelPipeline`` wires the stages of Figure 2 together:

1. apply the labeling functions over the training candidates → label matrix Λ,
2. run the modeling-strategy optimizer (Algorithm 1) to choose between
   unweighted majority vote and the generative model (and, for the latter,
   which correlations to include),
3. produce probabilistic training labels Ỹ,
4. train a noise-aware discriminative model on candidate *features* and Ỹ,
5. evaluate the generative and discriminative stages on the held-out test
   split.

**Label conventions.**  The pipeline follows the task's ``cardinality``:

* binary tasks (``cardinality=2``) use signed labels ``{-1, +1}`` with ``0``
  = abstain; ``training_probs`` is the ``(m,)`` positive-class probability
  vector, the end model defaults to noise-aware logistic regression, and
  test reports come from :class:`BinaryScorer` (precision/recall/F1).
* categorical tasks (``cardinality=k > 2``, e.g. the crowdsourcing task of
  Section 4.1.2) use classes ``1..k`` with ``0`` = abstain; the same
  generative model is trained with its k-ary estimator, ``training_probs``
  is the ``(m, k)`` posterior distribution matrix, the end model defaults
  to noise-aware softmax regression, and test reports come from
  :class:`MultiClassScorer` (accuracy + macro-F1).  The MV-vs-GM
  modeling-advantage decision is binary theory, so Algorithm 1 always
  selects the generative model here (the structure sweep still runs).

**One out-of-core path.**  Every run — :meth:`SnorkelPipeline.run` on a
task dataset or :meth:`SnorkelPipeline.run_streams` on raw candidate
iterables — is one pass over a candidate stream per split: the fused engine
task labels *and* featurizes each chunk
(:meth:`repro.labeling.applier.LFApplier.apply_with_features`), Λ
accumulates as triples, features accumulate as chunk-ordered CSR blocks, and
the end model trains from the block stream via ``fit_stream`` on the
deterministic stream-order minibatch schedule — neither a candidate list nor
a dense ``(m, d)`` feature matrix is ever built by the pipeline.  With
``PipelineConfig.checkpoint_dir`` set, the same run persists its chunk
results, the fitted label model and per-epoch end-model state, and a
restarted run resumes bit-identically.  The checkpoints hold only what a
resume cannot re-derive: a chunk's row ids are stored as per-row counts,
and the training posteriors are recomputed from the stored model by the
same call that computed them on the uninterrupted run.

The pipeline never touches training-split gold labels; they exist in the
task datasets purely so the benchmark harness can report oracle statistics.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
import warnings
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.context.candidates import Candidate
from repro.datasets.base import TaskDataset
from repro.discriminative.base import NoiseAwareClassifier
from repro.discriminative.featurizers import RelationFeaturizer
from repro.discriminative.logistic import NoiseAwareLogisticRegression
from repro.discriminative.softmax import NoiseAwareSoftmaxRegression
from repro.evaluation.scorer import (
    BinaryScorer,
    MultiClassScorer,
    MultiClassScoreReport,
    ScoreReport,
)
from repro.exceptions import ConfigurationError, LabelingError, LabelModelError
from repro.labeling.applier import PUSHDOWN_MODES, LFApplier
from repro.labeling.blockstore import BlockStore, ChunkCheckpointer, EpochCheckpoint
from repro.labeling.engine import ExecutionPlan
from repro.labeling.lf import LabelingFunction, lf_digest
from repro.labeling.matrix import LabelMatrix
from repro.labelmodel.generative import GenerativeModel
from repro.labelmodel.majority import majority_vote_proba
from repro.labelmodel.optimizer import ModelingStrategy, ModelingStrategyOptimizer

AnyScoreReport = Union[ScoreReport, MultiClassScoreReport]

#: ``PipelineConfig`` fields that choose *how* a run executes and never what
#: it computes (the differential suites hold results bit-identical across
#: them), so a checkpoint store written under one value resumes under another.
EXECUTION_ONLY_FIELDS = frozenset(
    {
        "applier_backend",
        "applier_workers",
        "lf_pushdown",
        "checkpoint_dir",
        "resume",
    }
)


def _posteriors(model: Optional[GenerativeModel], label_matrix: LabelMatrix) -> np.ndarray:
    """The label-model stage's probabilistic labels of ``label_matrix``: the
    generative model's posteriors, or the majority vote's without one."""
    if model is None:
        return majority_vote_proba(label_matrix)
    return model.predict_proba(label_matrix)


@dataclass
class PipelineConfig:
    """Configuration of one pipeline execution."""

    use_optimizer: bool = True
    force_strategy: Optional[str] = None  # "MV" or "GM" to bypass the optimizer
    learn_correlations: bool = True
    #: Store Λ sparsely (CSR of the non-abstain entries) and run the label
    #: modeling stage through the sparse hot paths.  Labels and probabilistic
    #: outputs are identical to the dense run; memory and fit time scale with
    #: the number of emitted labels instead of with m·n.
    sparse_labels: bool = False
    #: Executor backend for LF application (``"sequential"``, ``"threads"``,
    #: or ``"processes"`` — see :mod:`repro.labeling.engine`).  The label
    #: matrix is identical for every backend.  One persistent worker pool
    #: serves every stage of a ``"processes"`` run — apply, fused
    #: apply+featurize — so workers are spawned exactly once however many
    #: splits are processed.
    applier_backend: str = "sequential"
    #: Worker count for the pool backends (``None`` = one per available CPU);
    #: ignored by the sequential backend.
    applier_workers: Optional[int] = 1
    #: Columnar-kernel LF execution (see :mod:`repro.labeling.pushdown`):
    #: ``"auto"`` (default) compiles the compilable subset into vectorized
    #: kernels with per-LF interpreted fallback, ``"off"`` interprets every
    #: LF per candidate (the reference path), ``"require"`` aborts if any
    #: LF cannot be compiled.  The label matrix is bit-identical in every
    #: mode.
    lf_pushdown: str = "auto"
    #: Candidates per engine work unit, shared by LF application and
    #: featurization.  Results are independent of this value.
    chunk_size: int = 1024
    #: Root directory of the crash-safe block store
    #: (:mod:`repro.labeling.blockstore`).  When set, every fused chunk
    #: result (its row ids as per-row counts), the label-modeling strategy
    #: and fitted model (not the posteriors, which a resume recomputes), and
    #: the end model's per-epoch training state are persisted durably as the
    #: run progresses — each a record appended to the one log file
    #: ``blockstore.log`` in this directory and fsynced before the run goes
    #: on — and a restarted run resumes from the last durable point with
    #: bit-identical results.  The store creates the directory if it is
    #: missing, makes no directory in it, and touches no other file there.
    #: ``None`` (default) keeps everything in RAM.
    checkpoint_dir: Optional[str] = None
    #: With ``checkpoint_dir`` set: resume from compatible existing
    #: checkpoints (the default), or clear the store and start fresh.  A
    #: store written under a different configuration fingerprint (other LF
    #: suite, featurizer or end-model configuration, or any result-changing
    #: field of this config) is cleared automatically — stale blocks are
    #: never replayed.  Every checkpointed pass then deletes the chunk
    #: blocks a longer earlier run left beyond its end, and the store keeps
    #: only the newest epoch of each family of epoch-stamped snapshots; the
    #: log is rewritten without the dropped records once they outweigh the
    #: live ones (see :class:`repro.labeling.blockstore.BlockStore`).
    resume: bool = True
    advantage_tolerance: float = 0.01
    generative_epochs: int = 20
    discriminative_epochs: int = 40
    num_features: int = 1024
    class_balance: Optional[float] = None
    seed: int = 0
    #: Accepted and ignored: every run is out-of-core now, and callers
    #: written against the former materialized/streaming switch keep working.
    streaming: InitVar[Optional[bool]] = None
    #: Accepted and ignored, with no effect on any run: the generative stage
    #: is fit by EM, which samples nothing and takes no step size.  Kept only
    #: because the end-to-end benchmark's traced pipeline reads both.
    gibbs_kernel: InitVar[str] = "auto"
    generative_step_size: InitVar[float] = 0.05

    def __post_init__(
        self, streaming: Optional[bool], gibbs_kernel: str, generative_step_size: float
    ) -> None:
        if self.force_strategy not in (None, "MV", "GM"):
            raise ConfigurationError(
                f"force_strategy must be None, 'MV' or 'GM', got {self.force_strategy!r}"
            )
        if self.lf_pushdown not in PUSHDOWN_MODES:
            raise ConfigurationError(
                f"lf_pushdown must be one of {PUSHDOWN_MODES}, got {self.lf_pushdown!r}"
            )
        # The engine's and the models' own validators, run now: a bad value
        # must not surface only after the labeling pass (or never, when the
        # optimizer picks MV).
        try:
            ExecutionPlan(
                chunk_size=self.chunk_size,
                backend=self.applier_backend,
                num_workers=self.applier_workers,
            )
            ModelingStrategyOptimizer(advantage_tolerance=self.advantage_tolerance)
            GenerativeModel(epochs=self.generative_epochs)
            NoiseAwareLogisticRegression(
                epochs=self.discriminative_epochs, class_balance=self.class_balance
            )
        except (LabelingError, LabelModelError) as error:
            raise ConfigurationError(f"PipelineConfig: {error}") from error


@dataclass
class PipelineResult:
    """Everything produced by one pipeline execution."""

    task_name: str
    strategy: Optional[ModelingStrategy]
    label_matrix: LabelMatrix
    #: ``(m,)`` positive-class probabilities for binary tasks, ``(m, k)``
    #: class distributions for categorical ones.
    training_probs: np.ndarray
    generative_test_report: AnyScoreReport
    discriminative_test_report: AnyScoreReport
    generative_model: Optional[GenerativeModel]
    discriminative_model: NoiseAwareClassifier
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def generative_f1(self) -> float:
        """Test F1 of the label-model stage (Snorkel Gen. column of Table 3).

        Macro-F1 on categorical tasks.
        """
        return self.generative_test_report.f1

    @property
    def discriminative_f1(self) -> float:
        """Test F1 of the end model (Snorkel Disc. column of Table 3).

        Macro-F1 on categorical tasks.
        """
        return self.discriminative_test_report.f1


class SnorkelPipeline:
    """Orchestrates LF application, label modeling, and end-model training."""

    def __init__(
        self,
        lfs: Optional[Sequence[LabelingFunction]] = None,
        config: Optional[PipelineConfig] = None,
        featurizer: Optional[RelationFeaturizer] = None,
        discriminative_model: Optional[NoiseAwareClassifier] = None,
    ) -> None:
        self.lfs = list(lfs) if lfs is not None else None
        self.config = config or PipelineConfig()
        self.featurizer = featurizer or RelationFeaturizer(num_features=self.config.num_features)
        self._discriminative_model = discriminative_model

    # ------------------------------------------------------------------ running
    def run(self, task: TaskDataset) -> PipelineResult:
        """Run the full pipeline on a task dataset (binary or categorical).

        :meth:`run_streams` over ``task.stream_candidates(...)`` iterators —
        the candidate lists the task happens to hold in memory are never
        handed over as lists, so the same code path serves splits backed by
        out-of-core storage.
        """
        return self.run_streams(
            task.stream_candidates("train"),
            task.stream_candidates("test"),
            task.split_gold("test"),
            lfs=self.lfs if self.lfs is not None else task.lfs,
            task_name=task.name,
        )

    def run_streams(
        self,
        train_candidates: Iterable[Candidate],
        test_candidates: Iterable[Candidate],
        test_gold: np.ndarray,
        lfs: Optional[Sequence[LabelingFunction]] = None,
        task_name: str = "stream",
    ) -> PipelineResult:
        """Run the pipeline end-to-end from raw candidate iterables.

        ``train_candidates`` / ``test_candidates`` may be generators (each
        is consumed exactly once, chunk by chunk); only ``test_gold`` must
        be a materialized vector, for evaluation.  Per split the engine
        makes a single fused pass — LF application and featurization on the
        same chunk — and the end model then trains from the accumulated CSR
        feature blocks without a dense ``(m, d)`` matrix or candidate list
        ever existing.
        """
        config = self.config
        lfs = list(lfs) if lfs is not None else self.lfs
        if not lfs:
            raise ConfigurationError(
                "run_streams needs labeling functions (pass lfs= here or to the "
                "pipeline constructor)"
            )
        timings: dict[str, float] = {}

        start = time.perf_counter()
        self.featurizer.fit()
        applier = LFApplier(
            lfs,
            chunk_size=config.chunk_size,
            backend=config.applier_backend,
            num_workers=config.applier_workers,
            pushdown=config.lf_pushdown,
        )
        cardinality = applier.cardinality
        end_model = self._make_end_model(cardinality)
        store, train_ckpt, test_ckpt, epoch_ckpt = self._open_checkpoints(
            lfs, task_name, end_model
        )
        label_matrix, train_blocks = applier.apply_with_features(
            train_candidates,
            self.featurizer,
            sparse=config.sparse_labels,
            checkpoint=train_ckpt,
        )
        test_matrix, test_blocks = applier.apply_with_features(
            test_candidates,
            self.featurizer,
            sparse=config.sparse_labels,
            checkpoint=test_ckpt,
        )
        timings["lf_application"] = time.perf_counter() - start
        if store is not None:
            # Reclaim chunk blocks a longer earlier run left behind.
            train_ckpt.prune_beyond(len(train_blocks))
            test_ckpt.prune_beyond(len(test_blocks))

        start = time.perf_counter()
        strategy, generative_model, training_probs = self._label_modeling_checkpointed(
            label_matrix, store
        )
        timings["label_modeling"] = time.perf_counter() - start

        test_gold = np.asarray(test_gold)
        generative_report = self._score_probabilities(
            cardinality, test_gold, _posteriors(generative_model, test_matrix)
        )

        start = time.perf_counter()
        self._train_end_model(
            end_model, train_blocks, training_probs, label_matrix, epoch_ckpt
        )
        if test_blocks:
            test_probs = np.concatenate(
                [end_model.predict_proba(block) for block in test_blocks], axis=0
            )
        else:
            test_probs = np.zeros((0, cardinality) if cardinality > 2 else 0)
        discriminative_report = self._score_probabilities(
            cardinality, test_gold, test_probs
        )
        timings["discriminative_training"] = time.perf_counter() - start

        return PipelineResult(
            task_name=task_name,
            strategy=strategy,
            label_matrix=label_matrix,
            training_probs=training_probs,
            generative_test_report=generative_report,
            discriminative_test_report=discriminative_report,
            generative_model=generative_model,
            discriminative_model=end_model,
            timings=timings,
        )

    # ------------------------------------------------------------ checkpoints
    def _checkpoint_fingerprint(
        self,
        lfs: Sequence[LabelingFunction],
        task_name: str,
        end_model: NoiseAwareClassifier,
    ) -> dict:
        """What a stored checkpoint must have been produced under to be
        replayable: the LF suite — each LF's name and :func:`lf_digest`, so
        an LF edited under its old name is a different suite — the
        featurizer's whole frozen
        configuration, the end model's class and constructor arguments, and
        every config field that can change a stored chunk block, the
        memoized label-modeling outcome or an epoch snapshot — that is, all
        of them except :data:`EXECUTION_ONLY_FIELDS`."""
        constructor = inspect.signature(type(end_model).__init__).parameters
        return {
            "format": 4,
            "task": task_name,
            "lfs": [(lf.name, lf_digest(lf)) for lf in lfs],
            "config": {
                spec.name: getattr(self.config, spec.name)
                for spec in dataclasses.fields(self.config)
                if spec.name not in EXECUTION_ONLY_FIELDS
            },
            "featurizer": self.featurizer._config(),
            "end_model": (
                type(end_model).__qualname__,
                {name: getattr(end_model, name, None) for name in constructor if name != "self"},
            ),
        }

    def _open_checkpoints(
        self, lfs: Sequence[LabelingFunction], task_name: str, end_model: NoiseAwareClassifier
    ) -> tuple[
        Optional[BlockStore],
        Optional[ChunkCheckpointer],
        Optional[ChunkCheckpointer],
        Optional[EpochCheckpoint],
    ]:
        """Open (or refuse to reuse) the run's block store.

        An existing store is resumed only when ``config.resume`` holds and
        its recorded fingerprint matches this run's configuration; anything
        else clears it — replaying blocks or memoized stage results produced
        under a different configuration would be silently wrong, never
        merely slow.  So does an LF with no digest: what it reads could have
        changed unseen.
        """
        config = self.config
        if config.checkpoint_dir is None:
            return None, None, None, None
        store = BlockStore(config.checkpoint_dir)
        fingerprint = self._checkpoint_fingerprint(lfs, task_name, end_model)
        key = "meta/fingerprint"
        stale = True
        digested = all(digest is not None for _name, digest in fingerprint["lfs"])
        if config.resume and digested and key in store:
            stale = store.get_pickle(key) != fingerprint
        if stale:
            store.clear()
            store.put_pickle(key, fingerprint)
        return (
            store,
            ChunkCheckpointer(store, "train"),
            ChunkCheckpointer(store, "test"),
            EpochCheckpoint(store, "end_model"),
        )

    def _label_modeling_checkpointed(
        self, label_matrix: LabelMatrix, store: Optional[BlockStore]
    ) -> tuple[Optional[ModelingStrategy], Optional[GenerativeModel], np.ndarray]:
        """The label-modeling stage, memoized in the block store.

        The stage is deterministic given Λ and the config, so a resumed run
        recomputing it would produce the identical result — the checkpoint
        only buys back the fit's wall-clock.  It stores the strategy and the
        fitted model (≈ 1 KB), not the ``(m,)`` or ``(m, k)`` posteriors:
        :func:`_posteriors` computes those from the model on the fresh and
        the resumed run alike, so both return the same bits.  A full disk
        degrades with a warning, exactly like the chunk checkpointer.
        """
        key = "phase/label_modeling"
        if store is not None and key in store:
            strategy, model = store.get_pickle(key)
        else:
            strategy, model = self._label_modeling(label_matrix)
            if store is not None:
                try:
                    store.put_pickle(key, (strategy, model))
                except OSError as exc:
                    warnings.warn(
                        f"label-modeling checkpoint skipped after write failure "
                        f"({exc}); the run continues without it",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        return strategy, model, _posteriors(model, label_matrix)

    # ----------------------------------------------------------------- stages
    def _label_modeling(
        self, label_matrix: LabelMatrix
    ) -> tuple[Optional[ModelingStrategy], Optional[GenerativeModel]]:
        """Choose a strategy and fit its label model (``None`` for majority
        vote); :func:`_posteriors` turns them into probabilistic labels.

        Categorical matrices flow through the same stages: the optimizer
        always selects the generative model for them (the MV-vs-GM advantage
        bound is binary theory) and the model trains its k-ary estimator,
        returning ``(m, k)`` distributions.
        """
        config = self.config
        cardinality = label_matrix.cardinality
        strategy: Optional[ModelingStrategy] = None
        if config.force_strategy is not None:
            use_generative = config.force_strategy == "GM"
            correlations: list[tuple[int, int]] = []
        elif config.use_optimizer:
            optimizer = ModelingStrategyOptimizer(
                advantage_tolerance=config.advantage_tolerance,
                learn_correlations=config.learn_correlations,
            )
            strategy = optimizer.choose(label_matrix)
            use_generative = strategy.use_generative_model
            correlations = strategy.correlations
        else:
            use_generative = True
            correlations = []

        if not use_generative:
            return strategy, None

        model = GenerativeModel(epochs=config.generative_epochs, cardinality=cardinality)
        return strategy, model.fit(label_matrix, correlations=correlations)

    def _keep_rows(
        self, num_candidates: int, training_probs: np.ndarray, label_matrix: LabelMatrix
    ) -> np.ndarray:
        """Training rows the end model sees (ascending global indices)."""
        # Drop candidates no LF covered, plus covered rows whose
        # probability is uninformative: within np.isclose's default
        # tolerance (rtol 1e-5, atol 1e-8) of 0.5 for binary tasks, or a
        # largest class probability that close to uniform for categorical
        # ones — near-ties carry no supervision signal; the paper's end
        # models similarly train on the covered set.  (The tolerance is
        # the rule the pipeline's outputs were built with; tightening it
        # to exact ties would change them.)  Coverage is taken from Λ
        # itself — an estimated class balance gives uncovered rows a
        # non-uniform prior probability, which is not supervision signal
        # either.
        if training_probs.ndim == 2:
            uninformative = np.isclose(
                training_probs.max(axis=1), 1.0 / training_probs.shape[1]
            )
        else:
            uninformative = np.isclose(training_probs, 0.5)
        keep = np.flatnonzero(label_matrix.covered_rows() & ~uninformative)
        if keep.size == 0:
            keep = np.arange(num_candidates)
        return keep

    def _make_end_model(self, cardinality: int) -> NoiseAwareClassifier:
        """The caller-supplied end model, else the default noise-aware one
        for the task cardinality — on the deterministic stream-order
        minibatch schedule (``shuffle=False``), the only one a one-pass
        block stream can realize."""
        config = self.config
        if self._discriminative_model is not None:
            return self._discriminative_model
        if cardinality == 2:
            return NoiseAwareLogisticRegression(
                epochs=config.discriminative_epochs,
                class_balance=config.class_balance,
                shuffle=False,
                seed=config.seed,
            )
        if config.class_balance is not None:
            raise ConfigurationError(
                "PipelineConfig.class_balance is a binary-end-model setting "
                "(scalar positive-class fraction) and has no effect on "
                f"cardinality-{cardinality} tasks; unset it"
            )
        return NoiseAwareSoftmaxRegression(
            num_classes=cardinality,
            epochs=config.discriminative_epochs,
            shuffle=False,
            seed=config.seed,
        )

    def _score_probabilities(
        self, cardinality: int, test_gold: np.ndarray, probs: np.ndarray
    ) -> AnyScoreReport:
        """Score test-split probabilities with the cardinality's scorer."""
        if cardinality == 2:
            return BinaryScorer().score_probabilities(test_gold, probs)
        return MultiClassScorer(cardinality).score_probabilities(test_gold, probs)

    def _train_end_model(
        self,
        model: NoiseAwareClassifier,
        train_blocks: Sequence,
        training_probs: np.ndarray,
        label_matrix: LabelMatrix,
        epoch_checkpoint: Optional[EpochCheckpoint],
    ) -> None:
        """Train the end model on Ỹ from the CSR feature blocks.

        Binary tasks train on the ``(m,)`` probability vector, categorical
        ones on the ``(m, k)`` distribution matrix.  Only the kept training
        rows (covered + informative, see :meth:`_keep_rows`) reach the
        model, block by block in stream order, so the minibatches are
        exactly those of ``fit(X[keep], Ỹ[keep])``.

        The blocks belong to this run — built in RAM, or, in a checkpointed
        run, read back from the store once (:meth:`ChunkCheckpointer.feature_blocks
        <repro.labeling.blockstore.ChunkCheckpointer.feature_blocks>`), the
        same narrow column ids and values either way, about 3 B per entry —
        so each is shrunk to its kept rows once, in its own arrays
        (:meth:`CSRMatrix.keep_rows <repro.utils.csr.CSRMatrix.keep_rows>`),
        and handed over as a sequence: the model plans its minibatches once
        per fit and X is never copied.  With ``epoch_checkpoint`` the fit
        saves its state after every epoch and a resumed run replays only the
        remaining ones.
        """
        num_candidates = training_probs.shape[0]
        keep_mask = np.zeros(num_candidates, dtype=bool)
        keep_mask[self._keep_rows(num_candidates, training_probs, label_matrix)] = True
        kept, start = [], 0
        for block in train_blocks:
            stop = start + block.shape[0]
            local = np.flatnonzero(keep_mask[start:stop])
            if local.size:
                block = block.keep_rows(local) if local.size < block.shape[0] else block
                kept.append((block, training_probs[start + local]))
            start = stop
        model.fit_stream(kept, checkpoint=epoch_checkpoint)
