"""Applying labeling functions over candidates to produce the label matrix Λ.

Snorkel's execution model applies LFs in an embarrassingly parallel fashion:
the master process hands candidate partitions to workers, each worker runs
the LF suite over its partition, and the non-abstain outputs are merged into
a sparse Λ at the master.  This module is the thin facade over the real
implementation, the :mod:`repro.labeling.engine` package, and it makes that
sentence one pass (:meth:`LFApplier._run`):

* an **execution plan** (:class:`repro.labeling.engine.ExecutionPlan`) fixes
  the chunking policy, the backend — ``sequential`` (in-process loop),
  ``threads`` (``concurrent.futures``) or ``processes`` (the persistent
  worker runtime of :mod:`repro.labeling.engine.runtime`: long-lived workers
  shared across applies, with chunks moving as pickled bytes over each
  worker's pipe) — the worker count, and the fault policy;
* one **label task** runs on every chunk — the compiled
  ``label_chunk_pushdown`` or the interpreted reference ``apply_chunk`` —
  wrapped by ``label_and_featurize_chunk`` when a featurizer came along;
* a per-chunk **accumulator** collects each worker's non-abstain labels as
  CSR triple blocks and merges them deterministically at the end, and Λ is
  built from those triples — its only sink.  A caller who wants the matrix
  held dense gets the dense view of that CSR, which keeps the entries it
  came from, so nothing downstream lowers it a second time.

:meth:`LFApplier.apply` is that pass without a featurizer;
:meth:`LFApplier.apply_with_features` is the same pass with one.  Because
chunks are drawn lazily from the input, both accept *any* iterable of
candidates — a list, a generator, a database cursor — and never materialize
the full candidate list; with ``sparse=True`` the dense ``(m, n)`` array is
never materialized either, so memory is bounded by the emitted labels plus
the in-flight window.  Results are bit-identical across backends and input
types: same labels, same error counts, same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.exceptions import LabelingError
from repro.labeling.engine import (
    ExecutionPlan,
    TaskSpec,
    label_and_featurize_chunk,
    run_plan,
)
from repro.labeling.engine.accumulator import LFErrorDetail, apply_chunk
from repro.labeling.lf import LabelingFunction
from repro.labeling.matrix import LabelMatrix
from repro.labeling.sparse import SparseLabelMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.analysis.diagnostics import AnalysisReport
    from repro.discriminative.featurizers import RelationFeaturizer
    from repro.discriminative.sparse_features import CSRFeatureMatrix
    from repro.labeling.blockstore import ChunkCheckpointer
    from repro.labeling.pushdown import PushdownPlan, PushdownSummary

#: Accepted values for ``LFApplier(validate=...)``.
VALIDATE_MODES = ("off", "warn", "error")

#: Accepted values for ``LFApplier(pushdown=...)`` / ``PipelineConfig.lf_pushdown``.
#: ``"auto"`` (the default) compiles what the pushdown decider admits and
#: interprets the rest per LF; ``"off"`` interprets every LF — the reference
#: path the compiled tier is held bit-identical to; ``"require"`` raises if
#: any LF in the suite cannot be compiled, naming each offender and why.
PUSHDOWN_MODES = ("off", "auto", "require")


@dataclass
class ApplyReport:
    """Statistics from one application run.

    Attributes
    ----------
    num_candidates, num_lfs:
        Shape of the produced label matrix.
    num_chunks:
        Number of candidate chunks processed (the "worker partitions").
    errors:
        Mapping ``lf name -> number of suppressed exceptions`` (only populated
        when ``fault_tolerant=True``), merged across workers in chunk order.
    error_details:
        Per-LF exception breakdown behind ``errors``: counts per exception
        class plus the first retained traceback, in chunk order (see
        :class:`repro.labeling.engine.accumulator.LFErrorDetail`).
    backend:
        Backend that ran the chunks.
    num_workers:
        Worker count the backend used (1 for the sequential backend).
    chunk_seconds:
        Per-chunk wall-clock seconds, in chunk order (not completion order).
    lf_seconds:
        Per-LF wall-clock totals, summed over chunks in chunk order.  Under
        pushdown, shared per-chunk work (field extraction, token indexes) is
        charged to the first LF that triggers it, so these are attribution
        totals, not marginal costs.
    analysis:
        The static-analysis report produced by ``validate="warn"|"error"``
        before the run, or ``None`` when validation was off.
    pushdown:
        Compiled/fallback partition and per-tier seconds for a pushdown run
        (see :class:`repro.labeling.pushdown.PushdownSummary`), or ``None``
        when ``pushdown="off"``.
    transport_seconds:
        Per-chunk serialization seconds, in chunk order — disjoint from
        ``chunk_seconds`` (pure compute).  All zeros for the in-process
        backends, where chunks never cross a process boundary.
    transport:
        Run-level split of where time went (see :class:`TransportSummary`).
    """

    num_candidates: int = 0
    num_lfs: int = 0
    num_chunks: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    error_details: dict[str, LFErrorDetail] = field(default_factory=dict)
    backend: str = "sequential"
    num_workers: int = 1
    chunk_seconds: list[float] = field(default_factory=list)
    lf_seconds: dict[str, float] = field(default_factory=dict)
    analysis: Optional["AnalysisReport"] = None
    pushdown: Optional["PushdownSummary"] = None
    transport_seconds: list[float] = field(default_factory=list)
    transport: Optional["TransportSummary"] = None

    @property
    def num_errors(self) -> int:
        """Total number of suppressed labeling-function exceptions."""
        return sum(self.errors.values())

    @property
    def total_chunk_seconds(self) -> float:
        """Summed per-chunk work time (exceeds wall clock under parallelism)."""
        return float(sum(self.chunk_seconds))


@dataclass
class TransportSummary:
    """How one apply run split its time between moving bytes and computing
    (``ApplyReport.transport``), in the style of ``ApplyReport.pushdown``.

    ``mode`` is the chunk transport: ``"inline"`` for the in-process
    backends (nothing crosses a process boundary, so ``transport_seconds``
    is 0), ``"pickle"`` for the processes backend (pickled bytes over each
    worker's pipe).  ``transport_seconds`` sums the per-chunk serialization
    time (master-side pickling of candidates, worker decode/encode,
    master-side result unpickling); ``compute_seconds`` sums the per-chunk
    task time.  The two are disjoint, so their ratio says whether a run is
    transport-bound — the signal for growing ``chunk_size`` or running
    in process.
    """

    mode: str = "inline"
    compute_seconds: float = 0.0
    transport_seconds: float = 0.0

    @property
    def transport_fraction(self) -> float:
        """Share of accounted time spent moving bytes, in ``[0, 1]``."""
        total = self.compute_seconds + self.transport_seconds
        return self.transport_seconds / total if total else 0.0


class LFApplier:
    """Applies a fixed list of labeling functions over candidates.

    Parameters
    ----------
    lfs:
        Labeling functions to apply; their order fixes the column order of Λ.
        All LFs must agree on cardinality — mixed-cardinality suites raise
        :class:`LabelingError` at construction.
    fault_tolerant:
        When ``True``, exceptions raised by an LF on a candidate are counted
        and converted to abstentions instead of aborting the run.
    chunk_size:
        Number of candidates per execution chunk (worker partition).  Results
        are independent of the chunk size.
    backend:
        Executor backend: ``"sequential"`` (default), ``"threads"``, or
        ``"processes"``.  See :mod:`repro.labeling.engine` for the tradeoffs;
        the process backend requires picklable candidates.
    num_workers:
        Worker count for the pool backends (``None`` = one per available
        CPU); ignored by the sequential backend.
    validate:
        Static-analysis gate run once per apply call, before any candidate
        is labeled (see :mod:`repro.analysis`).  ``"off"`` (default) skips
        it; ``"warn"`` attaches the :class:`AnalysisReport` to the
        :class:`ApplyReport` and prints nothing; ``"error"`` additionally
        raises :class:`LabelingError` when any ERROR-severity diagnostic is
        found (unseeded randomness, entropy reads, global mutation).
    pushdown:
        Columnar-kernel execution of the suite (see
        :mod:`repro.labeling.pushdown`).  ``"auto"`` (default) compiles
        every LF the compiler accepts into vectorized kernels (its closed
        grammar refuses every nondeterministic, state-mutating or
        I/O-performing body, all that ``validate=`` flags included; no lint
        pass runs to decide it) — the rest run interpreted, per LF,
        inside the same chunk task, so a suite nothing compiles in costs
        what ``"off"`` costs; ``"off"`` interprets every LF per candidate
        and is the reference path: labels, error counts, error breakdowns
        and the exception a non-fault-tolerant run raises are bit-identical
        to it in every mode, for every backend and chunk size;
        ``"require"`` raises :class:`LabelingError` before labeling
        anything if any LF cannot be compiled, naming each offender with
        the decider's reason.  Each LF is compiled once per process
        (``pushdown.task.decision``) and compiled again only when a global,
        closure cell, default or attribute its program folded in has been
        rebound, or a list, dict, set or bytearray whose contents a fold read
        has changed.
    chunk_timeout:
        Soft per-chunk deadline in seconds for the processes backend: past
        it the worker draws a warning, past the escalation point it is
        killed and the chunk resubmitted (EN101) instead of stalling the
        run forever.  ``None`` (default) waits indefinitely; in-process
        backends ignore it.
    """

    def __init__(
        self,
        lfs: Sequence[LabelingFunction],
        fault_tolerant: bool = False,
        chunk_size: int = 1024,
        backend: str = "sequential",
        num_workers: Optional[int] = 1,
        validate: str = "off",
        pushdown: str = "auto",
        chunk_timeout: Optional[float] = None,
    ) -> None:
        if not lfs:
            raise LabelingError("LFApplier requires at least one labeling function")
        names = [lf.name for lf in lfs]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise LabelingError(f"duplicate labeling function names: {sorted(duplicates)}")
        cardinalities = sorted({lf.cardinality for lf in lfs})
        if len(cardinalities) > 1:
            raise LabelingError(
                f"labeling functions disagree on cardinality: {cardinalities}; "
                "an LF suite must label one task"
            )
        if validate not in VALIDATE_MODES:
            raise LabelingError(
                f"unknown validate mode {validate!r}; expected one of {VALIDATE_MODES}"
            )
        if pushdown not in PUSHDOWN_MODES:
            raise LabelingError(
                f"unknown pushdown mode {pushdown!r}; expected one of {PUSHDOWN_MODES}"
            )
        self.lfs = list(lfs)
        self.cardinality = cardinalities[0]
        self.fault_tolerant = fault_tolerant
        self.chunk_size = chunk_size
        self.backend = backend
        self.num_workers = num_workers
        self.validate = validate
        self.pushdown = pushdown
        self.chunk_timeout = chunk_timeout
        self.last_report: Optional[ApplyReport] = None
        # Eager validation of chunk_size / backend / num_workers; the plan is
        # rebuilt from the attributes on every apply.
        self._execution_plan()
        # Worker-spec payloads, per (suite, featurizer, tier), for the current
        # suite only (see _suite_key): the persistent pool dedups attaches on
        # payload *identity*, so repeat applies must present the same payload
        # object to stay warm (no re-ship, no worker-side rebuild).
        self._spec_payloads: dict[tuple, object] = {}
        self._cached_suite: Optional[tuple] = None

    def _execution_plan(self) -> ExecutionPlan:
        """The plan the (public, mutable) attributes describe right now."""
        return ExecutionPlan(
            chunk_size=self.chunk_size,
            backend=self.backend,
            num_workers=self.num_workers,
            fault_tolerant=self.fault_tolerant,
            chunk_timeout=self.chunk_timeout,
        )

    def _suite_key(self, pushdown_plan: Optional["PushdownPlan"]) -> tuple:
        """Identity of the suite as it is now (the public ``lfs`` attribute
        is mutable, in place too) and of the compile decisions it runs
        under.  Payloads hold their LFs, so what was shipped for a
        superseded suite is dropped here rather than kept alive for the life
        of the applier — an edit loop replaces one LF per apply — and a
        decision made again (a folded-in constant changed) yields a new
        payload, on which workers re-attach and compile again."""
        decisions = () if pushdown_plan is None else tuple(pushdown_plan.decisions)
        key = (tuple(map(id, self.lfs)), self.cardinality, decisions)
        if key != self._cached_suite:
            self._cached_suite = key
            self._spec_payloads.clear()
        return key

    def _validate_suite(self) -> Optional["AnalysisReport"]:
        """Run the static-analysis pass the ``validate`` mode asks for.

        Analysis cost is per-LF, not per-candidate — one pass before the run,
        however large the candidate stream is.  Returns the report (attached
        to the :class:`ApplyReport` afterwards) or ``None`` when off.
        """
        if self.validate == "off":
            return None
        from repro.analysis import analyze_suite

        report = analyze_suite(self.lfs, cardinality=self.cardinality)
        if self.validate == "error" and report.has_errors:
            raise LabelingError(
                "labeling-function validation failed "
                f"({len(report.errors)} error diagnostic(s)):\n{report.format()}"
            )
        return report

    def _pushdown_plan(self) -> Optional["PushdownPlan"]:
        """The compiled plan the ``pushdown`` mode asks for, from the
        per-process compile memo.

        ``"require"`` turns an incomplete partition into an error listing
        every non-compiled LF with the decider's reason (a duck-typed LF, or
        the compiler's refusal and its line), so the offender can be
        rewritten or the mode relaxed to ``"auto"``.  The plan does not
        depend on the executor backend, and deciding it lints nothing.
        """
        if self.pushdown == "off":
            return None
        from repro.labeling.pushdown import build_plan

        plan = build_plan(self.lfs, cardinality=self.cardinality)
        if self.pushdown == "require" and plan.fallback:
            reasons = "\n".join(
                f"  - {name}: {plan.fallback_reasons[name]}"
                for name in plan.fallback_names
            )
            raise LabelingError(
                f'pushdown="require" but {len(plan.fallback)} labeling '
                f"function(s) could not be compiled:\n{reasons}"
            )
        return plan

    def _engine_task(
        self,
        pushdown_plan: Optional["PushdownPlan"],
        featurizer: Optional["RelationFeaturizer"],
    ) -> tuple:
        """Pick the label task, wrap it if a featurizer came along; returns
        the master payload, the chunk task, and the worker ``TaskSpec``.

        The master payload runs in-process (sequential/threads); the
        :class:`~repro.labeling.engine.runtime.TaskSpec` describes the same
        work for the persistent worker pool.  For pushdown runs the spec
        ships *configuration, not the plan*: a compiled
        :class:`PushdownPlan` holds kernel closures that cannot cross a
        pipe, so workers receive ``(lfs, cardinality, featurizer)``
        and compile their own (deterministically identical) plan once at
        attach time.  What is shipped is cached per featurizer and tier (for
        the current suite) so repeat applies hit the pool's attach dedup and
        never re-ship.
        """
        if pushdown_plan is None:
            # A copy, not ``self.lfs`` itself: the pool dedups attaches on
            # payload id, and in-place suite mutation (``applier.lfs[0] =
            # other``) keeps the list's id — a copy cached under the suite's
            # per-LF identity makes mutation yield a new payload and a fresh
            # worker-side attach instead of a stale suite.
            task, payload, builder = apply_chunk, list(self.lfs), None
        else:
            from repro.labeling.pushdown import build_worker_payload, label_chunk_pushdown

            task, payload, builder = label_chunk_pushdown, pushdown_plan, build_worker_payload
        if featurizer is not None:
            task, payload = label_and_featurize_chunk, (task, payload, featurizer)
        suite = self._suite_key(pushdown_plan)
        key = (suite, None if featurizer is None else id(featurizer), builder)
        shipped = self._spec_payloads.get(key)
        if shipped is None:
            shipped = payload
            if builder is not None:
                shipped = (tuple(self.lfs), self.cardinality, featurizer)
            self._spec_payloads[key] = shipped
        return payload, task, TaskSpec(task=task, payload=shipped, builder=builder)

    @property
    def lf_names(self) -> list[str]:
        """Column names of the produced label matrix."""
        return [lf.name for lf in self.lfs]

    def _build_report(
        self, result, analysis, pushdown_plan: Optional["PushdownPlan"]
    ) -> ApplyReport:
        pushdown_summary = None
        if pushdown_plan is not None:
            from repro.labeling.pushdown import PushdownSummary

            pushdown_summary = PushdownSummary.from_run(
                pushdown_plan, result.lf_seconds
            )
        transport_summary = TransportSummary(
            mode=result.transport,
            compute_seconds=float(sum(result.chunk_seconds)),
            transport_seconds=float(sum(result.transport_seconds)),
        )
        return ApplyReport(
            num_candidates=result.num_candidates,
            num_lfs=len(self.lfs),
            num_chunks=result.num_chunks,
            errors=result.errors,
            error_details=result.error_details,
            backend=result.backend,
            num_workers=result.num_workers,
            chunk_seconds=result.chunk_seconds,
            lf_seconds=result.lf_seconds,
            analysis=analysis,
            pushdown=pushdown_summary,
            transport_seconds=result.transport_seconds,
            transport=transport_summary,
        )

    def _run(
        self,
        candidates: Iterable,
        featurizer: Optional["RelationFeaturizer"],
        sparse: bool,
        checkpoint: Optional["ChunkCheckpointer"],
    ) -> tuple[LabelMatrix, Sequence["CSRFeatureMatrix"]]:
        """The one labeling pass: validate, plan, pick the chunk task, run it
        over the stream, report, and build Λ from the merged triples."""
        analysis = self._validate_suite()
        plan = self._execution_plan()
        pushdown_plan = self._pushdown_plan()
        payload, task, spec = self._engine_task(pushdown_plan, featurizer)
        transform = None
        feature_blocks: dict[int, "CSRFeatureMatrix"] = {}
        if featurizer is not None:
            from repro.discriminative.sparse_features import CSRFeatureMatrix

            output_dim = featurizer.output_dim

            # Runs in the master thread for every backend, after the
            # checkpointer (if any) made the chunk durable.
            def transform(result):
                # Chunks the checkpointer holds durably are read back from
                # disk once the pass is over, in their narrow stored dtypes.
                # Everything else (no checkpointer, or a write that failed
                # and disabled it) stays in RAM.
                if checkpoint is None or result.index not in checkpoint.completed:
                    feature_blocks[result.index] = CSRFeatureMatrix.from_chunk(
                        result.features, output_dim
                    )
                result.features = None
                return result

        result = run_plan(
            payload,
            candidates,
            plan,
            transform=transform,
            task=task,
            spec=spec,
            checkpoint=checkpoint,
        )
        self.last_report = self._build_report(result, analysis, pushdown_plan)
        storage = SparseLabelMatrix.from_triples(
            result.rows, result.cols, result.values, (result.num_candidates, len(self.lfs))
        )
        matrix = LabelMatrix(storage, lf_names=self.lf_names, cardinality=self.cardinality)
        if not sparse:
            matrix = matrix.to_dense()
        if checkpoint is not None:
            return matrix, checkpoint.feature_blocks(result.num_chunks, output_dim, feature_blocks)
        return matrix, [feature_blocks[index] for index in sorted(feature_blocks)]

    def apply(self, candidates: Iterable, sparse: bool = False) -> LabelMatrix:
        """Apply every LF to every candidate and return the label matrix Λ.

        The labeling pass without a featurizer.  ``candidates`` may be any
        iterable; generators are consumed chunk by chunk and the full
        candidate list is never materialized.  The non-abstain outputs are
        accumulated as CSR triple blocks and Λ is built from them: with
        ``sparse=True`` the returned matrix is held as that CSR — the dense
        ``(m, n)`` array is never materialized, so memory scales with the
        number of emitted labels rather than with ``m·n``; with
        ``sparse=False`` it is the dense view of the same entries
        (:meth:`LabelMatrix.to_dense`), which keeps them, so downstream
        consumers read the entries the engine emitted.  The labels are
        identical in both modes and across all backends.
        """
        return self._run(candidates, None, sparse, None)[0]

    def apply_with_features(
        self,
        candidates: Iterable,
        featurizer: "RelationFeaturizer",
        sparse: bool = False,
        checkpoint: Optional["ChunkCheckpointer"] = None,
    ) -> tuple[LabelMatrix, Sequence["CSRFeatureMatrix"]]:
        """Label *and* featurize every candidate in one streaming pass.

        The same pass as :meth:`apply`, with the label task wrapped by the
        fused engine task (:func:`repro.labeling.engine.tasks.
        label_and_featurize_chunk`), which also runs the fitted
        ``featurizer`` over each chunk; the label triples merge into Λ
        exactly as in :meth:`apply`, while each chunk's feature triples are
        claimed on arrival (master-side, via the accumulator ``transform``)
        as a chunk-ordered :class:`CSRFeatureMatrix` block.  Neither the
        candidate list nor any dense ``(m, d)`` feature matrix is ever
        materialized — this is the streaming pipeline's single pass over a
        candidate generator.  Labels, feature values, and block order are
        identical for every backend and chunk size.

        With ``checkpoint`` (a :class:`repro.labeling.blockstore.
        ChunkCheckpointer`), every chunk's result is made durable before
        being consumed, already-durable chunks are replayed from disk
        instead of recomputed (crash resume; only their label triples are
        decoded), and the returned blocks are read back from the store once
        the pass is over (:meth:`~repro.labeling.blockstore.ChunkCheckpointer.
        feature_blocks`): each through one mapping of its file, its column
        ids and values kept in their narrow stored dtypes, so the feature set
        is resident at about 3 B per entry instead of 16.
        """
        featurizer.require_fitted()
        return self._run(candidates, featurizer, sparse, checkpoint)
