"""Online incremental generative label model (sufficient-statistic EM).

Everything in :mod:`repro.labelmodel.generative` is batch: a new candidate
chunk or an edited labeling function means refitting from scratch over the
whole corpus.  This module makes the label model *online* — the shape a
long-lived labeling service needs (freshness, bounded staleness, per-task
model versions):

:class:`OnlineGenerativeModel`
    Maintains the EM sufficient statistics — per-LF expected-correct and
    vote-count accumulators, the damped class-balance state, and the
    covered-row posterior mass — over every chunk folded in so far, plus
    the raw non-abstain triples of the accumulated label matrix Λ.

    * :meth:`update` folds a new chunk in at **O(chunk + n)** cost: one
      E-pass over the chunk's entries at the current warm parameters adds
      its statistics to the accumulators, and one O(n) M-step re-estimates
      the accuracies.  Accumulated rows are never rescanned.
    * :meth:`add_lf` / :meth:`remove_lf` rewire the statistics and the
      modeled correlation structure without a full refit; the structure
      learner's node-wise regressions decompose per node, so
      :meth:`relearn_structure` re-solves only the affected nodes through
      :meth:`repro.labelmodel.structure.StructureLearner.refit_nodes`.
    * :meth:`serve_posteriors` streams posteriors for arriving chunks
      under a monotonically increasing ``model_version_``, optionally
      auto-draining when the staleness bound (updates folded since the
      last exact fit) is exceeded.
    * :meth:`drain` is the exact tier: it rebuilds the accumulated Λ as
      CSR storage, builds its kernel entries once, and runs the batch EM
      iteration (:func:`repro.labelmodel.em.run_em`) plus the re-anchoring
      E-pass over those same entries.  Because :meth:`SparseLabelMatrix.
      from_triples` canonicalizes the entry order, a drained model is
      **bit-identical** to ``GenerativeModel.fit`` on the equivalent
      matrix regardless of how the stream was chunked or stored.  The
      drain is memoized on ``model_version_``, so the zero-update warm
      case — serving again without new data — returns the cached batch
      model bitwise.

The folds, the drain and the batch :class:`GenerativeModel` all drive the
one EM kernel in :mod:`repro.labelmodel.em`: :meth:`update` is a single
``e_step`` on the chunk's entries added into the accumulators, followed by
the kernel's balance update and M-step.

Durability: :meth:`save` persists the full state (triples + accumulators)
as one record in a :class:`repro.labeling.blockstore.BlockStore`'s log,
stamped with ``epoch=model_version_`` so the store keeps only the newest
snapshot; :meth:`load` restores it.  The pipeline fits in batch — its Λ is
complete before label modeling starts, and a drained model is that fit bit
for bit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.exceptions import LabelModelError, NotFittedError
from repro.labeling.matrix import LabelMatrix
from repro.labeling.sparse import SparseLabelMatrix, lower_to_sparse
from repro.labelmodel.em import (
    ACCURACY_INIT,
    EMParams,
    accuracy_to_weights,
    balance_prior,
    build_entries,
    damped_balance,
    e_step,
    initial_prior,
    m_step,
    run_em,
    validate_label_values,
)
from repro.labelmodel.factor_graph import FactorGraphSpec
from repro.labelmodel.generative import GenerativeModel
from repro.labelmodel.structure import StructureLearner
from repro.types import ABSTAIN
from repro.utils.mathutils import sigmoid
from repro.utils.rng import SeedLike

__all__ = ["OnlineGenerativeModel", "ServedPosteriors"]


class ServedPosteriors(NamedTuple):
    """One served chunk: its posteriors and the model version that scored it."""

    #: ``(m,)`` positive-class probabilities for binary tasks, ``(m, k)``
    #: class distributions for categorical ones — the library-wide
    #: ``predict_proba`` convention.
    probs: np.ndarray
    #: The (monotonically increasing) ``model_version_`` under which this
    #: chunk was scored.
    model_version: int


class OnlineGenerativeModel:
    """EM over accumulated sufficient statistics, with an exact drain tier.

    Parameters mirror :class:`GenerativeModel` (``seed`` is likewise
    accepted and ignored).  Additional parameters:

    Parameters
    ----------
    correlations:
        The modeled correlation pairs, shared by the warm folds and the
        drained batch fits.  Mutable through :meth:`set_correlations` /
        :meth:`relearn_structure` / :meth:`remove_lf`.
    max_staleness:
        Staleness bound for :meth:`serve_posteriors`: the maximum number of
        statistics-changing updates that may have been folded since the
        last exact fit before serving triggers :meth:`drain` automatically.
        ``0`` serves exact posteriors always; ``None`` (default) never
        auto-drains — serving uses the warm parameters.
    """

    def __init__(
        self,
        cardinality: Optional[int] = None,
        correlations: Iterable[tuple[int, int]] = (),
        epochs: int = 30,
        class_balance: Optional[float | Sequence[float]] = None,
        max_staleness: Optional[int] = None,
        seed: SeedLike = 0,
    ) -> None:
        if max_staleness is not None and max_staleness < 0:
            raise LabelModelError(
                f"max_staleness must be >= 0 or None, got {max_staleness}"
            )
        if cardinality is not None and cardinality < 2:
            raise LabelModelError(f"cardinality must be >= 2 when given, got {cardinality}")
        self.params = EMParams(epochs=epochs, class_balance=class_balance)
        self.cardinality = cardinality
        self.class_balance = class_balance
        self.max_staleness = max_staleness
        self.correlations_: list[tuple[int, int]] = [
            (int(j), int(k)) for j, k in correlations
        ]

        #: Pinned by the first chunk (or explicitly via ``cardinality=``).
        self.cardinality_: Optional[int] = None
        self.num_rows_ = 0
        self.num_lfs_: Optional[int] = None

        # Accumulated non-abstain triples of Λ (global row ids), kept as
        # appended parts; their canonical CSR form is built lazily and kept
        # until the parts change.
        self._rows_parts: list[np.ndarray] = []
        self._cols_parts: list[np.ndarray] = []
        self._vals_parts: list[np.ndarray] = []
        self._matrix_cache: Optional[SparseLabelMatrix] = None

        # The EM sufficient statistics (created at the first pinning chunk).
        self.expected_correct_: Optional[np.ndarray] = None
        self.vote_counts_: Optional[np.ndarray] = None
        self.accuracies_: Optional[np.ndarray] = None
        #: Posterior mass over covered rows: a scalar for binary tasks, a
        #: length-``k`` vector for categorical ones.
        self.posterior_mass_: Optional[float | np.ndarray] = None
        self.covered_rows_ = 0
        #: Damped class-balance state (``None`` until evidence arrives or
        #: when ``class_balance`` is supplied).
        self.balance_: Optional[float | np.ndarray] = None

        #: Monotonically increasing model version: bumped by every
        #: statistics-changing mutation and by every fresh exact fit.
        self.model_version_ = 0
        #: Statistics-changing updates folded since the last exact fit.
        self.updates_since_drain_ = 0

        self._spec_cache: Optional[FactorGraphSpec] = None
        self._drained: Optional[GenerativeModel] = None
        self._drained_version = -1
        self._warm_model: Optional[GenerativeModel] = None
        self._warm_version = -1

    # ------------------------------------------------------------------ state
    def _pin(self, num_lfs: int, cardinality: int) -> None:
        """Fix the LF count and cardinality and create the accumulators."""
        self.num_lfs_ = int(num_lfs)
        self.cardinality_ = int(cardinality)
        self.expected_correct_ = np.zeros(self.num_lfs_)
        self.vote_counts_ = np.zeros(self.num_lfs_, dtype=np.int64)
        self.accuracies_ = np.full(self.num_lfs_, ACCURACY_INIT)
        self.posterior_mass_ = 0.0 if cardinality == 2 else np.zeros(cardinality)

    def _require_pinned(self) -> int:
        if self.num_lfs_ is None:
            raise NotFittedError("OnlineGenerativeModel has not seen any chunk yet")
        return self.num_lfs_

    def _spec(self) -> FactorGraphSpec:
        if self._spec_cache is None:
            self._spec_cache = FactorGraphSpec(
                num_lfs=self._require_pinned(),
                correlations=self.correlations_,
                cardinality=self.cardinality_,
            )
        return self._spec_cache

    def _invalidate(self, structure: bool = False) -> None:
        """A statistics-changing mutation: bump the version, drop caches."""
        self.model_version_ += 1
        self.updates_since_drain_ += 1
        self._warm_model = None
        if structure:
            self._spec_cache = None

    def _triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The accumulated ``(rows, cols, vals)`` in canonical CSR order."""
        matrix = self.accumulated_matrix()
        return matrix.entry_rows(), matrix.indices, matrix.data

    def _append_triples(
        self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> None:
        if rows.size:
            self._rows_parts.append(np.asarray(rows, dtype=np.int64))
            self._cols_parts.append(np.asarray(cols, dtype=np.int64))
            self._vals_parts.append(np.asarray(vals, dtype=np.int64))
            self._matrix_cache = None

    def accumulated_matrix(self) -> SparseLabelMatrix:
        """The accumulated Λ as canonical CSR storage (kept until Λ changes).

        ``from_triples`` sorts by ``(row, col)``, so the result is
        independent of the order chunks arrived in (given the same row
        ids) — the property the drain's bit-equivalence rests on.
        """
        shape = (self.num_rows_, self._require_pinned())
        # All-abstain chunks and vote-less LFs grow the shape without
        # touching the parts, so the shape is part of the cache's validity.
        if self._matrix_cache is None or self._matrix_cache.shape != shape:
            empty = np.empty(0, dtype=np.int64)
            rows, cols, vals = (
                np.concatenate([empty, *parts])
                for parts in (self._rows_parts, self._cols_parts, self._vals_parts)
            )
            self._matrix_cache = SparseLabelMatrix.from_triples(rows, cols, vals, shape)
        return self._matrix_cache

    # ---------------------------------------------------------------- folding
    def _e_pass(self, entries) -> tuple[np.ndarray, float | np.ndarray]:
        """One kernel E-step over ``entries`` at the warm accuracies.

        Returns the per-LF expected-correct counts and the covered rows'
        posterior mass — with the vote and covered-row counts ``entries``
        already carries, exactly what the balance update and the M-step
        consume.  Posteriors are evidence-only unless a ``class_balance``
        was supplied, matching the batch iteration.
        """
        k = self.cardinality_
        prior = None if self.class_balance is None else initial_prior(self.class_balance, k)
        posteriors, expected_correct = e_step(
            entries, accuracy_to_weights(self.accuracies_, k), prior
        )
        return expected_correct, posteriors[entries.covered].sum(axis=0)

    def update(self, chunk) -> "OnlineGenerativeModel":
        """Fold a new candidate chunk into the accumulated statistics.

        Accepts a dense array, a :class:`LabelMatrix` (either storage), or
        raw :class:`SparseLabelMatrix` storage.  Cost is O(chunk + n):
        one E-pass over the chunk's non-abstain entries at the current warm
        parameters plus one O(n) M-step.  An all-abstain chunk only extends
        the row count — the statistics, parameters, and ``model_version_``
        are untouched.  A rejected chunk (wrong width, out-of-vocabulary
        votes) leaves the model exactly as it was.
        """
        storage = lower_to_sparse(chunk)
        if self.num_lfs_ is None:
            declared = chunk.cardinality if isinstance(chunk, LabelMatrix) else 2
            cardinality = declared if self.cardinality is None else self.cardinality
        elif storage.shape[1] != self.num_lfs_:
            raise LabelModelError(
                f"chunk has {storage.shape[1]} LFs, model accumulates {self.num_lfs_}"
            )
        else:
            cardinality = self.cardinality_
        validate_label_values(storage.data, cardinality)
        if self.num_lfs_ is None:
            self._pin(storage.shape[1], cardinality)
        first_row = self.num_rows_
        self.num_rows_ += storage.shape[0]
        if storage.nnz == 0:
            return self
        entries = build_entries(storage, self._spec().correlations, cardinality)
        self._append_triples(storage.entry_rows() + first_row, storage.indices, storage.data)
        expected_correct, mass = self._e_pass(entries)
        self.expected_correct_ = self.expected_correct_ + expected_correct
        self.vote_counts_ = self.vote_counts_ + entries.vote_counts
        self.posterior_mass_ = self.posterior_mass_ + mass
        self.covered_rows_ += int(entries.covered.sum())
        if self.class_balance is None:
            self.balance_ = damped_balance(
                self.balance_,
                self.posterior_mass_,
                self.covered_rows_,
                cardinality,
            )
        self.accuracies_ = m_step(
            self.accuracies_, self.expected_correct_, self.vote_counts_, cardinality
        )
        self._invalidate()
        return self

    # ------------------------------------------------------------- LF editing
    def add_lf(self, votes: np.ndarray) -> int:
        """Append a labeling function's votes over the accumulated rows.

        ``votes`` is a dense length-``num_rows_`` vector in the task's
        vocabulary (``ABSTAIN`` where the LF abstains).  The new LF starts
        at the prior accuracy with init-consistent pseudo-statistics (its
        warm M-step estimate is exactly ``ACCURACY_INIT`` before evidence
        accumulates); :meth:`drain` re-estimates it exactly.  Returns the
        new LF's column index.
        """
        num_lfs = self._require_pinned()
        votes = np.asarray(votes, dtype=np.int64)
        if votes.shape != (self.num_rows_,):
            raise LabelModelError(
                f"votes must have shape ({self.num_rows_},), got {votes.shape}"
            )
        validate_label_values(votes, self.cardinality_)
        column = num_lfs
        self.num_lfs_ = num_lfs + 1
        rows = np.flatnonzero(votes != ABSTAIN)
        self._append_triples(rows, np.full(rows.size, column, dtype=np.int64), votes[rows])
        self.accuracies_ = np.append(self.accuracies_, ACCURACY_INIT)
        self.vote_counts_ = np.append(self.vote_counts_, rows.size)
        self.expected_correct_ = np.append(
            self.expected_correct_, ACCURACY_INIT * rows.size
        )
        # Covered-row mass is unchanged only approximately (newly covered
        # rows existed before with posterior 0.5/uniform); the drain
        # recomputes it exactly.
        self._invalidate(structure=True)
        return column

    def remove_lf(self, index: int) -> "OnlineGenerativeModel":
        """Drop a labeling function; later columns shift down by one.

        Its triples, accumulators, and every modeled correlation pair it
        participates in are removed in one O(nnz) pass — no refit.
        """
        num_lfs = self._require_pinned()
        if not 0 <= index < num_lfs:
            raise LabelModelError(f"no LF at index {index} (have {num_lfs})")
        rows, cols, vals = self._triples()
        keep = cols != index
        new_cols = cols[keep]
        new_cols = np.where(new_cols > index, new_cols - 1, new_cols)
        self._rows_parts = [rows[keep]]
        self._cols_parts = [new_cols]
        self._vals_parts = [vals[keep]]
        self._matrix_cache = None
        self.num_lfs_ = num_lfs - 1
        self.accuracies_ = np.delete(self.accuracies_, index)
        self.vote_counts_ = np.delete(self.vote_counts_, index)
        self.expected_correct_ = np.delete(self.expected_correct_, index)
        self.correlations_ = [
            (j - (j > index), k - (k > index))
            for j, k in self.correlations_
            if index not in (j, k)
        ]
        self._invalidate(structure=True)
        return self

    def set_correlations(
        self, correlations: Iterable[tuple[int, int]]
    ) -> "OnlineGenerativeModel":
        """Replace the modeled correlation structure (no refit)."""
        self.correlations_ = [(int(j), int(k)) for j, k in correlations]
        self._invalidate(structure=True)
        return self

    def relearn_structure(
        self,
        learner: StructureLearner,
        threshold: float,
        nodes: Optional[Iterable[int]] = None,
    ) -> list[tuple[int, int]]:
        """Re-learn the correlation structure over the accumulated Λ.

        With ``nodes`` given, only those nodes' ℓ1 regressions are
        re-solved (:meth:`StructureLearner.refit_nodes`) — the incremental
        path after :meth:`add_lf`; otherwise the learner fits from scratch.
        The selected pairs become the model's correlation structure.
        """
        matrix = self.accumulated_matrix()
        if nodes is None or learner.dependency_weights_ is None:
            learner.fit(matrix)
        else:
            learner.refit_nodes(matrix, nodes)
        self.set_correlations(learner.select(threshold))
        return self.correlations_

    # ----------------------------------------------------------------- drain
    def drain(self) -> GenerativeModel:
        """Exact fit over everything accumulated; memoized per version.

        Runs the batch EM iteration over the entries of
        :meth:`accumulated_matrix`, so the result is bit-identical to
        fitting that matrix directly.  The warm state is then re-anchored
        at the converged solution: accuracies and balance from the fitted
        model, sufficient statistics from one E-pass over the same entries
        at the converged accuracies — subsequent :meth:`update` folds
        continue from there.
        """
        if self._drained is not None and self._drained_version == self.model_version_:
            return self._drained
        matrix = self.accumulated_matrix()
        if matrix.nnz == 0:
            raise NotFittedError(
                "cannot drain an OnlineGenerativeModel with no votes accumulated"
            )
        spec = self._spec()
        entries = build_entries(matrix, spec.correlations, spec.cardinality)
        accuracies, prior, history = run_em(entries, self.params)
        model = GenerativeModel.from_em(
            self.params,
            spec,
            accuracies,
            prior,
            coverage=entries.vote_counts / self.num_rows_,
            pair_agreement=entries.pair_agreement,
            history=history,
        )
        # Re-anchor the warm state at the converged solution.
        self.accuracies_ = model.learned_accuracies()
        if self.class_balance is None:
            if spec.cardinality > 2:
                self.balance_ = model.class_priors_.copy()
            else:
                self.balance_ = float(sigmoid(2.0 * model.class_prior_weight_))
        self.expected_correct_, self.posterior_mass_ = self._e_pass(entries)
        self.vote_counts_ = entries.vote_counts
        self.covered_rows_ = int(entries.covered.sum())
        self.model_version_ += 1
        self.updates_since_drain_ = 0
        self._drained = model
        self._drained_version = self.model_version_
        self._warm_model = None
        return model

    # --------------------------------------------------------------- serving
    def _serving_model(self) -> GenerativeModel:
        """The model posteriors are scored with at the current version.

        Freshly drained → the exact batch model (bitwise path).  Otherwise
        a :class:`GenerativeModel` assembled from the warm accuracies and
        balance, cached per version.
        """
        if self._drained is not None and self._drained_version == self.model_version_:
            return self._drained
        if self._warm_model is not None and self._warm_version == self.model_version_:
            return self._warm_model
        self._require_pinned()
        if self.class_balance is not None or self.balance_ is None:
            prior = initial_prior(self.class_balance, self.cardinality_)
        else:
            prior = balance_prior(self.balance_)
        coverage = None
        if self.num_rows_ > 0:
            coverage = self.vote_counts_ / self.num_rows_
        self._warm_model = GenerativeModel.from_em(
            self.params, self._spec(), self.accuracies_, prior, coverage=coverage
        )
        self._warm_version = self.model_version_
        return self._warm_model

    def posteriors(self, chunk) -> np.ndarray:
        """Posteriors for one chunk under the current model (no staleness check).

        A freshly drained model's output is bit-identical to the batch
        model's ``predict_proba`` on the same input.
        """
        self._require_pinned()
        return self._serving_model().predict_proba(chunk)

    def serve_posteriors(
        self, chunks: Iterable, max_staleness: Optional[int] = None
    ) -> Iterator[ServedPosteriors]:
        """Stream posteriors for arriving chunks under the versioned model.

        Yields one :class:`ServedPosteriors` per chunk.  Before each chunk
        the staleness bound (``max_staleness`` here, else the constructor's)
        is enforced: if more statistics-changing updates have been folded
        since the last exact fit than the bound allows, the model drains
        first.  Serving never mutates the statistics, so interleaving
        :meth:`update` calls between served chunks is the intended usage.
        """
        bound = self.max_staleness if max_staleness is None else max_staleness
        for chunk in chunks:
            if bound is not None and self.updates_since_drain_ > bound:
                self.drain()
            yield ServedPosteriors(self.posteriors(chunk), self.model_version_)

    # ------------------------------------------------------------- durability
    _STATE_FORMAT = 1

    def save(self, store, prefix: str = "online") -> str:
        """Persist the full state as one durable block; returns the key.

        The block is one record appended to the store's log and stamped
        with ``epoch=model_version_``: the
        :class:`~repro.labeling.blockstore.BlockStore` holds only the newest
        snapshot, and a superseded one is a dead record that the log's
        reclamation drops once dead bytes exceed live ones.
        """
        rows, cols, vals = self._triples()
        self._require_pinned()
        if self.cardinality_ > 2:
            mass = np.asarray(self.posterior_mass_, dtype=float)
        else:
            mass = np.asarray([float(self.posterior_mass_)])
        if self.balance_ is None:
            balance = np.empty(0)
        else:
            balance = np.atleast_1d(np.asarray(self.balance_, dtype=float))
        arrays = {
            "rows": rows,
            "cols": cols,
            "vals": vals,
            "expected_correct": self.expected_correct_,
            "vote_counts": self.vote_counts_,
            "accuracies": self.accuracies_,
            "posterior_mass": mass,
            "balance": balance,
        }
        meta = {
            "format": self._STATE_FORMAT,
            "num_rows": int(self.num_rows_),
            "num_lfs": int(self.num_lfs_),
            "cardinality": int(self.cardinality_),
            "correlations": [[int(j), int(k)] for j, k in self.correlations_],
            "covered_rows": int(self.covered_rows_),
            "model_version": int(self.model_version_),
            "updates_since_drain": int(self.updates_since_drain_),
        }
        key = f"{prefix}/state/v{self.model_version_}"
        store.put(key, arrays, meta, epoch=self.model_version_)
        return key

    @classmethod
    def load(cls, store, prefix: str = "online", **kwargs) -> "OnlineGenerativeModel":
        """Restore the newest saved state under ``prefix``.

        ``kwargs`` are constructor parameters (estimator configuration is
        not persisted — it belongs to the caller, like every model in this
        library).  The restored model serves and drains exactly as the
        saved one would; the drain memo itself is not persisted, so the
        first post-restore drain refits.
        """
        head = f"{prefix}/state/v"
        versions = [
            int(key[len(head):])
            for key in store.keys()
            if key.startswith(head) and key[len(head):].isdigit()
        ]
        if not versions:
            raise LabelModelError(
                f"no OnlineGenerativeModel state under {prefix!r} in {store.root}"
            )
        arrays, meta = store.get(f"{head}{max(versions)}")
        if meta.get("format") != cls._STATE_FORMAT:
            raise LabelModelError(
                f"OnlineGenerativeModel state under {prefix!r} has format "
                f"{meta.get('format')!r}, this version reads format {cls._STATE_FORMAT}"
            )
        model = cls(cardinality=int(meta["cardinality"]), **kwargs)
        model.correlations_ = [tuple(pair) for pair in meta["correlations"]]
        model.num_lfs_ = int(meta["num_lfs"])
        model.cardinality_ = int(meta["cardinality"])
        model.num_rows_ = int(meta["num_rows"])
        model._append_triples(
            np.array(arrays["rows"]), np.array(arrays["cols"]), np.array(arrays["vals"])
        )
        model.expected_correct_ = np.array(arrays["expected_correct"])
        model.vote_counts_ = np.array(arrays["vote_counts"])
        model.accuracies_ = np.array(arrays["accuracies"])
        mass = np.array(arrays["posterior_mass"])
        model.posterior_mass_ = mass if model.cardinality_ > 2 else float(mass[0])
        balance = np.array(arrays["balance"])
        if balance.size == 0:
            model.balance_ = None
        elif model.cardinality_ > 2:
            model.balance_ = balance
        else:
            model.balance_ = float(balance[0])
        model.covered_rows_ = int(meta["covered_rows"])
        model.model_version_ = int(meta["model_version"])
        model.updates_since_drain_ = int(meta["updates_since_drain"])
        return model
