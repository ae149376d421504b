"""The generative label model trained without ground truth.

``GenerativeModel`` implements the paper's Section 2.2 model: the joint
``p_w(Λ, Y) = Z_w^{-1} exp(Σ_i wᵀ φ_i(Λ_i, y_i))`` over labeling-function
outputs and latent labels, with labeling-propensity, accuracy, and pairwise
correlation factors.  Two estimators are provided:

* ``method="em"`` (default) — expectation–maximization on the marginal
  likelihood of the observed votes.  The E-step computes the exact label
  posterior ``P(y_i | Λ_i, w)`` (closed form, because the propensity and
  correlation factors do not involve ``y``); the M-step re-estimates each
  labeling function's accuracy from its expected agreement with the latent
  label.  Modeled correlations are handled with an explicit double-counting
  correction: when computing the posterior, each LF's weight is divided by
  one plus the number of its modeled correlation partners that cast the same
  vote on that data point, so a family of near-duplicate LFs counts roughly
  once (this resolves the paper's Example 3.1 pathology).  EM is
  deterministic, fast, and robust on the sparse low-coverage matrices real
  LF suites produce.

* ``method="cd"`` — the paper's original optimization strategy: stochastic
  gradient steps on the marginal likelihood interleaved with Gibbs sampling
  (contrastive divergence), conditioning on the abstention pattern.  Retained
  for fidelity and for denser matrices; it is noisier on very low-coverage
  LFs.

After training, the probabilistic labels are ``Ỹ_i = p_ŵ(y_i = +1 | Λ_i)``.

**Label conventions.**  Two vocabularies are supported, selected by the
task's ``cardinality``:

* *binary* (``cardinality=2``, the paper's primary setting) — signed labels
  ``{-1, +1}`` with ``0`` = abstain; ``predict_proba`` returns the
  positive-class probability, shape ``(m,)``.
* *categorical* (``cardinality=k > 2``, e.g. the crowdsourcing task) —
  classes ``1..k`` with ``0`` = abstain; ``predict_proba`` returns the full
  posterior distribution, shape ``(m, k)``.  The accuracy factor is the
  symmetric (Dawid–Skene-style) parameterization: each LF has one accuracy
  ``a_j`` with errors uniform over the ``k - 1`` wrong classes, giving
  accuracy weight ``w_j = 0.5·log(a_j (k-1)/(1-a_j))`` and posterior
  ``P(y_i = c | Λ_i) ∝ π_c · exp(2 Σ_{j: Λ_{i,j}=c} w_j)``.  For ``k = 2``
  this reduces *exactly* to the binary sigmoid: cardinality is a parameter
  of the one EM kernel, which keeps the signed binary arithmetic as its
  ``k = 2`` case, and the per-iteration class-balance re-estimation is a
  damped scalar update there and a damped k-vector update otherwise.

**Storage.**  Both estimators and ``predict_proba`` run on the non-abstain
``(row, column, value)`` triples of Λ only: every accepted input — dense
array, dense- or sparse-backed :class:`repro.labeling.LabelMatrix`, raw
:class:`repro.labeling.sparse.SparseLabelMatrix`, scipy sparse matrix — is
lowered to CSR storage at the boundary and handed to the kernel in
:mod:`repro.labelmodel.em` (the same kernel the online model folds chunks
with), so a dense input and its ``to_sparse()`` twin produce bit-identical
fits at O(nnz) work per epoch.  Lowering costs one pass over a dense input;
only a (near-)fully-voted matrix, where nnz ≈ m·n, would be scanned faster
densely.  The CD estimator lowers its input the same way: its minibatches
are CSR row gathers and its Gibbs chains run on their entries, so CD fits
do not depend on the input's form either.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.discriminative.adam import AdamOptimizer
from repro.exceptions import LabelModelError, NotFittedError
from repro.labeling.matrix import LabelMatrix
from repro.labeling.sparse import SparseLabelMatrix, lower_to_sparse
from repro.labelmodel.em import (
    ACCURACY_INIT,
    EMParams,
    TrainingHistory,
    accuracy_to_weights,
    build_entries,
    e_step,
    initial_prior,
    run_em,
    validate_label_values,
)
from repro.labelmodel.factor_graph import FactorGraphSpec
from repro.labelmodel.gibbs import GibbsSampler
from repro.labelmodel.kernels import (
    SamplerPlan,
    SamplerWorkspace,
    resolve_kernel,
    run_joint_chain,
)
from repro.types import NEGATIVE, POSITIVE, probs_to_labels
from repro.utils.mathutils import log_odds_to_accuracy, sigmoid
from repro.utils.rng import SeedLike, ensure_rng

class GenerativeModel:
    """Generative model over labeling functions (accuracies + correlations).

    Parameters
    ----------
    method:
        ``"em"`` (default) or ``"cd"``; see the module docstring.
    epochs:
        EM iterations, or passes over the label matrix for CD.
    step_size:
        CD learning rate (ignored by EM).
    batch_size:
        CD minibatch size (ignored by EM).
    reg_strength:
        CD ℓ2 pull toward the initial weights (ignored by EM).
    cd_sweeps:
        Gibbs sweeps per CD gradient step.
    class_balance:
        Optional known positive-class fraction.  When given, the class-prior
        weight is fixed at ``0.5·logit(class_balance)`` and applied to every
        row's posterior.  When ``None`` EM re-estimates the balance each
        iteration from the mean posterior (damped and clipped away from 0/1)
        and records the final value in ``class_prior_weight_``; the estimated
        prior calibrates only the rows with *no* votes — covered rows' vote
        scores already reflect the empirical balance, and shifting them by an
        explicit prior double-counts it (estimating from prior-shifted
        posteriors even runs away to a degenerate all-one-class solution on
        imbalanced tasks).  For CD the prior stays 0 unless a balance is
        supplied.  On categorical tasks pass a length-``k`` probability
        vector instead of a scalar; the same supplied-vs-estimated semantics
        apply, with the (damped, renormalized) estimate recorded in
        ``class_priors_``.
    cardinality:
        Number of classes.  ``None`` (default) reads it off a
        :class:`LabelMatrix` input and falls back to 2 for raw arrays; pass
        it explicitly when fitting raw categorical arrays.
    gibbs_kernel:
        Sampling kernel for the CD estimator's Gibbs chains (ignored by EM,
        which samples nothing): ``"auto"`` (the vectorized plan-based kernel
        of :mod:`repro.labelmodel.kernels`; the default), ``"vectorized"``,
        or ``"reference"`` (the exact per-column loop).  With the vectorized
        kernel the sampler plan is compiled once per fit and each minibatch
        derives its row view from it; the scratch workspace is likewise
        allocated once and reused across every epoch.
    seed:
        RNG seed (or generator) for reproducible Gibbs chains.
    """

    def __init__(
        self,
        method: str = "em",
        epochs: int = 30,
        step_size: float = 0.05,
        batch_size: int = 256,
        reg_strength: float = 0.05,
        cd_sweeps: int = 1,
        class_balance: Optional[float | Sequence[float]] = None,
        cardinality: Optional[int] = None,
        gibbs_kernel: str = "auto",
        seed: SeedLike = 0,
    ) -> None:
        if method not in ("em", "cd"):
            raise LabelModelError(f"method must be 'em' or 'cd', got {method!r}")
        if step_size <= 0:
            raise LabelModelError(f"step_size must be positive, got {step_size}")
        if cardinality is not None and cardinality < 2:
            raise LabelModelError(f"cardinality must be >= 2 when given, got {cardinality}")
        self.method = method
        self.epochs = epochs
        self.step_size = step_size
        self.batch_size = batch_size
        self.reg_strength = reg_strength
        self.cd_sweeps = cd_sweeps
        self.class_balance = class_balance
        self.cardinality = cardinality
        self.gibbs_kernel = resolve_kernel(gibbs_kernel)
        self.seed = seed

        self.spec: Optional[FactorGraphSpec] = None
        self.weights: Optional[np.ndarray] = None
        self.class_prior_weight_: float = 0.0
        #: Fitted class prior of a categorical task: a length-``k``
        #: probability vector (``None`` on binary tasks, which record the
        #: scalar ``class_prior_weight_`` instead).
        self.class_priors_: Optional[np.ndarray] = None
        self.history = TrainingHistory()
        self._em_params()  # validates the estimator hyper-parameters

    def _em_params(self) -> EMParams:
        return EMParams(epochs=self.epochs, class_balance=self.class_balance)

    # ------------------------------------------------------------------ fitting
    def fit(
        self,
        label_matrix: LabelMatrix | np.ndarray,
        correlations: Iterable[tuple[int, int]] = (),
    ) -> "GenerativeModel":
        """Fit the model to a label matrix, optionally with correlation pairs ``C``.

        Accepts dense arrays, dense- or sparse-backed :class:`LabelMatrix`
        wrappers, raw :class:`SparseLabelMatrix` storage, and scipy sparse
        matrices.  Both estimators train on the non-abstain entries only,
        whatever the input storage (see the module docstring).

        The label vocabulary follows the resolved cardinality (see the
        ``cardinality`` parameter): signed ``{-1, 0, +1}`` for binary tasks,
        ``{0, 1, .., k}`` for categorical ones.
        """
        cardinality = self._resolve_cardinality(label_matrix)
        storage = lower_to_sparse(label_matrix)
        shape = storage.shape
        if shape[0] == 0 or shape[1] == 0:
            raise LabelModelError(f"label matrix must be non-empty 2-D, got shape {shape}")
        validate_label_values(storage.data, cardinality)
        spec = FactorGraphSpec(
            num_lfs=shape[1], correlations=correlations, cardinality=cardinality
        )
        if self.method == "em":
            entries = build_entries(storage, spec.correlations, cardinality)
            accuracies, prior, self.history = run_em(entries, self._em_params())
            weights, class_prior = self._em_weights(
                spec, accuracies, prior, entries.pair_agreement
            )
        else:
            weights, class_prior = self._fit_cd(spec, storage)
        return self._install(spec, weights, class_prior, storage.col_nnz() / shape[0])

    def _resolve_cardinality(self, label_matrix) -> int:
        """Explicit ``cardinality`` wins; else a ``LabelMatrix``'s; else binary."""
        if self.cardinality is not None:
            return self.cardinality
        if isinstance(label_matrix, LabelMatrix):
            return label_matrix.cardinality
        return 2

    def _install(
        self,
        spec: FactorGraphSpec,
        weights: np.ndarray,
        class_prior: float | np.ndarray,
        coverage: Optional[np.ndarray],
    ) -> "GenerativeModel":
        """Publish a fitted state (the shared tail of every estimator).

        ``class_prior`` is the probability vector of a categorical task, the
        half-log-odds weight of a binary one; ``coverage`` (per-LF vote
        fraction), when given, fills in the propensity weights: they never
        affect the label posterior and are recorded so the joint model is
        fully parameterized.
        """
        if coverage is not None:
            coverage = np.clip(coverage, 1e-6, 1 - 1e-6)
            weights[spec.layout.propensity_slice] = 0.5 * np.log(coverage / (1.0 - coverage))
        categorical = spec.cardinality > 2
        self.spec = spec
        self.weights = weights
        self.class_prior_weight_ = 0.0 if categorical else float(class_prior)
        self.class_priors_ = np.asarray(class_prior, dtype=float) if categorical else None
        return self

    # --------------------------------------------------------------------- EM
    def _em_weights(
        self,
        spec: FactorGraphSpec,
        accuracies: np.ndarray,
        prior: float | np.ndarray,
        pair_agreement: Optional[np.ndarray],
    ) -> tuple[np.ndarray, float | np.ndarray]:
        """The weight vector and class prior of the given EM parameters.

        ``prior`` arrives in the kernel's encoding
        (:func:`repro.labelmodel.em.balance_prior`).  The correlation slots
        record each modeled pair's empirical agreement log-odds — EM uses
        the discount correction rather than these weights; they are recorded
        so the fitted joint model is inspectable.
        """
        weights = spec.initial_weights(accuracy_init=ACCURACY_INIT)
        weights[spec.layout.accuracy_slice] = accuracy_to_weights(accuracies, spec.cardinality)
        if pair_agreement is not None:
            agreement = np.clip(pair_agreement, 1e-3, 1 - 1e-3)
            weights[spec.layout.correlation_slice] = 0.5 * np.log(agreement / (1.0 - agreement))
        if spec.cardinality > 2:
            priors = np.exp(prior)
            prior = priors / priors.sum()
        return weights, prior

    @classmethod
    def from_em(
        cls,
        params: EMParams,
        spec: FactorGraphSpec,
        accuracies: np.ndarray,
        prior: float | np.ndarray,
        coverage: Optional[np.ndarray] = None,
        pair_agreement: Optional[np.ndarray] = None,
        history: Optional[TrainingHistory] = None,
        seed: SeedLike = 0,
    ) -> "GenerativeModel":
        """A fitted EM model assembled from kernel outputs (no training).

        How the online model materializes its drained and warm serving
        models; the arguments are those of :func:`repro.labelmodel.em.run_em`
        and its results.  ``coverage=None`` leaves the propensity weights
        unlearned.
        """
        model = cls(
            method="em",
            cardinality=spec.cardinality,
            seed=seed,
            **asdict(params),
        )
        if history is not None:
            model.history = history
        weights, class_prior = model._em_weights(spec, accuracies, prior, pair_agreement)
        return model._install(spec, weights, class_prior, coverage)

    # --------------------------------------------------------------------- CD
    def _fit_cd(
        self, spec: FactorGraphSpec, matrix: SparseLabelMatrix
    ) -> tuple[np.ndarray, float]:
        """The paper's SGD + Gibbs (contrastive divergence) estimator.

        Each minibatch is a CSR row gather, and the Gibbs sampler operates
        on its non-abstain entries only.  Categorical
        specs run the same ascent with the k-ary sampler and return the class
        prior as a probability vector instead of a half-log-odds scalar.

        Under the vectorized kernel the sampler plan (CSC layout, graph
        coloring, correlation alignments) is compiled once for the full
        matrix here — not per epoch, not per minibatch — and every batch's
        negative-phase chain runs on a row view derived from it
        (:meth:`SamplerPlan.select_rows`), against one shared workspace.
        """
        rng = ensure_rng(self.seed)
        sampler = GibbsSampler(spec, seed=rng, kernel=self.gibbs_kernel)
        if sampler.kernel == "vectorized":
            plan: Optional[SamplerPlan] = SamplerPlan.compile(spec, matrix)
            workspace: Optional[SamplerWorkspace] = SamplerWorkspace(plan)
        else:
            plan = workspace = None
        weights = spec.initial_weights(accuracy_init=ACCURACY_INIT)
        prior_weights = weights.copy()
        num_rows = matrix.shape[0]
        batch_size = min(self.batch_size, num_rows)
        history = TrainingHistory()
        class_prior = initial_prior(self.class_balance, spec.cardinality)
        if spec.cardinality > 2:
            # Half-log prior per class: the sampler exponentiates 2x, so this
            # reproduces the supplied balance (or stays uniform when unknown).
            class_prior = 0.5 * class_prior
        optimizer = AdamOptimizer(learning_rate=self.step_size)

        for _ in range(self.epochs):
            permutation = rng.permutation(num_rows)
            epoch_delta = 0.0
            for start in range(0, num_rows, batch_size):
                batch_rows = permutation[start : start + batch_size]
                batch = matrix.select_rows(batch_rows)
                batch_plan = plan.select_rows(batch_rows) if plan is not None else None
                gradient = self._cd_batch_gradient(
                    spec, sampler, weights, batch, class_prior, batch_plan, workspace
                )
                gradient -= self.reg_strength * (weights - prior_weights)
                # The estimator conditions on the abstention pattern, so the
                # propensity weights receive no gradient signal.
                gradient[spec.layout.propensity_slice] = 0.0
                new_weights = optimizer.step(weights, -gradient)
                # Non-adversarial, as EM's M-step: an LF is never learned inverted.
                accuracy_slice = spec.layout.accuracy_slice
                new_weights[accuracy_slice] = np.maximum(new_weights[accuracy_slice], 0.0)
                epoch_delta += float(np.abs(new_weights - weights).sum())
                weights = new_weights
            history.epochs += 1
            history.weight_deltas.append(epoch_delta)
            history.mean_accuracy_weights.append(
                float(weights[spec.layout.accuracy_slice].mean())
            )
        self.history = history
        if spec.cardinality > 2:
            priors = np.exp(2.0 * np.asarray(class_prior, dtype=float))
            return weights, priors / priors.sum()
        return weights, class_prior

    def _cd_batch_gradient(
        self,
        spec: FactorGraphSpec,
        sampler: GibbsSampler,
        weights: np.ndarray,
        batch: SparseLabelMatrix,
        class_prior: float | np.ndarray,
        batch_plan: Optional[SamplerPlan] = None,
        workspace: Optional[SamplerWorkspace] = None,
    ) -> np.ndarray:
        """Ascent direction ``E_data[φ] - E_model[φ]`` for one minibatch.

        With a ``batch_plan`` (a row view of the fit-level plan) the
        negative-phase chain runs through the vectorized kernels against the
        shared ``workspace``; otherwise it goes through the sampler's
        per-call path.
        """
        posteriors = sampler.label_posteriors(weights, batch, class_prior)
        # Factor vectors are inherently dense in the batch dimension; a
        # minibatch-sized densification is bounded by the batch size.
        batch_dense = batch.to_dense()
        if posteriors.ndim == 2:
            data_phase = np.zeros(spec.layout.size)
            for klass in range(1, spec.cardinality + 1):
                phi_klass = spec.factor_matrix(batch_dense, np.full(batch.shape[0], klass))
                data_phase += (posteriors[:, klass - 1, None] * phi_klass).sum(axis=0)
            data_phase /= batch.shape[0]
        else:
            phi_positive = spec.factor_matrix(batch_dense, np.full(batch.shape[0], POSITIVE))
            phi_negative = spec.factor_matrix(batch_dense, np.full(batch.shape[0], NEGATIVE))
            data_phase = (
                posteriors[:, None] * phi_positive
                + (1.0 - posteriors)[:, None] * phi_negative
            ).mean(axis=0)
        if batch_plan is not None:
            sampled_values, sampled_y = run_joint_chain(
                batch_plan,
                workspace,
                sampler.rng,
                weights,
                sweeps=self.cd_sweeps,
                class_prior_weight=class_prior,
            )
            # In the plan's own entry order: a derived plan keeps the fit-level
            # CSC order, not the (permuted) batch's.
            sampled_matrix = np.zeros(batch.shape, dtype=np.int64)
            sampled_matrix[batch_plan.entry_rows, batch_plan.entry_cols] = sampled_values
        else:
            sampled, sampled_y = sampler.sample_joint(
                weights, batch, sweeps=self.cd_sweeps, class_prior_weight=class_prior
            )
            sampled_matrix = sampled.to_dense()
        model_phase = spec.factor_matrix(sampled_matrix, sampled_y).mean(axis=0)
        return data_phase - model_phase

    # ---------------------------------------------------------------- inference
    def _require_fitted(self) -> tuple[FactorGraphSpec, np.ndarray]:
        if self.spec is None or self.weights is None:
            raise NotFittedError("GenerativeModel must be fit before inference")
        return self.spec, self.weights

    @property
    def accuracy_weights(self) -> np.ndarray:
        """Learned accuracy weights (the log-odds weights ``w_acc``)."""
        spec, weights = self._require_fitted()
        return weights[spec.layout.accuracy_slice].copy()

    def learned_accuracies(self) -> np.ndarray:
        """Implied labeling-function accuracies.

        Binary models: ``σ(2 w_acc_j)``.  Categorical models invert the
        symmetric parameterization: ``a_j = σ(2 w_acc_j - log(k - 1))``.
        """
        spec, _ = self._require_fitted()
        accuracy_weights = self.accuracy_weights
        if spec.cardinality == 2:
            return np.asarray(log_odds_to_accuracy(accuracy_weights))
        return 1.0 / (1.0 + (spec.cardinality - 1) * np.exp(-2.0 * accuracy_weights))

    def predict_proba(self, label_matrix: LabelMatrix | np.ndarray) -> np.ndarray:
        """Probabilistic training labels.

        Binary models return ``Ỹ_i = p_ŵ(y_i = +1 | Λ_i)``, shape ``(m,)``;
        categorical models return the posterior distribution over classes,
        shape ``(m, k)``.  Any input storage is scored over its non-abstain
        entries (EM models fold their correlation discounts in).  The class
        prior is applied per its provenance: a supplied balance is part of
        the model and shifts every row's posterior; an estimated balance
        only fills in the rows with no votes, whose posterior would
        otherwise be uninformative (see the ``class_balance`` parameter
        documentation).
        """
        spec, weights = self._require_fitted()
        storage = lower_to_sparse(label_matrix)
        if storage.shape[1] != spec.num_lfs:
            raise LabelModelError(
                f"label matrix has {storage.shape[1]} LFs, model was fit with {spec.num_lfs}"
            )
        entries = build_entries(
            storage, spec.correlations if self.method == "em" else (), spec.cardinality
        )
        lf_weights = weights[spec.layout.accuracy_slice]
        if spec.cardinality == 2:
            prior: float | np.ndarray = self.class_prior_weight_
            uncovered = sigmoid(2.0 * prior)
        else:
            uncovered = self.class_priors_
            prior = np.log(uncovered)
        if self.class_balance is not None:
            return e_step(entries, lf_weights, prior)[0]
        probabilities = e_step(entries, lf_weights)[0]
        probabilities[~entries.covered] = uncovered
        return probabilities

    def predict(
        self, label_matrix: LabelMatrix | np.ndarray, tie_value: int = NEGATIVE
    ) -> np.ndarray:
        """Hard labels from the probabilistic labels.

        Binary models return signed labels with ties going to ``tie_value``;
        categorical models return the argmax class in ``1..k``.
        """
        probabilities = self.predict_proba(label_matrix)
        if probabilities.ndim == 2:
            return probabilities.argmax(axis=1).astype(np.int64) + 1
        return probs_to_labels(probabilities, tie_value=tie_value)

    def score(
        self, label_matrix: LabelMatrix | np.ndarray, gold_labels: Sequence[int] | np.ndarray
    ) -> float:
        """Accuracy of the hard predictions against gold labels."""
        predictions = self.predict(label_matrix)
        gold = np.asarray(gold_labels)
        return float((predictions == gold).mean())
