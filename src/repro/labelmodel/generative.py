"""The generative label model trained without ground truth.

``GenerativeModel`` implements the paper's Section 2.2 model: the joint
``p_w(Λ, Y) = Z_w^{-1} exp(Σ_i wᵀ φ_i(Λ_i, y_i))`` over labeling-function
outputs and latent labels, with labeling-propensity, accuracy, and pairwise
correlation factors.  It is fit by expectation–maximization on the
marginal likelihood of the observed votes.  Only the accuracy factor
involves ``y``, so the label posterior ``P(y_i | Λ_i, w)`` is closed form
and the fit is one accuracy weight per labeling function: the E-step
computes the exact posterior, the M-step re-estimates each labeling
function's accuracy from its expected agreement with the latent label.  The
propensity factor cancels out of every posterior and is not fit.  Modeled
correlations carry no weight; they act as an explicit double-counting
correction: when computing the posterior, each LF's weight is divided by one
plus the number of its modeled correlation partners that cast the same vote
on that data point, so a family of near-duplicate LFs counts roughly once
(this resolves the paper's Example 3.1 pathology).  The source system's
``gen_learning.py`` likewise keeps one weight per LF.  The paper trains by
stochastic gradient steps interleaved with Gibbs sampling; here the exact
E-step stands in for the sampled one (as in ``gen_learning.py``, whose
``sample`` flag defaults to ``False``), so a fit draws nothing and is
deterministic.

A fitted model is its canonical correlation pairs (``correlations_``), its
cardinality (``cardinality_``), its class prior and its ``(n,)``
accuracy-factor weights (``weights``).

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

**Storage.**  ``fit`` and ``predict_proba`` run on the non-abstain
``(row, column, value)`` triples of Λ only: every accepted input — dense
array, dense- or sparse-backed :class:`repro.labeling.LabelMatrix`, raw
:class:`repro.labeling.sparse.SparseLabelMatrix`, scipy sparse matrix — is
lowered to CSR storage at the boundary and handed to the kernel in
:mod:`repro.labelmodel.em` (the same kernel the online model folds chunks
with), so a dense input and its ``to_sparse()`` twin produce bit-identical
fits at O(nnz) work per epoch.  Lowering costs one pass over a dense input;
only a (near-)fully-voted matrix, where nnz ≈ m·n, would be scanned faster
densely.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import LabelModelError, NotFittedError
from repro.labeling.matrix import LabelMatrix
from repro.labeling.sparse import lower_to_sparse
from repro.labelmodel.em import (
    EMParams,
    TrainingHistory,
    accuracy_to_weights,
    build_entries,
    canonical_pairs,
    e_step,
    run_em,
    validate_label_values,
)
from repro.types import NEGATIVE, probs_to_labels
from repro.utils.mathutils import log_odds_to_accuracy, sigmoid
from repro.utils.rng import SeedLike

class GenerativeModel:
    """Generative model over labeling functions (accuracies + correlations).

    Parameters
    ----------
    epochs:
        EM iterations.
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
        imbalanced tasks).  On categorical tasks pass a length-``k``
        probability vector instead of a scalar; the same supplied-vs-estimated
        semantics apply, with the (damped, renormalized) estimate recorded in
        ``class_priors_``.
    cardinality:
        Number of classes.  ``None`` (default) reads it off a
        :class:`LabelMatrix` input and falls back to 2 for raw arrays; pass
        it explicitly when fitting raw categorical arrays.
    seed:
        Accepted and ignored: EM draws nothing.  Kept only because the
        end-to-end benchmark passes it.
    step_size, gibbs_kernel:
        Accepted and ignored, with no effect on the fit: EM takes no
        gradient step and runs no sampler.  Kept only because the end-to-end
        benchmark's traced pipeline passes both.
    """

    def __init__(
        self,
        epochs: int = 30,
        class_balance: Optional[float | Sequence[float]] = None,
        cardinality: Optional[int] = None,
        seed: SeedLike = 0,
        step_size: float = 0.05,
        gibbs_kernel: str = "auto",
    ) -> None:
        if cardinality is not None and cardinality < 2:
            raise LabelModelError(f"cardinality must be >= 2 when given, got {cardinality}")
        self.epochs = epochs
        self.class_balance = class_balance
        self.cardinality = cardinality

        #: The modeled correlation pairs, canonical (see ``canonical_pairs``).
        self.correlations_: list[tuple[int, int]] = []
        self.cardinality_: Optional[int] = None
        #: The ``(n,)`` accuracy-factor weights ``w_acc``.
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
        matrices.  The fit reads the non-abstain entries only, whatever the
        input storage (see the module docstring).

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
        pairs = canonical_pairs(correlations, shape[1])
        entries = build_entries(storage, pairs, cardinality)
        accuracies, prior, self.history = run_em(entries, self._em_params())
        return self._install(pairs, cardinality, accuracies, prior)

    def _resolve_cardinality(self, label_matrix) -> int:
        """Explicit ``cardinality`` wins; else a ``LabelMatrix``'s; else binary."""
        if self.cardinality is not None:
            return self.cardinality
        if isinstance(label_matrix, LabelMatrix):
            return label_matrix.cardinality
        return 2

    def _install(
        self,
        correlations: list[tuple[int, int]],
        cardinality: int,
        accuracies: np.ndarray,
        prior: float | np.ndarray,
    ) -> "GenerativeModel":
        """Publish a fitted state (the shared tail of ``fit`` and ``from_em``).

        ``prior`` arrives in the kernel's encoding
        (:func:`repro.labelmodel.em.balance_prior`); a categorical task
        publishes it as a probability vector, a binary one as the
        half-log-odds weight.
        """
        self.correlations_ = correlations
        self.cardinality_ = cardinality
        self.weights = accuracy_to_weights(accuracies, cardinality)
        if cardinality > 2:
            priors = np.exp(prior)
            self.class_prior_weight_, self.class_priors_ = 0.0, priors / priors.sum()
        else:
            self.class_prior_weight_, self.class_priors_ = float(prior), None
        return self

    @classmethod
    def from_em(
        cls,
        params: EMParams,
        correlations: list[tuple[int, int]],
        cardinality: int,
        accuracies: np.ndarray,
        prior: float | np.ndarray,
        history: Optional[TrainingHistory] = None,
    ) -> "GenerativeModel":
        """A fitted EM model assembled from kernel outputs (no training).

        How the online model materializes its drained and warm serving
        models; ``correlations`` are canonical pairs and the rest are the
        arguments of :func:`repro.labelmodel.em.run_em` and its results.
        """
        model = cls(cardinality=cardinality, **asdict(params))
        if history is not None:
            model.history = history
        return model._install(correlations, cardinality, accuracies, prior)

    # ---------------------------------------------------------------- inference
    def _require_fitted(self) -> np.ndarray:
        if self.weights is None:
            raise NotFittedError("GenerativeModel must be fit before inference")
        return self.weights

    @property
    def accuracy_weights(self) -> np.ndarray:
        """Learned accuracy weights (the log-odds weights ``w_acc``)."""
        return self._require_fitted().copy()

    def learned_accuracies(self) -> np.ndarray:
        """Implied labeling-function accuracies.

        Binary models: ``σ(2 w_acc_j)``.  Categorical models invert the
        symmetric parameterization: ``a_j = σ(2 w_acc_j - log(k - 1))``.
        """
        weights = self._require_fitted()
        if self.cardinality_ == 2:
            return np.asarray(log_odds_to_accuracy(weights))
        return 1.0 / (1.0 + (self.cardinality_ - 1) * np.exp(-2.0 * weights))

    def predict_proba(self, label_matrix: LabelMatrix | np.ndarray) -> np.ndarray:
        """Probabilistic training labels.

        Binary models return ``Ỹ_i = p_ŵ(y_i = +1 | Λ_i)``, shape ``(m,)``;
        categorical models return the posterior distribution over classes,
        shape ``(m, k)``.  Any input storage is scored over its non-abstain
        entries, with the correlation discounts folded in.  The class
        prior is applied per its provenance: a supplied balance is part of
        the model and shifts every row's posterior; an estimated balance
        only fills in the rows with no votes, whose posterior would
        otherwise be uninformative (see the ``class_balance`` parameter
        documentation).
        """
        weights = self._require_fitted()
        storage = lower_to_sparse(label_matrix)
        if storage.shape[1] != weights.size:
            raise LabelModelError(
                f"label matrix has {storage.shape[1]} LFs, model was fit with {weights.size}"
            )
        entries = build_entries(storage, self.correlations_, self.cardinality_)
        if self.cardinality_ == 2:
            prior: float | np.ndarray = self.class_prior_weight_
            uncovered = sigmoid(2.0 * prior)
        else:
            uncovered = self.class_priors_
            prior = np.log(uncovered)
        if self.class_balance is not None:
            return e_step(entries, weights, prior)[0]
        probabilities = e_step(entries, weights)[0]
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
