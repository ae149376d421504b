"""Dawid–Skene estimation of source accuracies via EM.

The paper's high-density analysis (Theorem 1) is stated for the symmetric
Dawid–Skene model, and the Crowd task treats each crowd worker as a labeling
function.  This module implements the classic Dawid & Skene (1979) EM
estimator for multi-class tasks with abstentions, with an optional symmetric
(single accuracy per worker) parameterization.  It serves two roles:

* the label model for the multi-class crowdsourcing task (Section 4.1.2),
* a related-work baseline for comparing against the generative model.

Like every other label model it lowers its input through
:func:`repro.labeling.sparse.lower_to_sparse` and reads each worker's
``(items, votes)`` from the column-major view of the non-abstain entries, so
dense and CSR inputs give identical fits at O(votes) per EM iteration.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import LabelModelError, NotFittedError
from repro.labeling.matrix import LabelMatrix
from repro.labeling.sparse import lower_to_sparse
from repro.utils.rng import SeedLike


class DawidSkeneModel:
    """EM estimator of worker confusion matrices and latent class posteriors.

    The label matrix uses ``0`` for abstentions and classes ``1..cardinality``
    otherwise.  Binary ``{-1, +1}`` matrices are accepted and recoded
    transparently (``-1 → 1``, ``+1 → 2``) so the same class can back binary
    crowd tasks.

    Parameters
    ----------
    cardinality:
        Number of classes.
    max_iter:
        Maximum EM iterations.
    tol:
        Convergence threshold on the mean absolute change of the posteriors.
    smoothing:
        Additive (Laplace) smoothing applied to confusion-matrix counts.
    symmetric:
        If ``True``, each worker is modeled by a single accuracy (uniform
        error across wrong classes) — the symmetric Dawid–Skene model of the
        paper's Theorem 1.
    """

    def __init__(
        self,
        cardinality: int,
        max_iter: int = 100,
        tol: float = 1e-5,
        smoothing: float = 0.01,
        symmetric: bool = False,
        seed: SeedLike = 0,
    ) -> None:
        if cardinality < 2:
            raise LabelModelError(f"cardinality must be >= 2, got {cardinality}")
        self.cardinality = cardinality
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.symmetric = symmetric
        self.seed = seed
        self.class_priors: Optional[np.ndarray] = None
        self.confusion: Optional[np.ndarray] = None  # (num_workers, K, K)
        self.posteriors_: Optional[np.ndarray] = None
        self._binary_recode = False

    # ------------------------------------------------------------------ fitting
    def fit(self, label_matrix: LabelMatrix | np.ndarray) -> "DawidSkeneModel":
        """Run EM on the label matrix (any form :func:`lower_to_sparse` takes)."""
        num_items, workers = self._worker_votes(label_matrix, fitting=True)
        num_workers = len(workers)
        k = self.cardinality

        # Initialize posteriors from per-item vote fractions (majority vote soft start).
        vote_counts = np.zeros((num_items, k))
        for rows, votes in workers:
            vote_counts[rows, votes] += 1.0  # a worker votes at most once per item
        posteriors = 1.0 / k + vote_counts
        posteriors /= posteriors.sum(axis=1, keepdims=True)

        confusion = np.zeros((num_workers, k, k))
        class_priors = np.full(k, 1.0 / k)
        for _ in range(self.max_iter):
            # M-step: class priors and per-worker confusion matrices.
            class_priors = posteriors.mean(axis=0)
            class_priors = np.clip(class_priors, 1e-12, None)
            class_priors /= class_priors.sum()
            for worker, (rows, votes) in enumerate(workers):
                counts = np.full((k, k), self.smoothing)
                counts_update = np.zeros((k, k))
                np.add.at(counts_update, (slice(None), votes), posteriors[rows].T)
                counts += counts_update
                confusion[worker] = counts / counts.sum(axis=1, keepdims=True)
            if self.symmetric:
                confusion = self._symmetrize(confusion)

            new_posteriors = self._e_step(num_items, workers, np.log(class_priors), confusion)
            delta = float(np.abs(new_posteriors - posteriors).mean())
            posteriors = new_posteriors
            if delta < self.tol:
                break

        self.class_priors = class_priors
        self.confusion = confusion
        self.posteriors_ = posteriors
        return self

    @staticmethod
    def _e_step(
        num_items: int,
        workers: list[tuple[np.ndarray, np.ndarray]],
        log_priors: np.ndarray,
        confusion: np.ndarray,
    ) -> np.ndarray:
        """Posterior over the true class per item, given every worker's votes."""
        log_posterior = log_priors[None, :].repeat(num_items, axis=0)
        for worker, (rows, votes) in enumerate(workers):
            log_posterior[rows] += np.log(np.clip(confusion[worker][:, votes].T, 1e-12, None))
        shifted = log_posterior - log_posterior.max(axis=1, keepdims=True)
        posteriors = np.exp(shifted)
        posteriors /= posteriors.sum(axis=1, keepdims=True)
        return posteriors

    def _symmetrize(self, confusion: np.ndarray) -> np.ndarray:
        """Collapse each worker's confusion matrix to a single accuracy."""
        k = self.cardinality
        symmetric = np.empty_like(confusion)
        for worker in range(confusion.shape[0]):
            accuracy = float(np.mean(np.diag(confusion[worker])))
            off_diagonal = (1.0 - accuracy) / (k - 1)
            symmetric[worker] = np.full((k, k), off_diagonal)
            np.fill_diagonal(symmetric[worker], accuracy)
        return symmetric

    def _worker_votes(
        self, label_matrix, fitting: bool
    ) -> tuple[int, list[tuple[np.ndarray, np.ndarray]]]:
        """``(num_items, [(item rows, 0-based class votes) per worker])``.

        Read off the column-major view of Λ's non-abstain entries, so a
        worker costs its own votes, not a scan of every item.  The label
        encoding is decided at fit time and remembered: a signed binary
        ``{-1, +1}`` matrix sets ``_binary_recode`` and votes map to classes
        ``{0, 1}``; categorical votes ``1..k`` map to ``0..k-1``.

        Regression guard: re-deciding the encoding per matrix misindexes
        classes — a held-out signed matrix with no negative entries (e.g.
        abstains and positives only) would be read as categorical, sending
        the ``+1`` votes to class 1 (which the fitted confusion matrices
        learned as the *negative* class).
        """
        storage = lower_to_sparse(label_matrix)
        col_indptr, rows, values = storage.csc()
        low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
        if fitting:
            self._binary_recode = low < 0
            if self._binary_recode and self.cardinality != 2:
                raise LabelModelError(
                    "negative labels are only supported for binary (cardinality=2) tasks"
                )
        if self._binary_recode:
            if low < -1 or high > 1:
                raise LabelModelError(
                    "model was fit on signed binary labels; expected values in "
                    f"{{-1, 0, +1}}, got range [{low}, {high}]"
                )
            votes = (values + 1) // 2
        else:
            if low < 0 or high > self.cardinality:
                raise LabelModelError(
                    f"model was fit on categorical labels in 0..{self.cardinality}, got "
                    f"range [{low}, {high}]"
                )
            votes = values - 1
        bounds = col_indptr.tolist()
        return storage.shape[0], [
            (rows[lo:hi], votes[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        ]

    # ---------------------------------------------------------------- inference
    def _require_fitted(self) -> np.ndarray:
        if self.posteriors_ is None or self.confusion is None:
            raise NotFittedError("DawidSkeneModel must be fit before inference")
        return self.posteriors_

    def predict_proba(self, label_matrix: Optional[LabelMatrix | np.ndarray] = None) -> np.ndarray:
        """Posterior class probabilities (rows sum to one).

        With no argument, the training-set posteriors are returned.  With a
        new label matrix, posteriors are computed under the fitted confusion
        matrices and class priors; it is recoded under the encoding fixed at
        fit time, so a signed held-out matrix scores against the same class
        indexing the model was trained with.
        """
        if label_matrix is None:
            return self._require_fitted().copy()
        self._require_fitted()
        num_items, workers = self._worker_votes(label_matrix, fitting=False)
        log_priors = np.log(np.clip(self.class_priors, 1e-12, None))
        return self._e_step(num_items, workers, log_priors, self.confusion)

    def predict(self, label_matrix: Optional[LabelMatrix | np.ndarray] = None) -> np.ndarray:
        """Hard class predictions.

        Multi-class tasks return classes ``1..cardinality``; binary tasks that
        were recoded return labels in ``{-1, +1}``.
        """
        posterior = self.predict_proba(label_matrix)
        classes = posterior.argmax(axis=1) + 1
        if self._binary_recode:
            return np.where(classes == 2, 1, -1).astype(np.int64)
        return classes.astype(np.int64)

    def worker_accuracies(self) -> np.ndarray:
        """Mean diagonal of each worker's confusion matrix (overall accuracy)."""
        self._require_fitted()
        return np.array([float(np.mean(np.diag(c))) for c in self.confusion])
