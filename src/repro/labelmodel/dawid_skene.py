"""Dawid–Skene estimation of source accuracies via EM.

The paper's high-density analysis (Theorem 1) is stated for the symmetric
Dawid–Skene model, and the Crowd task treats each crowd worker as a labeling
function.  This module implements the classic Dawid & Skene (1979) EM
estimator for multi-class tasks with abstentions, with an optional symmetric
(single accuracy per worker) parameterization.  It serves two roles:

* the label model for the multi-class crowdsourcing task (Section 4.1.2),
* a related-work baseline for comparing against the factor-graph model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import LabelModelError, NotFittedError
from repro.labeling.matrix import LabelMatrix
from repro.labeling.sparse import as_dense_array
from repro.utils.rng import SeedLike, ensure_rng


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
        """Run EM on the label matrix."""
        matrix = self._recode_fit(as_dense_array(label_matrix))
        num_items, num_workers = matrix.shape
        k = self.cardinality
        rng = ensure_rng(self.seed)

        # Initialize posteriors from per-item vote fractions (majority vote soft start).
        posteriors = np.full((num_items, k), 1.0 / k)
        for klass in range(1, k + 1):
            posteriors[:, klass - 1] += (matrix == klass).sum(axis=1)
        posteriors /= posteriors.sum(axis=1, keepdims=True)

        confusion = np.zeros((num_workers, k, k))
        class_priors = np.full(k, 1.0 / k)
        for _ in range(self.max_iter):
            # M-step: class priors and per-worker confusion matrices.
            class_priors = posteriors.mean(axis=0)
            class_priors = np.clip(class_priors, 1e-12, None)
            class_priors /= class_priors.sum()
            for worker in range(num_workers):
                counts = np.full((k, k), self.smoothing)
                voted = matrix[:, worker] != 0
                votes = matrix[voted, worker] - 1
                counts_update = np.zeros((k, k))
                np.add.at(counts_update, (slice(None), votes), posteriors[voted].T)
                counts += counts_update
                confusion[worker] = counts / counts.sum(axis=1, keepdims=True)
            if self.symmetric:
                confusion = self._symmetrize(confusion)

            # E-step: posterior over the true class per item.
            log_posterior = np.log(class_priors)[None, :].repeat(num_items, axis=0)
            for worker in range(num_workers):
                voted = matrix[:, worker] != 0
                votes = matrix[voted, worker] - 1
                log_posterior[voted] += np.log(
                    np.clip(confusion[worker][:, votes].T, 1e-12, None)
                )
            shifted = log_posterior - log_posterior.max(axis=1, keepdims=True)
            new_posteriors = np.exp(shifted)
            new_posteriors /= new_posteriors.sum(axis=1, keepdims=True)

            delta = float(np.abs(new_posteriors - posteriors).mean())
            posteriors = new_posteriors
            if delta < self.tol:
                break

        self.class_priors = class_priors
        self.confusion = confusion
        self.posteriors_ = posteriors
        return self

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

    def _recode_fit(self, matrix: np.ndarray) -> np.ndarray:
        """Decide the label encoding at fit time and recode accordingly.

        Signed binary ``{-1, 0, +1}`` matrices set ``_binary_recode`` and are
        mapped to ``{0, 1, 2}``; categorical matrices pass through.  The
        decision is remembered so held-out matrices are recoded the same way
        (see :meth:`_apply_recode`).
        """
        if matrix.min() < 0:
            if self.cardinality != 2:
                raise LabelModelError(
                    "negative labels are only supported for binary (cardinality=2) tasks"
                )
            self._binary_recode = True
        else:
            self._binary_recode = False
        return self._apply_recode(matrix)

    def _apply_recode(self, matrix: np.ndarray) -> np.ndarray:
        """Recode a matrix under the encoding fixed at fit time.

        Regression guard: re-deciding the encoding per matrix misindexes
        classes — a held-out signed matrix with no negative entries (e.g.
        abstains and positives only) would be read as categorical, sending
        the ``+1`` votes to class 1 (which the fitted confusion matrices
        learned as the *negative* class).
        """
        if self._binary_recode:
            if matrix.size and (matrix.min() < -1 or matrix.max() > 1):
                raise LabelModelError(
                    "model was fit on signed binary labels; expected values in "
                    f"{{-1, 0, +1}}, got range [{int(matrix.min())}, {int(matrix.max())}]"
                )
            recoded = np.zeros_like(matrix)
            recoded[matrix == -1] = 1
            recoded[matrix == 1] = 2
            return recoded
        if matrix.size and (matrix.min() < 0 or matrix.max() > self.cardinality):
            raise LabelModelError(
                f"model was fit on categorical labels in 0..{self.cardinality}, got "
                f"range [{int(matrix.min())}, {int(matrix.max())}]"
            )
        return matrix

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
        matrix = self._apply_recode(as_dense_array(label_matrix))
        num_items = matrix.shape[0]
        log_posterior = np.log(np.clip(self.class_priors, 1e-12, None))[None, :].repeat(
            num_items, axis=0
        )
        for worker in range(matrix.shape[1]):
            voted = matrix[:, worker] != 0
            votes = matrix[voted, worker] - 1
            log_posterior[voted] += np.log(
                np.clip(self.confusion[worker][:, votes].T, 1e-12, None)
            )
        shifted = log_posterior - log_posterior.max(axis=1, keepdims=True)
        posterior = np.exp(shifted)
        return posterior / posterior.sum(axis=1, keepdims=True)

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
