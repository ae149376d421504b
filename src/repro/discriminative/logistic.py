"""Noise-aware logistic regression trained with Adam.

The workhorse end model for the relation-extraction tasks: a linear model
over :class:`repro.discriminative.featurizers.RelationFeaturizer` features,
trained by minimizing the expected logistic loss against the probabilistic
labels produced by the generative model.

Training — ``fit`` on a materialized matrix, ``fit_stream`` on a block
stream, epoch checkpointing — is the shared trainer of
:class:`repro.discriminative.base.NoiseAwareClassifier`; this module supplies
the linear model's parameters, its minibatch gradient (sparse-capable: a CSR
minibatch is never densified) and the optional class re-balancing.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.discriminative.base import (
    Batch,
    FeatureBlock,
    NoiseAwareClassifier,
    as_soft_labels,
    weighted_log_loss,
)
from repro.discriminative.sparse_features import as_float_features
from repro.exceptions import NotFittedError
from repro.utils.mathutils import sigmoid
from repro.utils.rng import SeedLike


class NoiseAwareLogisticRegression(NoiseAwareClassifier):
    """ℓ2-regularized logistic regression on soft labels.

    Parameters
    ----------
    epochs, batch_size, learning_rate, reg_strength, shuffle, seed:
        The shared trainer's hyperparameters (see
        :class:`~repro.discriminative.base.NoiseAwareClassifier`).
    class_balance:
        Optional re-weighting: when set, positive-leaning examples are scaled
        so the effective positive mass matches this fraction.  Useful for the
        heavily imbalanced tasks (e.g. Chem at ~4% positive).  The positive
        mass is a whole-dataset statistic, so :meth:`fit_stream` spends one
        extra pass over the stream on it.
    """

    def __init__(
        self,
        epochs: int = 50,
        batch_size: int = 128,
        learning_rate: float = 0.01,
        reg_strength: float = 1e-4,
        class_balance: Optional[float] = None,
        shuffle: Optional[bool] = None,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__(epochs, batch_size, learning_rate, reg_strength, shuffle, seed)
        self.class_balance = class_balance
        self.weights: Optional[np.ndarray] = None
        self.bias: float = 0.0
        self._balance_scales: Optional[tuple[float, float]] = None

    def _canonical_targets(self, labels: Sequence[float] | np.ndarray) -> np.ndarray:
        return as_soft_labels(labels)

    def _observe_targets(self, target_blocks: Iterable[np.ndarray]) -> None:
        """Positive/negative loss scales that move the global positive mass
        of the targets to ``class_balance``."""
        self._balance_scales = None
        if self.class_balance is None:
            return
        total, count = 0.0, 0
        for soft in target_blocks:
            total += float(soft.sum())
            count += soft.size
        positive_mass = total / count if count else 0.0
        if 0.0 < positive_mass < 1.0:
            self._balance_scales = (
                self.class_balance / positive_mass,
                (1.0 - self.class_balance) / (1.0 - positive_mass),
            )

    def _init_params(self, rng: np.random.Generator, num_features: int) -> np.ndarray:
        return np.concatenate([rng.normal(scale=0.01, size=num_features), [0.0]])

    def _gradients(
        self,
        packed: np.ndarray,
        batch: Batch,
        gradient: np.ndarray,
        rng: np.random.Generator,
    ) -> float:
        features, soft, complement, weights, rows = batch
        coefficients = packed[:-1]
        if self._balance_scales is not None:
            positive_scale, negative_scale = self._balance_scales
            scales = soft * positive_scale + complement * negative_scale
            weights = scales if weights is None else weights * scales
        probs = sigmoid(features @ coefficients + packed[-1])
        errors = probs - soft
        if weights is not None:
            errors *= weights
        grad_coefficients = gradient[:-1]
        np.divide(features.T @ errors, rows, out=grad_coefficients)
        grad_coefficients += self.reg_strength * coefficients
        gradient[-1] = errors.sum() / rows
        return weighted_log_loss(probs, soft, complement, weights)

    def _publish(self, packed: np.ndarray, num_features: int) -> None:
        self.weights = packed[:-1]
        self.bias = float(packed[-1])

    def predict_proba(self, features: FeatureBlock) -> np.ndarray:
        """Positive-class probabilities for a feature matrix."""
        if self.weights is None:
            raise NotFittedError("NoiseAwareLogisticRegression must be fit before predicting")
        features = as_float_features(features)
        return np.asarray(sigmoid(features @ self.weights + self.bias))
