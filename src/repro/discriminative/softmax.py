"""Noise-aware multi-class softmax regression.

The end model of every task with more than two classes: the pipeline builds
it for any cardinality above 2 (the Crowd sentiment task's five classes, the
k-ary streams), and minimizes the expected cross-entropy against the label
model's posterior over classes — the multi-class analogue of the binary
noise-aware loss.

Training — ``fit``, ``fit_stream``, epoch checkpointing — is the shared
trainer of :class:`repro.discriminative.base.NoiseAwareClassifier`; this
module supplies the ``(d, k)`` weight matrix and bias packed as one vector,
the distribution-valued targets and the minibatch gradient.  The gradient
densifies the one minibatch it is handed (a CSR row range becomes a
``(rows, d)`` array), so CSR inputs and block streams train without a dense
``(m, d)`` matrix existing at any point; it views the weights and bias as
slices of the packed vector, as :meth:`NoiseAwareSoftmaxRegression._publish`
does.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.discriminative.base import Batch, FeatureBlock, NoiseAwareClassifier
from repro.discriminative.sparse_features import as_dense_features
from repro.exceptions import ConfigurationError, NotFittedError
from repro.utils.mathutils import softmax
from repro.utils.rng import SeedLike


class NoiseAwareSoftmaxRegression(NoiseAwareClassifier):
    """Multi-class linear classifier trained on soft label distributions.

    Training targets may be a ``(m, num_classes)`` distribution matrix or a
    vector of hard class labels in ``1..num_classes`` (converted to one-hot
    distributions).

    Parameters
    ----------
    num_classes:
        Number of classes; predictions are in ``1..num_classes``.
    epochs, batch_size, learning_rate, reg_strength, shuffle, seed:
        The shared trainer's hyperparameters (see
        :class:`~repro.discriminative.base.NoiseAwareClassifier`).
    """

    def __init__(
        self,
        num_classes: int,
        epochs: int = 60,
        batch_size: int = 64,
        learning_rate: float = 0.05,
        reg_strength: float = 1e-4,
        shuffle: Optional[bool] = None,
        seed: SeedLike = 0,
    ) -> None:
        if num_classes < 2:
            raise ConfigurationError(f"num_classes must be >= 2, got {num_classes}")
        super().__init__(epochs, batch_size, learning_rate, reg_strength, shuffle, seed)
        self.num_classes = num_classes
        self.weights: Optional[np.ndarray] = None
        self.bias: Optional[np.ndarray] = None

    def _canonical_targets(self, labels: np.ndarray) -> np.ndarray:
        targets = np.asarray(labels, dtype=float)
        if targets.ndim == 1:
            if targets.size == 0:
                return np.zeros((0, self.num_classes))
            classes = targets.astype(int)
            if classes.min() < 1 or classes.max() > self.num_classes:
                raise ConfigurationError(
                    f"hard labels must lie in 1..{self.num_classes}, got range "
                    f"[{classes.min()}, {classes.max()}]"
                )
            one_hot = np.zeros((classes.size, self.num_classes))
            one_hot[np.arange(classes.size), classes - 1] = 1.0
            return one_hot
        if targets.ndim != 2 or targets.shape[1] != self.num_classes:
            raise ConfigurationError(
                f"soft labels must have shape (m, {self.num_classes}), got {targets.shape}"
            )
        if targets.size and not (targets.min() >= 0.0 and targets.max() < np.inf):
            raise ConfigurationError("soft label distributions must be finite and >= 0")
        row_sums = targets.sum(axis=1, keepdims=True)
        return targets / np.clip(row_sums, 1e-12, None)

    def _init_params(self, rng: np.random.Generator, num_features: int) -> np.ndarray:
        weights = rng.normal(scale=0.01, size=(num_features, self.num_classes))
        return np.concatenate([weights.ravel(), np.zeros(self.num_classes)])

    def _unpack(self, packed: np.ndarray, num_features: int) -> tuple[np.ndarray, np.ndarray]:
        split = num_features * self.num_classes
        return packed[:split].reshape(num_features, self.num_classes), packed[split:]

    def _gradients(
        self,
        packed: np.ndarray,
        batch: Batch,
        gradient: np.ndarray,
        rng: np.random.Generator,
    ) -> float:
        features, targets, _, weights, rows = batch
        dense = as_dense_features(features)
        shape = dense.shape[1], self.num_classes
        split = shape[0] * shape[1]  # the packed layout of ``_unpack``, taken inline
        coefficients, bias = packed[:split].reshape(shape), packed[split:]
        grad_coefficients, grad_bias = gradient[:split].reshape(shape), gradient[split:]
        probs = softmax(dense @ coefficients + bias, axis=1)
        errors = probs - targets
        if weights is not None:
            errors *= weights[:, None]
        errors /= rows
        np.add(dense.T @ errors, self.reg_strength * coefficients, out=grad_coefficients)
        np.add.reduce(errors, 0, out=grad_bias)
        losses = -np.add.reduce(targets * np.log(np.maximum(probs, 1e-9)), 1)
        return float(np.add.reduce(losses if weights is None else losses * weights))

    def _publish(self, packed: np.ndarray, num_features: int) -> None:
        self.weights, self.bias = self._unpack(packed, num_features)

    def predict_proba(self, features: FeatureBlock) -> np.ndarray:
        """Per-class probabilities for a feature matrix."""
        if self.weights is None or self.bias is None:
            raise NotFittedError("NoiseAwareSoftmaxRegression must be fit before predicting")
        features = as_dense_features(features)
        return softmax(features @ self.weights + self.bias, axis=1)

    def predict(self, features: FeatureBlock) -> np.ndarray:
        """Hard class predictions in ``1..num_classes``."""
        return self.predict_proba(features).argmax(axis=1) + 1
