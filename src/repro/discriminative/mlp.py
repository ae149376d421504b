"""A small noise-aware multi-layer perceptron.

Serves as the "more expressive end model" option (the paper's LSTM / ResNet
role): one or two hidden layers of ReLU units trained with Adam on the
noise-aware cross-entropy.  Implemented directly in numpy with manual
backpropagation.

Training — ``fit``, ``fit_stream``, epoch checkpointing — is the shared
trainer of :class:`repro.discriminative.base.NoiseAwareClassifier`; this
module supplies the layer parameters and their packing, backpropagation over
one (densified) minibatch, and input dropout.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.discriminative.base import (
    Batch,
    FeatureBlock,
    NoiseAwareClassifier,
    as_soft_labels,
    weighted_log_loss,
)
from repro.discriminative.sparse_features import as_dense_features
from repro.exceptions import ConfigurationError, NotFittedError
from repro.utils.mathutils import sigmoid
from repro.utils.rng import SeedLike

Layers = list[tuple[np.ndarray, np.ndarray]]


class NoiseAwareMLP(NoiseAwareClassifier):
    """Feed-forward ReLU network with a sigmoid output, trained on soft labels.

    Parameters
    ----------
    hidden_sizes:
        Sizes of the hidden layers, e.g. ``(64,)`` or ``(128, 32)``.
    epochs, batch_size, learning_rate, reg_strength, shuffle, seed:
        The shared trainer's hyperparameters (see
        :class:`~repro.discriminative.base.NoiseAwareClassifier`).
    dropout:
        Input dropout probability applied during training only.  Dropout
        draws from the RNG every minibatch, so a fit with ``dropout > 0``
        cannot be epoch-checkpointed: a resumed fit could not replay draws
        that died with the original process.
    """

    def __init__(
        self,
        hidden_sizes: Sequence[int] = (64,),
        epochs: int = 60,
        batch_size: int = 128,
        learning_rate: float = 0.005,
        reg_strength: float = 1e-4,
        dropout: float = 0.0,
        shuffle: Optional[bool] = None,
        seed: SeedLike = 0,
    ) -> None:
        if not hidden_sizes or any(size <= 0 for size in hidden_sizes):
            raise ConfigurationError(f"hidden_sizes must be positive, got {hidden_sizes}")
        if not 0.0 <= dropout < 1.0:
            raise ConfigurationError(f"dropout must lie in [0, 1), got {dropout}")
        super().__init__(epochs, batch_size, learning_rate, reg_strength, shuffle, seed)
        self.hidden_sizes = tuple(int(size) for size in hidden_sizes)
        self.dropout = dropout
        self._layers: Optional[Layers] = None

    def _canonical_targets(self, labels: Sequence[float] | np.ndarray) -> np.ndarray:
        return as_soft_labels(labels)

    def _require_resumable(self) -> None:
        if self.dropout > 0.0:
            raise ConfigurationError(
                "epoch checkpointing requires dropout=0.0: dropout consumes "
                "RNG state per minibatch, so a resumed fit cannot reproduce "
                "the interrupted run's draws"
            )

    def _init_params(self, rng: np.random.Generator, num_features: int) -> np.ndarray:
        layer_sizes = [num_features, *self.hidden_sizes, 1]
        layers = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            layers.append((rng.normal(scale=scale, size=(fan_in, fan_out)), np.zeros(fan_out)))
        return self._pack(layers)

    def _gradients(
        self,
        packed: np.ndarray,
        batch: Batch,
        gradient: np.ndarray,
        rng: np.random.Generator,
    ) -> float:
        features, soft, complement, weights, rows = batch
        dense = as_dense_features(features)
        if self.dropout > 0.0:
            mask = rng.random(dense.shape) >= self.dropout
            dense = dense * mask / (1.0 - self.dropout)
        layers = self._unpack(packed, dense.shape[1])
        activations = [dense]
        pre_activations = []
        hidden = dense
        for index, (weight, bias) in enumerate(layers):
            linear = hidden @ weight + bias
            pre_activations.append(linear)
            hidden = linear if index == len(layers) - 1 else np.maximum(linear, 0.0)
            activations.append(hidden)
        probs = np.asarray(sigmoid(pre_activations[-1][:, 0]))
        delta = probs - soft
        if weights is not None:
            delta *= weights
        delta = (delta / rows)[:, None]
        gradients = self._unpack(gradient, dense.shape[1])  # views into ``gradient``
        for index in range(len(layers) - 1, -1, -1):
            weight, _ = layers[index]
            grad_weight, grad_bias = gradients[index]
            np.add(activations[index].T @ delta, self.reg_strength * weight, out=grad_weight)
            np.add.reduce(delta, 0, out=grad_bias)
            if index > 0:
                delta = (delta @ weight.T) * (pre_activations[index - 1] > 0.0)
        return weighted_log_loss(probs, soft, complement, weights)

    @staticmethod
    def _pack(layers: Layers) -> np.ndarray:
        return np.concatenate(
            [np.concatenate([weight.ravel(), bias.ravel()]) for weight, bias in layers]
        )

    def _unpack(self, packed: np.ndarray, num_features: int) -> Layers:
        layer_sizes = [num_features, *self.hidden_sizes, 1]
        layers = []
        offset = 0
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            weight_size = fan_in * fan_out
            weight = packed[offset : offset + weight_size].reshape(fan_in, fan_out)
            offset += weight_size
            bias = packed[offset : offset + fan_out]
            offset += fan_out
            layers.append((weight, bias))
        return layers

    def _publish(self, packed: np.ndarray, num_features: int) -> None:
        self._layers = self._unpack(packed, num_features)

    # --------------------------------------------------------------- inference
    def predict_proba(self, features: FeatureBlock) -> np.ndarray:
        """Positive-class probabilities for a feature matrix."""
        if self._layers is None:
            raise NotFittedError("NoiseAwareMLP must be fit before predicting")
        hidden = as_dense_features(features)
        for index, (weight, bias) in enumerate(self._layers):
            linear = hidden @ weight + bias
            hidden = linear if index == len(self._layers) - 1 else np.maximum(linear, 0.0)
        return np.asarray(sigmoid(hidden[:, 0]))
