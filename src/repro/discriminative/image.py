"""Cross-modal "image" classifier over pre-extracted feature vectors.

In the radiology application the paper writes labeling functions over text
reports and trains a ResNet-50 on the paired X-ray images.  Offline we cannot
ship images or a pre-trained CNN, so the substitute keeps the cross-modal
structure intact: each candidate carries a synthetic image feature vector
(generated to be correlated with the latent abnormality but *not* visible to
the labeling functions, which only see the report text), and the end model is
an MLP over those features.  The division of labor — LFs on one modality,
the discriminative model on another — is exactly the paper's.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.context.candidates import Candidate
from repro.discriminative.mlp import NoiseAwareMLP
from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike

#: Metadata key under which candidates carry their image feature vector.
IMAGE_FEATURE_KEY = "image_features"


def extract_image_features(candidates: Sequence[Candidate]) -> np.ndarray:
    """Stack the image feature vectors stored in candidate metadata."""
    rows = []
    for candidate in candidates:
        features = candidate.metadata.get(IMAGE_FEATURE_KEY)
        if features is None:
            raise ConfigurationError(
                f"candidate {candidate.uid} has no {IMAGE_FEATURE_KEY!r} metadata; "
                "did you build the radiology dataset?"
            )
        rows.append(np.asarray(features, dtype=float))
    if not rows:
        return np.zeros((0, 0))
    return np.vstack(rows)


class ImageFeatureClassifier(NoiseAwareMLP):
    """Noise-aware classifier over image feature vectors (ResNet substitute):
    the MLP end model with image-sized defaults, plus conveniences that read
    the feature vectors straight off candidate metadata."""

    def __init__(
        self,
        hidden_sizes: Sequence[int] = (32,),
        epochs: int = 80,
        learning_rate: float = 0.01,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__(
            hidden_sizes=hidden_sizes, epochs=epochs, learning_rate=learning_rate, seed=seed
        )

    def predict_proba_candidates(self, candidates: Sequence[Candidate]) -> np.ndarray:
        """Positive-class probabilities computed from candidate metadata features."""
        return self.predict_proba(extract_image_features(candidates))
