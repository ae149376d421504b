"""Small shared utilities: seeded RNG handling, math helpers, text helpers."""

from repro.utils.mathutils import (
    accuracy_to_log_odds,
    log_odds_to_accuracy,
    sigmoid,
    softmax,
)
from repro.utils.rng import ensure_rng, spawn_rngs

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "sigmoid",
    "softmax",
    "log_odds_to_accuracy",
    "accuracy_to_log_odds",
]
