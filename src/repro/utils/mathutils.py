"""Numerically careful math helpers used throughout the label model."""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic sigmoid ``1 / (1 + exp(-x))``.

    ``e = exp(-|x|)`` never overflows; the result is ``1 / (1 + e)`` where
    ``x >= 0`` and ``e / (1 + e)`` elsewhere (NaN included).  ``-|x|`` is
    taken as ``minimum(x, -x)``, which hands a NaN through with its sign
    bit, where ``-abs(x)`` would flip it.
    """
    x = np.asarray(x, dtype=float)
    exp_x = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0, exp_x) / (1.0 + exp_x)
    if out.ndim == 0:
        return float(out)
    return out


def logit(p: np.ndarray | float, eps: float = 1e-12) -> np.ndarray | float:
    """Inverse sigmoid with clipping to avoid infinities at 0 and 1."""
    p = np.clip(np.asarray(p, dtype=float), eps, 1.0 - eps)
    out = np.log(p / (1.0 - p))
    if out.ndim == 0:
        return float(out)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    x = np.asarray(x, dtype=float)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_odds_to_accuracy(w: np.ndarray | float) -> np.ndarray | float:
    """Convert an accuracy-factor weight to the implied LF accuracy.

    In the independent generative model the accuracy weight ``w_j`` for
    labeling function ``j`` is half the log-odds of its (non-abstaining)
    accuracy (paper Appendix A.1):

        alpha_j = exp(w_j) / (exp(w_j) + exp(-w_j)) = sigmoid(2 w_j)
    """
    return sigmoid(2.0 * np.asarray(w, dtype=float)) if np.ndim(w) else float(sigmoid(2.0 * w))


def accuracy_to_log_odds(alpha: np.ndarray | float, eps: float = 1e-12) -> np.ndarray | float:
    """Inverse of :func:`log_odds_to_accuracy`: ``w = 0.5 * log(alpha / (1 - alpha))``."""
    alpha = np.clip(np.asarray(alpha, dtype=float), eps, 1.0 - eps)
    out = 0.5 * np.log(alpha / (1.0 - alpha))
    if out.ndim == 0:
        return float(out)
    return out
