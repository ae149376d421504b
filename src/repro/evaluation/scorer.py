"""Scorers with error bucketization.

Snorkel's notebook Viewer separates dev-set candidates into true/false
positives/negatives so users can inspect errors and refine their labeling
functions; :class:`BinaryScorer` reproduces that bucketization alongside the
headline metrics.  :class:`MultiClassScorer` is the categorical counterpart
(labels ``1..k``): accuracy plus macro-averaged precision/recall/F1 and the
full confusion matrix.  Each scorer validates its label vocabulary —
feeding multi-class labels to :class:`BinaryScorer` raises instead of
silently collapsing every non-positive class to NEGATIVE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.evaluation.metrics import (
    accuracy,
    confusion_counts,
    macro_precision_recall_f1,
    multiclass_confusion_matrix,
    precision_recall_f1,
    roc_auc,
)
from repro.types import ABSTAIN, NEGATIVE, POSITIVE


@dataclass
class ScoreReport:
    """Headline metrics plus the confusion counts and error buckets."""

    precision: float
    recall: float
    f1: float
    accuracy: float
    auc: Optional[float] = None
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    true_positive_indices: list[int] = field(default_factory=list)
    false_positive_indices: list[int] = field(default_factory=list)
    true_negative_indices: list[int] = field(default_factory=list)
    false_negative_indices: list[int] = field(default_factory=list)


class BinaryScorer:
    """Compute a :class:`ScoreReport` for binary predictions."""

    def score(
        self,
        gold: Sequence[int] | np.ndarray,
        predicted: Sequence[int] | np.ndarray,
        scores: Optional[Sequence[float] | np.ndarray] = None,
    ) -> ScoreReport:
        """Score hard predictions (and optionally ranking scores for AUC).

        Gold labels must be signed binary ``{-1, +1}``; predictions may also
        contain ``0`` (abstain / tie), which is counted as negative per the
        paper's convention (Appendix A.5).  Any other value — in particular
        multi-class labels ``2..k`` — raises :class:`ValueError`: collapsing
        unknown classes to NEGATIVE silently produces wrong numbers.  Use
        :class:`MultiClassScorer` for categorical tasks.
        """
        gold_arr = np.asarray(gold)
        pred_arr = np.asarray(predicted)
        self._validate_binary("gold", gold_arr, allow_abstain=False)
        self._validate_binary("predicted", pred_arr, allow_abstain=True)
        precision, recall, f1 = precision_recall_f1(gold_arr, pred_arr)
        tp, fp, tn, fn = confusion_counts(gold_arr, pred_arr)
        pred_binary = np.where(pred_arr == POSITIVE, POSITIVE, NEGATIVE)
        report = ScoreReport(
            precision=precision,
            recall=recall,
            f1=f1,
            accuracy=accuracy(gold_arr, pred_binary),
            auc=None if scores is None else roc_auc(gold_arr, np.asarray(scores, dtype=float)),
            tp=tp,
            fp=fp,
            tn=tn,
            fn=fn,
            true_positive_indices=np.flatnonzero(
                (pred_binary == POSITIVE) & (gold_arr == POSITIVE)
            ).tolist(),
            false_positive_indices=np.flatnonzero(
                (pred_binary == POSITIVE) & (gold_arr != POSITIVE)
            ).tolist(),
            true_negative_indices=np.flatnonzero(
                (pred_binary == NEGATIVE) & (gold_arr != POSITIVE)
            ).tolist(),
            false_negative_indices=np.flatnonzero(
                (pred_binary == NEGATIVE) & (gold_arr == POSITIVE)
            ).tolist(),
        )
        return report

    @staticmethod
    def _validate_binary(name: str, values: np.ndarray, allow_abstain: bool) -> None:
        allowed = {NEGATIVE, POSITIVE} | ({ABSTAIN} if allow_abstain else set())
        unexpected = sorted(set(int(v) for v in np.unique(values)) - allowed)
        if unexpected:
            raise ValueError(
                f"{name} contains non-binary labels {unexpected} (allowed: "
                f"{sorted(allowed)}); use MultiClassScorer for categorical tasks"
            )

    def score_probabilities(
        self,
        gold: Sequence[int] | np.ndarray,
        probabilities: Sequence[float] | np.ndarray,
        threshold: float = 0.5,
    ) -> ScoreReport:
        """Score probabilistic predictions by thresholding (AUC included)."""
        probs = np.asarray(probabilities, dtype=float)
        if probs.ndim != 1:
            raise ValueError(
                f"BinaryScorer expects a 1-D probability vector, got shape {probs.shape}; "
                "use MultiClassScorer for (m, k) distributions"
            )
        predicted = np.where(probs > threshold, POSITIVE, NEGATIVE)
        return self.score(gold, predicted, scores=probs)


@dataclass
class MultiClassScoreReport:
    """Headline multi-class metrics plus the confusion matrix and error buckets.

    ``precision`` / ``recall`` / ``f1`` are macro-averaged over all ``k``
    classes; ``accuracy`` is the plain fraction of exact matches.  The
    ``f1`` name is shared with :class:`ScoreReport` so pipeline consumers
    can read either report type uniformly.
    """

    cardinality: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int64))
    correct_indices: list[int] = field(default_factory=list)
    incorrect_indices: list[int] = field(default_factory=list)


class MultiClassScorer:
    """Compute a :class:`MultiClassScoreReport` for labels in ``1..cardinality``."""

    def __init__(self, cardinality: int) -> None:
        if cardinality < 2:
            raise ValueError(f"cardinality must be >= 2, got {cardinality}")
        self.cardinality = cardinality

    def score(
        self,
        gold: Sequence[int] | np.ndarray,
        predicted: Sequence[int] | np.ndarray,
    ) -> MultiClassScoreReport:
        """Score hard class predictions (label validation included)."""
        gold_arr = np.asarray(gold)
        pred_arr = np.asarray(predicted)
        confusion = multiclass_confusion_matrix(gold_arr, pred_arr, self.cardinality)
        precision, recall, f1 = macro_precision_recall_f1(
            gold_arr, pred_arr, self.cardinality
        )
        correct = pred_arr == gold_arr
        return MultiClassScoreReport(
            cardinality=self.cardinality,
            accuracy=accuracy(gold_arr, pred_arr),
            precision=precision,
            recall=recall,
            f1=f1,
            confusion=confusion,
            correct_indices=np.flatnonzero(correct).tolist(),
            incorrect_indices=np.flatnonzero(~correct).tolist(),
        )

    def score_probabilities(
        self,
        gold: Sequence[int] | np.ndarray,
        probabilities: np.ndarray,
    ) -> MultiClassScoreReport:
        """Score ``(m, k)`` class distributions by argmax."""
        probs = np.asarray(probabilities, dtype=float)
        gold_arr = np.asarray(gold)
        if probs.ndim != 2 or probs.shape != (gold_arr.shape[0], self.cardinality):
            raise ValueError(
                f"expected probabilities of shape ({gold_arr.shape[0]}, "
                f"{self.cardinality}), got {probs.shape}"
            )
        predicted = probs.argmax(axis=1).astype(np.int64) + 1
        return self.score(gold_arr, predicted)
