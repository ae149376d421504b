"""Classification metrics: precision, recall, F1, accuracy, and ROC AUC.

Conventions follow the paper's evaluation: binary labels are {-1, +1};
predictions of 0 (abstain / tie) are counted as negatives (Appendix A.5
notes this is standard practice given the negative class imbalance of the
relation-extraction tasks).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.types import NEGATIVE, POSITIVE


def _to_arrays(
    gold: Sequence[int] | np.ndarray, predicted: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    gold_arr = np.asarray(gold)
    pred_arr = np.asarray(predicted)
    if gold_arr.shape != pred_arr.shape:
        raise ValueError(
            f"gold and predicted must have the same shape, got {gold_arr.shape} and "
            f"{pred_arr.shape}"
        )
    return gold_arr, pred_arr


def confusion_counts(
    gold: Sequence[int] | np.ndarray, predicted: Sequence[int] | np.ndarray
) -> tuple[int, int, int, int]:
    """Return ``(tp, fp, tn, fn)`` counting 0-predictions as negatives."""
    gold_arr, pred_arr = _to_arrays(gold, predicted)
    pred_binary = np.where(pred_arr == POSITIVE, POSITIVE, NEGATIVE)
    tp = int(np.sum((pred_binary == POSITIVE) & (gold_arr == POSITIVE)))
    fp = int(np.sum((pred_binary == POSITIVE) & (gold_arr != POSITIVE)))
    tn = int(np.sum((pred_binary == NEGATIVE) & (gold_arr != POSITIVE)))
    fn = int(np.sum((pred_binary == NEGATIVE) & (gold_arr == POSITIVE)))
    return tp, fp, tn, fn


def accuracy(gold: Sequence[int] | np.ndarray, predicted: Sequence[int] | np.ndarray) -> float:
    """Fraction of exact label matches."""
    gold_arr, pred_arr = _to_arrays(gold, predicted)
    if gold_arr.size == 0:
        return 0.0
    return float((gold_arr == pred_arr).mean())


def precision_score(
    gold: Sequence[int] | np.ndarray, predicted: Sequence[int] | np.ndarray
) -> float:
    """Positive-class precision (0.0 when nothing is predicted positive)."""
    tp, fp, _, _ = confusion_counts(gold, predicted)
    return tp / (tp + fp) if (tp + fp) > 0 else 0.0


def recall_score(
    gold: Sequence[int] | np.ndarray, predicted: Sequence[int] | np.ndarray
) -> float:
    """Positive-class recall (0.0 when there are no gold positives)."""
    tp, _, _, fn = confusion_counts(gold, predicted)
    return tp / (tp + fn) if (tp + fn) > 0 else 0.0


def f1_score(gold: Sequence[int] | np.ndarray, predicted: Sequence[int] | np.ndarray) -> float:
    """Harmonic mean of precision and recall."""
    precision = precision_score(gold, predicted)
    recall = recall_score(gold, predicted)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def precision_recall_f1(
    gold: Sequence[int] | np.ndarray, predicted: Sequence[int] | np.ndarray
) -> tuple[float, float, float]:
    """Convenience: ``(precision, recall, f1)`` in one call."""
    return (
        precision_score(gold, predicted),
        recall_score(gold, predicted),
        f1_score(gold, predicted),
    )


def roc_auc(gold: Sequence[int] | np.ndarray, scores: Sequence[float] | np.ndarray) -> float:
    """Area under the ROC curve via the rank (Mann–Whitney U) formulation.

    ``gold`` uses {-1, +1}; ``scores`` are any monotone scores (probabilities
    or margins).  Tied scores receive average ranks.  Returns 0.5 when either
    class is absent.
    """
    gold_arr = np.asarray(gold)
    score_arr = np.asarray(scores, dtype=float)
    if gold_arr.shape != score_arr.shape:
        raise ValueError("gold and scores must have the same shape")
    positives = gold_arr == POSITIVE
    num_positive = int(positives.sum())
    num_negative = int(gold_arr.size - num_positive)
    if num_positive == 0 or num_negative == 0:
        return 0.5
    order = np.argsort(score_arr, kind="mergesort")
    ranks = np.empty(score_arr.size, dtype=float)
    ranks[order] = np.arange(1, score_arr.size + 1)
    # Average ranks over ties.
    sorted_scores = score_arr[order]
    start = 0
    while start < sorted_scores.size:
        end = start
        while end + 1 < sorted_scores.size and sorted_scores[end + 1] == sorted_scores[start]:
            end += 1
        if end > start:
            average = (start + end) / 2.0 + 1.0
            ranks[order[start : end + 1]] = average
        start = end + 1
    rank_sum_positive = float(ranks[positives].sum())
    u_statistic = rank_sum_positive - num_positive * (num_positive + 1) / 2.0
    return u_statistic / (num_positive * num_negative)


def multiclass_confusion_matrix(
    gold: Sequence[int] | np.ndarray,
    predicted: Sequence[int] | np.ndarray,
    cardinality: int,
) -> np.ndarray:
    """``(k, k)`` count matrix ``C[g - 1, p - 1]`` for labels in ``1..k``.

    Raises :class:`ValueError` when either vector contains labels outside
    ``1..cardinality`` — in particular signed binary labels, which must be
    scored with the binary metrics rather than silently mis-bucketed.
    """
    gold_arr, pred_arr = _to_arrays(gold, predicted)
    if cardinality < 2:
        raise ValueError(f"cardinality must be >= 2, got {cardinality}")
    for name, values in (("gold", gold_arr), ("predicted", pred_arr)):
        if values.size and (values.min() < 1 or values.max() > cardinality):
            raise ValueError(
                f"{name} labels must lie in 1..{cardinality}, got range "
                f"[{int(values.min())}, {int(values.max())}]"
            )
    flat = (gold_arr.astype(np.int64) - 1) * cardinality + (pred_arr.astype(np.int64) - 1)
    counts = np.bincount(flat, minlength=cardinality * cardinality)
    return counts.reshape(cardinality, cardinality)


def macro_precision_recall_f1(
    gold: Sequence[int] | np.ndarray,
    predicted: Sequence[int] | np.ndarray,
    cardinality: int,
) -> tuple[float, float, float]:
    """Macro-averaged ``(precision, recall, f1)`` over all ``k`` classes.

    Each class is scored one-vs-rest (precision/recall 0.0 when undefined,
    i.e. nothing predicted / no gold instances of the class) and the three
    metrics are unweighted means over the classes — every class counts
    equally regardless of its frequency, the standard macro convention.
    """
    confusion = multiclass_confusion_matrix(gold, predicted, cardinality)
    diagonal = np.diag(confusion).astype(float)
    predicted_per_class = confusion.sum(axis=0).astype(float)
    gold_per_class = confusion.sum(axis=1).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(predicted_per_class > 0, diagonal / predicted_per_class, 0.0)
        recall = np.where(gold_per_class > 0, diagonal / gold_per_class, 0.0)
        denominator = precision + recall
        f1 = np.where(denominator > 0, 2.0 * precision * recall / denominator, 0.0)
    return float(precision.mean()), float(recall.mean()), float(f1.mean())


def relative_improvement(new_value: float, baseline_value: float) -> float:
    """Relative improvement in percent, e.g. the paper's "132% over DS" claims."""
    if baseline_value == 0.0:
        return float("inf") if new_value > 0 else 0.0
    return 100.0 * (new_value - baseline_value) / baseline_value
