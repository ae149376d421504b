"""Naive statistics of a dense label matrix — the test oracle.

Independent of the CSR implementations in ``repro.labeling`` and
``repro.labelmodel`` by construction: every function scans the dense
``(m, n)`` array (0 = abstain), the per-LF and per-row quantities with plain
Python loops.  These are the dense halves and ``LFAnalysis`` loops the
library carried before it computed everything on the CSR entries; the
production code must equal them exactly (``np.array_equal``), since every
quantity is a count, a ratio of two counts, or a sum of small integers.
"""

import numpy as np

from repro.utils.mathutils import sigmoid


# ------------------------------------------------------- LabelMatrix statistics
def label_density(values):
    return float((values != 0).sum(axis=1).mean()) if values.shape[0] else 0.0


def coverage(values):
    return float(((values != 0).sum(axis=1) > 0).mean()) if values.shape[0] else 0.0


def lf_coverage(values):
    return (values != 0).mean(axis=0) if values.shape[0] else np.zeros(values.shape[1])


def lf_polarity(values):
    return [
        sorted(int(v) for v in np.unique(values[:, j][values[:, j] != 0]))
        for j in range(values.shape[1])
    ]


def class_balance(values):
    emitted = values[values != 0]
    if emitted.size == 0:
        return {}
    labels, counts = np.unique(emitted, return_counts=True)
    return {int(label): float(count) / counts.sum() for label, count in zip(labels, counts)}


def vote_counts(values, label):
    return (values == label).sum(axis=1)


def covered_rows(values):
    return (values != 0).any(axis=1)


def row_sums(values):
    return values.sum(axis=1).astype(float)


# ------------------------------------------------------------------ LFAnalysis
def overlap_fraction(values):
    counts = (values != 0).sum(axis=1)
    return float((counts >= 2).mean()) if counts.size else 0.0


def conflict_fraction(values):
    conflicts = np.zeros(values.shape[0], dtype=bool)
    for i in range(values.shape[0]):
        row = values[i][values[i] != 0]
        conflicts[i] = row.size > 1 and np.unique(row).size > 1
    return float(conflicts.mean()) if conflicts.size else 0.0


def lf_overlaps(values):
    voted = values != 0
    row_counts = voted.sum(axis=1)
    overlaps = np.zeros(values.shape[1])
    for j in range(values.shape[1]):
        if voted[:, j].sum():
            overlaps[j] = float((row_counts[voted[:, j]] >= 2).mean())
    return overlaps


def lf_conflicts(values):
    voted = values != 0
    conflicts = np.zeros(values.shape[1])
    for j in range(values.shape[1]):
        labeled_rows = np.flatnonzero(voted[:, j])
        if labeled_rows.size == 0:
            continue
        disagree = 0
        for i in labeled_rows:
            if np.any(values[i][voted[i]] != values[i, j]):
                disagree += 1
        conflicts[j] = disagree / labeled_rows.size
    return conflicts


def lf_empirical_accuracies(values, gold):
    accuracies = np.full(values.shape[1], np.nan)
    for j in range(values.shape[1]):
        voted = values[:, j] != 0
        if voted.sum():
            accuracies[j] = float((values[voted, j] == gold[voted]).mean())
    return accuracies


# ---------------------------------------------------------------------- voters
def majority_proba(values):
    positive = (values == 1).sum(axis=1).astype(float)
    negative = (values == -1).sum(axis=1).astype(float)
    probs = np.full(values.shape[0], 0.5)
    voted = positive + negative > 0
    probs[voted] = positive[voted] / (positive + negative)[voted]
    return probs


def class_vote_counts(values, cardinality):
    return np.stack(
        [(values == c).sum(axis=1) for c in range(1, cardinality + 1)], axis=1
    ).astype(float)


def multiclass_majority_proba(values, cardinality):
    counts = class_vote_counts(values, cardinality)
    totals = counts.sum(axis=1, keepdims=True)
    probs = np.full_like(counts, 1.0 / cardinality)
    voted = totals[:, 0] > 0
    probs[voted] = counts[voted] / totals[voted]
    return probs


def advantage_bound(values, weight_range=(0.5, 1.0, 1.5)):
    """``(bound, label density, rows, disagreement rows)`` of Proposition 2."""
    w_min, w_mean, w_max = weight_range
    m = values.shape[0]
    if m == 0:
        return 0.0, 0.0, 0, 0
    positive = (values == 1).sum(axis=1).astype(float)
    negative = (values == -1).sum(axis=1).astype(float)
    unweighted = positive - negative
    mean_weighted = w_mean * unweighted
    total, disagreement_rows = 0.0, 0
    for y, own, other in ((1, positive, negative), (-1, negative, positive)):
        eligible = np.logical_and(y * unweighted <= 0, own * w_max > other * w_min)
        disagreement_rows += int(eligible.sum())
        total += float(np.sum(eligible * sigmoid(2.0 * mean_weighted * y)))
    return total / m, label_density(values), m, disagreement_rows
