"""Elbow-point selection over the correlation-threshold sweep.

Structure learning depends on a threshold ε: lower thresholds admit more
correlations, and beyond an "elbow" the count explodes (paper Section 3.2.2).
The paper selects the ε at the point of greatest absolute difference from its
neighbors in the (ε, #correlations) curve; this module implements that rule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError


def select_elbow_point(
    thresholds: Sequence[float], correlation_counts: Sequence[int]
) -> float:
    """Pick the threshold at the elbow of the (ε, #correlations) curve.

    The rule follows the paper: order points by decreasing threshold (the
    direction of the sweep in Figure 5), and choose the point whose
    correlation count has the greatest absolute difference from its
    neighbors.  With fewer than three points the largest threshold is
    returned (no structure unless the sweep says otherwise).
    """
    thresholds = list(thresholds)
    counts = list(correlation_counts)
    if len(thresholds) != len(counts):
        raise ConfigurationError(
            f"got {len(thresholds)} thresholds but {len(counts)} correlation counts"
        )
    if not thresholds:
        raise ConfigurationError("cannot select an elbow point from an empty sweep")
    order = np.argsort(thresholds)[::-1]
    ordered_thresholds = [float(thresholds[i]) for i in order]
    ordered_counts = [int(counts[i]) for i in order]
    if len(ordered_thresholds) < 3:
        return ordered_thresholds[0]
    best_index = 1
    best_score = -1.0
    for i in range(1, len(ordered_counts) - 1):
        score = abs(ordered_counts[i] - ordered_counts[i - 1]) + abs(
            ordered_counts[i + 1] - ordered_counts[i]
        )
        if score > best_score:
            best_score = score
            best_index = i
    return ordered_thresholds[best_index]

