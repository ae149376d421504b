"""Figure 4: modeling advantage vs label density on synthetic data.

Reproduces the paper's synthetic study: m = 1,000 class-balanced data points,
n independent labeling functions with 75% accuracy and 10% vote propensity,
with n swept over a log-spaced grid.  For each n we report the empirical
advantage of the learned generative model (A_w), the optimal advantage using
the true weights (A*), the optimizer's upper bound (Ã*), and the low-density
theoretical bound of Proposition 1.

The paper's mid-density peak is read off the *learned* advantage A_w here.
With one accuracy for every LF the optimal weights are all equal, weighted
majority vote is majority vote, and A* is 0 in exact arithmetic: the few
10⁻³ it shows are rows whose weighted score cancels to ±2·10⁻¹⁶ and whose
verdict ``gold · score > 0`` then depends on summation order.  A* is
reported for completeness and bounded, not used for the shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.synthetic import generate_label_matrix
from repro.labelmodel.advantage import (
    estimate_advantage_bound,
    modeling_advantage,
    optimal_advantage,
)
from repro.labelmodel.generative import GenerativeModel
from repro.labelmodel.theory import low_density_upper_bound


@dataclass
class AdvantagePoint:
    """One point of the Figure-4 sweep."""

    num_lfs: int
    label_density: float
    learned_advantage: float
    optimal_advantage: float
    optimizer_bound: float
    low_density_bound: float


def run(
    num_points: int = 1000,
    lf_counts: tuple[int, ...] = (1, 2, 5, 10, 20, 50, 100, 200),
    accuracy: float = 0.75,
    propensity: float = 0.10,
    epochs: int = 10,
    seed: int = 0,
    sparse: bool = False,
) -> list[AdvantagePoint]:
    """Run the sweep and return one :class:`AdvantagePoint` per LF count.

    With ``sparse=True`` the synthetic matrices are generated and modeled in
    CSR storage end to end (same votes, same numbers — the Figure-4 setting
    is 10% propensity, exactly the regime sparse storage is for).
    """
    points = []
    for index, num_lfs in enumerate(lf_counts):
        data = generate_label_matrix(
            num_points=num_points,
            num_lfs=num_lfs,
            accuracy=accuracy,
            propensity=propensity,
            seed=seed + index,
            sparse=sparse,
        )
        label_matrix, gold_labels = data.label_matrix, data.gold_labels
        model = GenerativeModel(epochs=epochs).fit(label_matrix)
        learned = modeling_advantage(label_matrix, gold_labels, model.accuracy_weights)
        optimal = optimal_advantage(label_matrix, gold_labels, data.lf_accuracies)
        bound = estimate_advantage_bound(label_matrix)
        density = label_matrix.label_density()
        points.append(
            AdvantagePoint(
                num_lfs=num_lfs,
                label_density=density,
                learned_advantage=learned,
                optimal_advantage=optimal,
                optimizer_bound=bound,
                low_density_bound=low_density_upper_bound(density, accuracy),
            )
        )
    return points


def format_table(points: list[AdvantagePoint]) -> str:
    """Render the sweep as a text table (the Figure-4 series)."""
    header = f"{'n LFs':>6} {'density':>8} {'A_w':>8} {'A*':>8} {'A~*':>8} {'low-d bound':>12}"
    lines = [header, "-" * len(header)]
    for point in points:
        lines.append(
            f"{point.num_lfs:>6} {point.label_density:>8.2f} {point.learned_advantage:>8.3f} "
            f"{point.optimal_advantage:>8.3f} {point.optimizer_bound:>8.3f} "
            f"{min(point.low_density_bound, 1.0):>12.3f}"
        )
    return "\n".join(lines)
