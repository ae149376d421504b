"""Figure 4: modeling advantage vs number of labeling functions (synthetic)."""

from repro.experiments import fig4_advantage


def test_fig4_modeling_advantage(run_once):
    points = run_once(
        fig4_advantage.run,
        num_points=500,
        lf_counts=(1, 2, 5, 10, 20, 50, 100),
        epochs=8,
    )
    print("\n[Figure 4] modeling advantage vs label density")
    print(fig4_advantage.format_table(points))
    densities = [p.label_density for p in points]
    advantages = [p.learned_advantage for p in points]
    # Shape check: the learned advantage peaks in the mid-density regime (not
    # at the extremes).
    peak = advantages.index(max(advantages))
    assert min(densities) < densities[peak] < max(densities)
    # Equal accuracies make the optimal weights equal, so A* is 0 in exact
    # arithmetic (see the driver's docstring): only rounding-tie rows move it.
    assert all(abs(p.optimal_advantage) <= 0.01 for p in points)
    # The optimizer bound upper-bounds the learned advantage at every point.
    assert all(p.optimizer_bound >= p.learned_advantage - 0.05 for p in points)
