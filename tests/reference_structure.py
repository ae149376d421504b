"""The one-node-at-a-time structure learner — the test oracle.

This is the loop ``repro.labelmodel.structure`` ran before its nodes were
solved in groups: for every node its own design matrix (gathered column by
column from a dense Λ), its own power iteration from a fresh draw of the
seed, and its own ISTA loop with the mask-based ``sigmoid``.  The production
solver is compared against it at 1e-12 on the weights and exactly on what
``select`` returns; the designs themselves must be ``array_equal``.
"""

import numpy as np

from repro.utils.rng import ensure_rng


def sigmoid(x):
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def node_design(dense, categorical, j):
    """``(features, target)`` of node ``j``: rows where it votes, the other
    LFs' recoded votes, the own-vote-free majority proxy, a ones column."""
    dense = np.asarray(dense)
    n = dense.shape[1]
    rows = np.flatnonzero(dense[:, j] != 0)
    block = dense[rows]
    if categorical:
        values, counts = np.unique(block[:, j], return_counts=True)
        anchor = values[np.argmax(counts)]
        signed = np.where(block == anchor, 1.0, np.where(block == 0, 0.0, -1.0))
    else:
        signed = block.astype(float)
    others = [k for k in range(n) if k != j]
    proxy = np.sign(signed.sum(axis=1) - signed[:, j])
    features = np.column_stack([signed[:, others], proxy, np.ones(rows.size)])
    return features, (signed[:, j] > 0).astype(float)


def spectral_norm_squared(features, iterations=20, seed=0):
    vector = ensure_rng(seed).standard_normal(features.shape[1])
    vector /= np.linalg.norm(vector) + 1e-12
    for _ in range(iterations):
        vector = features.T @ (features @ vector)
        norm = np.linalg.norm(vector)
        if norm < 1e-12:
            return 1.0
        vector /= norm
    return float(vector @ (features.T @ (features @ vector)))


def l1_logistic(features, target, num_penalized, l1_strength, max_iter, tol, seed):
    m, d = features.shape
    coefficients = np.zeros(d)
    lipschitz = 0.25 * spectral_norm_squared(features, seed=seed) / m
    step = 1.0 / max(lipschitz, 1e-8)
    penalty = np.zeros(d)
    penalty[:num_penalized] = l1_strength
    for _ in range(max_iter):
        predictions = sigmoid(features @ coefficients)
        gradient = features.T @ (predictions - target) / m
        updated = coefficients - step * gradient
        updated = np.sign(updated) * np.maximum(np.abs(updated) - step * penalty, 0.0)
        if np.linalg.norm(updated - coefficients) < tol:
            coefficients = updated
            break
        coefficients = updated
    return coefficients


def reference_structure_fit(
    dense, categorical, l1_strength=0.01, max_iter=250, tol=1e-6, min_votes=10, seed=0,
    nodes=None,
):
    """The ``(n, n)`` absolute dependency weights (rows outside ``nodes`` zero)."""
    dense = np.asarray(dense)
    n = dense.shape[1]
    weights = np.zeros((n, n))
    if n < 2:
        return weights
    for j in range(n) if nodes is None else sorted(nodes):
        if np.count_nonzero(dense[:, j]) < max(min_votes, 1):
            continue
        features, target = node_design(dense, categorical, j)
        coefficients = l1_logistic(
            features, target, n - 1, l1_strength, max_iter, tol, seed
        )
        weights[j, [k for k in range(n) if k != j]] = np.abs(coefficients[: n - 1])
    return weights


def reference_select(weights, threshold):
    n = weights.shape[0]
    return sorted(
        (j, k)
        for j in range(n)
        for k in range(j + 1, n)
        if max(weights[j, k], weights[k, j]) >= threshold
    )
