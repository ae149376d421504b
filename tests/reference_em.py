"""A deliberately naive EM for the generative label model — the test oracle.

Independent of ``repro.labelmodel.em`` by construction: dense per-class
scans, discounts by double loop, one class-coded implementation for every
cardinality (binary ``{-1, +1}`` becomes classes ``{1, 2}``).  The production
kernel is compared against it at 1e-10.
"""

import numpy as np


def reference_em(
    matrix, k, correlations=(), class_balance=None, epochs=30,
    accuracy_init=0.7, smoothing=2.0, damping=0.5, max_accuracy=0.95,
):
    """Returns ``(accuracy weights, class priors, (m, k) posteriors)``."""
    votes = np.asarray(matrix)
    if k == 2:
        votes = np.where(votes == -1, 1, np.where(votes == 1, 2, 0))
    m, n = votes.shape
    discount = np.ones((m, n))
    for a, b in correlations:
        for i in range(m):
            if votes[i, a] != 0 and votes[i, a] == votes[i, b]:
                discount[i, a] += 1
                discount[i, b] += 1
    covered = (votes != 0).any(axis=1)

    def posteriors(accuracies, priors):
        weights = 0.5 * np.log(accuracies * (k - 1) / (1 - accuracies))
        logits = np.stack(
            [2 * ((votes == c) * weights / discount).sum(axis=1) for c in range(1, k + 1)], axis=1
        )
        unnormalized = np.exp(logits) * (1.0 if priors is None else priors)
        return unnormalized / unnormalized.sum(axis=1, keepdims=True)

    supplied = None
    if class_balance is not None:
        supplied = np.array([1 - class_balance, class_balance]) if k == 2 else class_balance
        supplied = np.asarray(supplied, dtype=float) / np.sum(supplied)
    accuracies, priors = np.full(n, accuracy_init), supplied
    for _ in range(epochs):
        posterior = posteriors(accuracies, supplied)
        if supplied is None:
            estimate = posterior[covered].mean(axis=0) if covered.any() else np.full(k, 1 / k)
            estimate = np.clip(estimate, 1e-3, 1 - 1e-3 if k == 2 else None)
            estimate /= estimate.sum()
            priors = estimate if priors is None else damping * priors + (1 - damping) * estimate
            priors = priors / priors.sum()
        correct = np.array(
            [posterior[votes[:, j] != 0, votes[votes[:, j] != 0, j] - 1].sum() for j in range(n)]
        )
        counts = np.maximum((votes != 0).sum(axis=0), 1)
        updated = (correct + smoothing * accuracy_init) / (counts + smoothing)
        updated = np.maximum(np.clip(updated, min(0.05, 1 / k), max_accuracy), 1 / k)
        updated = damping * accuracies + (1 - damping) * updated
        delta, accuracies = np.abs(updated - accuracies).sum(), updated
        if delta < 1e-10:
            break
    final = posteriors(accuracies, supplied)
    if supplied is None:
        final[~covered] = priors
    return 0.5 * np.log(accuracies * (k - 1) / (1 - accuracies)), priors, final


def assert_matches_reference(model, matrix, k, **config):
    """The fitted production ``model`` equals the oracle's fit of ``matrix``."""
    weights, priors, posteriors = reference_em(np.asarray(matrix), k, **config)
    assert np.abs(model.accuracy_weights - weights).max() <= 1e-10
    probs = model.predict_proba(matrix)
    if k == 2:
        assert abs(model.class_prior_weight_ - 0.5 * np.log(priors[1] / priors[0])) <= 1e-10
        assert np.abs(probs - posteriors[:, 1]).max() <= 1e-10
    else:
        assert np.abs(model.class_priors_ - priors).max() <= 1e-10
        assert np.abs(probs - posteriors).max() <= 1e-10
