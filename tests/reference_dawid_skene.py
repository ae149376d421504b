"""Dense reference of the Dawid–Skene EM, kept as the tests' oracle.

This is the loop ``repro.labelmodel.dawid_skene`` ran before it read the CSR
entries: every worker's votes found by scanning a dense ``(items, workers)``
array recoded to ``0 = abstain, 1..k``.  The model must equal it bit for bit
(same accumulation order), whatever form its input takes.
"""

import numpy as np


def recode(matrix, signed: bool) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.int64)
    if not signed:
        return matrix
    recoded = np.zeros_like(matrix)
    recoded[matrix == -1] = 1
    recoded[matrix == 1] = 2
    return recoded


def e_step(matrix: np.ndarray, log_priors: np.ndarray, confusion: np.ndarray) -> np.ndarray:
    log_posterior = log_priors[None, :].repeat(matrix.shape[0], axis=0)
    for worker in range(matrix.shape[1]):
        voted = matrix[:, worker] != 0
        votes = matrix[voted, worker] - 1
        log_posterior[voted] += np.log(np.clip(confusion[worker][:, votes].T, 1e-12, None))
    posterior = np.exp(log_posterior - log_posterior.max(axis=1, keepdims=True))
    return posterior / posterior.sum(axis=1, keepdims=True)


def fit(matrix: np.ndarray, k: int, max_iter=100, tol=1e-5, smoothing=0.01, symmetric=False):
    """``(confusion, class_priors, posteriors)`` of a recoded dense matrix."""
    num_items, num_workers = matrix.shape
    posteriors = np.full((num_items, k), 1.0 / k)
    for klass in range(1, k + 1):
        posteriors[:, klass - 1] += (matrix == klass).sum(axis=1)
    posteriors /= posteriors.sum(axis=1, keepdims=True)
    confusion = np.zeros((num_workers, k, k))
    for _ in range(max_iter):
        class_priors = np.clip(posteriors.mean(axis=0), 1e-12, None)
        class_priors /= class_priors.sum()
        for worker in range(num_workers):
            voted = matrix[:, worker] != 0
            votes = matrix[voted, worker] - 1
            update = np.zeros((k, k))
            np.add.at(update, (slice(None), votes), posteriors[voted].T)
            counts = np.full((k, k), smoothing) + update
            confusion[worker] = counts / counts.sum(axis=1, keepdims=True)
        if symmetric:
            for worker in range(num_workers):
                accuracy = float(np.mean(np.diag(confusion[worker])))
                confusion[worker] = np.full((k, k), (1.0 - accuracy) / (k - 1))
                np.fill_diagonal(confusion[worker], accuracy)
        new_posteriors = e_step(matrix, np.log(class_priors), confusion)
        delta = float(np.abs(new_posteriors - posteriors).mean())
        posteriors = new_posteriors
        if delta < tol:
            break
    return confusion, class_priors, posteriors


def predict_proba(matrix: np.ndarray, confusion: np.ndarray, class_priors: np.ndarray):
    return e_step(matrix, np.log(np.clip(class_priors, 1e-12, None)), confusion)
