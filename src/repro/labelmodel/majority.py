"""Majority-vote label aggregation baselines.

The unweighted majority vote is both the baseline the generative model is
compared against (Definition 1's ``f_1``) and the strategy the Algorithm-1
optimizer falls back to when the predicted modeling advantage is small.

Every voter reads the CSR entries of Λ; the binary-only ones enter through
:func:`binary_storage`, which refuses categorical labels.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import LabelModelError
from repro.labeling.matrix import LabelMatrix
from repro.labeling.sparse import SparseLabelMatrix, class_vote_counts, lower_to_sparse
from repro.labelmodel.em import validate_label_values
from repro.types import ABSTAIN, NEGATIVE, POSITIVE
from repro.utils.mathutils import sigmoid


def binary_storage(label_matrix: LabelMatrix | np.ndarray) -> SparseLabelMatrix:
    """The CSR entries of a signed binary Λ, refusing any other label.

    The shared entry of the binary-only consumers: the two signed voters,
    the modeling advantage and its bound.  A :class:`LabelMatrix` is held to
    its declared cardinality, whatever votes it happens to store.
    """
    if isinstance(label_matrix, LabelMatrix) and label_matrix.cardinality != 2:
        raise LabelModelError(
            f"binary labels {{-1, 0, +1}} required, got a LabelMatrix of cardinality "
            f"{label_matrix.cardinality}: vote with MultiClassMajorityVoter"
        )
    storage = lower_to_sparse(label_matrix)
    validate_label_values(storage.data, 2)
    return storage


def majority_vote_proba(label_matrix: LabelMatrix) -> np.ndarray:
    """Unweighted-vote training labels by the matrix's declared cardinality.

    ``(m,)`` positive-class probabilities for binary tasks, ``(m, k)`` class
    distributions for categorical ones.
    """
    if label_matrix.cardinality == 2:
        return MajorityVoter().predict_proba(label_matrix)
    return MultiClassMajorityVoter(label_matrix.cardinality).predict_proba(label_matrix)


class MajorityVoter:
    """Unweighted majority vote over binary labeling-function outputs.

    The vote for data point ``i`` is ``f_1(Λ_i) = Σ_j Λ_{i,j}`` with
    abstentions encoded as 0; the predicted label is its sign.  Ties (vote
    sum exactly 0) produce probability 0.5.
    """

    def vote_scores(self, label_matrix: LabelMatrix | np.ndarray) -> np.ndarray:
        """The raw vote sums ``f_1(Λ_i)``."""
        return binary_storage(label_matrix).row_sums()

    def predict_proba(self, label_matrix: LabelMatrix | np.ndarray) -> np.ndarray:
        """Positive-class probabilities.

        Rows with no votes or tied votes get probability 0.5; otherwise the
        probability is the fraction of non-abstaining votes that are positive,
        which reproduces the "unweighted average of LF outputs" the paper's
        Table 5 baseline trains on.
        """
        sparse = binary_storage(label_matrix)
        positive = sparse.count_per_row(POSITIVE).astype(float)
        negative = sparse.count_per_row(NEGATIVE).astype(float)
        total = positive + negative
        probs = np.full(positive.shape[0], 0.5)
        voted = total > 0
        probs[voted] = positive[voted] / total[voted]
        return probs

    def predict(
        self, label_matrix: LabelMatrix | np.ndarray, tie_break: int = ABSTAIN
    ) -> np.ndarray:
        """Hard labels: sign of the vote sum, with ``tie_break`` on ties."""
        scores = self.vote_scores(label_matrix)
        labels = np.where(scores > 0, POSITIVE, NEGATIVE).astype(np.int64)
        labels[scores == 0] = tie_break
        return labels


class WeightedMajorityVoter:
    """Weighted majority vote ``f_w(Λ_i) = Σ_j w_j Λ_{i,j}``.

    With the optimal (true log-odds) weights this is the paper's WMV*, i.e.
    the predictions of a perfectly estimated independent generative model.
    """

    def __init__(self, weights: Sequence[float] | np.ndarray) -> None:
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1:
            raise LabelModelError(f"weights must be 1-dimensional, got shape {self.weights.shape}")

    def vote_scores(self, label_matrix: LabelMatrix | np.ndarray) -> np.ndarray:
        """The weighted vote sums ``f_w(Λ_i)`` (one sparse matvec)."""
        sparse = binary_storage(label_matrix)
        if sparse.shape[1] != self.weights.shape[0]:
            raise LabelModelError(
                f"label matrix has {sparse.shape[1]} LFs but {self.weights.shape[0]} weights given"
            )
        return sparse.matvec(self.weights)

    def predict_proba(self, label_matrix: LabelMatrix | np.ndarray) -> np.ndarray:
        """Posterior positive-class probabilities ``σ(2 f_w(Λ_i))``.

        This is exactly ``p_w(y_i = 1 | Λ_i)`` in the independent generative
        model (paper Appendix A.4).
        """
        return sigmoid(2.0 * self.vote_scores(label_matrix))

    def predict(
        self, label_matrix: LabelMatrix | np.ndarray, tie_break: int = ABSTAIN
    ) -> np.ndarray:
        """Hard labels from the weighted vote, with ``tie_break`` on ties."""
        scores = self.vote_scores(label_matrix)
        labels = np.where(scores > 0, POSITIVE, NEGATIVE).astype(np.int64)
        labels[np.isclose(scores, 0.0)] = tie_break
        return labels


class MultiClassMajorityVoter:
    """Plurality vote for multi-class label matrices (labels 1..k, 0 = abstain).

    Ties are broken uniformly at random with the provided RNG (or toward the
    lowest class id when deterministic behaviour is requested).
    """

    def __init__(self, cardinality: int, seed: Optional[int] = None) -> None:
        if cardinality < 2:
            raise LabelModelError(f"cardinality must be >= 2, got {cardinality}")
        self.cardinality = cardinality
        self._rng = np.random.default_rng(seed)

    def predict_proba(self, label_matrix: LabelMatrix | np.ndarray) -> np.ndarray:
        """Per-class probabilities proportional to vote counts (uniform when unvoted).

        All class counts come from one pass over the stored entries
        (:func:`repro.labeling.sparse.class_vote_counts`, shared with the
        multi-class generative posterior) rather than one scan per class.
        """
        counts = class_vote_counts(label_matrix, self.cardinality)
        totals = counts.sum(axis=1, keepdims=True)
        probs = np.full_like(counts, 1.0 / self.cardinality)
        voted = totals[:, 0] > 0
        probs[voted] = counts[voted] / totals[voted]
        return probs

    def predict(
        self, label_matrix: LabelMatrix | np.ndarray, deterministic: bool = True
    ) -> np.ndarray:
        """Hard class predictions in ``1..cardinality``."""
        probs = self.predict_proba(label_matrix)
        if deterministic:
            return probs.argmax(axis=1) + 1
        predictions = np.empty(probs.shape[0], dtype=np.int64)
        for i, row in enumerate(probs):
            best = np.flatnonzero(np.isclose(row, row.max()))
            predictions[i] = int(self._rng.choice(best)) + 1
        return predictions
