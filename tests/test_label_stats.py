"""Generated differential test: everything read off Λ equals the naive oracle.

Every statistic, voter and bound computes on the CSR entries of Λ
(``LabelMatrix.csr``); ``reference_stats.py`` scans the dense array with
plain loops.  Hypothesis draws small abstain-heavy matrices — 0 × n and
m × 0 shapes, all-abstain rows, empty columns, single-vote rows, k ∈ {2, 3,
4}, with and without gold — and each is checked from dense and from CSR
input.  All quantities are counts, ratios of two counts or sums of small
integers, so equality is exact.  A failure hypothesis shrinks is pinned
with ``@example`` below rather than hand-picking cases up front.
"""

import numpy as np
import pytest
import reference_stats as ref
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.labeling import LabelMatrix, LFAnalysis, SparseLabelMatrix
from repro.labeling.sparse import class_vote_counts
from repro.labelmodel import (
    MajorityVoter,
    MultiClassMajorityVoter,
    estimate_advantage_bound,
)
from repro.labelmodel.advantage import estimate_advantage_bound_detail


@st.composite
def label_cases(draw):
    """``(cardinality, dense Λ, gold or None)``."""
    k = draw(st.sampled_from([2, 3, 4]))
    vocabulary = [-1, 1] if k == 2 else list(range(1, k + 1))
    shape = (draw(st.integers(0, 9)), draw(st.integers(0, 6)))
    values = draw(arrays(np.int64, shape, elements=st.sampled_from([0, 0, 0] + vocabulary)))
    gold = draw(st.none() | arrays(np.int64, shape[0], elements=st.sampled_from(vocabulary)))
    return k, values, gold


@pytest.mark.parametrize("storage", ["dense", "csr"])
@given(case=label_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_csr_statistics_equal_the_dense_oracle(storage, case):
    k, values, gold = case
    backing = values if storage == "dense" else SparseLabelMatrix.from_dense(values)
    matrix = LabelMatrix(backing, cardinality=k)
    assert matrix.is_sparse == (storage == "csr")
    labels = (-1, 1) if k == 2 else range(1, k + 1)

    assert matrix.label_density() == ref.label_density(values)
    assert matrix.coverage() == ref.coverage(values)
    assert np.array_equal(matrix.lf_coverage(), ref.lf_coverage(values))
    assert matrix.lf_polarity() == ref.lf_polarity(values)
    assert matrix.class_balance() == ref.class_balance(values)
    for label in labels:
        assert np.array_equal(matrix.vote_counts(label), ref.vote_counts(values, label))
    assert np.array_equal(matrix.covered_rows(), ref.covered_rows(values))
    assert np.array_equal(matrix.row_sums(), ref.row_sums(values))

    analysis = LFAnalysis(matrix)
    coverages, overlaps, conflicts, polarities = (
        ref.lf_coverage(values),
        ref.lf_overlaps(values),
        ref.lf_conflicts(values),
        ref.lf_polarity(values),
    )
    assert analysis.coverage() == ref.coverage(values)
    assert analysis.label_density() == ref.label_density(values)
    assert analysis.overlap_fraction() == ref.overlap_fraction(values)
    assert analysis.conflict_fraction() == ref.conflict_fraction(values)
    assert np.array_equal(analysis.lf_coverages(), coverages)
    assert np.array_equal(analysis.lf_overlaps(), overlaps)
    assert np.array_equal(analysis.lf_conflicts(), conflicts)
    accuracies = None
    if gold is not None:
        accuracies = ref.lf_empirical_accuracies(values, gold)
        assert np.array_equal(
            analysis.lf_empirical_accuracies(gold), accuracies, equal_nan=True
        )
    summary = analysis.summary(gold)
    assert [row.name for row in summary] == matrix.lf_names
    for j, row in enumerate(summary):
        assert (row.coverage, row.overlap, row.conflict, list(row.polarity)) == (
            coverages[j], overlaps[j], conflicts[j], polarities[j],
        )
        assert row.num_labeled == (0 if gold is None else len(gold))
        if accuracies is None or np.isnan(accuracies[j]):
            assert row.empirical_accuracy is None
        else:
            assert row.empirical_accuracy == accuracies[j]

    # The voters and the bound take the wrapper and the raw backing alike.
    for argument in (matrix, backing):
        if k == 2:
            voter = MajorityVoter()
            assert np.array_equal(voter.vote_scores(argument), ref.row_sums(values))
            assert np.array_equal(voter.predict_proba(argument), ref.majority_proba(values))
            detail = estimate_advantage_bound_detail(argument)
            assert (
                detail.bound,
                detail.label_density,
                detail.num_candidates,
                detail.num_disagreement_rows,
            ) == ref.advantage_bound(values)
            assert estimate_advantage_bound(argument) == detail.bound
        else:
            assert np.array_equal(
                class_vote_counts(argument, k), ref.class_vote_counts(values, k)
            )
            assert np.array_equal(
                MultiClassMajorityVoter(k).predict_proba(argument),
                ref.multiclass_majority_proba(values, k),
            )
