"""Unit tests of the EM kernel's steps, each against an independent reference.

``reference_em.py`` checks whole fits; these pin the pieces a fit is made
of — the correlation pairs, the entry build (correlation discounts), the
exact E-step for arbitrary weights and priors, the M-step's clamps, the
damped class-balance update, the prior encodings, the hyper-parameter
validation and the fitted state — so a regression names the step that
broke.
References are per-row / per-pair Python loops over the dense votes.
"""

import numpy as np
import pytest

from repro.exceptions import LabelModelError
from repro.labeling.sparse import SparseLabelMatrix
from repro.labelmodel.em import (
    ACCURACY_INIT,
    DAMPING,
    MAX_ACCURACY,
    SMOOTHING,
    EMParams,
    accuracy_to_weights,
    build_entries,
    damped_balance,
    e_step,
    initial_prior,
    m_step,
    run_em,
)
from repro.labelmodel.generative import GenerativeModel
from repro.labelmodel.online import OnlineGenerativeModel

STRUCTURES = {
    "independent": [],
    "pair": [(0, 1)],
    "chain": [(0, 1), (1, 2), (2, 3)],
    "clique": [(0, 1), (0, 2), (1, 2)],
}


def _votes(k, num_rows=40, num_lfs=5, seed=0):
    """Random votes with some all-abstain rows and one silent column."""
    rng = np.random.default_rng(seed + 10 * k)
    classes = [-1, 1] if k == 2 else list(range(1, k + 1))
    votes = rng.choice(classes, size=(num_rows, num_lfs))
    votes[rng.random((num_rows, num_lfs)) < 0.45] = 0
    votes[::7] = 0
    votes[:, -1] = 0
    return votes


def _discounts(votes, correlations):
    """``d_ij``: one plus the modeled partners casting the same vote on row i."""
    discount = np.ones(votes.shape)
    for i in range(votes.shape[0]):
        for a, b in correlations:
            if votes[i, a] != 0 and votes[i, a] == votes[i, b]:
                discount[i, a] += 1
                discount[i, b] += 1
    return discount


def _reference_posteriors(votes, k, weights, correlations, prior):
    """Per-row enumeration of ``P(y_i = c | Λ_i)`` over the class domain."""
    classes = [-1, 1] if k == 2 else list(range(1, k + 1))
    discount = _discounts(votes, correlations)
    out = np.zeros((votes.shape[0], k))
    for i in range(votes.shape[0]):
        logits = np.zeros(k)
        for c_index, c in enumerate(classes):
            for j in range(votes.shape[1]):
                if votes[i, j] == 0:
                    continue
                if k == 2:  # signed factor Λ_ij · y
                    logits[c_index] += weights[j] * votes[i, j] * c / discount[i, j]
                elif votes[i, j] == c:
                    logits[c_index] += 2.0 * weights[j] / discount[i, j]
            if prior is not None:
                logits[c_index] += prior * c if k == 2 else prior[c_index]
        unnormalized = np.exp(logits - logits.max())
        out[i] = unnormalized / unnormalized.sum()
    return out


def _entries(votes, k, correlations):
    return build_entries(SparseLabelMatrix.from_dense(votes), correlations, k)


@pytest.mark.parametrize("structure", list(STRUCTURES))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_e_step_equals_per_row_enumeration(k, structure):
    correlations = STRUCTURES[structure]
    votes = _votes(k)
    entries = _entries(votes, k, correlations)
    rng = np.random.default_rng(k)
    weights = rng.uniform(-0.3, 1.5, size=votes.shape[1])
    balance = rng.dirichlet(np.ones(k))
    priors = [None, 0.5 * np.log(balance[1] / balance[0]) if k == 2 else np.log(balance)]
    for prior in priors:
        posteriors, expected_correct = e_step(entries, weights, prior)
        reference = _reference_posteriors(votes, k, weights, correlations, prior)
        if k == 2:
            np.testing.assert_allclose(posteriors, reference[:, 1], rtol=0, atol=1e-12)
        else:
            np.testing.assert_allclose(posteriors, reference, rtol=0, atol=1e-12)
        classes = [-1, 1] if k == 2 else list(range(1, k + 1))
        expected = [
            sum(reference[i, classes.index(votes[i, j])] for i in np.flatnonzero(votes[:, j]))
            for j in range(votes.shape[1])
        ]
        np.testing.assert_allclose(expected_correct, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("structure", ["pair", "chain", "clique"])
@pytest.mark.parametrize("k", [2, 3])
def test_build_entries_matches_brute_force_counts(k, structure):
    correlations = STRUCTURES[structure]
    votes = _votes(k, seed=1)
    entries = _entries(votes, k, correlations)
    rows, cols = np.nonzero(votes)  # row-major: the canonical CSR order
    discount = _discounts(votes, correlations)[rows, cols]
    assert np.array_equal(entries.cols, cols)
    if k == 2:
        assert np.array_equal(entries.bins, rows)
        np.testing.assert_allclose(entries.evidence, votes[rows, cols] / discount, atol=1e-15)
    else:
        assert np.array_equal(entries.bins, rows * k + votes[rows, cols] - 1)
        np.testing.assert_allclose(entries.evidence, 1.0 / discount, atol=1e-15)
    assert np.array_equal(entries.vote_counts, (votes != 0).sum(axis=0))
    assert np.array_equal(entries.covered, (votes != 0).any(axis=1))
    # The same triples in any order build the same entries.
    order = np.random.default_rng(2).permutation(rows.size)
    shuffled = SparseLabelMatrix.from_triples(
        rows[order], cols[order], votes[rows, cols][order], votes.shape
    )
    again = build_entries(shuffled, correlations, k)
    for field in ("cols", "bins", "evidence", "vote_counts", "covered"):
        assert np.array_equal(getattr(again, field), getattr(entries, field))


@pytest.mark.parametrize("k", [2, 3])
def test_pair_that_never_co_votes_adds_no_discount(k):
    votes = np.zeros((6, 3), dtype=np.int64)
    votes[:3, 0] = 1
    votes[3:, 1] = 1
    votes[:, 2] = [1, 1, 1, 1, 1, 1] if k > 2 else [1, -1, 1, -1, 1, -1]
    entries = _entries(votes, k, [(0, 1), (0, 2)])
    plain = _entries(votes, k, [(0, 2)])
    assert np.array_equal(entries.evidence, plain.evidence)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_m_step_stays_between_chance_and_cap(k):
    rng = np.random.default_rng(k)
    num_lfs = 50
    chance = 1.0 / k
    accuracies = rng.uniform(chance, MAX_ACCURACY, size=num_lfs)
    vote_counts = rng.integers(0, 30, size=num_lfs)
    for expected_correct in (
        np.zeros(num_lfs),  # every vote wrong: clamped at chance, not inverted
        vote_counts.astype(float),  # every vote right: capped
        rng.uniform(0, 1, size=num_lfs) * vote_counts,
    ):
        updated = m_step(accuracies, expected_correct, vote_counts, k)
        assert np.all(updated >= chance - 1e-15)
        assert np.all(updated <= MAX_ACCURACY + 1e-15)
        accuracies = updated
    # An LF with no votes reads its pseudo-counts alone, over a one-vote floor.
    silent = m_step(np.array([0.9]), np.array([0.0]), np.array([0]), k)
    estimate = max(SMOOTHING * ACCURACY_INIT / (1 + SMOOTHING), chance)
    assert silent[0] == pytest.approx(DAMPING * 0.9 + (1 - DAMPING) * estimate)


def test_m_step_smooths_toward_the_prior_accuracy_and_damps():
    # 8 of 10 votes right: (8 + 2·0.7) / (10 + 2), then half-way from 0.7.
    updated = m_step(np.array([0.7]), np.array([8.0]), np.array([10]), 2)
    estimate = (8.0 + SMOOTHING * ACCURACY_INIT) / (10 + SMOOTHING)
    assert estimate == pytest.approx(0.78333333333)
    assert updated[0] == pytest.approx(DAMPING * 0.7 + (1 - DAMPING) * estimate)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_damped_balance_without_covered_rows_is_uniform(k):
    mass = 0.0 if k == 2 else np.zeros(k)
    first = damped_balance(None, mass, 0, k)
    if k == 2:
        assert first == 0.5
        assert damped_balance(0.3, mass, 0, k) == pytest.approx(0.4)
    else:
        np.testing.assert_allclose(first, np.full(k, 1.0 / k))
        previous = np.eye(k)[0]
        mixed = damped_balance(previous, mass, 0, k)
        np.testing.assert_allclose(mixed, DAMPING * previous + (1 - DAMPING) / k)
        assert mixed.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("k", [2, 3])
def test_damped_balance_clips_away_from_the_boundary_and_mixes(k):
    if k == 2:
        assert damped_balance(None, 0.0, 10, k) == pytest.approx(1e-3)
        assert damped_balance(None, 10.0, 10, k) == pytest.approx(1 - 1e-3)
        assert damped_balance(0.4, 0.0, 10, k) == pytest.approx(0.2005)
    else:
        clipped = np.array([1e-3, 0.5, 0.5]) / 1.001
        first = damped_balance(None, np.array([0.0, 5.0, 5.0]), 10, k)
        np.testing.assert_allclose(first, clipped)
        mixed = damped_balance(np.full(3, 1 / 3), np.array([0.0, 5.0, 5.0]), 10, k)
        np.testing.assert_allclose(mixed, DAMPING / 3 + (1 - DAMPING) * clipped)
        assert mixed.sum() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "balance, k, expected",
    [
        (None, 2, 0.0),
        (0.2, 2, 0.5 * np.log(0.25)),
        (None, 3, np.zeros(3)),
        ([1.0, 2.0, 1.0], 3, np.log([0.25, 0.5, 0.25])),
    ],
    ids=["binary-neutral", "binary-supplied", "categorical-neutral", "categorical-normalized"],
)
def test_initial_prior_encoding(balance, k, expected):
    np.testing.assert_allclose(initial_prior(balance, k), expected)


@pytest.mark.parametrize(
    "balance, k, message",
    [
        ([0.5, 0.5], 2, "scalar class_balance"),
        (0.3, 3, "length-3 class_balance"),
        ([0.2, 0.3, 0.5], 4, "length 4"),
    ],
    ids=["binary-given-vector", "categorical-given-scalar", "wrong-length"],
)
def test_initial_prior_rejects_mismatched_balance(balance, k, message):
    with pytest.raises(LabelModelError, match=message):
        initial_prior(balance, k)


@pytest.mark.parametrize(
    "settings",
    [
        dict(epochs=0),
        dict(epochs=-3),
        dict(epochs=2.5),
        dict(epochs=True),
        dict(epochs="10"),
        dict(epochs=None),
        dict(class_balance=0.0),
        dict(class_balance=1.0),
        dict(class_balance=1.5),
        dict(class_balance=[0.5]),
        dict(class_balance=[[0.5, 0.5]]),
        dict(class_balance=[0.3, 0.0]),
    ],
    ids=lambda settings: "-".join(f"{key}={value!r}" for key, value in settings.items()),
)
def test_em_params_rejects(settings):
    field = next(iter(settings))
    with pytest.raises(LabelModelError, match=field):
        EMParams(**settings)
    with pytest.raises(LabelModelError, match=field):
        GenerativeModel(**settings)


@pytest.mark.parametrize(
    "settings",
    [dict(epochs=np.int64(3)), dict(class_balance=0.5), dict(class_balance=[1, 2, 3])],
    ids=["numpy-integer-epochs", "scalar-balance", "unnormalized-vector-balance"],
)
def test_em_params_accepts(settings):
    assert EMParams(**settings) == EMParams(**settings)
    GenerativeModel(**settings)


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_accuracy_weights_round_trip_through_learned_accuracies(k):
    assert accuracy_to_weights(np.array([1.0 / k]), k)[0] == pytest.approx(0.0, abs=1e-15)
    accuracies = np.linspace(1.0 / k, MAX_ACCURACY, 6)
    model = GenerativeModel.from_em(EMParams(), [], k, accuracies, initial_prior(None, k))
    np.testing.assert_allclose(model.learned_accuracies(), accuracies, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        model.accuracy_weights, accuracy_to_weights(accuracies, k), rtol=0, atol=0
    )


@pytest.mark.parametrize("structure", ["independent", "chain"])
@pytest.mark.parametrize("k", [2, 4])
def test_fitted_state_is_the_kernels_accuracy_weights(k, structure):
    """A batch fit and a drained online model hold the canonical pairs, the
    cardinality and exactly the ``(n,)`` accuracy weights of the kernel's
    accuracies: no other factor is fit."""
    correlations = STRUCTURES[structure]
    votes = _votes(k)
    accuracies = run_em(_entries(votes, k, correlations), EMParams(epochs=7))[0]
    expected = accuracy_to_weights(accuracies, k)
    online = OnlineGenerativeModel(cardinality=k, correlations=correlations, epochs=7)
    for chunk in np.array_split(votes, 3):
        online.update(chunk)
    batch = GenerativeModel(epochs=7, cardinality=k).fit(votes, correlations)
    for model in (batch, online.drain()):
        assert model.weights.shape == (votes.shape[1],)
        assert model.weights.tobytes() == expected.tobytes()
        assert model.correlations_ == correlations
        assert model.cardinality_ == k


def test_factor_graph_spec_canonicalizes_and_dedups_pairs():
    """The modeled pairs ``C`` are ordered ``j < k`` and a repeat, in either
    order, is modeled once: the fit equals the fit on the canonical list."""
    pairs = [(3, 1), (1, 3), (0, 4), (4, 0), (2, 3)]
    canonical = [(1, 3), (0, 4), (2, 3)]
    votes = _votes(2)
    model = GenerativeModel(epochs=5).fit(votes, pairs)
    assert model.correlations_ == canonical
    once = GenerativeModel(epochs=5).fit(votes, canonical)
    assert model.weights.tobytes() == once.weights.tobytes()
    online = OnlineGenerativeModel(correlations=pairs, epochs=5).update(votes)
    assert online.drain().correlations_ == canonical


VOTES = np.array([[1, -1, 0], [0, 1, 1], [-1, 0, 1]])


def _online_update(correlations):
    online = OnlineGenerativeModel().set_correlations(correlations)
    try:
        online.update(VOTES)
    finally:  # a rejected chunk leaves the model as it was
        assert online.num_rows_ == 0 and online.num_lfs_ is None


def _pair_entries(pair):
    return (
        lambda: GenerativeModel().fit(VOTES, [pair]),
        lambda: _online_update([pair]),
    )


@pytest.mark.parametrize(
    "entries, message",
    [
        (_pair_entries((1, 1)), "self-pair"),
        (_pair_entries((0, 3)), "out of range"),
        (_pair_entries((-1, 2)), "out of range"),
        ((lambda: GenerativeModel().fit(VOTES[:, :0]),), "non-empty"),
        (
            (lambda: GenerativeModel(cardinality=1), lambda: OnlineGenerativeModel(cardinality=1)),
            "cardinality",
        ),
    ],
    ids=["self-pair", "index-past-end", "negative-index", "no-lfs", "one-class"],
)
def test_factor_graph_spec_rejects(entries, message):
    """The model's factor graph (``n`` LFs, the pairs ``C``, ``k`` classes)
    is refused where a model takes it: the constructors, ``fit``, and an
    online ``update`` under the pairs ``set_correlations`` gave it."""
    for entry in entries:
        with pytest.raises(LabelModelError, match=message):
            entry()
