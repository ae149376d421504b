"""Tests for the synthetic dataset generators and task registry."""

import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.datasets import load_task, registered_tasks, synthetic
from repro.datasets.kb import build_noisy_kb
from repro.datasets.synthetic import (
    PlantedLF,
    PlantedSuite,
    generate_correlated_label_matrix,
    generate_label_matrix,
    generate_misspecification_example,
    generate_multiclass_label_matrix,
    stream_synthetic_candidates,
    stream_text_candidates,
    text_vote_lfs,
)
from repro.exceptions import DatasetError
from repro.labeling import LFApplier
from repro.types import NEGATIVE, POSITIVE


def test_registry_lists_all_six_tasks():
    assert {"cdr", "chem", "ehr", "spouses", "radiology", "crowd"} <= set(registered_tasks())


def test_unknown_task_raises():
    with pytest.raises(DatasetError):
        load_task("nope")


def test_synthetic_matrix_properties():
    data = generate_label_matrix(num_points=300, num_lfs=5, accuracy=0.8, propensity=0.3, seed=0)
    assert data.label_matrix.shape == (300, 5)
    coverage = data.label_matrix.lf_coverage()
    assert np.all(coverage > 0.15) and np.all(coverage < 0.45)
    # Empirical per-LF accuracy on voted rows is near the target.
    values = data.label_matrix.values
    for j in range(5):
        voted = values[:, j] != 0
        accuracy = (values[voted, j] == data.gold_labels[voted]).mean()
        assert 0.65 < accuracy < 0.95


def test_correlated_matrix_reports_planted_pairs():
    data = generate_correlated_label_matrix(num_points=200, num_groups=3, group_size=3, seed=0)
    assert len(data.correlated_pairs) == 3 * 2
    values = data.label_matrix.values
    j, k = data.correlated_pairs[0]
    both = (values[:, j] != 0) & (values[:, k] != 0)
    agreement = (values[both, j] == values[both, k]).mean()
    assert agreement > 0.8


def test_noisy_kb_subsets():
    true_pairs = [("a", str(i)) for i in range(20)]
    all_pairs = true_pairs + [("b", str(i)) for i in range(80)]
    kb = build_noisy_kb("kb", true_pairs, all_pairs, coverage=0.5, precision=1.0, seed=0)
    positive = set(kb.subset("causes"))
    assert positive <= set(map(tuple, all_pairs))
    assert 5 <= len(positive) <= 15
    assert kb.size() >= len(positive)


def test_cdr_task_structure():
    task = load_task("cdr", scale=0.05, seed=0)
    summary = task.summary()
    assert summary.num_lfs >= 25
    assert 0.1 < summary.positive_fraction < 0.4
    assert set(task.candidates) == {"train", "dev", "test"}
    groups = task.lfs_by_type()
    assert {"pattern", "distant_supervision", "structure"} <= set(groups)
    # Gold labels align with candidates in every split.
    for split in ("train", "dev", "test"):
        assert len(task.split_gold(split)) == len(task.split_candidates(split))


def test_chem_task_is_sparse_and_imbalanced():
    task = load_task("chem", scale=0.05, seed=0)
    gold = task.split_gold("train")
    assert (gold == POSITIVE).mean() < 0.15
    matrix = LFApplier(task.lfs).apply(task.split_candidates("train"))
    assert matrix.label_density() < 2.0


def test_radiology_task_has_image_features():
    task = load_task("radiology", scale=0.03, seed=0)
    candidate = task.split_candidates("train")[0]
    assert "image_features" in candidate.metadata
    assert len(candidate.metadata["image_features"]) == task.metadata["image_feature_dim"]


def test_crowd_task_multiclass_and_worker_lfs():
    task = load_task("crowd", scale=0.2, seed=0)
    assert task.cardinality == 5
    assert len(task.lfs) == 102
    matrix = LFApplier(task.lfs).apply(task.split_candidates("train"))
    assert matrix.label_density() > 5
    assert set(np.unique(matrix.values)) <= set(range(0, 6))


def test_task_determinism():
    first = load_task("spouses", scale=0.05, seed=7)
    second = load_task("spouses", scale=0.05, seed=7)
    assert first.summary() == second.summary()
    assert np.array_equal(first.split_gold("train"), second.split_gold("train"))



# ------------------------------------------------------ planted-truth spec
def assert_shows_planted_truth(values, gold, prior, planted, tolerance=0.03):
    """Λ shows the planted class balance, and each LF its planted firing
    rate on every class and its planted precision (accuracy when it votes)."""
    labels = (POSITIVE, NEGATIVE) if len(prior) == 2 else tuple(range(1, len(prior) + 1))
    for label, share in zip(labels, prior):
        assert abs((gold == label).mean() - share) < tolerance
    assert values.shape[1] == len(planted)
    for j, (rates, precision) in enumerate(planted):
        fires = values[:, j] != 0
        for label, rate in zip(labels, rates):
            assert abs(fires[gold == label].mean() - rate) < tolerance, (j, label)
        assert abs((values[fires, j] == gold[fires]).mean() - precision) < tolerance, j


def _reported(data, prior):
    """What a symmetric preset reports it planted: one rate on every class."""
    planted = [
        ((rate,) * len(prior), accuracy)
        for rate, accuracy in zip(data.lf_propensities, data.lf_accuracies)
    ]
    return data.label_matrix.values, data.gold_labels, prior, planted


def _streamed(candidates, lfs, gold, prior, accuracies, propensities):
    values = LFApplier(lfs, pushdown="off").apply(candidates).values
    planted = [((p,) * len(prior), a) for a, p in zip(accuracies, propensities)]
    return values, gold, prior, planted


def _emitted(suite, num_points):
    data = suite.label_matrix(num_points, seed=9)
    return data.label_matrix.values, data.gold_labels


def _drawn(suite, num_points):
    """The per-candidate drawer's votes stacked into a Λ."""
    draws = [suite.draw_votes(np.random.default_rng((3, uid))) for uid in range(num_points)]
    return np.array([votes for _, votes in draws]), np.array([gold for gold, _ in draws])


#: A binary, imbalanced suite using every spec field: a unipolar LF of each
#: polarity, an always-firing LF, an exact and a partial copy.
MIXED = PlantedSuite(
    (0.2, 0.8),
    (
        PlantedLF(0.8, (0.3, 0.3)),
        PlantedLF(0.8, (0.3, 0.3), copy_of=0, copy_probability=0.6),
        PlantedLF(0.8, (0.3, 0.3), copy_of=0),
        PlantedLF(0.5, (0.4, 0.1), polarity=POSITIVE),
        PlantedLF(0.96, (0.05, 0.3), polarity=NEGATIVE),
        PlantedLF(0.7, None),
    ),
)
MIXED_PLANTED = [((0.3, 0.3), 0.8)] * 3 + [((0.4, 0.1), 0.5), ((0.05, 0.3), 0.96)]
MIXED_PLANTED += [((1.0, 1.0), 0.7)]

PRESETS = {
    "independent": lambda: _reported(
        generate_label_matrix(
            num_points=20_000, num_lfs=4, accuracy=[0.9, 0.8, 0.7, 0.6],
            propensity=[0.1, 0.2, 0.3, 0.5], class_balance=0.3, seed=1,
        ),
        (0.3, 0.7),
    ),
    "independent sparse": lambda: _reported(
        generate_label_matrix(num_points=20_000, num_lfs=3, propensity=0.2, seed=2, sparse=True),
        (0.5, 0.5),
    ),
    "multiclass": lambda: _reported(
        generate_multiclass_label_matrix(
            num_points=20_000, num_lfs=3, cardinality=4, accuracy=[0.9, 0.7, 0.5],
            propensity=[0.2, 0.4, 0.6], class_balance=[1, 2, 3, 4], seed=3,
        ),
        (0.1, 0.2, 0.3, 0.4),
    ),
    "correlated": lambda: _reported(
        generate_correlated_label_matrix(
            num_points=20_000, num_independent=2, num_groups=2, group_size=3, seed=4
        ),
        (0.5, 0.5),
    ),
    "misspecification": lambda: _reported(
        generate_misspecification_example(num_points=20_000, seed=5), (0.5, 0.5)
    ),
    "synthetic stream": lambda: _streamed(
        list(stream_synthetic_candidates(8_000, num_lfs=3, propensity=0.4, seed=6)),
        synthetic.synthetic_vote_lfs(3), synthetic.synthetic_stream_gold(8_000, seed=6),
        (0.5, 0.5), (0.75,) * 3, (0.4,) * 3,
    ),
    "text stream k=2": lambda: _streamed(
        list(stream_text_candidates(8_000, num_lfs=3, class_balance=0.25, seed=7)),
        text_vote_lfs(3), synthetic.stream_text_gold(8_000, class_balance=0.25, seed=7),
        (0.25, 0.75), (0.75,) * 3, (0.3,) * 3,
    ),
    "text stream k=4": lambda: _streamed(
        list(stream_text_candidates(8_000, num_lfs=3, cardinality=4, accuracy=0.6, seed=8)),
        text_vote_lfs(3, cardinality=4), synthetic.stream_text_gold(8_000, 4, seed=8),
        (0.25,) * 4, (0.6,) * 3, (0.3,) * 3,
    ),
    "mixed spec, Λ emitter": lambda: (*_emitted(MIXED, 20_000), MIXED.class_balance, MIXED_PLANTED),
    "mixed spec, vote drawer": lambda: (*_drawn(MIXED, 20_000), MIXED.class_balance, MIXED_PLANTED),
}


@pytest.mark.parametrize("preset", PRESETS)
def test_every_preset_shows_its_planted_truth(preset):
    assert_shows_planted_truth(*PRESETS[preset]())


def test_exact_copies_repeat_their_source_in_both_emitters():
    for matrix in (_emitted(MIXED, 2_000)[0], _drawn(MIXED, 2_000)[0]):
        assert np.array_equal(matrix[:, 2], matrix[:, 0])
        assert set(np.unique(matrix[:, 3])) == {0, POSITIVE}
        assert set(np.unique(matrix[:, 4])) == {0, NEGATIVE}
        assert np.all(matrix[:, 5] != 0)


INVALID = {
    "correlated accuracy 1.5": lambda: generate_correlated_label_matrix(accuracy=1.5),
    "correlated propensity -1": lambda: generate_correlated_label_matrix(propensity=-1),
    "correlated copy probability 2": lambda: generate_correlated_label_matrix(copy_probability=2),
    "correlated balance 1.0": lambda: generate_correlated_label_matrix(class_balance=1.0),
    "correlated zero points": lambda: generate_correlated_label_matrix(num_points=0),
    "misspecification accuracy 2": lambda: generate_misspecification_example(correlated_accuracy=2),
    "misspecification zero points": lambda: generate_misspecification_example(num_points=0),
    "misspecification zero LFs": lambda: generate_misspecification_example(
        num_correlated=0, num_independent=0
    ),
    "text stream zero LFs": lambda: list(stream_text_candidates(num_lfs=0)),
    "synthetic stream zero LFs": lambda: list(stream_synthetic_candidates(num_lfs=0)),
    "multiclass negative LFs": lambda: generate_multiclass_label_matrix(num_lfs=-2),
    "multiclass one class": lambda: generate_multiclass_label_matrix(cardinality=1),
    "multiclass zero classes": lambda: generate_multiclass_label_matrix(cardinality=0),
    "text stream zero classes": lambda: list(stream_text_candidates(cardinality=0)),
    "spec without LFs": lambda: PlantedSuite((0.5, 0.5), ()),
    "spec balance off 1": lambda: PlantedSuite((0.5, 0.6), (PlantedLF(0.7, None),)),
    "spec rates per class": lambda: PlantedSuite((0.5, 0.5), (PlantedLF(0.7, (0.1,)),)),
    "spec polarity": lambda: PlantedSuite((0.5, 0.5), (PlantedLF(0.7, None, polarity=2),)),
    "spec copy of a later LF": lambda: PlantedSuite(
        (0.5, 0.5), (PlantedLF(0.7, None, copy_of=1), PlantedLF(0.7, None))
    ),
}


@pytest.mark.parametrize("case", INVALID)
def test_every_spec_field_is_validated_with_a_dataset_error(case):
    with pytest.raises(DatasetError):
        INVALID[case]()


def test_multiclass_generator_at_two_classes_emits_the_binary_vocabulary():
    data = generate_multiclass_label_matrix(num_points=200, num_lfs=4, cardinality=2, seed=0)
    assert data.label_matrix.cardinality == 2
    assert set(np.unique(data.label_matrix.values)) <= {NEGATIVE, 0, POSITIVE}
    assert set(np.unique(data.gold_labels)) == {NEGATIVE, POSITIVE}


def test_a_sparse_request_never_allocates_the_dense_matrix():
    num_points, num_lfs = 100_000, 100
    tracemalloc.start()
    try:
        data = generate_label_matrix(
            num_points=num_points, num_lfs=num_lfs, propensity=0.01, seed=0, sparse=True
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.label_matrix.is_sparse
    assert peak < num_points * num_lfs * 8 / 4


# ------------------------------------------------------ seed-stability pin table
def _array_bytes(array) -> bytes:
    array = np.asarray(array)
    return f"{array.dtype.str}{array.shape}".encode() + np.ascontiguousarray(array).tobytes()


def _matrix_bytes(matrix) -> bytes:
    parts = [repr((matrix.is_sparse, matrix.cardinality, matrix.shape, matrix.lf_names)).encode()]
    parts.append(_array_bytes(matrix.values))
    if matrix.is_sparse:
        parts += [_array_bytes(a) for a in (matrix.csr.indptr, matrix.csr.indices, matrix.csr.data)]
    return b"|".join(parts)


def _result_bytes(result) -> bytes:
    """Every field of a :class:`SyntheticMatrixResult`."""
    return b"|".join(
        [
            _matrix_bytes(result.label_matrix),
            _array_bytes(result.gold_labels),
            _array_bytes(result.lf_accuracies),
            _array_bytes(result.lf_propensities),
            repr(result.correlated_pairs).encode(),
        ]
    )


def _task_bytes(task) -> bytes:
    """A multi-class task's candidates, gold, LF names and LF votes."""
    splits = ("train", "dev", "test")
    candidates = [c for split in splits for c in task.candidates[split]]
    votes = np.array([[lf(c) for lf in task.lfs] for c in candidates], dtype=np.int64)
    return b"|".join(
        [
            pickle.dumps([task.candidates[split] for split in splits], protocol=5),
            b"".join(_array_bytes(task.gold[split]) for split in splits),
            repr((task.name, task.cardinality, task.num_documents)).encode(),
            repr([lf.name for lf in task.lfs]).encode(),
            _array_bytes(votes),
            _array_bytes(task.metadata["lf_accuracies"]),
        ]
    )


def _pin_bytes(entry: str, kwargs: dict) -> bytes:
    if entry == "planted_unipolar_matrix":
        from test_labelmodel import planted_unipolar_matrix

        return b"|".join(_array_bytes(array) for array in planted_unipolar_matrix())
    function = getattr(synthetic, entry)
    if entry.startswith("generate_"):
        return _result_bytes(function(**kwargs))
    if entry == "build_multiclass_task":
        return _task_bytes(function(**kwargs))
    if entry.endswith("_gold"):
        return _array_bytes(function(**kwargs))
    # A candidate stream: each uid has its own generator, so a prefix pins it.
    return pickle.dumps(list(function(**kwargs)), protocol=5)


CDR_SHAPED = [*np.linspace(10 / 485, 114 / 485, 20)] + [0.01] * 12
EDIT_LOOP_SHAPED = [*np.linspace(0.05, 0.54, 21), 0.027]

#: ``(entry point, digest, arguments)``: every argument set the tests,
#: ``tests/contracts.py``, the examples, the scripts, the Figure 4/5 drivers at
#: their defaults and the e2e benchmark's input generator (seeds 0 and 1, full
#: and ``--quick``) call a planted-truth generator with.  A stream is pinned by
#: a prefix of at most 1 500 candidates (its pickled bytes), since each uid
#: draws from its own generator.  A generator rewrite must leave every digest
#: as it is: the figures, the contracts and the frozen benchmark read them.
SEED_PINS = [
    ("generate_label_matrix", "c3dda4421d10e4da",
     dict(num_points=2000, num_lfs=20, accuracy=0.75, propensity=0.3, class_balance=0.25, seed=0)),
    ("generate_label_matrix", "9753ecc904633a26",
     dict(num_points=1000, num_lfs=1, accuracy=0.75, propensity=0.1, seed=0, sparse=False)),
    ("generate_label_matrix", "cfa0a7401af854d2",
     dict(num_points=1000, num_lfs=10, accuracy=0.75, propensity=0.1, seed=3, sparse=False)),
    ("generate_label_matrix", "4b9b0815de79c5ef",
     dict(num_points=200, num_lfs=10, accuracy=0.75, propensity=0.1, seed=1, sparse=False)),
    ("generate_label_matrix", "0cb711013ff2a302",
     dict(num_points=200, num_lfs=10, accuracy=0.75, propensity=0.1, seed=1, sparse=True)),
    ("generate_label_matrix", "b2660a6221799d80",
     dict(num_points=1000, num_lfs=100, accuracy=0.75, propensity=0.1, seed=6, sparse=False)),
    ("generate_label_matrix", "601f8431d050a110",
     dict(num_points=1000, num_lfs=2, accuracy=0.75, propensity=0.1, seed=1, sparse=False)),
    ("generate_label_matrix", "863a33625e6cb6ff",
     dict(num_points=200, num_lfs=2, accuracy=0.75, propensity=0.1, seed=0, sparse=False)),
    ("generate_label_matrix", "f21a69fc7529f430",
     dict(num_points=200, num_lfs=2, accuracy=0.75, propensity=0.1, seed=0, sparse=True)),
    ("generate_label_matrix", "e869afb43f431214",
     dict(num_points=1000, num_lfs=20, accuracy=0.75, propensity=0.1, seed=4, sparse=False)),
    ("generate_label_matrix", "3b0adc0abc7ad0d0",
     dict(num_points=1000, num_lfs=200, accuracy=0.75, propensity=0.1, seed=7, sparse=False)),
    ("generate_label_matrix", "e8eeb15d7ba481df",
     dict(num_points=1000, num_lfs=5, accuracy=0.75, propensity=0.1, seed=2, sparse=False)),
    ("generate_label_matrix", "181af05427a70fc2",
     dict(num_points=1000, num_lfs=50, accuracy=0.75, propensity=0.1, seed=5, sparse=False)),
    ("generate_label_matrix", "d5942acc66c54275",
     dict(num_points=200, num_lfs=50, accuracy=0.75, propensity=0.1, seed=2, sparse=False)),
    ("generate_label_matrix", "9667fceea853a05b",
     dict(num_points=200, num_lfs=50, accuracy=0.75, propensity=0.1, seed=2, sparse=True)),
    ("generate_label_matrix", "bf2c32bd1ee4403c",
     dict(num_points=300, num_lfs=5, accuracy=0.8, propensity=0.3, seed=0)),
    ("generate_label_matrix", "a08666d9a141849c",
     dict(num_points=400, num_lfs=2, accuracy=0.95, propensity=0.05, seed=0)),
    ("generate_label_matrix", "253198ca985eb182", dict(
          num_points=800,
          num_lfs=6,
          accuracy=[0.9, 0.85, 0.8, 0.65, 0.6, 0.55],
          propensity=0.5,
          seed=3,
    )),
    ("generate_label_matrix", "9d56c0c0641e881e",
     dict(num_points=1000, num_lfs=10, accuracy=[0.9] * 3 + [0.55] * 7, propensity=0.4, seed=1)),
    ("generate_label_matrix", "7fb699637b1b1603",
     dict(num_points=600, num_lfs=12, accuracy=[0.9] * 4 + [0.55] * 8, propensity=0.5, seed=1)),
    ("generate_label_matrix", "a757fd178ec29c77",
     dict(num_points=6000, num_lfs=12, accuracy=[0.9] * 4 + [0.7] * 8, propensity=0.3, seed=0)),
    ("generate_label_matrix", "e0192bdeadf1a9df",
     dict(num_points=400, num_lfs=10, propensity=0.4, seed=8)),
    ("generate_label_matrix", "ebb491c0c94ba81c",
     dict(num_points=600, num_lfs=12, propensity=0.1, seed=5)),
    ("generate_label_matrix", "8cfc2f46ac0c65ab",
     dict(num_points=1000, num_lfs=22, propensity=EDIT_LOOP_SHAPED, seed=0)),
    ("generate_label_matrix", "f41a965dc88fc9f1",
     dict(num_points=5000, num_lfs=22, propensity=EDIT_LOOP_SHAPED, seed=8)),
    ("generate_label_matrix", "89895c1d23dd9bf0",
     dict(num_points=485, num_lfs=32, propensity=CDR_SHAPED, seed=0)),
    ("generate_label_matrix", "17d412e1e72fcfa4",
     dict(num_points=485, num_lfs=32, propensity=CDR_SHAPED, seed=7)),
    ("generate_label_matrix", "37be31393c88518d",
     dict(num_points=60, num_lfs=5, propensity=0.4, seed=20)),
    ("generate_label_matrix", "42073f85c2b8f374",
     dict(num_points=260, num_lfs=6, propensity=0.4, seed=4)),
    ("generate_label_matrix", "0b1dcb77c888362d",
     dict(num_points=400, num_lfs=6, propensity=0.4, seed=11)),
    ("generate_label_matrix", "98afd16f107846fe",
     dict(num_points=300, num_lfs=7, propensity=0.4, seed=3)),
    ("generate_label_matrix", "20724526b96b0591",
     dict(num_points=3000, num_lfs=7, propensity=np.linspace(0.3, 0.9, 7), seed=9)),
    ("generate_label_matrix", "9b2bb7e11c3c287f",
     dict(num_points=200, num_lfs=8, propensity=0.4, seed=0)),
    ("generate_label_matrix", "53dab0a90aa64797",
     dict(num_points=200, num_lfs=8, propensity=0.4, seed=2)),
    ("generate_label_matrix", "0cec1712aa399c81",
     dict(num_points=2000, num_lfs=8, propensity=0.4, seed=8)),
    ("generate_label_matrix", "41b4216d2960e80d", dict(
          num_points=2500,
          num_lfs=8,
          propensity=[0.04, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0],
          seed=6,
    )),
    ("generate_label_matrix", "5deba02b2d1327a4",
     dict(num_points=300, num_lfs=8, propensity=0.1, seed=4, sparse=True)),
    ("generate_label_matrix", "677ad5d0e3236f60",
     dict(num_points=300, num_lfs=8, propensity=0.1, seed=4)),
    ("generate_label_matrix", "6fc85e02af3fcae5",
     dict(num_points=300, num_lfs=8, propensity=0.5, seed=2)),
    ("generate_label_matrix", "540b451749392474",
     dict(num_points=400, num_lfs=8, propensity=0.4, seed=0)),
    ("generate_label_matrix", "629e8919977bc43f",
     dict(num_points=400, num_lfs=8, propensity=0.4, seed=10)),
    ("generate_label_matrix", "1f21c8973d7abf05",
     dict(num_points=400, num_lfs=8, propensity=0.4, seed=12)),
    ("generate_label_matrix", "84a62466d2746ff0",
     dict(num_points=400, num_lfs=8, propensity=0.4, seed=14)),
    ("generate_label_matrix", "38c96640757e99bf",
     dict(num_points=400, num_lfs=8, propensity=0.4, seed=1)),
    ("generate_label_matrix", "e22e08071ad92308",
     dict(num_points=400, num_lfs=8, propensity=0.4, seed=3)),
    ("generate_label_matrix", "2d4419c4607ba604",
     dict(num_points=400, num_lfs=8, propensity=0.4, seed=4)),
    ("generate_label_matrix", "e06d5e56f3cccc06",
     dict(num_points=400, num_lfs=8, propensity=0.4, seed=5)),
    ("generate_label_matrix", "78d957e085f75621",
     dict(num_points=400, num_lfs=8, propensity=0.4, seed=6)),
    ("generate_label_matrix", "7ac184c07b545f83",
     dict(num_points=400, num_lfs=8, propensity=0.4, seed=7)),
    ("generate_label_matrix", "7748402bcce2c328",
     dict(num_points=400, num_lfs=8, propensity=0.4, seed=9)),
    ("generate_label_matrix", "90ce698dbc1fb829",
     dict(num_points=50, num_lfs=8, propensity=0.4, seed=0)),
    ("generate_label_matrix", "5bc89c142e258aa4",
     dict(num_points=50, num_lfs=8, propensity=0.4, seed=13)),
    ("generate_label_matrix", "4ff7c775d84b8333",
     dict(num_points=500, num_lfs=8, propensity=0.3, seed=4)),
    ("generate_label_matrix", "095da765253d9c17",
     dict(num_points=160, num_lfs=9, propensity=0.35, seed=2)),
    ("generate_multiclass_label_matrix", "31f2e7ed412e0c55",
     dict(num_points=120, num_lfs=10, cardinality=3, accuracy=0.75, propensity=0.4, seed=3)),
    ("generate_multiclass_label_matrix", "964cb5213caaf2c1",
     dict(num_points=200, num_lfs=10, cardinality=3, accuracy=0.75, propensity=0.4, seed=3)),
    ("generate_multiclass_label_matrix", "f3eb5ec07902d4dd",
     dict(num_points=250, num_lfs=10, cardinality=3, accuracy=0.75, propensity=0.4, seed=0)),
    ("generate_multiclass_label_matrix", "41097965faaf0d7b",
     dict(num_points=150, num_lfs=8, cardinality=3, accuracy=0.75, propensity=0.4, seed=1)),
    ("generate_multiclass_label_matrix", "4e41d4d3a12ccfad", dict(
          num_points=1500,
          num_lfs=6,
          cardinality=3,
          accuracy=[0.9, 0.85, 0.8, 0.6, 0.5, 0.45],
          propensity=0.5,
          seed=5,
    )),
    ("generate_multiclass_label_matrix", "371d153ffb7a1b29",
     dict(num_points=400, num_lfs=10, cardinality=3, propensity=0.3, seed=2)),
    ("generate_multiclass_label_matrix", "146a2114c1b62ff9",
     dict(num_points=60, num_lfs=5, cardinality=3, propensity=0.5, seed=1)),
    ("generate_multiclass_label_matrix", "9c5e148ff2a61f76",
     dict(num_points=200, num_lfs=6, cardinality=3, propensity=0.5, seed=0)),
    ("generate_multiclass_label_matrix", "bfb5853cb9945a24",
     dict(num_points=260, num_lfs=6, cardinality=3, propensity=0.4, seed=4)),
    ("generate_multiclass_label_matrix", "0de5d47c36197174",
     dict(num_points=300, num_lfs=6, cardinality=3, propensity=0.5, seed=3)),
    ("generate_multiclass_label_matrix", "c00689145587db37",
     dict(num_points=160, num_lfs=9, cardinality=3, propensity=0.35, seed=3)),
    ("generate_multiclass_label_matrix", "f323b71fbad00dd7",
     dict(num_points=80, num_lfs=6, cardinality=4, seed=0)),
    ("generate_multiclass_label_matrix", "dce2a747b508acc3",
     dict(num_points=160, num_lfs=9, cardinality=4, propensity=0.35, seed=4)),
    ("generate_correlated_label_matrix", "e5c6b173cb07c750", dict(
          num_points=1000,
          num_independent=4,
          num_groups=3,
          group_size=2,
          propensity=0.5,
          copy_probability=0.95,
          seed=3,
    )),
    ("generate_correlated_label_matrix", "b5c55e475d025a12", dict(
          num_points=1200,
          num_independent=6,
          num_groups=4,
          group_size=2,
          propensity=0.5,
          copy_probability=0.95,
          seed=0,
    )),
    ("generate_correlated_label_matrix", "b3e7fbae75796ecc",
     dict(num_points=200, num_groups=3, group_size=3, seed=0)),
    ("generate_correlated_label_matrix", "337d872cc68aaafe",
     dict(num_points=900, num_independent=6, num_groups=4, group_size=3, propensity=0.3, seed=0)),
    ("generate_correlated_label_matrix", "a11ca1b19a4b27b2",
     dict(num_points=800, num_independent=8, num_groups=6, group_size=3, seed=0)),
    ("generate_correlated_label_matrix", "9723c307035c2881",
     dict(num_points=100, seed=1, sparse=True)),
    ("generate_correlated_label_matrix", "e0d9fdd71c4de0ab", dict(num_points=300, seed=1)),
    ("generate_correlated_label_matrix", "46c6d429c07b6384", dict(num_points=300, seed=2)),
    ("generate_correlated_label_matrix", "90171c5dea9e8647", dict(num_points=400, seed=1)),
    ("generate_misspecification_example", "f594a8c71df570c0",
     dict(num_points=100, seed=1, sparse=True)),
    ("generate_misspecification_example", "5067b0ea66614881", dict(num_points=1500, seed=2)),
    ("build_multiclass_task", "39066ad8e05620fe",
     dict(num_points=120, num_lfs=10, cardinality=3, seed=3)),
    ("build_multiclass_task", "7f1ad5efe4b4d8d8",
     dict(num_points=200, num_lfs=10, cardinality=3, seed=3)),
    ("build_multiclass_task", "c032a822ac61fc77",
     dict(num_points=250, num_lfs=10, cardinality=3, seed=0)),
    ("build_multiclass_task", "53a385bc80752999",
     dict(num_points=150, num_lfs=8, cardinality=3, seed=1)),
    ("stream_text_candidates", "8207fc08e4fa79a4",
     dict(num_points=1200, num_lfs=20, cardinality=2, seed=1)),
    ("stream_text_candidates", "5f86060a813a9760",
     dict(num_points=1200, num_lfs=20, cardinality=2, seed=3)),
    ("stream_text_candidates", "b57e6289792150aa",
     dict(num_points=1500, num_lfs=20, cardinality=2, seed=0)),
    ("stream_text_candidates", "bc7e85163c0b4afa",
     dict(num_points=1500, num_lfs=20, cardinality=2, seed=2)),
    ("stream_text_candidates", "2a8adb5bc2717f9d",
     dict(num_points=300, num_lfs=20, cardinality=2, seed=5)),
    ("stream_text_candidates", "6467d27b51aa4cdd",
     dict(num_points=120, num_lfs=5, cardinality=2, seed=4)),
    ("stream_text_candidates", "f3a4a639b9c48549",
     dict(num_points=160, num_lfs=6, cardinality=2, seed=4)),
    ("stream_text_candidates", "56ea115b5533b4ac",
     dict(num_points=40, num_lfs=6, cardinality=2, seed=5)),
    ("stream_text_candidates", "1c6bacb7cd0aa858",
     dict(num_points=157, num_lfs=8, cardinality=2, seed=0)),
    ("stream_text_candidates", "051d687ba0fc0f89",
     dict(num_points=31, num_lfs=8, cardinality=2, seed=6)),
    ("stream_text_candidates", "c9f4ea674b53a9ea",
     dict(num_points=120, num_lfs=5, cardinality=3, seed=4)),
    ("stream_text_candidates", "bf500b4efdc72e19",
     dict(num_points=140, num_lfs=8, cardinality=3, seed=4)),
    ("stream_text_candidates", "5552df14726c6df3",
     dict(num_points=48, num_lfs=8, cardinality=3, seed=9)),
    ("stream_text_candidates", "7511ba7534581f95",
     dict(num_points=200, num_lfs=9, cardinality=3, seed=7)),
    ("stream_text_candidates", "749f7c755853473c",
     dict(num_points=50, num_lfs=9, cardinality=3, seed=8)),
    ("stream_text_candidates", "7112b99cfb0a01f1",
     dict(num_points=300, num_lfs=10, cardinality=4, seed=0)),
    ("stream_text_candidates", "fd56e54342d16ce1",
     dict(num_points=1500, num_lfs=20, cardinality=4, seed=0)),
    ("stream_text_candidates", "915d0b9846ab8cdd",
     dict(num_points=1500, num_lfs=20, cardinality=4, seed=2)),
    ("stream_text_candidates", "a957594d109e0293",
     dict(num_points=300, num_lfs=20, cardinality=4, seed=5)),
    ("stream_text_candidates", "6fb5a09762fba6ad",
     dict(num_points=900, num_lfs=20, cardinality=4, seed=1)),
    ("stream_text_candidates", "9362decb2dc94024",
     dict(num_points=900, num_lfs=20, cardinality=4, seed=3)),
    ("stream_text_candidates", "5dca788d3449a749",
     dict(num_points=160, num_lfs=6, cardinality=4, seed=8)),
    ("stream_text_candidates", "26a93a55f45a9205",
     dict(num_points=300, num_lfs=6, cardinality=4, seed=0)),
    ("stream_text_candidates", "141ea62908e6c125",
     dict(num_points=40, num_lfs=6, cardinality=4, seed=9)),
    ("stream_text_candidates", "979093552896c1b7",
     dict(num_points=60, num_lfs=6, cardinality=4, seed=1)),
    ("stream_text_candidates", "47f7ca1be4408976", dict(num_points=300, num_lfs=12, seed=0)),
    ("stream_text_candidates", "c9c5c982db3e4e9c", dict(num_points=300, num_lfs=12, seed=1)),
    ("stream_text_candidates", "896700814c724c09", dict(num_points=5, num_lfs=2, seed=0)),
    ("stream_text_candidates", "f52057d90b1ab0de", dict(num_points=300, num_lfs=20, seed=0)),
    ("stream_text_candidates", "756aac4b595b291b", dict(num_points=30, num_lfs=4, seed=2)),
    ("stream_text_candidates", "9d6f38c6d97ef401", dict(num_points=300, num_lfs=4, seed=0)),
    ("stream_text_candidates", "f0a692564e9afd65", dict(num_points=300, num_lfs=4, seed=3)),
    ("stream_text_candidates", "6748bc56c83b77ec", dict(num_points=40, num_lfs=4, seed=1)),
    ("stream_text_candidates", "d5f3f01c7bbfc2f8", dict(num_points=110, num_lfs=5, seed=5)),
    ("stream_text_candidates", "1a568e9379b260cd", dict(num_points=300, num_lfs=5, seed=0)),
    ("stream_text_candidates", "26b4ca8a6800ddde", dict(num_points=60, num_lfs=5, seed=1)),
    ("stream_text_candidates", "fe4490d7044cff10", dict(num_points=200, num_lfs=6, seed=0)),
    ("stream_text_candidates", "c1b574fd7bf2ea82", dict(num_points=200, num_lfs=6, seed=4)),
    ("stream_text_candidates", "00d86231080cd57d", dict(num_points=280, num_lfs=6, seed=3)),
    ("stream_text_candidates", "84fa3eab08d69dc6", dict(num_points=300, num_lfs=6, seed=1024)),
    ("stream_text_candidates", "076072f9a920976a", dict(num_points=300, num_lfs=6, seed=2500)),
    ("stream_text_candidates", "df61e175d112b112", dict(num_points=300, num_lfs=6, seed=5)),
    ("stream_text_candidates", "9004d9efdeb80964", dict(num_points=300, num_lfs=6, seed=9)),
    ("stream_text_candidates", "c103216613486276", dict(num_points=60, num_lfs=6, seed=1)),
    ("stream_text_candidates", "b8854e03686bbf67", dict(num_points=7, num_lfs=6, seed=7)),
    ("stream_text_candidates", "413b59b12551d53b", dict(num_points=200, num_lfs=8, seed=2)),
    ("stream_text_candidates", "9954079bed6d854f", dict(num_points=300, num_lfs=8, seed=1)),
    ("stream_text_gold", "48cdb8b7084c0e5f", dict(num_points=100, cardinality=2, seed=1)),
    ("stream_text_gold", "a41eff06c5f612fe", dict(num_points=100, cardinality=2, seed=3)),
    ("stream_text_gold", "6c3fac7652208175", dict(num_points=1200, cardinality=2, seed=1)),
    ("stream_text_gold", "31dc055bca896e2a", dict(num_points=1200, cardinality=2, seed=3)),
    ("stream_text_gold", "89271314d7537630", dict(num_points=40, cardinality=2, seed=5)),
    ("stream_text_gold", "6c24a448d080dde0", dict(num_points=50, cardinality=3, seed=8)),
    ("stream_text_gold", "b6e3140393439dbd", dict(num_points=40, cardinality=4, seed=9)),
    ("stream_text_gold", "4910992e8ecaa707", dict(num_points=60, cardinality=4, seed=1)),
    ("stream_text_gold", "b4cb76839e921aa3", dict(num_points=60, cardinality=4, seed=3)),
    ("stream_text_gold", "ce8c681852a1d0fa", dict(num_points=900, cardinality=4, seed=1)),
    ("stream_text_gold", "5bba42583ffc4111", dict(num_points=900, cardinality=4, seed=3)),
    ("stream_text_gold", "0a5e46f110b87932", dict(num_points=1000, seed=1)),
    ("stream_text_gold", "f9dd84977fc77f58", dict(num_points=40, seed=1)),
    ("stream_text_gold", "469cb646795dde15", dict(num_points=60, seed=1)),
    ("stream_synthetic_candidates", "28b033cb34208451",
     dict(num_points=30, num_lfs=2, propensity=0.4, seed=0)),
    ("stream_synthetic_candidates", "e9bb88485d432644", dict(num_points=8, num_lfs=2, seed=0)),
    ("stream_synthetic_candidates", "fccead68f9aec9d8",
     dict(num_points=20, num_lfs=3, propensity=0.5, seed=1)),
    ("stream_synthetic_candidates", "5f1dac08be39e5a6",
     dict(num_points=200, num_lfs=3, propensity=0.4, seed=1)),
    ("stream_synthetic_candidates", "4f71ecbd131eca4a", dict(num_points=64, num_lfs=3, seed=9)),
    ("stream_synthetic_candidates", "4ba5587d83c152b3",
     dict(num_points=200, num_lfs=4, propensity=0.4, seed=1)),
    ("stream_synthetic_candidates", "2c0c209c788e503c",
     dict(num_points=40, num_lfs=4, propensity=0.5, seed=0)),
    ("stream_synthetic_candidates", "8280eccc8d5e4778",
     dict(num_points=80, num_lfs=4, propensity=0.5, seed=3)),
    ("stream_synthetic_candidates", "f5cc264acdbbe1b9",
     dict(num_points=90, num_lfs=4, propensity=0.4, seed=0)),
    ("stream_synthetic_candidates", "e649b12f8e8e5656",
     dict(num_points=150, num_lfs=5, propensity=0.4, seed=2)),
    ("stream_synthetic_candidates", "d73a276decd8e357",
     dict(num_points=150, num_lfs=5, propensity=0.4, seed=9)),
    ("stream_synthetic_candidates", "a56f66c48e8eca0d",
     dict(num_points=200, num_lfs=5, propensity=0.4, seed=0)),
    ("stream_synthetic_candidates", "b366bace01f4895e",
     dict(num_points=200, num_lfs=6, propensity=0.4, seed=3)),
    ("stream_synthetic_candidates", "9754d5ba331a676a",
     dict(num_points=300, num_lfs=6, propensity=0.4, seed=0)),
    ("stream_synthetic_candidates", "a19ed69ec1533161", dict(num_points=300, num_lfs=6, seed=0)),
    ("synthetic_stream_gold", "b4aeec1bad74a083", dict(num_points=64, seed=9)),
    ("planted_unipolar_matrix", "9495075e4e6065ec", dict()),
]


@pytest.mark.parametrize(
    "entry, digest, kwargs",
    SEED_PINS,
    ids=[f"{entry}-{index}" for index, (entry, _, _) in enumerate(SEED_PINS)],
)
def test_seed_stability_pin(entry, digest, kwargs):
    assert hashlib.sha256(_pin_bytes(entry, kwargs)).hexdigest()[:16] == digest
