"""The contract table: every equivalence the pipeline promises, one row each.

Snorkel learns without ground truth, so what guards this reproduction is a
set of paths that must agree.  A row of :data:`CONTRACTS` holds a seeded
input generator (``full=False`` for tier-1, ``True`` for the cross-checkout
dump), two or more *sides* (callables returning named arrays), the relation
inside one tree, the relation between two checkouts (``bitwise`` unless the
row says otherwise) and the profiles its record names must cover.  Inside
one tree every name two sides return must satisfy the row's relation and
every side must share a name with another; a name only one side returns
(the compiled tier's pushdown summary, an online model's warm posteriors)
is compared across checkouts only.  ``tests/test_contracts.py`` runs every
row small; ``scripts/diff_label_model_fits.py`` dumps every row full under
two checkouts and diffs the dumps.  A new contract is a new row here.

Relations: ``bitwise``, dtype, shape and bytes equal (``-0.0`` is not
``0.0``, ``None`` equals only ``None``); ``≤ tol``, equal shapes compared in
float64, NaN equal to NaN only at the same position, elsewhere
``|a − b| ≤ atol + rtol·|a|``; ``same selection``, the same set of rows.

The rows, their relation inside one tree, and why:

- ``compiled == interpreted`` (bitwise): ``pushdown="auto"`` and ``"off"``
  hand back the same Λ, feature blocks and report, planted LF errors too,
  also over chunks mixing stock and subclassed candidates, and for a suite
  of token kernels (scans, phrase, vocabulary and non-emptiness tests over
  two token columns, a predicate that raises, a ``numpy.str_`` vocabulary)
  also over a row holding a non-``str`` token, and for an LF whose module
  file was rewritten after its import (the compiled tier must run the code
  that was imported, as the interpreter does, not the file as it is now).
- ``processes == threads == sequential`` (bitwise): the sequential, threads
  and processes backends are one result.
- ``warm == cold featurizer`` (bitwise): what a featurizer interned and
  hashed for earlier chunks never shows in a block — the warm side runs
  after another corpus and after chunks that fill the process's token table
  past its cap, the cold side in a fresh process.
- ``label matrix readers dense == csr`` (bitwise): EM, Dawid–Skene, every
  statistic, voter and bound and the optimizer compute on the CSR entries,
  so a dense-held Λ and its ``to_sparse()`` agree.
- ``structure weights dense == csr`` (bitwise; across checkouts ≤ 1e-12,
  since the solver's summation order may move the last digits), its
  ``gemv-only`` case (bitwise across too: no node is stacked, so every
  product is BLAS's) and ``structure select dense == csr`` (bitwise).
- ``refit_nodes == rows of fit`` (bitwise): re-solving some nodes gives
  exactly their rows of the full fit.
- ``em == reference_em`` (≤ 1e-10), ``dawid-skene == reference`` (bitwise:
  the same accumulation order), ``stats == reference_stats`` (≤ 0: counts
  and ratios of counts, whatever the dtype or NaN payload), ``structure ==
  reference_structure`` (≤ 1e-12) and ``structure select ==
  reference_select`` (same selection): the naive ``tests/reference_*.py``
  loops are the independent statement of each estimator.
- ``drained online == batch`` (bitwise): folding chunks and draining, also
  after LF edits, is the batch fit of the same Λ.
- ``end model stream == fit`` (bitwise): ``fit_stream`` at any block size,
  and pipeline-shaped blocks carved in place or per epoch, equal
  ``fit(shuffle=False)``; ``... under class_balance`` only ≤ 1e-12
  relative, as a stream sums the positive mass block by block.
- ``end model resumed == uninterrupted`` (bitwise): a fit killed after
  epoch 2 resumes from its checkpoint to the same bits.
- ``pipeline == staged_reference`` (bitwise): ``run(task)`` and
  ``run_streams``, dense and CSR Λ, equal the stages run one by one.
- ``warm re-run == cold run`` (bitwise): a pipeline run again in the same
  process, after a run over another vocabulary, reuses the compiled LFs and
  the featurizer's hash tables and returns the first run's bits.
- ``documents → candidates == reference`` (bitwise): ``Corpus`` ingest,
  extraction and materialization store the records and candidates that
  ``tests/reference_context.py`` states sentence by sentence — cdr- and
  radiology-shaped corpora and adversarial text (Unicode whitespace, runs of
  ``.!?``, blank documents, NUL, apostrophes, mixed case).
- ``checkpointed pipeline == in RAM`` (bitwise): a run into a fresh
  ``checkpoint_dir`` (every chunk block stored narrowed and read back, the
  end model trained from the stored blocks) and a run killed mid train
  stream then resumed from it both equal the checkpoint-free run.

Rows call only public API (the MLP's parameters excepted: ``_layers`` is
their one store; and two token-kernel LFs call ``_contains_phrase``, the
phrase helper the compiler lowers), so the table runs against an older
checkout as well.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
import reference_context as ref_context
import reference_dawid_skene as ref_ds
import reference_stats as ref
import reference_structure as ref_structure
from reference_em import reference_em

from repro.context.candidates import Candidate, SentenceView, SpanView
from repro.datasets import cdr, radiology
from repro.datasets.base import load_task
from repro.datasets.synth_text import build_relation_task
from repro.datasets.synthetic import (
    build_multiclass_task,
    generate_label_matrix,
    generate_multiclass_label_matrix,
    stream_text_candidates,
    stream_text_gold,
    text_vote_lfs,
)
from repro.discriminative import NoiseAwareLogisticRegression, NoiseAwareMLP, RelationFeaturizer
from repro.discriminative.softmax import NoiseAwareSoftmaxRegression
from repro.evaluation.scorer import BinaryScorer, MultiClassScorer
from repro.labeling import LabelingFunction, LabelMatrix, LFAnalysis, LFApplier
from repro.labeling.blockstore import BlockStore, EpochCheckpoint
from repro.labeling.declarative import _contains_phrase
from repro.labeling.engine import shutdown_pools
from repro.labeling.sparse import class_vote_counts
from repro.labelmodel import (
    DawidSkeneModel,
    GenerativeModel,
    MajorityVoter,
    ModelingStrategyOptimizer,
    MultiClassMajorityVoter,
    OnlineGenerativeModel,
    StructureLearner,
    WeightedMajorityVoter,
    modeling_advantage,
)
from repro.labelmodel.advantage import estimate_advantage_bound_detail
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline
from repro.utils.textutils import normalize


# ------------------------------------------------------------------ relations
@dataclass(frozen=True)
class Relation:
    kind: str  # "bitwise", "≤ tol" or "same selection"
    atol: float = 0.0
    rtol: float = 0.0

    def __str__(self) -> str:
        if self.kind != "≤ tol":
            return self.kind
        return f"≤ {self.rtol:g} rel" if self.rtol else f"≤ {self.atol:g}"

    def holds(self, a, b) -> bool:
        if a is None or b is None:
            return a is b
        a, b = np.asarray(a), np.asarray(b)
        if self.kind == "bitwise":
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        if self.kind == "same selection":
            return rows_of(a) == rows_of(b)
        if a.shape != b.shape:
            return False
        x, y = a.astype(np.float64), b.astype(np.float64)
        nan = np.isnan(x)
        close = (x == y) | (np.abs(x - y) <= self.atol + self.rtol * np.abs(x))
        return bool(np.all((nan == np.isnan(y)) & (nan | close)))


BITWISE = Relation("bitwise")


def tolerance(atol: float = 0.0, rtol: float = 0.0) -> Relation:
    return Relation("≤ tol", atol, rtol)


def rows_of(a: np.ndarray) -> set:
    return set(map(tuple, a.reshape(len(a), -1).tolist())) if a.size else set()


def distance(a, b) -> float:
    """Largest |a − b| in float64; inf where shapes, NaN positions or
    ``None`` differ."""
    if a is None or b is None or np.shape(a) != np.shape(b):
        return 0.0 if a is b else np.inf
    x, y = np.asarray(a), np.asarray(b)
    if x.dtype.kind not in "biuf" or y.dtype.kind not in "biuf":
        return 0.0 if BITWISE.holds(x, y) else np.inf
    x, y = x.astype(np.float64), y.astype(np.float64)
    if not np.array_equal(np.isnan(x), np.isnan(y)):
        return np.inf
    return float(np.abs(x - y)[(x != y) & ~np.isnan(x)].max(initial=0.0))


class Tally(NamedTuple):
    held: int
    compared: int
    uncompared: int  # names only one side (within) or one dump (across) holds
    failures: list
    worst: float = 0.0


def check_within(contract: "Contract", records: dict) -> Tally:
    """Every name two sides return satisfies the row's relation."""
    first, owners, held, failures = {}, {}, 0, []
    for side, arrays in records.items():
        for name, value in arrays.items():
            owners.setdefault(name, []).append(side)
            if name not in first:
                first[name] = (side, value)
            elif contract.within.holds(first[name][1], value):
                held += 1
            else:
                failures.append(f"{side} vs {first[name][0]}: {name}")
    for side, arrays in records.items():
        if not any(len(owners[name]) > 1 for name in arrays):
            failures.append(f"side {side!r} shares no record with another side")
    compared = sum(len(sides) - 1 for sides in owners.values())
    return Tally(held, compared, sum(len(sides) == 1 for sides in owners.values()), failures)


def check_across(contract: "Contract", parent: dict, change: dict) -> Tally:
    """Every record both checkouts hold satisfies the row's across relation."""
    held, compared, one_sided, failures, worst = 0, 0, 0, [], 0.0
    for side in sorted(parent.keys() | change.keys()):
        a, b = parent.get(side, {}), change.get(side, {})
        one_sided += len(a.keys() ^ b.keys())
        for name in sorted(a.keys() & b.keys()):
            compared += 1
            worst = max(worst, distance(a[name], b[name]))
            if contract.across.holds(a[name], b[name]):
                held += 1
            else:
                failures.append(f"{side}: {name}")
    return Tally(held, compared, one_sided, failures, worst)


@dataclass(frozen=True, eq=False)
class Contract:
    name: str
    inputs: Callable[[bool], object]
    sides: dict
    within: Relation = BITWISE
    across: Relation = BITWISE
    profiles: tuple = ()

    def run(self, full: bool = False) -> dict:
        """``{side: {record name: array}}``; raises if a profile is uncovered."""
        inputs = self.inputs(full)
        records = {side: make(inputs) for side, make in self.sides.items()}
        keys = [f"{side}/{name}" for side, arrays in records.items() for name in arrays]
        missing = [p for p in self.profiles if not any(p in key for key in keys)]
        if missing:
            raise AssertionError(f"{self.name}: no record covers profiles {missing}")
        return records


def only(side: Callable, keep: Callable[[str], bool], rename=lambda name: name) -> Callable:
    return lambda inputs: {rename(k): v for k, v in side(inputs).items() if keep(k)}


# ------------------------------------------------------------------ label models
PAIRS = ((0, 1), (2, 3), (0, 4), (1, 4))


class Case(NamedTuple):
    values: np.ndarray
    k: int
    gold: np.ndarray
    lf_accuracies: np.ndarray
    test: np.ndarray
    correlations: tuple


@functools.lru_cache(maxsize=None)
def label_matrices(full: bool) -> dict:
    """k ∈ {2, 3, 4} × {plain, planted correlations}, each with an
    all-abstain row, and an edge matrix with an empty column too."""
    m, rng, cases = 700 if full else 160, np.random.default_rng(0), {}
    for k in (2, 3, 4):
        settings = dict(num_points=m, num_lfs=9, propensity=0.35, seed=k)
        data = (
            generate_label_matrix(**settings)
            if k == 2
            else generate_multiclass_label_matrix(cardinality=k, **settings)
        )
        base = data.label_matrix.values.copy()
        base[5] = 0
        planted = base.copy()
        for a, b in PAIRS[:3]:
            copied = rng.random(m) < 0.7
            planted[copied, b] = planted[copied, a]
        test = base[rng.permutation(m)[: m * 3 // 14]]
        for name, values, pairs in (("plain", base, ()), ("correlated", planted, PAIRS)):
            case = Case(values, k, data.gold_labels, data.lf_accuracies, test, pairs)
            cases[f"k{k} {name}"] = case
    edge = np.array([[1, -1, 0, 1], [0, 1, 0, -1], [0, 0, 0, 0], [-1, 0, 0, 0], [1, 1, 0, 1]])
    accuracies = np.array([0.8, 0.7, 0.6, 0.9])
    cases["edge"] = Case(edge, 2, np.array([1, -1, 1, -1, 1]), accuracies, edge, ((0, 3),))
    return cases


def held(values, k: int, storage: str) -> LabelMatrix:
    matrix = LabelMatrix(values, cardinality=k)
    return matrix.to_sparse() if storage == "csr" else matrix


def tests_of(case: Case) -> dict:
    return {f"test {storage}": held(case.test, case.k, storage) for storage in ("dense", "csr")}


def label_model_records(tag: str, model, inputs: dict) -> dict:
    history = model.history
    out = {
        f"{tag}/accuracy weights": model.accuracy_weights,
        f"{tag}/prior_weight": np.float64(model.class_prior_weight_),
        f"{tag}/priors": model.class_priors_,
        f"{tag}/history": np.array(
            [history.epochs, *history.weight_deltas, *history.mean_accuracy_weights]
        ),
    }
    out.update({f"{tag}/predict {name}": model.predict_proba(m) for name, m in inputs.items()})
    return out


def em_fits(cases: dict):
    """``(tag, case, epochs, class balance)`` of every EM fit."""
    for name, case in cases.items():
        k, epochs = case.k, 10 if name == "edge" else 14
        yield f"em {name} estimated", case, epochs, None
        if name != "edge":
            supplied = 0.3 if k == 2 else list(np.arange(1, k + 1) / np.arange(1, k + 1).sum())
            yield f"em {name} supplied", case, epochs, supplied


def plain(cases: dict, *more):
    """The plain cases (× ``more``), which Dawid–Skene and the online model
    fit."""
    return itertools.product([(n, c) for n, c in cases.items() if n.endswith("plain")], *more)


def label_models(storage: str) -> Callable:
    """EM fits of every case; Dawid–Skene fits of the first 200 rows of each
    plain one."""

    def side(cases: dict) -> dict:
        out = {}
        for tag, case, epochs, balance in em_fits(cases):
            matrix = held(case.values, case.k, storage)
            inputs = {"train": matrix, **({} if "edge" in tag else tests_of(case))}
            model = GenerativeModel(epochs=epochs, class_balance=balance, seed=0)
            out.update(label_model_records(tag, model.fit(matrix, case.correlations), inputs))
        for (name, case), symmetric in plain(cases, (False, True)):
            matrix = held(case.values[:200], case.k, storage)
            model = DawidSkeneModel(case.k, max_iter=25, symmetric=symmetric).fit(matrix)
            tag = f"dawid-skene {name} {'symmetric' if symmetric else 'full'}"
            out[f"{tag} confusion"] = model.confusion.copy()
            out[f"{tag} class_priors"] = model.class_priors.copy()
            out[f"{tag} posteriors"] = model.posteriors_.copy()
            out[f"{tag} predict"] = model.predict(matrix)
            for test_name, test in tests_of(case).items():
                out[f"{tag} predict_proba {test_name}"] = model.predict_proba(test)
        return out

    return side


def reference_em_side(cases: dict) -> dict:
    out = {}
    for tag, case, epochs, balance in em_fits(cases):
        weights, priors, posteriors = reference_em(
            case.values, case.k, case.correlations, balance, epochs
        )
        out[f"{tag}/accuracy weights"] = weights
        if case.k == 2:
            out[f"{tag}/prior_weight"] = np.float64(0.5 * np.log(priors[1] / priors[0]))
        else:
            out[f"{tag}/priors"] = priors
        out[f"{tag}/predict train"] = posteriors[:, 1] if case.k == 2 else posteriors
    return out


def reference_dawid_skene_side(cases: dict) -> dict:
    out = {}
    for (name, case), symmetric in plain(cases, (False, True)):
        train = ref_ds.recode(case.values[:200], signed=case.k == 2)
        fitted = ref_ds.fit(train, case.k, max_iter=25, symmetric=symmetric)
        tag = f"dawid-skene {name} {'symmetric' if symmetric else 'full'}"
        for part, array in zip(("confusion", "class_priors", "posteriors"), fitted):
            out[f"{tag} {part}"] = array
        test = ref_ds.recode(case.test, signed=case.k == 2)
        out[f"{tag} predict_proba test dense"] = ref_ds.predict_proba(test, *fitted[:2])
    return out


# ------------------------------------------------------------------ statistics
def pairs_of(lists) -> np.ndarray:
    return np.array([[j, value] for j, values in enumerate(lists) for value in values])


def labels_of(k: int):
    return (-1, 1) if k == 2 else range(1, k + 1)


def weights_of(case: Case) -> np.ndarray:
    accuracies = case.lf_accuracies
    return 0.5 * np.log(accuracies * (case.k - 1) / (1 - accuracies))


def summary_rows(summary) -> tuple:
    rows = [
        [row.coverage, row.overlap, row.conflict, row.num_labeled,
         np.nan if row.empirical_accuracy is None else row.empirical_accuracy]
        for row in summary
    ]
    return rows, pairs_of(row.polarity for row in summary)


def voted(voter, matrix) -> tuple:
    scores = (voter.vote_scores(matrix),) if hasattr(voter, "vote_scores") else ()
    return (*scores, voter.predict_proba(matrix), voter.predict(matrix))


def bound_detail(detail) -> list:
    return [detail.bound, detail.label_density, detail.num_candidates, detail.num_disagreement_rows]


def optimizer_records(strategy) -> tuple:
    threshold = strategy.correlation_threshold
    bound = [strategy.use_generative_model, strategy.advantage_bound]
    sizes = [point.num_correlations for point in strategy.sweep]
    return [*bound, np.nan if threshold is None else threshold], strategy.correlations, sizes


def binary(value):
    return lambda *args: value(*args) if args[-1].k == 2 else None


def categorical(value):
    return lambda *args: value(*args) if args[-1].k > 2 else None


#: Everything read off Λ besides the fits: ``name -> (library(Λ, LFAnalysis,
#: case), reference(dense values, case) or None)``.  A tuple is recorded as
#: ``name 0``, ``name 1``…; ``None`` means undefined at that cardinality.
STATISTICS = {
    "density, coverage": (
        lambda m, a, c: [m.label_density(), m.coverage()],
        lambda v, c: [ref.label_density(v), ref.coverage(v)],
    ),
    "lf_coverage": (lambda m, a, c: m.lf_coverage(), lambda v, c: ref.lf_coverage(v)),
    "lf_polarity": (
        lambda m, a, c: pairs_of(m.lf_polarity()), lambda v, c: pairs_of(ref.lf_polarity(v))
    ),
    "class_balance": (
        lambda m, a, c: sorted(m.class_balance().items()),
        lambda v, c: sorted(ref.class_balance(v).items()),
    ),
    "vote_counts": (
        lambda m, a, c: [m.vote_counts(label) for label in labels_of(c.k)],
        lambda v, c: [ref.vote_counts(v, label) for label in labels_of(c.k)],
    ),
    "covered_rows": (lambda m, a, c: m.covered_rows(), lambda v, c: ref.covered_rows(v)),
    "row_sums": (lambda m, a, c: m.row_sums(), lambda v, c: ref.row_sums(v)),
    "overlap, conflict": (
        lambda m, a, c: [a.overlap_fraction(), a.conflict_fraction()],
        lambda v, c: [ref.overlap_fraction(v), ref.conflict_fraction(v)],
    ),
    "lf_coverages": (lambda m, a, c: a.lf_coverages(), lambda v, c: ref.lf_coverage(v)),
    "lf_overlaps": (lambda m, a, c: a.lf_overlaps(), lambda v, c: ref.lf_overlaps(v)),
    "lf_conflicts": (lambda m, a, c: a.lf_conflicts(), lambda v, c: ref.lf_conflicts(v)),
    "lf_empirical_accuracies": (
        lambda m, a, c: a.lf_empirical_accuracies(c.gold),
        lambda v, c: ref.lf_empirical_accuracies(v, c.gold),
    ),
    "summary": (lambda m, a, c: summary_rows(a.summary()), None),
    "summary gold": (lambda m, a, c: summary_rows(a.summary(c.gold)), None),
    "MV": (
        binary(lambda m, a, c: voted(MajorityVoter(), m)),
        binary(lambda v, c: (ref.row_sums(v), ref.majority_proba(v))),
    ),
    "WMV": (binary(lambda m, a, c: voted(WeightedMajorityVoter(weights_of(c)), m)), None),
    "modeling_advantage": (
        binary(lambda m, a, c: modeling_advantage(m, c.gold, weights_of(c))), None
    ),
    "bound detail": (
        binary(lambda m, a, c: bound_detail(estimate_advantage_bound_detail(m))),
        binary(lambda v, c: ref.advantage_bound(v)),
    ),
    "multi-class MV": (
        categorical(lambda m, a, c: voted(MultiClassMajorityVoter(c.k), m)),
        categorical(lambda v, c: (ref.multiclass_majority_proba(v, c.k),)),
    ),
    "class_vote_counts": (
        categorical(lambda m, a, c: class_vote_counts(m, c.k)),
        categorical(lambda v, c: ref.class_vote_counts(v, c.k)),
    ),
    "class_vote_counts weighted": (
        categorical(lambda m, a, c: class_vote_counts(m, c.k, weights_of(c))), None
    ),
    "optimizer": (lambda m, a, c: optimizer_records(ModelingStrategyOptimizer().choose(m)), None),
}


def put(out: dict, key: str, value) -> None:
    if isinstance(value, tuple):
        out.update({f"{key} {i}": np.asarray(part) for i, part in enumerate(value)})
    elif value is not None:
        out[key] = np.asarray(value)


def statistics(storage: str) -> Callable:
    def side(cases: dict) -> dict:
        out = {}
        for name, case in cases.items():
            matrix = held(case.values, case.k, storage)
            analysis = LFAnalysis(matrix)
            for what, (library, _) in STATISTICS.items():
                put(out, f"stats {name} {what}", library(matrix, analysis, case))
        return out

    return side


def reference_stats_side(cases: dict) -> dict:
    out = {}
    for (name, case), (what, (_, reference)) in itertools.product(
        cases.items(), STATISTICS.items()
    ):
        put(out, f"stats {name} {what}", reference and reference(case.values, case))
    return out


# ------------------------------------------------------------------ structure
#: The ε the optimizer sweeps (``i · 0.05``, i = 1..10).
THRESHOLDS = [round(i * 0.05, 10) for i in range(1, 11)]

#: Node sizes on either side of the solver's gemv rule (4096 design
#: elements) and the served node-size profiles: a cdr-shaped Λ (every node
#: stacked), an edit-loop-shaped one (21 gemv nodes, one stacked), and one
#: with no stacked node.
NODE_CASES = {
    "small nodes": dict(num_points=600, num_lfs=12, propensity=0.1, seed=5),
    "straddling nodes": dict(
        num_points=2500, num_lfs=8, propensity=[0.04, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0], seed=6
    ),
    "cdr-shaped nodes": dict(
        num_points=485, num_lfs=32, seed=7,
        propensity=[*np.linspace(10 / 485, 114 / 485, 20)] + [0.01] * 12,
    ),
    "edit-loop-shaped nodes": dict(
        num_points=5000, num_lfs=22, propensity=[*np.linspace(0.05, 0.54, 21), 0.027], seed=8
    ),
    "gemv-only nodes": dict(
        num_points=3000, num_lfs=7, propensity=np.linspace(0.3, 0.9, 7), seed=9
    ),
}


@functools.lru_cache(maxsize=None)
def structure_fits(storage: str, full: bool) -> dict:
    """Per label-matrix and node case: ``fit`` weights, ``select`` at every
    ε and, with the first and last node's rows overwritten, ``refit_nodes``
    of those two; or the naive loop's weights and selections."""
    cases = {name: (case.values, case.k) for name, case in label_matrices(full).items()}
    for name, settings in NODE_CASES.items():
        cases[name] = (generate_label_matrix(**settings).label_matrix.values, 2)
    out = {}
    for name, (values, k) in cases.items():
        if storage == "reference":
            weights = ref_structure.reference_structure_fit(values, k > 2)
            select = functools.partial(ref_structure.reference_select, weights)
        else:
            matrix = held(values, k, storage)
            learner = StructureLearner(seed=0).fit(matrix)
            weights, select = learner.dependency_weights_.copy(), learner.select
            learner.dependency_weights_[[0, -1]] = 7.0
            refitted = learner.refit_nodes(matrix, [0, matrix.num_lfs - 1]).dependency_weights_
            out[f"structure {name}/refit_nodes"] = refitted.copy()
        out[f"structure {name}/fit"] = weights
        for threshold in THRESHOLDS:
            out[f"structure {name}/select {threshold}"] = np.array(select(threshold))
    return out


def structure(storage: str, keep: Callable[[str], bool], rename=lambda name: name) -> Callable:
    return only(functools.partial(structure_fits, storage), keep, rename)


def is_weights(name: str, gemv_only: bool = False) -> bool:
    return "/select " not in name and ("gemv-only" in name) == gemv_only


def is_selection(name: str) -> bool:
    return "/select " in name


# ------------------------------------------------------------------ online
def online(batch: bool) -> Callable:
    """Quarters of each plain Λ folded online and drained (the warm
    posteriors and statistics along the way are side-only records), or fit
    in one batch; then again after 100 rows more, LF 0 copied to the end
    and LF 1 dropped, correlation pairs remapped."""

    def side(cases: dict) -> dict:
        out = {}
        for (name, case), pairs in plain(cases, ((), PAIRS[:2])):
            k, step = case.k, len(case.values) // 4
            base, tag = case.values[: 4 * step], f"k{k} {len(pairs)} pairs"
            edited = np.vstack([base, case.values[:100]])
            edited = np.delete(np.column_stack([edited, edited[:, 0]]), 1, axis=1)
            remapped = [(a - (a > 1), b - (b > 1)) for a, b in pairs if 1 not in (a, b)]
            if batch:
                for suffix, values, correlations, tests in (
                    ("", base, pairs, tests_of(case)), (" after edits", edited, remapped, {})
                ):
                    model = GenerativeModel(epochs=9, cardinality=k, seed=0)
                    model.fit(held(values, k, "csr"), correlations)
                    out.update(label_model_records(tag + suffix, model, tests))
                continue
            model = OnlineGenerativeModel(cardinality=k, correlations=pairs, epochs=9, seed=0)
            for start in range(0, 4 * step, step):
                model.update(base[start : start + step])
                for test_name, test in tests_of(case).items():
                    out[f"{tag} warm {start}/{test_name}"] = model.posteriors(test)
                out[f"{tag} accuracies {start}"] = model.accuracies_.copy()
            out.update(label_model_records(tag, model.drain(), tests_of(case)))
            out[f"{tag} re-anchored accuracies"] = model.accuracies_.copy()
            out[f"{tag} re-anchored counts"] = model.expected_correct_.copy()
            out[f"{tag} re-anchored mass"] = np.asarray(model.posterior_mass_)
            model.update(case.values[:100])
            model.add_lf(edited[:, -1])
            model.remove_lf(1)
            out.update(label_model_records(f"{tag} after edits", model.drain(), {}))
        return out

    return side


# ------------------------------------------------------------------ end models
class EndModelCase(NamedTuple):
    make: Callable  # make(**kwargs) -> an unfitted model
    features: object
    targets: np.ndarray
    kept: np.ndarray  # the pipeline-shaped fits' kept rows
    blocks: tuple  # and their block sizes


@functools.lru_cache(maxsize=None)
def end_model_cases(full: bool) -> dict:
    """Logistic (± class balance, CSR and dense), softmax (hard and soft
    targets) and MLP (± dropout).  The pipeline-shaped blocks are like
    engine chunks, none a multiple of the batch size (32); the kept mask
    keeps the first whole and drops the one-row block."""
    blocks = (37, 70, 1, 95, 97) if full else (37, 70, 1, 42)
    n, rng = sum(blocks), np.random.default_rng(0)
    candidates = list(stream_text_candidates(num_points=n, num_lfs=6, seed=0))
    csr = RelationFeaturizer(num_features=96).fit().transform(candidates, sparse=True)
    soft, distributions = rng.random(n), rng.random((n, 3))
    distributions /= distributions.sum(axis=1, keepdims=True)
    kept = rng.random(n) < 0.8
    kept[:37], kept[107] = True, False

    def model(cls, *args, **kwargs):
        return functools.partial(cls, *args, epochs=5, batch_size=32, seed=0, **kwargs)

    logistic, softmax = model(NoiseAwareLogisticRegression), model(NoiseAwareSoftmaxRegression, 3)
    cases = {}
    for balance, (storage, features) in itertools.product(
        (None, 0.3), (("csr", csr), ("dense", csr.toarray()))
    ):
        make = functools.partial(logistic, class_balance=balance)
        cases[f"logistic balance {balance} {storage}"] = (make, features, soft)
    cases["softmax hard targets"] = (softmax, csr, 1 + np.arange(n) % 3)
    cases["softmax soft targets"] = (softmax, csr, distributions)
    for dropout in (0.0, 0.2):
        make = model(NoiseAwareMLP, hidden_sizes=(8, 4), dropout=dropout)
        cases[f"mlp dropout {dropout}"] = (make, csr, soft)
    return {name: EndModelCase(*case, kept, blocks) for name, case in cases.items()}


def parameters(tag: str, model) -> dict:
    if hasattr(model, "_layers"):
        out = {
            f"{tag}/layer {index} {part}": np.array(array)
            for index, layer in enumerate(model._layers)
            for part, array in zip(("weight", "bias"), layer)
        }
    else:
        out = {f"{tag}/weights": np.array(model.weights), f"{tag}/bias": np.array(model.bias)}
    return {**out, f"{tag}/loss_history": np.array(model.loss_history)}


def blocks_of(case: EndModelCase, size: int) -> list:
    n = len(case.targets)
    rows = [np.arange(start, min(start + size, n)) for start in range(0, n, size)]
    return [(case.features[index], case.targets[index]) for index in rows]


def pipeline_carved(features, targets, sizes, keep, in_place: bool):
    """Blocks of ``sizes`` rows carved to ``keep``: in the block's own arrays
    (``keep_rows``, as the pipeline carves the sequence it hands over), or
    as a copy per epoch for a callable source, whose blocks every epoch
    must find whole."""
    start = 0
    for size in sizes:
        block = features[np.arange(start, start + size)]
        local = np.flatnonzero(keep[start : start + size])
        if 0 < local.size < size:
            owned = in_place and hasattr(block, "keep_rows")
            block = block.keep_rows(local) if owned else block[local]
        if local.size:
            yield block, targets[start + local]
        start += size


class DiesAfterEpoch2(EpochCheckpoint):
    def save(self, state: dict) -> None:
        super().save(state)
        if state["epoch"] == 2:
            raise InterruptedError


def killed_and_resumed(make: Callable, blocks: list):
    with tempfile.TemporaryDirectory() as root, BlockStore(root) as store:
        try:
            make().fit_stream(blocks, checkpoint=DiesAfterEpoch2(store, "fit"))
        except InterruptedError:
            pass
        return make().fit_stream(blocks, checkpoint=EpochCheckpoint(store, "fit"))


def train(case: EndModelCase, how: str) -> dict:
    """One way to train ``case`` on the ordered schedule; ``fit`` also
    records side-only shuffled and sample-weighted fits."""
    make = functools.partial(case.make, shuffle=False)
    if how == "fit":
        rows, weights = np.flatnonzero(case.kept), np.linspace(0.5, 1.5, len(case.targets))
        return {
            **parameters("", make().fit(case.features, case.targets)),
            **parameters(" kept rows", make().fit(case.features[rows], case.targets[case.kept])),
            **parameters(" shuffled", case.make().fit(case.features, case.targets)),
            **parameters(" weighted", make().fit(case.features, case.targets, weights)),
        }
    if how.startswith("fit_stream blocks of "):
        return parameters("", make().fit_stream(blocks_of(case, int(how.rsplit(" ", 1)[1]))))
    if how == "resumed":
        return parameters("", killed_and_resumed(make, blocks_of(case, 37)))
    carve = functools.partial(pipeline_carved, case.features, case.targets, case.blocks, case.kept)
    source = list(carve(True)) if how == "pipeline-shaped sequence" else lambda: carve(False)
    return parameters(" kept rows", make().fit_stream(source))


def end_models(keep: Callable[[str], bool], *hows: str) -> dict:
    return {
        how: lambda cases, how=how: {
            name + record: value
            for name, case in cases.items() if keep(name)
            for record, value in train(case, how).items()
        }
        for how in hows
    }


STREAMS = (
    "fit", "fit_stream blocks of 1", "fit_stream blocks of 37", "fit_stream blocks of 32",
    "fit_stream blocks of 400", "pipeline-shaped sequence", "pipeline-shaped callable",
)


# ------------------------------------------------------------------ pipeline
def staged_reference(task, config):
    """The pipeline's stages one by one on materialized lists — the oracle
    the one execution path must equal.  It shares neither
    ``apply_with_features`` nor ``fit_stream`` with the pipeline: Λ comes
    from ``LFApplier.apply``, features from ``transform``, and the end model
    from ``fit(X[keep], Ỹ[keep])`` on the stream-order schedule."""
    train, test = task.split_candidates("train"), task.split_candidates("test")
    applier = LFApplier(task.lfs)
    label_matrix = applier.apply(train, sparse=config.sparse_labels)
    test_matrix = applier.apply(test, sparse=config.sparse_labels)
    correlations = []
    if config.use_optimizer:
        strategy = ModelingStrategyOptimizer(
            advantage_tolerance=config.advantage_tolerance,
            learn_correlations=config.learn_correlations,
        ).choose(label_matrix)
        assert strategy.use_generative_model
        correlations = strategy.correlations
    label_model = GenerativeModel(
        epochs=config.generative_epochs,
        cardinality=task.cardinality,
        seed=config.seed,
    ).fit(label_matrix, correlations=correlations)
    training_probs = label_model.predict_proba(label_matrix)
    settings = dict(epochs=config.discriminative_epochs, shuffle=False, seed=config.seed)
    if task.cardinality == 2:
        scorer = BinaryScorer()
        uninformative = np.isclose(training_probs, 0.5)
        end_model = NoiseAwareLogisticRegression(**settings)
    else:
        scorer = MultiClassScorer(task.cardinality)
        uninformative = np.isclose(training_probs.max(axis=1), 1.0 / task.cardinality)
        end_model = NoiseAwareSoftmaxRegression(num_classes=task.cardinality, **settings)
    keep = np.flatnonzero(label_matrix.covered_rows() & ~uninformative)
    featurizer = RelationFeaturizer(num_features=config.num_features).fit()
    end_model.fit(featurizer.transform(train, sparse=True)[keep], training_probs[keep])
    test_gold = task.split_gold("test")
    test_probs = end_model.predict_proba(featurizer.transform(test, sparse=True))
    return dict(
        label_values=label_matrix.values,
        training_probs=training_probs,
        weights=end_model.weights,
        bias=np.asarray(end_model.bias),
        generative_f1=scorer.score_probabilities(
            test_gold, label_model.predict_proba(test_matrix)
        ).f1,
        discriminative_f1=scorer.score_probabilities(test_gold, test_probs).f1,
    )


@functools.lru_cache(maxsize=None)
def pipeline_tasks(full: bool) -> dict:
    """A k = 2 task through the optimizer and a k = 3 one without it."""
    k3 = build_multiclass_task(num_points=200 if full else 120, num_lfs=10, cardinality=3, seed=3)
    return {
        "k2": (load_task("cdr", scale=0.05 if full else 0.03, seed=0), dict(seed=0)),
        "k3": (k3, dict(seed=0, use_optimizer=False, generative_epochs=5, discriminative_epochs=8)),
    }


def pipeline(how: str, sparse_labels: bool = True) -> Callable:
    def side(tasks: dict) -> dict:
        out = {}
        for name, (task, settings) in tasks.items():
            config = PipelineConfig(chunk_size=64, sparse_labels=sparse_labels, **settings)
            if how == "staged_reference":
                result = staged_reference(task, config)
            else:
                runner = SnorkelPipeline(lfs=task.lfs, config=config)
                run = runner.run(task) if how == "run(task)" else runner.run_streams(
                    task.stream_candidates("train"), task.stream_candidates("test"),
                    task.split_gold("test"),
                )
                model = run.discriminative_model
                result = dict(
                    label_values=run.label_matrix.values, training_probs=run.training_probs,
                    weights=model.weights, bias=model.bias,
                    generative_f1=run.generative_f1, discriminative_f1=run.discriminative_f1,
                )
            out.update({f"{name} {part}": np.asarray(value) for part, value in result.items()})
        return out

    return side


def rerun_cases(full: bool) -> dict:
    """Text-shaped k = 2 and k = 4 streams and the compiled cdr suite, as
    ``(make LFs, make streams, config)``: every call builds new LF objects."""
    n = 400 if full else 160

    def text(k):
        def streams():
            test = stream_text_candidates(n // 4, num_lfs=6, cardinality=k, seed=2 * k + 1)
            train = stream_text_candidates(n, num_lfs=6, cardinality=k, seed=2 * k)
            return train, test, stream_text_gold(n // 4, cardinality=k, seed=2 * k + 1)

        return lambda: text_vote_lfs(6, cardinality=k), streams, dict(seed=0, chunk_size=64)

    def cdr():
        return load_task("cdr", scale=0.05 if full else 0.03, seed=0)

    def cdr_streams():
        task = cdr()
        splits = map(task.stream_candidates, ("train", "test"))
        return (*splits, task.split_gold("test"))

    return {
        "text k2": text(2),
        "text k4": text(4),
        "cdr": (lambda: cdr().lfs, cdr_streams, dict(seed=0, chunk_size=64)),
    }


def unrelated_run() -> None:
    """A run over another vocabulary (k = 3, other LFs and tokens)."""
    SnorkelPipeline(lfs=text_vote_lfs(9, cardinality=3), config=PipelineConfig(seed=0)).run_streams(
        stream_text_candidates(200, num_lfs=9, cardinality=3, seed=7),
        stream_text_candidates(50, num_lfs=9, cardinality=3, seed=8),
        stream_text_gold(50, cardinality=3, seed=8),
    )


def rerun(warm: bool) -> Callable:
    """Each case's first run in a pipeline over new LF objects; or, warm, the
    same pipeline's second run, with an unrelated run in between."""

    def side(cases: dict) -> dict:
        out = {}
        for name, (make_lfs, streams, settings) in cases.items():
            runner = SnorkelPipeline(lfs=make_lfs(), config=PipelineConfig(**settings))
            run = runner.run_streams(*streams())
            if warm:
                unrelated_run()
                run = runner.run_streams(*streams())
            model = run.discriminative_model
            result = dict(
                label_values=run.label_matrix.values, training_probs=run.training_probs,
                weights=model.weights, bias=model.bias,
                generative_f1=run.generative_f1, discriminative_f1=run.discriminative_f1,
            )
            out.update({f"{name} {part}": np.asarray(value) for part, value in result.items()})
        return out

    return side


class PlannedCrash(Exception):
    """Raised by a train stream mid-pass: the run dies there."""


def crashing(candidates, after: int):
    for index, candidate in enumerate(candidates):
        if index == after:
            raise PlannedCrash(after)
        yield candidate


def checkpoint_cases(full: bool) -> dict:
    """The text-shaped k = 2 and k = 4 cases of :func:`rerun_cases`."""
    return {name: case for name, case in rerun_cases(full).items() if name.startswith("text")}


def checkpointed(how: str) -> Callable:
    """Each case run in RAM, into a fresh ``checkpoint_dir``, or killed half
    way through its train stream and resumed from the same directory (by a
    new pipeline over new LF objects, as a restarted process would)."""

    def side(cases: dict) -> dict:
        out = {}
        for name, (make_lfs, streams, settings) in cases.items():
            with tempfile.TemporaryDirectory() as root:
                directory = None if how == "in RAM" else root
                config = PipelineConfig(checkpoint_dir=directory, **settings)

                def run(train, test, gold):
                    return SnorkelPipeline(lfs=make_lfs(), config=config).run_streams(
                        train, test, gold
                    )

                if how == "killed and resumed":
                    train, test, gold = streams()
                    train = list(train)
                    try:
                        run(crashing(train, len(train) // 2), test, gold)
                    except PlannedCrash:
                        pass
                    else:
                        raise AssertionError("the crashing stream did not raise")
                result = run(*streams())
            model = result.discriminative_model
            featurizer = RelationFeaturizer(num_features=config.num_features).fit()
            test_features = featurizer.transform(list(streams()[1]), sparse=True)
            records = dict(
                label_values=result.label_matrix.values, training_probs=result.training_probs,
                weights=model.weights, bias=model.bias,
                test_probs=model.predict_proba(test_features),
                discriminative_f1=result.discriminative_f1,
            )
            out.update({f"{name} {part}": np.asarray(value) for part, value in records.items()})
        return out

    return side


# ------------------------------------------------------------------ labeling
def raises_on_thirds(candidate) -> int:
    """The planted faulty LF (module level: it has to reach pool workers)."""
    if candidate.uid % 3 == 0:
        raise KeyError(f"boom on {candidate.uid}")
    return 1 if candidate.uid % 2 else -1


class Subclassed(Candidate):
    """A candidate class that overrides an accessor: chunks mixing it with
    stock candidates take the per-row paths the block stands in for."""

    def words_between(self):
        return Candidate.words_between(self)[::-1]


#: A vocabulary of ``numpy.str_`` (what ``np.loadtxt(..., dtype=str)`` yields).
NUMPY_VOCABULARY = tuple(np.array(["lf1vp", "lf1vn", "filler3"]))
KEYWORDS = frozenset({"class1tok0", "lf2vp", "filler5"})


def vote_scan(candidate) -> int:
    for word in candidate.sentence.words:
        if word.startswith("lf3v"):
            return 1 if word.endswith("p") else -1
    return 0


def digit_scan(candidate) -> int:
    """Its predicate raises on every token that does not end in a digit."""
    for word in candidate.sentence.words:
        if int(word[-1]) > 5:
            return 1
    return 0


def numpy_vocabulary_scan(candidate) -> int:
    for word in candidate.words_between():
        if word in NUMPY_VOCABULARY:
            return -1 if word.endswith("n") else 1
    return 0


def keyword_loop(candidate) -> int:
    for word in candidate.sentence.words:
        if normalize(word) in KEYWORDS:
            return -1
    return 0


def keyword_overlap(candidate) -> int:
    return 1 if {normalize(word) for word in candidate.words_between()} & KEYWORDS else 0


def phrase_between(candidate) -> int:
    words = [normalize(word) for word in candidate.words_between()]
    return -1 if _contains_phrase(words, ("filler0",)) else 0


def phrase_in_sentence(candidate) -> int:
    words = [normalize(word) for word in candidate.sentence.words]
    return 1 if _contains_phrase(words, ("lf0vp",)) else 0


def anything_between(candidate) -> int:
    return 1 if [normalize(word) for word in candidate.words_between()] else -1


def any_word(candidate) -> int:
    return 1 if {normalize(word) for word in candidate.sentence.words} else 0


#: Scans, ``eq``, ``isin`` and ``nonempty`` kernels over the sentence words
#: and ``words_between()``: the compiled tier resolves each column's kernels
#: together.
TOKEN_KERNEL_LFS = (
    vote_scan, digit_scan, numpy_vocabulary_scan, keyword_loop, keyword_overlap, phrase_between,
    phrase_in_sentence, anything_between, any_word,
)


def with_a_non_str_token(candidate: Candidate) -> Candidate:
    """``candidate`` with the first word after its first span a ``numpy.str_``."""
    words = list(candidate.sentence.words)
    words[candidate.span1.word_end] = np.str_(words[candidate.span1.word_end])
    return replace(candidate, sentence=replace(candidate.sentence, words=words))


#: The module of :func:`edited_after_import`'s LF, as imported; the file is
#: then rewritten to vote the other way.
EDITED_MODULE = (
    "from repro.labeling import labeling_function\n"
    "from repro.types import ABSTAIN, POSITIVE\n\n\n"
    "@labeling_function()\n"
    "def lf_far(x):\n"
    "    return POSITIVE if x.token_distance() > 3 else ABSTAIN\n"
)


def edited_after_import(directory: str) -> list:
    """The LF of :data:`EDITED_MODULE`, written to ``directory`` and
    imported, after which its file is rewritten to vote ``-POSITIVE``: the
    code that runs is no longer the file on disk."""
    path = os.path.join(directory, "lf_edited_after_import.py")
    with open(path, "w") as handle:
        handle.write(EDITED_MODULE)
    spec = importlib.util.spec_from_file_location("lf_edited_after_import", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with open(path, "w") as handle:
        handle.write(EDITED_MODULE.replace("return POSITIVE", "return -POSITIVE"))
    return [module.lf_far]


@functools.lru_cache(maxsize=None)
def mixed_labeling_inputs(full: bool) -> dict:
    """:func:`labeling_inputs` plus two suites, ``token kernels`` and
    ``edited after import`` (its module file lives as long as the inputs),
    and two sources: ``mixed``, every third candidate :class:`Subclassed`,
    and ``non-str token``, one row holding a ``numpy.str_`` token (not
    exactly a ``str``: every token kernel takes that row's per-row path)."""
    inputs = labeling_inputs(full)
    candidates = inputs["candidates"]
    mixed = tuple(
        Subclassed(c.uid, c.span1, c.span2, c.sentence, c.relation_type, c.split, c.gold_label)
        if c.uid % 3 == 0 else c
        for c in candidates
    )
    odd = (*candidates[:5], with_a_non_str_token(candidates[5]), *candidates[6:])
    sources = {
        **inputs["sources"], "mixed": lambda: list(mixed), "non-str token": lambda: list(odd),
    }
    kernels = [LabelingFunction(body.__name__, body) for body in TOKEN_KERNEL_LFS]
    directory = tempfile.TemporaryDirectory()
    suites = {
        **inputs["suites"], "token kernels": kernels,
        "edited after import": edited_after_import(directory.name),
    }
    return {**inputs, "sources": sources, "suites": suites, "module directory": directory}


@functools.lru_cache(maxsize=None)
def labeling_inputs(full: bool) -> dict:
    candidates = tuple(stream_text_candidates(num_points=150 if full else 60, num_lfs=6, seed=0))
    clean = text_vote_lfs(6)
    faulty = clean + [LabelingFunction("raises_on_thirds", raises_on_thirds)]
    sources = dict(list=lambda: list(candidates), generator=lambda: iter(candidates), empty=list)
    return dict(candidates=candidates, sources=sources, suites={"clean": clean, "faulty": faulty})


def text(value) -> np.ndarray:
    return np.frombuffer(repr(value).encode(), dtype=np.uint8)


def labeling_records(tag: str, applier: LFApplier, matrix, blocks) -> dict:
    """Λ as held, the chunk-ordered feature blocks (widened to int64 and
    float64) and the deterministic report fields; the pushdown summary and
    the transport under names that carry the setting they depend on."""
    parts = ("indptr", "indices", "data")
    out = {f"{tag} held": np.array([matrix.is_sparse, *matrix.shape])}
    if matrix.is_sparse:
        out.update({f"{tag} Λ {part}": getattr(matrix.storage, part) for part in parts})
    else:
        out[f"{tag} Λ dense"] = matrix.values
    out[f"{tag} blocks"] = np.array([block.shape for block in blocks]).reshape(-1, 2)
    # Blocks are recorded widened: their dtypes are storage, not values, and
    # widening is exact, so values still compare bitwise with a checkout
    # that holds its blocks in other dtypes.
    widths = dict(zip(parts, (np.int64, np.int64, np.float64)))
    for index, block in enumerate(blocks):
        out.update({
            f"{tag} block {index} {part}": getattr(block, part).astype(width)
            for part, width in widths.items()
        })
    report, pushdown = applier.last_report, applier.last_report.pushdown
    errors = {name: detail.type_counts for name, detail in report.error_details.items()}
    out[f"{tag} report"] = text(
        (report.num_candidates, report.num_lfs, report.num_chunks, report.errors, errors)
    )
    pushdown = pushdown and (pushdown.compiled, sorted(pushdown.fallback))
    out[f"{tag} report pushdown={applier.pushdown}"] = text(pushdown)
    out[f"{tag} report transport={report.transport.mode}"] = text(report.transport.mode)
    return out


def labeling(suites: tuple, tiers: tuple = ("off", "auto"), **settings) -> Callable:
    """``apply`` and ``apply_with_features`` over holding × input kind, one
    fault-tolerant applier per suite and tier, so repeat applies run on the
    memoized programs (the tier is in the case name when the side varies it)."""

    def side(inputs: dict) -> dict:
        featurizer, out = RelationFeaturizer(num_features=64).fit(), {}
        try:
            for suite, pushdown in itertools.product(suites, tiers):
                applier = LFApplier(
                    inputs["suites"][suite], chunk_size=32, fault_tolerant=True,
                    pushdown=pushdown, **settings,
                )
                tier = f" pushdown={pushdown}" if len(tiers) > 1 else ""
                for sparse, (source, make) in itertools.product(
                    (True, False), inputs["sources"].items()
                ):
                    case = f"{suite}{tier} sparse={sparse} {source}"
                    matrix = applier.apply(make(), sparse=sparse)
                    out.update(labeling_records(f"apply {case}", applier, matrix, []))
                    matrix, blocks = applier.apply_with_features(make(), featurizer, sparse=sparse)
                    tag = f"apply_with_features {case}"
                    out.update(labeling_records(tag, applier, matrix, blocks))
        finally:
            shutdown_pools()
        return out

    return side


def featurized(inputs: dict) -> dict:
    """The clean suite in process and the faulty one on workers, each through
    ``apply_with_features`` with a fresh featurizer."""
    featurizer, out = RelationFeaturizer(num_features=64).fit(), {}
    try:
        for suite, settings in (("clean", {}), ("faulty", PROCESSES)):
            lfs = inputs["suites"][suite]
            applier = LFApplier(lfs, chunk_size=32, fault_tolerant=True, **settings)
            candidates = list(inputs["candidates"])
            matrix, blocks = applier.apply_with_features(candidates, featurizer, sparse=True)
            out.update(labeling_records(f"{suite} {applier.backend}", applier, matrix, blocks))
    finally:
        shutdown_pools()
    return out


def in_fresh_process(function: Callable, argument) -> dict:
    """``function(argument)`` run by a new interpreter on this ``sys.path``
    (``function`` a module-level name of this module)."""
    script = (
        "import pickle, sys, contracts\n"
        f"out = contracts.{function.__name__}(pickle.load(sys.stdin.buffer))\n"
        "sys.stdout.buffer.write(pickle.dumps(out))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(argument), env=env,
        capture_output=True, check=True, timeout=600,
    )
    return pickle.loads(done.stdout)


def overflowing_runs() -> None:
    """Two chunks of 20 000 new words each through both the compiled LF tier
    and the featurizer: together they fill the process's token table past
    its cap (2**15 tokens)."""
    featurizer = RelationFeaturizer(num_features=64).fit()
    applier = LFApplier(text_vote_lfs(3), chunk_size=1)
    for batch in range(2):
        words = [f"fill{batch}w{i}" for i in range(20_000)]
        span = SpanView(words[0], 0, 1)
        applier.apply_with_features([Candidate(0, span, span, SentenceView(words, ""))], featurizer)


def featurizing(warm: bool) -> Callable:
    """:func:`featurized` in a fresh process; or, warm, in this one after a
    run over another corpus (other tokens, k = 3) and runs that fill the
    token table past its cap."""

    def side(inputs: dict) -> dict:
        if not warm:
            return in_fresh_process(
                featurized, {key: inputs[key] for key in ("candidates", "suites")}
            )
        featurizer = RelationFeaturizer(num_features=64).fit()
        featurizer.transform(list(stream_text_candidates(200, num_lfs=9, cardinality=3, seed=7)))
        overflowing_runs()
        return featurized(inputs)

    return side


# ------------------------------------------------------------------ context
ODD_WORDS = ("magnesium", "MAGNESIUM", "renal", "Failure", "don't", "'s", "\x00", "-", "fever")
# Spaces thrice: most gaps fall inside a sentence.
ODD_GAPS = (" ", " ", " ", "\u00a0", "\u2003", "\x1c", "\n", ". ", "!?. ", "...\u2003", ".")


@functools.lru_cache(maxsize=None)
def context_inputs(full: bool) -> dict:
    """``profile: (dictionaries, documents, relation)``.  Surfaces are plain
    words, which every tokenizer of a surface splits alike."""
    rng, scale = np.random.default_rng(0), 3 if full else 1
    spec = cdr.build_spec(scale=12 * scale / 900)
    data = build_relation_task(spec, seed=0)
    cdr_docs = [(d.name, d.text, d.split, d.metadata) for d in data.corpus.documents()]
    reports = []
    templates = radiology.ABNORMAL_TEMPLATES + radiology.NORMAL_TEMPLATES
    findings, regions = sorted(radiology.RADIOLOGY_FINDINGS), sorted(radiology.RADIOLOGY_REGIONS)
    for index in range(20 * scale):
        first = templates[rng.integers(len(templates))].format(
            e1=findings[rng.integers(len(findings))], e2=regions[rng.integers(len(regions))]
        )
        closers = list(rng.choice(radiology.CLOSING_TEMPLATES, rng.integers(1, 4)))
        metadata = {"mesh_codes": ["opacity"] * (index % 2), "num_sentences": 1 + len(closers)}
        reports.append((f"report-{index}", " ".join([first, *closers]), "test", metadata))
    odd = [("blank", "", "train", {}), ("spaces", " \u2003\x1c\n", "train", {})]
    for index in range(12 * scale):
        words = rng.choice(ODD_WORDS, rng.integers(3, 25))
        gaps = rng.choice(ODD_GAPS, len(words))
        text = rng.choice(["", " ", "\u2003"]) + "".join(map(str.__add__, words, gaps))
        odd.append((f"odd-{index}", text, ("train", "dev")[index % 2], {"i": index}))
    return {
        "cdr-shaped": (
            {"chemical": dict(spec.entities1), "disease": dict(spec.entities2)},
            cdr_docs, ("causes", "chemical", "disease", None),
        ),
        "radiology-shaped": (
            {"finding": dict(radiology.RADIOLOGY_FINDINGS),
             "region": dict(radiology.RADIOLOGY_REGIONS)},
            reports, ("abnormality", "finding", "region", None),
        ),
        "adversarial": (
            {"chemical": {"Magnesium": "c1", "fever": "c2"},
             "disease": {"renal failure": "d1", "renal": "d2", "DON'T": "d3",
                         "failure\u2003renal": "d4"}},
            odd, ("r", "chemical", "disease", 2),
        ),
        "adversarial same type": (
            {"x": {"magnesium": "m", "renal failure": "r", "fever": "f"}},
            odd, ("s", "x", "x", None),
        ),
    }


def documents_to_candidates(run: Callable) -> Callable:
    def side(inputs: dict) -> dict:
        return {
            f"{profile} {kind}": text(records)
            for profile, (dictionaries, documents, relation) in inputs.items()
            for kind, records in run(
                dictionaries, documents, relation, ref_context.gold_rule
            ).items()
        }

    return side


# ------------------------------------------------------------------ the table
def sized(full: bool) -> bool:
    """The input of the structure rows, whose sides share one cached fit."""
    return full


def read_off(storage: str) -> Callable:
    fits, stats = label_models(storage), statistics(storage)
    return lambda cases: {**fits(cases), **stats(cases)}


STORAGES = ("csr", "dense")
PROCESSES = dict(backend="processes", num_workers=2)
BALANCED = "logistic balance 0.3"
FAULTY = ("faulty",)

CONTRACTS = (
    Contract(
        "compiled == interpreted", mixed_labeling_inputs,
        {
            tier: labeling(("clean", "faulty", "token kernels", "edited after import"), (tier,))
            for tier in ("off", "auto")
        },
        profiles=(
            "faulty", "token kernels", "edited after import", "sparse=False", "generator",
            "empty", "mixed", "non-str token", "apply_with_features",
        ),
    ),
    Contract(
        "processes == threads == sequential", labeling_inputs,
        {
            "sequential": labeling(FAULTY),
            "threads": labeling(FAULTY, backend="threads", num_workers=2),
            "processes": labeling(FAULTY, **PROCESSES),
        },
        profiles=("pushdown=auto", "pushdown=off"),
    ),
    Contract(
        "warm == cold featurizer", labeling_inputs,
        {"cold": featurizing(False), "warm": featurizing(True)}, profiles=("faulty processes",),
    ),
    Contract(
        "label matrix readers dense == csr", label_matrices, {s: read_off(s) for s in STORAGES},
        profiles=("k2", "k3", "k4", "edge", "correlated", "symmetric", "WMV"),
    ),
    Contract(
        "structure weights dense == csr", sized, {s: structure(s, is_weights) for s in STORAGES},
        across=tolerance(atol=1e-12),
        profiles=("cdr-shaped", "edit-loop-shaped", "straddling", "k4", "refit_nodes"),
    ),
    Contract(
        "structure weights gemv-only dense == csr", sized,
        {s: structure(s, functools.partial(is_weights, gemv_only=True)) for s in STORAGES},
    ),
    Contract(
        "structure select dense == csr", sized, {s: structure(s, is_selection) for s in STORAGES},
        profiles=("cdr-shaped", "edit-loop-shaped", "k4"),
    ),
    Contract(
        "refit_nodes == rows of fit", sized,
        {
            "fit": structure("csr", lambda n: n.endswith("/fit")),
            "refit_nodes": structure(
                "csr", lambda n: n.endswith("/refit_nodes"),
                lambda n: n.replace("refit_nodes", "fit"),
            ),
        },
        profiles=("cdr-shaped", "edit-loop-shaped", "gemv-only"),
    ),
    Contract(
        "em == reference_em", label_matrices,
        {"kernel": only(label_models("csr"), lambda n: n.startswith("em ")),
         "reference": reference_em_side},
        within=tolerance(atol=1e-10), profiles=("k2 correlated", "k4 correlated supplied", "edge"),
    ),
    Contract(
        "dawid-skene == reference", label_matrices,
        {"model": only(label_models("csr"), lambda n: n.startswith("dawid-skene ")),
         "reference": reference_dawid_skene_side},
        profiles=("k2 plain symmetric", "k3"),
    ),
    Contract(
        "stats == reference_stats", label_matrices,
        {"library": statistics("csr"), "reference": reference_stats_side},
        within=tolerance(), profiles=("k2", "k3", "k4", "edge"),
    ),
    Contract(
        "structure == reference_structure", sized,
        {side: structure(side, lambda n: n.endswith("/fit")) for side in ("csr", "reference")},
        within=tolerance(atol=1e-12), profiles=("cdr-shaped", "edit-loop-shaped"),
    ),
    Contract(
        "structure select == reference_select", sized,
        {side: structure(side, is_selection) for side in ("csr", "reference")},
        within=Relation("same selection"), profiles=("cdr-shaped", "edit-loop-shaped"),
    ),
    Contract(
        "drained online == batch", label_matrices,
        {"online": online(batch=False), "batch": online(batch=True)},
        profiles=("k2 2 pairs after edits", "k4"),
    ),
    Contract(
        "end model stream == fit", end_model_cases,
        end_models(lambda name: not name.startswith(BALANCED), *STREAMS),
        profiles=("softmax", "mlp", "dense", "kept rows", "shuffled", "weighted"),
    ),
    Contract(
        "end model stream == fit under class_balance", end_model_cases,
        end_models(lambda name: name.startswith(BALANCED), *STREAMS),
        within=tolerance(rtol=1e-12), profiles=("csr", "dense", "kept rows"),
    ),
    Contract(
        "end model resumed == uninterrupted", end_model_cases,
        end_models(lambda name: "dropout 0.2" not in name, "fit_stream blocks of 37", "resumed"),
        profiles=("softmax", "mlp", BALANCED),
    ),
    Contract(
        "pipeline == staged_reference", pipeline_tasks,
        {
            **{how: pipeline(how) for how in ("staged_reference", "run(task)", "run_streams")},
            **{f"{how} dense": pipeline(how, False) for how in ("run(task)", "run_streams")},
        },
        profiles=("k2", "k3"),
    ),
    Contract(
        "warm re-run == cold run", rerun_cases,
        {"cold": rerun(warm=False), "warm": rerun(warm=True)},
        profiles=("text k2", "text k4", "cdr"),
    ),
    Contract(
        "documents → candidates == reference", context_inputs,
        {"corpus": documents_to_candidates(ref_context.library),
         "reference": documents_to_candidates(ref_context.reference)},
        profiles=("cdr-shaped", "radiology-shaped", "adversarial"),
    ),
    Contract(
        "checkpointed pipeline == in RAM", checkpoint_cases,
        {how: checkpointed(how) for how in ("in RAM", "checkpointed", "killed and resumed")},
        profiles=("k2", "k4"),
    ),
)
