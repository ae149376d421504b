"""Planted-truth synthetic data: one spec, two emitters, the paper's presets.

A :class:`PlantedSuite` plants the truth a label model should recover: the
class balance (whose length is the cardinality) and, per labeling function,
a :class:`PlantedLF` -- its accuracy, its firing rate on each class, an
optional single polarity, and an optional ``copy_of`` source whose vote it
repeats with a copy probability.  The spec has exactly two emitters:

* :meth:`PlantedSuite.label_matrix` draws Λ column by column into a
  :class:`SyntheticMatrixResult`.  The votes are accumulated as per-column
  triples into CSR, so the dense ``(m, n)`` array exists only when dense
  storage is asked for;
* :meth:`PlantedSuite.draw_votes` draws one candidate's gold label and vote
  row.  The streams hand it each candidate's own ``(seed, uid)`` generator,
  so a stream is reproducible, independent of consumption order and O(1) in
  memory.

Every generator here is a short preset over the spec:

* :func:`generate_label_matrix` -- independent LFs at one accuracy and
  propensity, the paper's Figure 4 setting;
* :func:`generate_multiclass_label_matrix` -- the categorical version
  (labels ``1..k``, ``0`` = abstain, errors uniform over the wrong classes),
  which :func:`build_multiclass_task` wraps into a full
  :class:`repro.datasets.base.TaskDataset`;
* :func:`generate_correlated_label_matrix` -- planted correlated families,
  Figure 5-left;
* :func:`generate_misspecification_example` -- Example 3.1's block of
  duplicate LFs next to independent ones;
* :func:`stream_synthetic_candidates` and :func:`stream_text_candidates` --
  the drawer's votes as :class:`SyntheticCandidate` rows or as planted text
  tokens, for the labeling engine and the end-to-end pipeline, with the
  matching LF suites :func:`synthetic_vote_lfs` and :func:`text_vote_lfs`.

The draw order is part of the contract (every preset is seed-stable): per
LF, a firing mask unless the LF always fires, a correctness mask unless it
is unipolar, for ``k > 2`` a wrong-class shift (for every row in Λ, on a
wrong vote in the drawer), then a copy mask unless it copies with
probability 1, in which case it draws nothing at all.
:func:`stream_relation_candidates` plants no truth and stands apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.exceptions import DatasetError
from repro.labeling.lf import LabelingFunction
from repro.labeling.matrix import LabelMatrix
from repro.labeling.sparse import SparseLabelMatrix
from repro.types import ABSTAIN, NEGATIVE, POSITIVE
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class SyntheticMatrixResult:
    """A generated label matrix plus everything the generator knows about it."""

    label_matrix: LabelMatrix
    gold_labels: np.ndarray
    lf_accuracies: np.ndarray
    lf_propensities: np.ndarray
    correlated_pairs: list[tuple[int, int]] = field(default_factory=list)


def _checked_prior(prior: tuple[float, ...]) -> tuple[float, ...]:
    if len(prior) < 2 or not all(0.0 < p < 1.0 for p in prior) or abs(sum(prior) - 1.0) > 1e-9:
        raise DatasetError(f"class_balance must be >= 2 priors in (0, 1) summing to 1, got {prior}")
    return prior


def _draw_gold(rng: np.random.Generator, prior: tuple[float, ...], size: Optional[int] = None):
    """``size`` gold labels as an int64 array, or one as a Python int."""
    if len(prior) == 2:
        gold = np.where(rng.random(size) < prior[0], POSITIVE, NEGATIVE)
    else:
        gold = rng.choice(np.arange(1, len(prior) + 1), size=size, p=prior)
    return int(gold) if size is None else gold.astype(np.int64)


@dataclass(frozen=True)
class PlantedLF:
    """One labeling function's planted behaviour.

    ``rates[c]`` is the probability that the LF fires on a point of class
    ``c + 1`` (binary: ``rates[0]`` on positives, ``rates[1]`` on
    negatives); ``rates=None`` fires on every point.  When it fires it votes
    the gold class with probability ``accuracy`` and otherwise a wrong class
    drawn uniformly -- unless ``polarity`` is set: then it always votes
    ``polarity`` and ``accuracy`` records the precision its rates imply.
    With ``copy_of`` (an earlier LF) it repeats that LF's vote with
    probability ``copy_probability`` and otherwise behaves as above.
    """

    accuracy: float
    rates: Optional[tuple[float, ...]]
    polarity: Optional[int] = None
    copy_of: Optional[int] = None
    copy_probability: float = 1.0


@dataclass(frozen=True)
class PlantedSuite:
    """The planted truth of a labeling-function suite (see the module docs).

    ``class_balance[c]`` is the prior of class ``c + 1`` (binary: of
    :data:`POSITIVE`, then :data:`NEGATIVE`); its length is the cardinality.
    """

    class_balance: tuple[float, ...]
    lfs: tuple[PlantedLF, ...]

    def __post_init__(self) -> None:
        k = len(_checked_prior(self.class_balance))
        if not self.lfs:
            raise DatasetError("a planted suite needs at least one LF")
        labels = (None, POSITIVE, NEGATIVE) if k == 2 else (None, *range(1, k + 1))
        for j, lf in enumerate(self.lfs):
            rates = (1.0,) * k if lf.rates is None else lf.rates
            copy = lf.copy_of is None or 0 <= lf.copy_of < j and 0 <= lf.copy_probability <= 1
            if not (
                0.0 <= lf.accuracy <= 1.0
                and len(rates) == k
                and all(0.0 <= rate <= 1.0 for rate in rates)
                and lf.polarity in labels
                and copy
            ):
                raise DatasetError(
                    f"LF {j} is not a {k}-class planted LF (probabilities in [0, 1], a class "
                    f"label as polarity, an earlier LF as copy_of): {lf}"
                )

    @property
    def cardinality(self) -> int:
        return len(self.class_balance)

    def _column(self, lf: PlantedLF, rng, gold, classes, columns: dict) -> np.ndarray:
        """LF ``lf``'s votes on every row (``classes``: each row's class index)."""
        if lf.copy_of is not None and lf.copy_probability == 1.0:
            return columns[lf.copy_of]
        m, k = gold.size, self.cardinality
        fires = True if lf.rates is None else rng.random(m) < np.asarray(lf.rates)[classes]
        if lf.polarity is not None:
            votes = np.full(m, lf.polarity, dtype=np.int64)
        else:
            correct = rng.random(m) < lf.accuracy
            wrong = -gold if k == 2 else (gold - 1 + rng.integers(1, k, size=m)) % k + 1
            votes = np.where(correct, gold, wrong)
        column = np.where(fires, votes, ABSTAIN)
        if lf.copy_of is not None:
            column = np.where(rng.random(m) < lf.copy_probability, columns[lf.copy_of], column)
        return column

    def label_matrix(
        self, num_points: int, seed: SeedLike = 0, sparse: bool = False
    ) -> SyntheticMatrixResult:
        """Emit Λ column by column, with its gold labels and planted values."""
        if num_points <= 0:
            raise DatasetError(f"num_points must be positive, got {num_points}")
        rng = ensure_rng(seed)
        gold = _draw_gold(rng, self.class_balance, num_points)
        classes = (gold == NEGATIVE).astype(np.intp) if self.cardinality == 2 else gold - 1
        # Only copy sources stay dense: Λ itself is accumulated as triples.
        sources = {lf.copy_of for lf in self.lfs}
        columns: dict[int, np.ndarray] = {}
        triples: list[tuple[np.ndarray, ...]] = []
        for j, lf in enumerate(self.lfs):
            column = self._column(lf, rng, gold, classes, columns)
            if j in sources:
                columns[j] = column
            rows = np.flatnonzero(column)
            triples.append((rows, np.full(rows.size, j, dtype=np.int64), column[rows]))
        shape = (num_points, len(self.lfs))
        storage = SparseLabelMatrix.from_triples(*map(np.concatenate, zip(*triples)), shape)
        matrix = LabelMatrix(storage, cardinality=self.cardinality)
        return SyntheticMatrixResult(
            label_matrix=matrix if sparse else matrix.to_dense(),
            gold_labels=gold,
            lf_accuracies=np.array([lf.accuracy for lf in self.lfs]),
            lf_propensities=np.array([self._propensity(lf) for lf in self.lfs]),
            correlated_pairs=[
                (lf.copy_of, j) for j, lf in enumerate(self.lfs) if lf.copy_of is not None
            ],
        )

    def _propensity(self, lf: PlantedLF) -> float:
        """The LF's marginal firing rate (its own draws, before any copying)."""
        if lf.rates is None:
            return 1.0
        if len(set(lf.rates)) == 1:
            return lf.rates[0]
        return float(np.dot(self.class_balance, lf.rates))

    def draw_votes(self, rng: np.random.Generator) -> tuple[int, tuple[int, ...]]:
        """One candidate's gold label and vote row (``ABSTAIN`` where silent)."""
        gold, k = _draw_gold(rng, self.class_balance), self.cardinality
        klass = int(gold == NEGATIVE) if k == 2 else gold - 1
        votes: list[int] = []
        for lf in self.lfs:
            if lf.copy_of is not None and lf.copy_probability == 1.0:
                votes.append(votes[lf.copy_of])
                continue
            vote = ABSTAIN
            if lf.rates is None or rng.random() < lf.rates[klass]:
                if lf.polarity is not None:
                    vote = lf.polarity
                elif rng.random() < lf.accuracy:
                    vote = gold
                else:
                    vote = -gold if k == 2 else (gold - 1 + int(rng.integers(1, k))) % k + 1
            if lf.copy_of is not None and rng.random() < lf.copy_probability:
                vote = votes[lf.copy_of]
            votes.append(vote)
        return gold, tuple(votes)


# ------------------------------------------------------------------- presets
def _class_prior(cardinality: int, class_balance) -> tuple[float, ...]:
    """A preset's class-balance argument as the spec's prior: ``None`` is
    uniform, a scalar is the binary positive fraction, a length-``k`` vector
    of positive weights is normalized."""
    if cardinality < 2:
        raise DatasetError(f"cardinality must be >= 2, got {cardinality}")
    if class_balance is None:
        return _checked_prior((1.0 / cardinality,) * cardinality)
    if cardinality == 2 and np.ndim(class_balance) == 0:
        return _checked_prior((float(class_balance), 1.0 - float(class_balance)))
    prior = np.asarray(class_balance, dtype=float)
    if prior.shape != (cardinality,) or np.any(prior <= 0):
        raise DatasetError(f"class_balance must be a length-{cardinality} positive vector")
    return _checked_prior(tuple(prior / prior.sum()))


def _symmetric_suite(num_lfs: int, accuracy, propensity, prior) -> PlantedSuite:
    """Independent LFs firing at ``propensity`` on every class."""
    accuracies = _broadcast("accuracy", accuracy, num_lfs)
    rates = [(float(p),) * len(prior) for p in _broadcast("propensity", propensity, num_lfs)]
    return PlantedSuite(prior, tuple(PlantedLF(float(a), r) for a, r in zip(accuracies, rates)))


def generate_label_matrix(
    num_points: int = 1000,
    num_lfs: int = 10,
    accuracy: float | Sequence[float] = 0.75,
    propensity: float | Sequence[float] = 0.1,
    class_balance: float = 0.5,
    seed: SeedLike = 0,
    sparse: bool = False,
) -> SyntheticMatrixResult:
    """Generate an independent-LF label matrix (the Figure 4 setting).

    Parameters
    ----------
    num_points:
        Number of data points ``m``.
    num_lfs:
        Number of labeling functions ``n``.
    accuracy:
        Scalar accuracy shared by all LFs, or one accuracy per LF.
    propensity:
        Probability of a non-abstaining vote, scalar or per LF (the paper's
        ``p_l``; 10% in the Figure 4 simulation).
    class_balance:
        Fraction of positive gold labels.
    sparse:
        When ``True`` the non-abstain votes are accumulated as triples and
        the returned matrix uses CSR storage — the dense ``(m, n)`` array is
        never allocated, so very large low-coverage matrices fit in memory.
        The same seed emits the same votes in both modes.
    """
    suite = _symmetric_suite(num_lfs, accuracy, propensity, _class_prior(2, class_balance))
    return suite.label_matrix(num_points, seed, sparse)


def generate_multiclass_label_matrix(
    num_points: int = 1000,
    num_lfs: int = 10,
    cardinality: int = 3,
    accuracy: float | Sequence[float] = 0.75,
    propensity: float | Sequence[float] = 0.3,
    class_balance: Optional[Sequence[float]] = None,
    seed: SeedLike = 0,
    sparse: bool = False,
) -> SyntheticMatrixResult:
    """Generate an independent-LF *categorical* label matrix (labels ``1..k``).

    Each labeling function behaves like a symmetric Dawid–Skene worker: it
    votes with probability ``propensity``, votes the gold class with
    probability ``accuracy``, and otherwise votes uniformly among the
    ``k - 1`` wrong classes.  Abstentions are ``0``.  ``class_balance`` is an
    optional length-``k`` prior over gold classes (uniform by default).  At
    ``k = 2`` the votes are the binary ``±1`` of :func:`generate_label_matrix`
    (class 1 is positive).  With ``sparse=True`` the votes are accumulated as
    triples into CSR storage; the same seed emits the same votes in both
    modes.
    """
    prior = _class_prior(cardinality, class_balance)
    suite = _symmetric_suite(num_lfs, accuracy, propensity, prior)
    return suite.label_matrix(num_points, seed, sparse)


_FILLER = tuple(f"filler{i}" for i in range(8))


def _text_candidate(uid, rng, klass, words, document, relation, split, gold):
    """A one-sentence candidate: ``words`` plus class-``klass`` tokens and
    filler, shuffled, with its first and last word as the two spans."""
    from repro.context.candidates import Candidate, SentenceView, SpanView

    words += [f"class{klass}tok{int(rng.integers(3))}" for _ in range(int(rng.integers(1, 4)))]
    words += [_FILLER[int(rng.integers(len(_FILLER)))] for _ in range(int(rng.integers(3, 7)))]
    rng.shuffle(words)
    return Candidate(
        uid=uid,
        span1=SpanView(text=words[0], word_start=0, word_end=1),
        span2=SpanView(text=words[-1], word_start=len(words) - 1, word_end=len(words)),
        sentence=SentenceView(words=words, text=" ".join(words), document_name=document),
        relation_type=relation,
        split=split,
        gold_label=gold,
    )


def build_multiclass_task(
    num_points: int = 300,
    num_lfs: int = 12,
    cardinality: int = 3,
    accuracy: float | Sequence[float] = 0.75,
    propensity: float | Sequence[float] = 0.4,
    seed: int = 0,
    name: str = "synthetic-multiclass",
):
    """Wrap :func:`generate_multiclass_label_matrix` into a full task dataset.

    Every simulated worker becomes one labeling function (via
    :class:`repro.labeling.generators.CrowdWorkerLFGenerator`), and each data
    point becomes a tweet-like candidate whose tokens weakly indicate its
    gold class, so the discriminative stage has real features to learn from.
    The task exercises the complete multi-class pipeline path at test sizes.
    """
    from repro.datasets.base import TaskDataset
    from repro.evaluation.splits import assign_document_splits
    from repro.labeling.generators import CrowdWorkerLFGenerator

    data = generate_multiclass_label_matrix(
        num_points=num_points,
        num_lfs=num_lfs,
        cardinality=cardinality,
        accuracy=accuracy,
        propensity=propensity,
        seed=seed,
    )
    matrix = data.label_matrix.values
    rng = ensure_rng((seed, 1))
    splits = assign_document_splits(num_points, 0.125, 0.125, seed=rng)

    candidates: dict[str, list] = {"train": [], "dev": [], "test": []}
    for uid, klass in enumerate(data.gold_labels.tolist()):
        document, split = f"synth-{uid:05d}", splits[uid]
        candidates[split].append(
            _text_candidate(uid, rng, klass, [], document, "synthetic_multiclass", split, klass)
        )
    annotations = {
        f"{j:03d}": {int(uid): int(matrix[uid, j]) for uid in np.flatnonzero(matrix[:, j])}
        for j in range(num_lfs)
    }
    generator = CrowdWorkerLFGenerator(annotations, cardinality=cardinality)
    return TaskDataset(
        name=name,
        candidates=candidates,
        gold={
            split: np.array([c.gold_label for c in split_candidates], dtype=np.int64)
            for split, split_candidates in candidates.items()
        },
        lfs=generator.generate(),
        cardinality=cardinality,
        num_documents=num_points,
        metadata={"lf_accuracies": data.lf_accuracies},
    )


def generate_correlated_label_matrix(
    num_points: int = 1000,
    num_independent: int = 10,
    num_groups: int = 5,
    group_size: int = 3,
    accuracy: float = 0.75,
    propensity: float = 0.3,
    copy_probability: float = 0.9,
    class_balance: float = 0.5,
    seed: SeedLike = 0,
    sparse: bool = False,
) -> SyntheticMatrixResult:
    """Generate a matrix with planted correlated LF families (Figure 5-left).

    ``num_groups`` families are created; each family has one "source" LF and
    ``group_size - 1`` near-copies that repeat the source's vote with
    probability ``copy_probability`` (and otherwise behave independently).
    ``num_independent`` genuinely independent LFs are appended.  The returned
    ``correlated_pairs`` lists every within-family pair — the ground-truth
    structure a structure learner should recover.
    """
    if group_size < 2:
        raise DatasetError(f"group_size must be >= 2, got {group_size}")
    rates = (propensity, propensity)
    lfs = []
    for _ in range(num_groups):
        source = len(lfs)
        lfs.append(PlantedLF(accuracy, rates))
        lfs += [PlantedLF(accuracy, rates, None, source, copy_probability)] * (group_size - 1)
    lfs += [PlantedLF(accuracy, rates)] * num_independent
    suite = PlantedSuite(_class_prior(2, class_balance), tuple(lfs))
    return suite.label_matrix(num_points, seed, sparse)


def generate_misspecification_example(
    num_points: int = 2000,
    num_correlated: int = 5,
    num_independent: int = 5,
    correlated_accuracy: float = 0.5,
    independent_accuracy: float = 0.99,
    seed: SeedLike = 0,
    sparse: bool = False,
) -> SyntheticMatrixResult:
    """The catastrophic-mis-specification scenario of paper Example 3.1.

    ``num_correlated`` LFs vote identically on every data point with accuracy
    ``correlated_accuracy``; ``num_independent`` LFs are conditionally
    independent with accuracy ``independent_accuracy``.  All LFs always vote.
    An independence-assuming model badly mis-estimates the accuracies here,
    while a correlation-aware model does not.
    """
    # The block's first LF draws its votes; the others repeat them outright.
    block = [PlantedLF(correlated_accuracy, None)]
    block += [PlantedLF(correlated_accuracy, None, copy_of=0)] * (num_correlated - 1)
    lfs = block[:num_correlated] + [PlantedLF(independent_accuracy, None)] * num_independent
    result = PlantedSuite((0.5, 0.5), tuple(lfs)).label_matrix(num_points, seed, sparse)
    pairs = [(j, k) for j in range(num_correlated) for k in range(j + 1, num_correlated)]
    return replace(result, correlated_pairs=pairs)


# ------------------------------------------------------------------ streaming
@dataclass(frozen=True)
class SyntheticCandidate:
    """One streamed synthetic candidate: its gold label and vote row.

    Frozen and made of plain ints/tuples so chunks of candidates cross
    process boundaries (the engine's ``processes`` backend pickles them).
    """

    uid: int
    gold: int
    votes: tuple[int, ...]


class _VoteReader:
    """Picklable LF body reading one column of a candidate's vote row."""

    def __init__(self, index: int) -> None:
        self.index = index

    def __call__(self, candidate: SyntheticCandidate) -> int:
        return int(candidate.votes[self.index])


def synthetic_vote_lfs(num_lfs: int) -> list[LabelingFunction]:
    """The LF suite matching :func:`stream_synthetic_candidates` vote rows."""
    if num_lfs <= 0:
        raise DatasetError(f"num_lfs must be positive, got {num_lfs}")
    return [
        LabelingFunction(f"synth_vote_{j}", _VoteReader(j), source_type="synthetic")
        for j in range(num_lfs)
    ]


def _candidate_rng(seed: int, uid: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(uid)))


def _stream(num_points: int, seed: int, make) -> Iterator:
    """``make(uid, rng)`` for every uid, each with its own generator."""
    if num_points < 0:
        raise DatasetError(f"num_points must be non-negative, got {num_points}")
    return (make(uid, _candidate_rng(seed, uid)) for uid in range(num_points))


def stream_synthetic_candidates(
    num_points: int = 1000,
    num_lfs: int = 10,
    accuracy: float | Sequence[float] = 0.75,
    propensity: float | Sequence[float] = 0.1,
    class_balance: float = 0.5,
    seed: int = 0,
) -> Iterator[SyntheticCandidate]:
    """Lazily generate independent-LF candidates (the Figure 4 setting).

    Each candidate's draws come from its own ``(seed, uid)``-keyed RNG, so
    the stream is reproducible, independent of consumption order, and uses
    O(1) memory — votes are not drawn column-major as in
    :func:`generate_label_matrix`, so the two front-ends emit different (but
    identically distributed) vote sets for the same seed.  The votes and
    gold are those of ``stream_text_candidates(cardinality=2)``.
    """
    suite = _symmetric_suite(num_lfs, accuracy, propensity, _class_prior(2, class_balance))
    draw = suite.draw_votes
    return _stream(num_points, seed, lambda uid, rng: SyntheticCandidate(uid, *draw(rng)))


def synthetic_stream_gold(
    num_points: int,
    class_balance: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """Gold labels of :func:`stream_synthetic_candidates`, O(m) memory.

    Recomputes each candidate's first RNG draw without building the
    candidates, so a streaming engine run can be evaluated against gold
    after the stream has been consumed.
    """
    return stream_text_gold(num_points, 2, class_balance, seed)


# ----------------------------------------------------- streaming text candidates
class _TokenVoteReader:
    """Picklable LF body decoding one LF's planted vote token from the text.

    :func:`stream_text_candidates` plants a token ``lf{j}v{code}`` into a
    candidate's sentence whenever simulated LF ``j`` votes on it; this
    reader scans the words for its own prefix and decodes the vote, so the
    LF is a pure function of the candidate text (picklable, stateless) and
    the same suite works under every executor backend.
    """

    def __init__(self, index: int, cardinality: int) -> None:
        self.index = index
        self.cardinality = cardinality
        self.prefix = f"lf{index}v"

    def __call__(self, candidate: "Candidate") -> int:  # noqa: F821 - runtime type
        for word in candidate.sentence.words:
            if word.startswith(self.prefix):
                code = word[len(self.prefix) :]
                if self.cardinality == 2:
                    return POSITIVE if code == "p" else NEGATIVE
                return int(code)
        return ABSTAIN


def text_vote_lfs(num_lfs: int, cardinality: int = 2) -> list[LabelingFunction]:
    """The LF suite matching :func:`stream_text_candidates` vote tokens."""
    if num_lfs <= 0:
        raise DatasetError(f"num_lfs must be positive, got {num_lfs}")
    return [
        LabelingFunction(
            f"text_vote_{j}",
            _TokenVoteReader(j, cardinality),
            source_type="synthetic",
            cardinality=cardinality,
        )
        for j in range(num_lfs)
    ]


def stream_text_candidates(
    num_points: int = 1000,
    num_lfs: int = 10,
    cardinality: int = 2,
    accuracy: float | Sequence[float] = 0.75,
    propensity: float | Sequence[float] = 0.3,
    class_balance=None,
    seed: int = 0,
) -> "Iterator[Candidate]":
    """Lazily generate full *text* candidates for end-to-end streaming runs.

    The discriminative-stage companion of
    :func:`stream_synthetic_candidates`: each candidate is a real
    :class:`repro.context.candidates.Candidate` whose sentence carries (a)
    one planted ``lf{j}v{code}`` token per simulated LF vote — decoded by
    the stateless :func:`text_vote_lfs` suite — and (b) class-indicative
    ``class{y}tok*`` tokens plus filler, so the featurized end model has
    real signal to generalize from.  Votes follow the usual synthetic
    model (vote with probability ``propensity``, correct with probability
    ``accuracy``, wrong votes uniform among the other classes).  Every
    candidate's draws come from its own ``(seed, uid)``-keyed RNG, so the
    stream is reproducible, order-independent, O(1)-memory, and picklable
    chunk by chunk; the streaming pipeline, the e2e benchmark's
    ``text_stream`` and ``kary_crash_resume`` workloads and the streaming
    differential tests all draw from it.
    """
    prior = _class_prior(cardinality, class_balance)
    suite = _symmetric_suite(num_lfs, accuracy, propensity, prior)

    codes = {POSITIVE: "p", NEGATIVE: "n"} if cardinality == 2 else {}

    def candidate(uid: int, rng: np.random.Generator):
        gold, votes = suite.draw_votes(rng)
        words = [f"lf{j}v{codes.get(vote, vote)}" for j, vote in enumerate(votes) if vote]
        klass = gold if cardinality > 2 else (1 if gold == POSITIVE else 2)
        document = f"stream-{uid:06d}"
        return _text_candidate(uid, rng, klass, words, document, "synthetic_stream", "train", gold)

    return _stream(num_points, seed, candidate)


def stream_text_gold(
    num_points: int,
    cardinality: int = 2,
    class_balance=None,
    seed: int = 0,
) -> np.ndarray:
    """Gold labels of :func:`stream_text_candidates` without building the text.

    Replays only each candidate's gold draw (the first consumption of its
    per-uid RNG), so a streamed split can be scored after the generator has
    been consumed — O(m) ints, no candidates.
    """
    prior = _class_prior(cardinality, class_balance)
    return np.fromiter(_stream(num_points, seed, lambda _, rng: _draw_gold(rng, prior)), np.int64)


# ------------------------------------------------- streaming relation candidates
#: Cue vocabulary planted between the argument spans; covers every cue family
#: the library suite (:func:`repro.datasets.lf_library.LINT_LFS`) reacts to —
#: causal/treatment stems, passive-reversal cues, and neutral-context cues.
_RELATION_CUES = (
    "causes", "caused", "causing", "treats", "treated", "treating",
    "given", "received", "measured", "monitored", "history", "prevents",
)
#: Argument pairs; the first two match the ``LINT_LFS`` knowledge base.
_RELATION_PAIRS = (
    ("aspirin", "headache"),
    ("water", "headache"),
    ("ibuprofen", "fever"),
    ("caffeine", "insomnia"),
)


def stream_relation_candidates(
    num_points: int = 1000,
    seed: int = 0,
    error_rate: float = 0.0,
) -> "Iterator[Candidate]":
    """Lazily generate relation candidates exercising a full library LF suite.

    The relation-extraction companion of :func:`stream_text_candidates`,
    built for the pushdown differential tests and the ``lf_pushdown``
    benchmark: every candidate is a real two-span
    :class:`repro.context.candidates.Candidate` whose geometry and
    vocabulary tickle all the :mod:`repro.datasets.lf_library` LF families —
    cue words between the spans (keyword/pattern/regex LFs), canonical KB
    ids matching the ``LINT_LFS`` knowledge base (distant supervision),
    token distances from 0 to ~20 including adjacent and far-apart extremes,
    reversed span order (passive-voice heuristics), and varying sentence
    positions (late-sentence heuristic).

    ``error_rate`` plants a non-string token between the spans on that
    fraction of candidates, so token-reading LFs raise on exactly those rows
    — the differential tests use this to check compiled error accounting
    against the interpreted path.  Candidates come from per-``(seed, uid)``
    RNGs: reproducible, order-independent, O(1) memory, picklable chunks.
    """
    from repro.context.candidates import Candidate, SentenceView, SpanView

    if num_points < 0:
        raise DatasetError(f"num_points must be non-negative, got {num_points}")
    if not 0.0 <= error_rate <= 1.0:
        raise DatasetError(f"error_rate must lie in [0, 1], got {error_rate}")
    filler = [f"w{i}" for i in range(12)]
    for uid in range(num_points):
        rng = _candidate_rng(seed, uid)
        entity1, entity2 = _RELATION_PAIRS[int(rng.integers(len(_RELATION_PAIRS)))]
        has_ids = rng.random() < 0.7
        distance = int(rng.integers(0, 21))
        between: list = [
            _RELATION_CUES[int(rng.integers(len(_RELATION_CUES)))]
            if rng.random() < 0.35
            else filler[int(rng.integers(len(filler)))]
            for _ in range(distance)
        ]
        if between and rng.random() < error_rate:
            between[int(rng.integers(len(between)))] = 7  # non-string token
        reverse = rng.random() < 0.25
        left = [filler[int(rng.integers(len(filler)))] for _ in range(int(rng.integers(0, 4)))]
        right = [filler[int(rng.integers(len(filler)))] for _ in range(int(rng.integers(0, 4)))]
        first_text, second_text = (entity2, entity1) if reverse else (entity1, entity2)
        words = left + [first_text] + between + [second_text] + right
        first_start = len(left)
        second_start = first_start + 1 + distance
        spans = {
            first_text: SpanView(
                text=first_text,
                word_start=first_start,
                word_end=first_start + 1,
                entity_type="chemical" if first_text == entity1 else "disease",
                canonical_id=first_text if has_ids else None,
            ),
            second_text: SpanView(
                text=second_text,
                word_start=second_start,
                word_end=second_start + 1,
                entity_type="chemical" if second_text == entity1 else "disease",
                canonical_id=second_text if has_ids else None,
            ),
        }
        yield Candidate(
            uid=uid,
            span1=spans[entity1],
            span2=spans[entity2],
            sentence=SentenceView(
                words=words,
                text=" ".join(str(word) for word in words),
                position=int(rng.integers(0, 12)),
                document_name=f"relation-{uid:06d}",
            ),
            relation_type="chemical_disease",
            split="train",
        )


def _broadcast(name: str, value: float | Sequence[float], length: int) -> np.ndarray:
    if length <= 0:
        raise DatasetError(f"num_lfs must be positive, got {length}")
    array = np.asarray(value, dtype=float)
    if array.ndim == 0:
        array = np.full(length, float(array))
    if array.shape != (length,):
        raise DatasetError(f"{name} must be a scalar or length-{length} sequence")
    return array
