"""Differential tests: the chunk featurization kernel ≡ the per-row specification.

``RelationFeaturizer.chunk_triples`` / ``HashingVectorizer.chunk_triples``
must return exactly the triples obtained by stacking ``candidate_entries`` /
``sequence_entries`` row by row — same dtypes, same bytes, same row-major,
column-ascending order — on generated chunks that exercise every place the
kernel's index arithmetic could part from Python's slicing and string
semantics, and on the inputs that must take the per-candidate fallback.
"""

import copy
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_purity import observe_task_purity

from repro.context.candidates import Candidate, SentenceView, SpanView
from repro.datasets.synthetic import stream_text_candidates
from repro.discriminative import HashingVectorizer, RelationFeaturizer, featurizers
from repro.discriminative.streaming import featurize_stream
from repro.exceptions import ConfigurationError
from repro.labeling.engine.tasks import featurize_chunk
from repro.utils import tokens

#: Mixed case, tokens whose ``lower()`` changes length ("İ" → "i̇"), tokens
#: that collide after lower-casing, tokens containing spaces (the 1-gram
#: "x y" and the 2-gram ("x", "y") share one hash key), and the empty token.
TOKENS = st.sampled_from(
    ["a", "A", "b", "the", "The", "İ", "i̇", "ß", "Straße", "ǅ", "é", "x y", "x", "y", " lead", ""]
)
NGRAM_RANGES = [(1, 1), (1, 2), (2, 3)]


def stack_rows(row_entries):
    """Triples of per-row ``{column: value}`` mappings, built the slow way."""
    rows, cols, values = [], [], []
    for row, entries in enumerate(row_entries):
        for col, value in sorted(entries.items()):
            rows.append(row)
            cols.append(col)
            values.append(value)
    return np.array(rows, np.int64), np.array(cols, np.int64), np.array(values, np.float64)


def assert_same_triples(actual, expected):
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def assert_same_csr(actual, expected):
    assert_same_triples(*([m.indptr, m.indices, m.data] for m in (actual, expected)))


@st.composite
def candidates(draw, kind=Candidate, lowest=0):
    """A candidate with arbitrary span geometry: reversed, overlapping,
    adjacent, empty or at the sentence edges; span texts are
    the sentence slice or unrelated text whose ``split()`` differs from it."""
    words = draw(st.lists(TOKENS, max_size=8))
    offset = st.integers(lowest, len(words))
    spans = []
    for _ in range(2):
        start, end = draw(offset), draw(offset)
        text = draw(st.one_of(st.just(" ".join(words[start:end])), st.lists(TOKENS).map(" ".join)))
        spans.append(SpanView(text, start, end))
    return kind(uid=0, span1=spans[0], span2=spans[1], sentence=SentenceView(words, ""))


class ReversedBetween(Candidate):
    def words_between(self):
        return super().words_between()[::-1]


@given(
    chunk=st.lists(candidates(), max_size=7),
    ngram_range=st.sampled_from(NGRAM_RANGES),
    num_features=st.sampled_from([1, 7, 64]),
    window_size=st.integers(0, 4),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_relation_kernel_matches_candidate_entries(chunk, ngram_range, num_features, window_size):
    featurizer = RelationFeaturizer(num_features, ngram_range, window_size).fit()
    assert not chunk or featurizer._kernel_entries(chunk) is not None  # the kernel itself ran
    expected = stack_rows(map(featurizer.candidate_entries, chunk))
    assert_same_triples(featurizer.chunk_triples(chunk), expected)
    dense = featurizer.transform(chunk)
    assert dense.tobytes() == featurizer.transform(chunk, sparse=True).toarray().tobytes()
    assert np.array_equal(dense[expected[0], expected[1]], expected[2])
    assert np.count_nonzero(dense) == expected[2].size
    for row, candidate in enumerate(chunk[:2]):
        assert np.array_equal(featurizer.transform_candidate(candidate), dense[row])


@given(
    chunk=st.lists(
        st.one_of(candidates(), candidates(ReversedBetween), candidates(lowest=-3)), max_size=7
    ),
    ngram_range=st.sampled_from(NGRAM_RANGES),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_inputs_the_kernel_cannot_reproduce_take_the_fallback(chunk, ngram_range):
    """An overridden accessor or a negative offset (Python slices wrap)
    anywhere in the chunk sends the whole chunk down the specification path."""
    featurizer = RelationFeaturizer(16, ngram_range).fit()
    offsets = [(s.word_start, s.word_end) for c in chunk for s in (c.span1, c.span2)]
    declined = any(type(c) is ReversedBetween for c in chunk) or np.min(offsets, initial=0) < 0
    if chunk:
        assert (featurizer._kernel_entries(chunk) is None) == declined
    assert_same_triples(
        featurizer.chunk_triples(chunk), stack_rows(map(featurizer.candidate_entries, chunk))
    )


def test_other_declined_inputs_still_match():
    featurizer = RelationFeaturizer(32, ngram_range=(1, 4)).fit()
    words = [f"w{i}" for i in range(40)]

    def make(words, start=1):
        sentence = SentenceView(words, "")
        return Candidate(0, SpanView("w1", start, 2), SpanView("w5 w6", 5, 7), sentence)

    class LongSpan(SpanView):
        @property
        def length(self):
            return 99

    odd = make(words)
    odd.span1 = LongSpan("w1", 1, 2)
    big_vocabulary = [make([f"t{i}" for i in range(60_000)])]  # 60k ** 4 * 6 scopes > 2 ** 63
    beyond_the_end = [make(words[:6])]  # span2 ends at 7: Python slices clamp
    # Offsets that are not exactly ints leave the block's offset columns untyped.
    int_like = [make(words, start=True), make(words, start=np.int64(1))]
    for chunk in ([odd], big_vocabulary, beyond_the_end, int_like):
        assert featurizer._kernel_entries(chunk) is None
        assert_same_triples(
            featurizer.chunk_triples(chunk), stack_rows(map(featurizer.candidate_entries, chunk))
        )
    with pytest.raises(TypeError):  # the specification's own error, not a kernel one
        featurizer.chunk_triples([make(words, start=1.5)])
    with pytest.raises(AttributeError):
        featurizer.chunk_triples([make(words + [None])])


@pytest.mark.parametrize("size", [1, 7, 1024, 2500])
def test_chunk_sizes_and_blocked_transform(size):
    chunk = list(stream_text_candidates(size, num_lfs=6, seed=size))
    featurizer = RelationFeaturizer(num_features=256).fit()
    expected = stack_rows(map(featurizer.candidate_entries, chunk))
    assert_same_triples(featurizer.chunk_triples(chunk), expected)
    matrix = featurizer.transform(iter(chunk), sparse=True)  # > 1024 rows: several kernel blocks
    assert matrix.shape == (size, featurizer.output_dim)
    assert np.array_equal(np.repeat(np.arange(size), np.diff(matrix.indptr)), expected[0])
    assert matrix.indices.tobytes() == expected[1].tobytes()
    assert matrix.data.tobytes() == expected[2].tobytes()


@given(
    sequences=st.lists(st.lists(TOKENS, max_size=8) | st.lists(TOKENS).map(tuple), max_size=7),
    ngram_range=st.sampled_from(NGRAM_RANGES),
    num_features=st.sampled_from([1, 7, 64]),
    signed=st.booleans(),
    prefix=st.sampled_from(["", "btw:"]),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_vectorizer_kernel_matches_sequence_entries(
    sequences, ngram_range, num_features, signed, prefix
):
    vectorizer = HashingVectorizer(num_features, ngram_range, signed).fit()
    expected = stack_rows(vectorizer.sequence_entries(tokens, prefix) for tokens in sequences)
    assert_same_triples(vectorizer.chunk_triples(sequences, prefix), expected)
    dense = vectorizer.transform(sequences)
    assert dense.shape == (len(sequences), num_features)
    assert dense.tobytes() == vectorizer.transform(sequences, sparse=True).toarray().tobytes()
    for row, tokens in enumerate(sequences[:2]):
        assert np.array_equal(vectorizer.transform_tokens(tokens), dense[row])
    if not signed:
        assert (dense >= 0).all()


def test_vectorizer_fallback_for_unsized_sequences():
    vectorizer = HashingVectorizer(32).fit()
    sequences = [["a", "B", "a"], ["c"]]
    lazy = [iter(tokens) for tokens in sequences]  # no len(): the specification path
    assert_same_triples(vectorizer.chunk_triples(lazy), vectorizer.chunk_triples(sequences))


def test_featurize_chunk_leaves_the_featurizer_untouched():
    candidates = list(stream_text_candidates(40, num_lfs=4, seed=0))
    featurizer = RelationFeaturizer(num_features=64).fit()
    assert observe_task_purity(featurize_chunk, featurizer, [candidates[:25], candidates[25:]])


@pytest.mark.parametrize("window_size", [-1, 1.5, "3", None])
def test_window_size_is_validated(window_size):
    with pytest.raises(ConfigurationError, match="window_size"):
        RelationFeaturizer(window_size=window_size)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_features=8.5),  # the kernel took buckets mod 8, the specification % 8.5
        dict(num_features=True),
        dict(num_features="8"),
        dict(ngram_range=(1, 2.0)),
        dict(ngram_range=(True, 2)),
        dict(window_size=True),
    ],
    ids=repr,
)
def test_widths_and_sizes_are_real_integers(kwargs):
    with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
        RelationFeaturizer(**kwargs)
    kwargs.pop("window_size", None)
    if kwargs:
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            HashingVectorizer(**kwargs)
    RelationFeaturizer(np.int64(8), (np.int32(1), 2), np.int64(2))  # numpy integers are integers


def test_one_width_for_featurizer_and_vectorizer():
    """A vectorizer widened behind the featurizer's back wrote bucket 14 of a
    width-8 row 0 into row 1 (``rows * width + cols`` wraps)."""
    featurizer = RelationFeaturizer(8)
    featurizer.vectorizer.num_features = 16
    with pytest.raises(ConfigurationError, match="num_features"):
        featurizer.fit()
    fitted = RelationFeaturizer(8).fit()
    fitted.vectorizer.num_features = 16
    with pytest.raises(ConfigurationError, match="num_features"):
        fitted.transform(list(stream_text_candidates(1, num_lfs=2, seed=0)))


# ------------------------------------------------------ process-wide tables
# The process keeps what its vectorizers interned and hashed, one table per
# ``ngram_range``, from chunk to chunk and run to run.  What makes that cache
# safe is that ``chunk_triples`` stays a function of the chunk alone; these
# differentials carry that contract (and with it the legitimacy of keeping
# the tables off the featurizer and its pickled state — see
# ``engine/tasks.py``).

CHUNK_LISTS = st.lists(st.lists(candidates(), max_size=4), max_size=5)


@pytest.fixture
def empty_tables(monkeypatch):
    """Start a test from empty process tables (and leave the real ones be)."""
    monkeypatch.setattr(featurizers, "_TABLES", {})
    monkeypatch.setattr(tokens, "_TABLE", tokens.TokenTable())


def run_entries(vectorizer):
    """How many (tokens, hashed codes) the tables ``vectorizer`` uses hold."""
    run = featurizers._TABLES.get(tuple(vectorizer.ngram_range))
    if run is None:
        return 0, 0
    table = run.table
    assert sorted(table.ids.values()) == list(range(len(table.tokens)))  # no two share an id
    assert sorted(run.scope_ids.values()) == list(range(len(run.scopes)))
    for codes, hashes in run.hashed.values():
        assert codes.size == hashes.size and (np.diff(codes) > 0).all()
    return len(table.tokens), sum(codes.size for codes, _ in run.hashed.values())


@given(
    chunks=CHUNK_LISTS,
    unrelated=CHUNK_LISTS,
    order=st.randoms(use_true_random=False),
    ngram_range=st.sampled_from(NGRAM_RANGES),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_relation_triples_do_not_depend_on_what_the_run_has_seen(
    chunks, unrelated, order, ngram_range
):
    make = lambda: RelationFeaturizer(16, ngram_range, 2).fit()  # noqa: E731
    specification = make()
    expected = [stack_rows(map(specification.candidate_entries, chunk)) for chunk in chunks]
    shuffled = list(range(len(chunks)))
    order.shuffle(shuffled)
    prefilled = make()
    for chunk in unrelated:
        prefilled.chunk_triples(chunk)
    runs = ((make(), range(len(chunks))), (make(), shuffled), (prefilled, shuffled))
    for featurizer, sequence in runs:
        for index in sequence:
            assert not chunks[index] or featurizer._kernel_entries(chunks[index]) is not None
            assert_same_triples(featurizer.chunk_triples(chunks[index]), expected[index])
            assert_same_triples(make().chunk_triples(chunks[index]), expected[index])


@given(
    chunks=st.lists(st.lists(st.lists(TOKENS, max_size=8), max_size=4), max_size=6),
    ngram_range=st.sampled_from(NGRAM_RANGES),
    signed=st.booleans(),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_vectorizer_triples_do_not_depend_on_what_the_run_has_seen(
    chunks, ngram_range, signed, order
):
    """Two prefixes alternate through one run: a scope is part of the key."""
    vectorizer = HashingVectorizer(7, ngram_range, signed).fit()
    calls = [(chunk, ("", "btw:")[i % 2]) for i, chunk in enumerate(chunks)]
    order.shuffle(calls)
    for chunk, prefix in calls + calls[::-1]:
        expected = stack_rows(vectorizer.sequence_entries(tokens, prefix) for tokens in chunk)
        assert_same_triples(vectorizer.chunk_triples(chunk, prefix), expected)


@given(chunks=CHUNK_LISTS)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_refit_with_another_ngram_range_starts_a_new_run(chunks):
    """Another ``ngram_range`` (another radix) reads its own tables, with or
    without a re-fit, and a re-fit leaves the tables as they were."""
    featurizer = RelationFeaturizer(16)
    for index, chunk in enumerate(chunks):
        featurizer.vectorizer.ngram_range = NGRAM_RANGES[index % 3]  # another radix
        before = run_entries(featurizer.vectorizer)
        featurizer.fit()
        assert run_entries(featurizer.vectorizer) == before
        expected = stack_rows(map(featurizer.candidate_entries, chunk))
        assert_same_triples(featurizer.chunk_triples(chunk), expected)
        for ngram_range, run in featurizers._TABLES.items():
            assert run is None or run.ngram_range == ngram_range
        featurizer.vectorizer.ngram_range = NGRAM_RANGES[(index + 1) % 3]  # and without fit()
        expected = stack_rows(map(featurizer.candidate_entries, chunk))
        assert_same_triples(featurizer.chunk_triples(chunk), expected)


def _word_chunk(words, size=3):
    """Candidates over ``words``, ``size`` words to a sentence."""
    sentences = [words[i : i + size] for i in range(0, len(words), size)]
    return [
        Candidate(0, SpanView(s[0], 0, 1), SpanView(s[-1], len(s) - 1, len(s)), SentenceView(s, ""))
        for s in sentences
    ]


def test_each_key_is_spelled_and_hashed_once_per_process(monkeypatch, empty_tables):
    hashed, stable_hashes = [], featurizers._stable_hashes

    def recording(keys):
        keys = list(keys)
        hashed.extend(keys)
        return stable_hashes(keys)

    monkeypatch.setattr(featurizers, "_stable_hashes", recording)
    chunks = [_word_chunk([f"w{i % 40}" for i in range(start, start + 30)]) for start in (0, 7, 21)]
    for chunk in chunks:
        RelationFeaturizer(32).fit().chunk_triples(chunk)
    first = len(hashed)
    assert first == len(set(hashed)) == run_entries(RelationFeaturizer(32).vectorizer)[1]
    for chunk in chunks:  # a re-run, by a new featurizer, hashes nothing it has seen
        RelationFeaturizer(32).fit().chunk_triples(chunk)
    assert len(hashed) == first


@pytest.mark.parametrize("cap", [0, 5, 20, 40])
def test_tables_stop_at_the_cap(monkeypatch, empty_tables, cap):
    monkeypatch.setattr(tokens, "TABLE_CAP", cap)
    featurizer = RelationFeaturizer(32).fit()
    chunks = [
        _word_chunk([f"w{i % 50}" for i in range(start, start + 12)]) for start in range(0, 90, 5)
    ]
    chunks.insert(3, _word_chunk([f"big{i}" for i in range(90)]))  # more words than any cap here
    for chunk in chunks * 2:
        assert featurizer._kernel_entries(chunk) is not None  # a full table never declines a chunk
        expected = stack_rows(map(featurizer.candidate_entries, chunk))
        assert_same_triples(featurizer.chunk_triples(chunk), expected)
        words, codes = run_entries(featurizer.vectorizer)
        assert words <= cap and codes <= cap
    # Twelve words a chunk: from 12 entries up a chunk's words are kept and the
    # code tables fill to the brim; below, nothing is ever published.
    assert (words, codes) == (0, 0) if cap < 12 else (words >= 12 and codes == cap)
    # Another featurizer (a re-run) shares the tables, which stay inside the cap.
    other = RelationFeaturizer(32).fit()
    for chunk in chunks:
        assert_same_triples(other.chunk_triples(chunk), featurizer.chunk_triples(chunk))
        words, codes = run_entries(other.vectorizer)
        assert words <= cap and codes <= cap


def test_a_vocabulary_beyond_the_radix_declines_only_its_own_chunk(empty_tables):
    featurizer = RelationFeaturizer(32, ngram_range=(1, 12)).fit()
    radix = 28  # 28 ** 13 < 2 ** 63 <= 29 ** 13: 28 words to a chunk
    small = [_word_chunk([f"{part}{i}" for i in range(9)]) for part in "abcd"]
    oversized = _word_chunk([f"t{i}" for i in range(30)])
    for chunk in small + [oversized] + small[::-1]:
        # The process's table outgrows the radix after three small chunks; the
        # fourth is renumbered by itself and still fits.
        assert (featurizer._kernel_entries(chunk) is None) == (chunk is oversized)
        expected = stack_rows(map(featurizer.candidate_entries, chunk))
        assert_same_triples(featurizer.chunk_triples(chunk), expected)
        assert featurizers._TABLES[(1, 12)].radix == radix


def test_tables_are_not_part_of_the_pickled_or_copied_state(empty_tables):
    candidates = list(stream_text_candidates(14 * 20, num_lfs=6, seed=3))
    featurizer = RelationFeaturizer(64).fit()
    cold = pickle.dumps(featurizer)
    for start in range(0, len(candidates), 20):
        featurizer.chunk_triples(candidates[start : start + 20])
    warm = run_entries(featurizer.vectorizer)
    assert warm > (6, 6)
    assert pickle.dumps(featurizer) == cold
    for clone in (copy.deepcopy(featurizer), pickle.loads(cold)):
        assert "_run" not in vars(clone.vectorizer)  # no featurizer carries tables
        assert_same_triples(clone.chunk_triples(candidates), featurizer.chunk_triples(candidates))
        assert run_entries(clone.vectorizer) == warm  # a copy reads the process's tables


def test_concurrent_misses_on_one_shared_featurizer(empty_tables):
    """``backend="threads"`` shares one featurizer: chunks whose vocabularies are
    mostly disjoint all miss at once, and two words must never share an id."""
    chunks = [[f"c{i}w{j}" for j in range(18)] + ["shared", "Shared", "words"] for i in range(210)]
    candidates = [candidate for words in chunks for candidate in _word_chunk(words)]
    featurizer = RelationFeaturizer(64).fit()
    expected = featurize_stream(featurizer, candidates, chunk_size=7)
    assert expected.nnz == stack_rows(map(featurizer.candidate_entries, candidates))[0].size
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            featurizers._TABLES.clear()  # every round races from empty tables
            tokens._TABLE = tokens.TokenTable()
            actual = featurize_stream(
                featurizer, candidates, chunk_size=7, backend="threads", num_workers=4
            )
            assert_same_csr(actual, expected)
            # Every word has one id; the four cold starts race and three may lose their chunk.
            assert 207 * 18 + 9 <= run_entries(featurizer.vectorizer)[0] <= 210 * 18 + 9
    finally:
        sys.setswitchinterval(interval)


def test_worker_processes_start_cold_and_agree(empty_tables):
    candidates = list(stream_text_candidates(300, num_lfs=6, seed=5))
    featurizer = RelationFeaturizer(64).fit()
    expected = featurize_stream(featurizer, candidates, chunk_size=50)
    warm = run_entries(featurizer.vectorizer)
    actual = featurize_stream(
        featurizer, candidates, chunk_size=50, backend="processes", num_workers=2
    )
    assert_same_csr(actual, expected)
    assert run_entries(featurizer.vectorizer) == warm  # nothing came back either
