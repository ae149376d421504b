"""Differential tests: the chunk featurization kernel ≡ the per-row specification.

``RelationFeaturizer.chunk_triples`` / ``HashingVectorizer.chunk_triples``
must return exactly the triples obtained by stacking ``candidate_entries`` /
``sequence_entries`` row by row — same dtypes, same bytes, same row-major,
column-ascending order — on generated chunks that exercise every place the
kernel's index arithmetic could part from Python's slicing and string
semantics, and on the inputs that must take the per-candidate fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import observe_task_purity
from repro.context.candidates import Candidate, SentenceView, SpanView
from repro.datasets.synthetic import stream_text_candidates
from repro.discriminative import HashingVectorizer, RelationFeaturizer
from repro.exceptions import ConfigurationError
from repro.labeling.engine.tasks import featurize_chunk

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
    int_like = [make(words, start=True), make(words, start=np.int64(1))]  # exact in the kernel
    for chunk in ([odd], big_vocabulary, beyond_the_end, int_like):
        assert (featurizer._kernel_entries(chunk) is None) == (chunk is not int_like)
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
