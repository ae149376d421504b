"""The chunk's columnar block ≡ the per-candidate accessors it stands in for.

``ColumnarChunk`` reads every candidate once and looks its words up once in
the process's token table; the compiled LF programs and the featurizer's
kernel both take their fields from it.  These tests hold both consumers to
the readable per-candidate paths on adversarial chunks (mixed candidate
kinds, odd tokens and offsets), pin the single read, and pin which rows the
token kernels still hand to their per-row fallback.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.context.candidates import Candidate, SentenceView, SpanView
from repro.datasets.lf_library import keyword_pattern_lfs, structure_based_lfs
from repro.datasets.synthetic import stream_text_candidates, text_vote_lfs
from repro.discriminative import RelationFeaturizer
from repro.labeling import LFApplier, build_plan
from repro.labeling.engine.tasks import label_and_featurize_chunk
from repro.labeling.lf import LabelingFunction
from repro.labeling.pushdown import label_chunk_pushdown
from repro.labeling.pushdown.fields import ColumnarChunk
from repro.labeling.pushdown.program import FieldCol, TokenMatch, TokenScan
from repro.utils import tokens


class Reversed(Candidate):
    """Overrides an accessor both consumers re-implement."""

    def words_between(self):
        return Candidate.words_between(self)[::-1]


class Duck:
    """Not a ``Candidate`` at all: the accessors borrowed, the fields plain."""

    def __init__(self, uid, span1, span2, sentence):
        self.uid, self.span1, self.span2, self.sentence = uid, span1, span2, sentence
        self.relation_type, self.split, self.gold_label = "relation", "train", None
        self.metadata = {}


for _name in (
    "words_between", "text_between", "ordered_spans", "span1_precedes_span2",
    "token_distance", "window_left", "window_right",
):
    setattr(Duck, _name, getattr(Candidate, _name))

KINDS = {"stock": Candidate, "subclassed": Reversed, "duck": Duck}

TOKENS = st.sampled_from(
    ["lf0vp", "lf1vn", "lf2vp", "cat", "Cat", "dog", "a", "b", "x y", "İ", "", "\x00", "q\x00",
     "\x00q", None, 7]
)


def span_text_lf(candidate):
    return 1 if candidate.span1.text == "a b" else 0


def offsets_lf(candidate):
    return -1 if candidate.span2.word_end - candidate.span1.word_start > 2 else 0


SUITE = (
    text_vote_lfs(3)
    + structure_based_lfs(far_distance=2)
    + keyword_pattern_lfs(["cat"], ["dog"])
    + [LabelingFunction("span_text", span_text_lf), LabelingFunction("offsets", offsets_lf)]
)


@st.composite
def chunks(draw):
    rows = []
    for uid in range(draw(st.integers(0, 6))):
        words = draw(st.lists(TOKENS, max_size=7))
        if draw(st.booleans()):
            words = tuple(words)
        offset = st.integers(-2, len(words) + 2)
        spans = []
        for _ in range(2):
            start, end = draw(offset), draw(offset)
            text = draw(st.sampled_from(["a b", " a  b ", "cat", "", "x\ty", "\x00"]))
            spans.append(SpanView(text, start, end))
        kind = KINDS[draw(st.sampled_from(sorted(KINDS)))]
        rows.append(kind(uid, spans[0], spans[1], SentenceView(words, "")))
    return rows


def outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the exception type is the datum
        return type(exc)


def stacked_entries(featurizer, chunk):
    rows, cols, values = [], [], []
    for row, candidate in enumerate(chunk):
        for col, value in sorted(featurizer.candidate_entries(candidate).items()):
            rows.append(row), cols.append(col), values.append(value)
    return np.array(rows, np.int64), np.array(cols, np.int64), np.array(values, np.float64)


def same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@given(chunk=chunks(), chunk_size=st.sampled_from([1, 4, 1024]))
@example(chunk=[], chunk_size=1024)
@example(
    chunk=[Candidate(0, SpanView("a b", 0, 2), SpanView("cat", 3, 4),
                     SentenceView(["a", "b", "q\x00", "cat"], ""))],
    chunk_size=1024,
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_block_readers_match_the_accessors(chunk, chunk_size):
    """Λ compiled ≡ interpreted and the kernel's triples ≡ the stacked
    ``candidate_entries``, bitwise, on chunks mixing stock, subclassed and
    duck-typed candidates, tuple words, non-``str`` and NUL tokens,
    negative, reversed and out-of-range offsets, empty sentences and span
    texts with inner whitespace."""
    matrices, reports = [], []
    for pushdown in ("off", "auto"):
        applier = LFApplier(SUITE, pushdown=pushdown, fault_tolerant=True, chunk_size=chunk_size)
        matrices.append(applier.apply(chunk, sparse=True).storage)
        reports.append(applier.last_report)
    assert same(*((m.indptr, m.indices, m.data) for m in matrices))
    assert reports[0].errors == reports[1].errors
    assert reports[1].pushdown.compiled  # the compiled tier really ran
    assert list(reports[1].pushdown.fallback) == ["offsets"]  # column arithmetic: interpreted
    featurizer = RelationFeaturizer(32, window_size=2).fit()
    expected = outcome(lambda: stacked_entries(featurizer, chunk))
    assert same(outcome(lambda: featurizer.chunk_triples(chunk)), expected)
    assert same(outcome(lambda: featurizer.chunk_triples(ColumnarChunk(chunk))), expected)


class Counted(Candidate):
    """Counts reads of the three context attributes."""

    reads: dict = {}

    def __getattribute__(self, name):
        if name in ("sentence", "span1", "span2"):
            key = (object.__getattribute__(self, "uid"), name)
            Counted.reads[key] = Counted.reads.get(key, 0) + 1
        return object.__getattribute__(self, name)


def test_a_fused_chunk_reads_each_candidate_once():
    words = ["lf0vp", "a", "b", "cat", "c", "d", "dog"]
    chunk = [
        Counted(uid, SpanView("a b", 1, 3), SpanView("dog", 6, 7), SentenceView(list(words), ""))
        for uid in range(5)
    ]
    lfs = text_vote_lfs(2) + structure_based_lfs()[:2] + [LabelingFunction("span", span_text_lf)]
    plan = build_plan(lfs, cardinality=2)
    assert len(plan.compiled) == len(lfs)
    featurizer = RelationFeaturizer(32).fit()
    Counted.reads.clear()
    result = label_and_featurize_chunk((label_chunk_pushdown, plan, featurizer), True, 0, 0, chunk)
    names = ("sentence", "span1", "span2")
    assert Counted.reads == {(uid, name): 1 for uid in range(5) for name in names}
    assert result.row_offsets.size and result.features.cols.size  # both consumers ran
    Counted.reads.clear()
    expected = stacked_entries(featurizer, chunk)
    assert same(featurizer.chunk_triples(chunk), expected)


def _rows(rows):
    span = SpanView("x", 0, 1)
    return [Candidate(uid, span, span, SentenceView(row, "")) for uid, row in enumerate(rows)]


NUL_ROWS = [
    ["cat\x00"], ["cat"], ["\x00", "dog"], ["cat", 7], [], ["x\x00y", "cat"], ["cat\x00", "b"],
]


def test_nul_tokens_take_no_per_row_fallback(monkeypatch):
    """Only a row holding a non-``str`` token is recomputed per row; NUL
    tokens are compared as the Python strings they are."""
    calls = []

    def check(needle):
        def fallback(row):
            calls.append(list(row))
            return any(token == needle for token in row)
        return fallback

    words = FieldCol(("sentence", "words"))
    for needle in ("cat", "cat\x00", "\x00"):
        calls.clear()
        chunk = ColumnarChunk(_rows(NUL_ROWS))
        values = TokenMatch(words, "eq", needle, False, check(needle)).eval(chunk).values
        assert values.tolist() == [any(t == needle for t in row) for row in NUL_ROWS]
        assert calls == [["cat", 7]]
    scanned = []
    scan = TokenScan(words, lambda t: t.endswith("\x00"), lambda t: len(t), ("nul", "test"))
    scan_row = TokenScan._scan_row
    monkeypatch.setattr(
        TokenScan, "_scan_row", lambda self, row: scanned.append(row) or scan_row(self, row)
    )
    chunk = ColumnarChunk(_rows(NUL_ROWS))
    hits = scan.eval(chunk)
    assert scanned == [["cat", 7]]
    assert hits.values.tolist() == [True, False, True, False, False, False, True]
    assert chunk.get(scan.labels.key).values.tolist() == [4, 0, 1, 0, 0, 0, 4]


@pytest.mark.parametrize("chunk_size", [1, 3, 1024])
def test_nul_rows_compiled_match_interpreted(chunk_size):
    vocabulary = {"cat\x00", "dog"}

    def keyword(candidate):
        for word in candidate.sentence.words:
            if word in vocabulary:
                return 1
        return 0

    lfs = text_vote_lfs(2) + [LabelingFunction("keyword", keyword)]
    rows = NUL_ROWS + [["lf0vp\x00"], ["lf1vn", "cat\x00"], ["lf0v\x00p"]]
    results = []
    for pushdown in ("off", "require"):
        applier = LFApplier(lfs, pushdown=pushdown, fault_tolerant=True, chunk_size=chunk_size)
        results.append((applier.apply(_rows(rows)).values, applier.last_report.errors))
    assert np.array_equal(results[0][0], results[1][0]) and results[0][1] == results[1][1]
    assert results[0][0][:, 2].tolist() == [1, 0, 1, 0, 0, 0, 1, 0, 1, 0]


def test_threads_share_one_token_table_and_scan_memo(monkeypatch):
    """``backend="threads"``: chunks intern new words and grow the scan memo
    at once; a lost update may cost a re-evaluation, never a changed row."""
    candidates = list(stream_text_candidates(480, num_lfs=6, seed=9))
    for uid, candidate in enumerate(candidates):
        candidate.sentence.words.insert(uid % 3, f"lf{uid % 6}v{uid}")  # a new token per row
    lfs = text_vote_lfs(6)
    featurizer = RelationFeaturizer(64).fit()
    reference = LFApplier(lfs, pushdown="off", chunk_size=8)
    expected, blocks = reference.apply_with_features(candidates, featurizer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(tokens, "_TABLE", tokens.TokenTable())
            applier = LFApplier(lfs, backend="threads", num_workers=4, chunk_size=8)
            got, got_blocks = applier.apply_with_features(candidates, featurizer)
            assert np.array_equal(got.values, expected.values)
            for block, want in zip(got_blocks, blocks):
                assert same((block.indptr, block.indices, block.data),
                            (want.indptr, want.indices, want.data))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cap", [4, 24, 48])
def test_scan_memo_follows_token_table_restarts(monkeypatch, cap):
    """A small cap restarts the process's token table between the chunks of
    one apply call, and the new table gives old ids to other tokens: the
    scan memo must never carry an outcome from one table to another."""
    monkeypatch.setattr(tokens, "_TABLE", tokens.TokenTable())
    monkeypatch.setattr(tokens, "TABLE_CAP", cap)
    candidates = list(stream_text_candidates(200, num_lfs=6, seed=4))
    lfs = text_vote_lfs(6)
    off, compiled = (
        LFApplier(lfs, pushdown=pushdown, chunk_size=3).apply(candidates).values
        for pushdown in ("off", "require")
    )
    assert np.array_equal(off, compiled) and np.count_nonzero(off)


SCAN_VOCABULARY = {"lf1vp"}


def vocabulary_scan(candidate):
    for word in candidate.sentence.words:
        if word in SCAN_VOCABULARY:
            return 1 if word.endswith("p") else -1
    return 0


def test_scan_memo_lasts_one_apply_call():
    """The scan reads its vocabulary when it runs, so an outcome kept past
    the apply call would miss an in-place edit made between calls."""
    lf = LabelingFunction("vocabulary_scan", vocabulary_scan)
    compiled = LFApplier([lf], pushdown="require", chunk_size=2)
    candidates = _rows([["lf1vp"], ["lf2vn", "b"], ["x"]] * 3)
    first = compiled.apply(candidates).values
    SCAN_VOCABULARY.add("lf2vn")
    try:
        second = compiled.apply(candidates).values
        interpreted = LFApplier([lf], pushdown="off").apply(candidates).values
    finally:
        SCAN_VOCABULARY.discard("lf2vn")
    assert np.array_equal(second, interpreted) and not np.array_equal(first, second)
