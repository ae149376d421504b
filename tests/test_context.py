"""Unit tests for the context hierarchy, preprocessing, and candidate extraction."""

import cProfile
import hashlib
import json
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_context import gold_rule, library, records_of, reference

from repro.context import (
    CandidateExtractor,
    Corpus,
    DictionaryEntityTagger,
    PairedEntityCandidateSpace,
    TextPreprocessor,
)
from repro.context.candidates import Candidate, SentenceView, SpanView
from repro.context.preprocessing import TaggedEntity
from repro.datasets.cdr import build_cdr_task
from repro.datasets.radiology import build_radiology_task
from repro.datasets.spouses import build_spouses_task
from repro.exceptions import ContextError
from repro.utils.textutils import normalize, tokenize


def make_corpus():
    tagger = DictionaryEntityTagger(
        {
            "chemical": {"magnesium": "chem:1"},
            "disease": {"preeclampsia": "dis:1", "renal failure": "dis:2"},
        }
    )
    return Corpus("test", preprocessor=TextPreprocessor(entity_tagger=tagger))


def test_tokenizer_offsets_roundtrip():
    words, offsets, *_ = TextPreprocessor().process_document("Magnesium causes harm.")
    assert words[0] == "Magnesium"
    start, end = offsets[0]
    assert "Magnesium causes harm."[start:end] == "Magnesium"


def test_sentence_splitter():
    text = " One sentence. Two sentence!\tThree? "
    _, _, starts, ends, texts, entities = TextPreprocessor().process_document(text)
    assert texts == ["One sentence.", "Two sentence!", "Three?"]
    assert (starts, ends, entities) == ([0, 3, 6], [3, 6, 8], ((),) * 6)


def test_dictionary_tagger_multiword_and_case():
    tagger = DictionaryEntityTagger({"disease": {"Renal Failure": "dis:2"}})
    tags = tagger.tag(["acute", "renal", "failure", "observed"])
    assert len(tags) == 1
    assert (tags[0].word_start, tags[0].word_end) == (1, 3)


def test_corpus_ingest_and_candidate_extraction():
    corpus = make_corpus()
    corpus.add_document("d1", "Magnesium causes preeclampsia in rare cases.", split="train")
    extractor = CandidateExtractor(
        PairedEntityCandidateSpace("causes", "chemical", "disease"),
        gold_labeler=lambda c: 1,
    )
    created = extractor.extract(corpus)
    assert created == 1
    candidates = corpus.candidates("train")
    assert len(candidates) == 1
    candidate = candidates[0]
    assert candidate.span1.entity_type == "chemical"
    assert candidate.span2.entity_type == "disease"
    assert candidate.gold_label == 1
    assert "causes" in candidate.words_between()


def test_same_type_pairs_unordered():
    space = PairedEntityCandidateSpace("spouse", "person", "person")
    corpus = Corpus(
        "p",
        preprocessor=TextPreprocessor(
            entity_tagger=DictionaryEntityTagger(
                {"person": {"ada": "p1", "bob": "p2", "cam": "p3"}}
            )
        ),
    )
    corpus.add_document("d", "Ada married Bob while Cam watched.", split="train")
    created = CandidateExtractor(space).extract(corpus)
    assert created == 3  # three unordered pairs of three persons


def test_candidate_window_and_distance_helpers():
    candidate = Candidate(
        uid=1,
        span1=SpanView("a", 1, 2),
        span2=SpanView("b", 5, 6),
        sentence=SentenceView(words=["w0", "a", "x", "y", "z", "b", "w6"], text=""),
    )
    assert candidate.token_distance() == 3
    assert candidate.words_between() == ["x", "y", "z"]
    assert candidate.window_left(1) == ["w0"]
    assert candidate.window_right(1) == ["w6"]
    assert candidate.span1_precedes_span2()


def test_candidate_validate_rejects_bad_spans():
    candidate = Candidate(
        uid=1,
        span1=SpanView("a", 0, 9),
        span2=SpanView("b", 1, 2),
        sentence=SentenceView(words=["a", "b"], text=""),
    )
    with pytest.raises(ContextError):
        candidate.validate()


def test_max_token_distance_filter():
    space = PairedEntityCandidateSpace("r", "chemical", "disease", max_token_distance=1)
    corpus = make_corpus()
    corpus.add_document(
        "d", "Magnesium was given long before preeclampsia developed.", split="train"
    )
    assert CandidateExtractor(space).extract(corpus) == 0


@pytest.mark.parametrize(
    "distance,created",
    [(None, 1), (0, 0), (3, 0), (4, 1), (-1, None), (2.5, None), (float("nan"), None),
     (True, None), (False, None), ("3", None)],
)
def test_max_token_distance_is_none_or_a_nonnegative_int(distance, created):
    corpus = make_corpus()
    corpus.add_document("d", "Magnesium was given long before preeclampsia.", split="train")
    if created is None:
        with pytest.raises(ContextError, match="max_token_distance"):
            PairedEntityCandidateSpace("r", "chemical", "disease", max_token_distance=distance)
        return
    space = PairedEntityCandidateSpace("r", "chemical", "disease", max_token_distance=distance)
    assert CandidateExtractor(space).extract(corpus) == created


def test_punctuated_dictionary_surface_is_tagged():
    tagger = DictionaryEntityTagger(
        {"chemical": {"5-fluorouracil": "chem:5fu"}, "disease": {"mucositis": "dis:1"}}
    )
    corpus = Corpus("p", preprocessor=TextPreprocessor(entity_tagger=tagger))
    corpus.add_document("d", "Mucositis followed when given 5-Fluorouracil.", split="train")
    CandidateExtractor(PairedEntityCandidateSpace("causes", "chemical", "disease")).extract(corpus)
    (candidate,) = corpus.candidates()
    span = candidate.span1
    assert (span.text, span.word_start, span.word_end) == ("5 - Fluorouracil", 4, 7)
    assert span.canonical_id == "chem:5fu"


def test_failing_gold_labeler_leaves_the_corpus_unchanged_and_retry_is_clean():
    text = "Magnesium causes preeclampsia. Magnesium and renal failure. Preeclampsia again."

    def fresh():
        corpus = make_corpus()
        corpus.add_document("d1", text, split="train")
        return corpus

    calls = []

    def flaky(candidate):
        calls.append(candidate.uid)
        if len(calls) == 2:
            raise RuntimeError("labeler down")
        return 1

    space = PairedEntityCandidateSpace("causes", "chemical", "disease")
    corpus = fresh()
    before = pickle.dumps(corpus)
    with pytest.raises(RuntimeError, match="labeler down"):
        CandidateExtractor(space, gold_labeler=flaky).extract(corpus)
    assert calls == [1, 2]
    assert pickle.dumps(corpus) == before
    assert corpus.num_candidates == 0 and corpus.candidates() == []
    assert CandidateExtractor(space, gold_labeler=flaky).extract(corpus) == 2
    clean = fresh()
    assert CandidateExtractor(space, gold_labeler=lambda c: 1).extract(clean) == 2
    assert records_of(corpus) == records_of(clean)
    assert [c.gold_label for c in corpus.candidates()] == [1, 1]


# ------------------------------------------------ extraction / ingest regressions
def test_second_extraction_of_a_document_is_refused():
    corpus = make_corpus()
    corpus.add_document("d1", "Magnesium causes preeclampsia in rare cases.", split="train")
    extractor = CandidateExtractor(PairedEntityCandidateSpace("causes", "chemical", "disease"))
    assert extractor.extract(corpus, splits=["train"]) == 1
    with pytest.raises(ContextError, match="'causes'.*'d1'"):
        extractor.extract(corpus)
    assert len(corpus.candidates("train")) == 1
    # Another relation type over the same document is a different extraction.
    other = CandidateExtractor(PairedEntityCandidateSpace("treats", "chemical", "disease"))
    assert other.extract(corpus) == 1


def test_entity_span_outside_sentence_is_rejected_at_ingest():
    corpus = Corpus("c")
    sentence = {
        "text": "a b",
        "words": ["a", "b"],
        "position": 3,
        "entities": [TaggedEntity(0, 1, "a", "x"), TaggedEntity(1, 7, "b", "y")],
    }
    with pytest.raises(ContextError, match=r"'doc-7'.*sentence 3.*'b' \[1, 7\)"):
        corpus.add_processed_document("doc-7", "a b", [sentence])
    for start, end in ((-1, 1), (1, 1), (2, 1)):
        entity = {"word_start": start, "word_end": end, "text": "a", "entity_type": "x"}
        bad = dict(sentence, entities=[entity])
        with pytest.raises(ContextError):
            Corpus("c").add_processed_document("d", "a b", [bad])


# ------------------------------------------------------------ ordering contracts
def _sentence(position, words, entities=()):
    return {
        "text": " ".join(words),
        "words": words,
        "position": position,
        "entities": [TaggedEntity(*entity) for entity in entities],
    }


def test_ids_and_ordering_contracts():
    corpus = Corpus("c")
    second = corpus.add_processed_document(
        "late",
        "",
        [
            # Positions out of insertion order; entities out of sentence order,
            # two of them starting at the same token.
            _sentence(2, ["p", "q"], [(1, 2, "q", "y", "y:q"), (0, 1, "p", "x", "x:p")]),
            _sentence(
                0,
                ["r", "s", "t"],
                [(2, 3, "t", "y", "y:t"), (0, 2, "r s", "y", "y:rs"), (0, 1, "r", "x", "x:r")],
            ),
            _sentence(1, ["u"]),
        ],
        split="test",
    )
    first = corpus.add_processed_document(
        "early", "", [_sentence(0, ["v", "w"], [(0, 1, "v", "x", "x:v"), (1, 2, "w", "y", "y:w")])]
    )
    assert (second.id, first.id) == (1, 2)
    assert [document.id for document in corpus.documents()] == [1, 2]
    assert [document.name for document in corpus.documents("test")] == ["late"]
    assert corpus.num_documents == 2 and corpus.num_sentences == 4

    sentences = corpus.sentences_of(second)
    assert [sentence.position for sentence in sentences] == [0, 1, 2]
    assert [sentence.id for sentence in sentences] == [2, 3, 1]
    assert all(sentence.document_id == second.id for sentence in sentences)

    entities = corpus.entities_of(sentences[0])
    assert [(span.text, span.word_start) for span, _ in entities] == [
        ("r s", 0),
        ("r", 0),
        ("t", 2),
    ]
    assert [span.id for span, _ in entities] == [4, 5, 3]
    assert all(mention.span_id == span.id for span, mention in entities)
    assert [mention.canonical_id for _, mention in entities] == ["y:rs", "x:r", "y:t"]
    assert corpus.entities_of(sentences[1]) == []

    extractor = CandidateExtractor(
        PairedEntityCandidateSpace("r", "x", "y"),
        gold_labeler=lambda candidate: 1 if candidate.span2.text == "t" else None,
    )
    assert extractor.extract(corpus) == 4
    records = corpus.candidate_records()
    assert [record.id for record in records] == [1, 2, 3, 4] == list(
        range(1, corpus.num_candidates + 1)
    )
    # Documents in id order, sentences by position, pairs in entity order.
    assert [(record.sentence_id, record.span1_id, record.span2_id) for record in records] == [
        (2, 5, 4),
        (2, 5, 3),
        (1, 2, 1),
        (4, 6, 7),
    ]
    assert [record.id for record in corpus.candidate_records("train")] == [4]
    assert [record.gold_label for record in records] == [None, 1, None, None]
    candidates = corpus.candidates()
    assert [candidate.uid for candidate in candidates] == [1, 2, 3, 4]
    assert [candidate.gold_label for candidate in candidates] == [None, 1, None, None]
    assert [candidate.split for candidate in candidates] == ["test", "test", "test", "train"]
    # Candidates own copies of the sentence's words and the document's metadata.
    candidates[0].sentence.words.append("mutated")
    candidates[0].sentence.document_metadata["k"] = 1
    assert corpus.candidates()[0] == corpus.materialize_candidate(records[0])
    assert corpus.candidates()[0].sentence.words == ["r", "s", "t"]


def test_corpus_pickles_as_plain_acyclic_data():
    corpus = make_corpus()
    for index in range(40):
        corpus.add_document(f"d{index}", "Magnesium causes preeclampsia. " * 5)
    CandidateExtractor(PairedEntityCandidateSpace("causes", "chemical", "disease")).extract(corpus)
    clone = pickle.loads(pickle.dumps(corpus))
    assert clone.candidates() == corpus.candidates()
    assert clone.num_sentences == corpus.num_sentences == 200


# ---------------------------------------------------------------- linear scaling
def _context_calls(num_documents):
    """Python calls made by ingest + extract + materialize of ``num_documents``."""
    text = (
        "Magnesium causes preeclampsia in rare cases. Renal failure followed magnesium "
        "and preeclampsia. Nothing tagged here at all. Magnesium was given. "
        "Preeclampsia and renal failure resolved after magnesium."
    )
    profile = cProfile.Profile()
    profile.enable()
    corpus = make_corpus()
    for index in range(num_documents):
        corpus.add_document(f"d{index}", text, split="train" if index % 3 else "test")
    extractor = CandidateExtractor(
        PairedEntityCandidateSpace("causes", "chemical", "disease"), gold_labeler=lambda c: 1
    )
    created = extractor.extract(corpus)
    candidates = corpus.candidates("train") + corpus.candidates("test")
    profile.disable()
    assert created == len(candidates) == 5 * num_documents
    # ``getstats``, not ``pstats``: every dataclass ``__init__`` is
    # ``<string>:2``, and ``pstats`` keeps only one of them.
    return sum(entry.callcount for entry in profile.getstats())


def test_documents_to_candidates_is_linear_in_corpus_size():
    # A call count, not a wall clock: exact and host-independent.  With a
    # scan per parent this ratio was ~16.
    assert _context_calls(200) <= 4.5 * _context_calls(50)


def test_documents_to_candidates_call_budget():
    # A fixed number of calls per document and per candidate (its record,
    # its views, its gold label), none per token, sentence or entity: 22.8
    # per candidate here.  Ingest, tagging and extraction run per sentence
    # and store a record per sentence, span and mention made 50.7, and a
    # frame per token, record and id lookup more still.
    assert _context_calls(50) / (5 * 50) <= 25


# ----------------------------------------------------------- tagger differential
def scan_all_entries_tag(dictionaries, words):
    """The tagger's specification: try every entry, longest first, at every position."""
    entries = []
    for entity_type, surface_to_id in dictionaries.items():
        for surface, canonical_id in surface_to_id.items():
            tokens = tuple(normalize(token) for token in tokenize(surface))
            if tokens:
                entries.append((tokens, entity_type, canonical_id))
    entries.sort(key=lambda entry: len(entry[0]), reverse=True)
    normalized = [normalize(word) for word in words]
    tagged, position = [], 0
    while position < len(words):
        for tokens, entity_type, canonical_id in entries:
            end = position + len(tokens)
            if end <= len(normalized) and tuple(normalized[position:end]) == tokens:
                text = " ".join(words[position:end])
                tagged.append(TaggedEntity(position, end, text, entity_type, canonical_id))
                position = end
                break
        else:
            position += 1
    return tagged


_TOKENS = st.sampled_from(["a", "b", "c", "A", "B", "ab"])
_SURFACES = st.lists(_TOKENS, min_size=0, max_size=3).map(" ".join)
_DICTIONARIES = st.dictionaries(
    st.sampled_from(["x", "y"]),
    st.dictionaries(_SURFACES, st.sampled_from(["id1", "id2", "id3"]), max_size=6),
    max_size=2,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(dictionaries=_DICTIONARIES, words=st.lists(_TOKENS, max_size=8))
# Multi-word entries sharing a first token, longest first.
@example({"x": {"a b": "1", "a b c": "2", "a": "3"}}, ["a", "b", "c", "a", "b", "a"])
# Equal-length entries across two types: dictionary order decides.
@example({"x": {"a b": "1"}, "y": {"A B": "2", "b": "3"}}, ["a", "b", "b"])
# Mixed case on both sides.
@example({"x": {"Ab C": "1"}}, ["aB", "c", "AB", "C"])
# Entry longer than what is left of the sentence falls back to a shorter one.
@example({"x": {"a b c": "1", "a": "2"}}, ["c", "a", "b"])
# Empty sentence, empty dictionary, blank surface.
@example({"x": {"a": "1"}}, [])
@example({}, ["a"])
@example({"x": {" ": "1"}}, ["a"])
# A punctuated surface is the sentence tokenizer's tokens, not one token.
@example({"x": {"a-b": "1", "A": "2"}}, ["a", "-", "B", "a-b", "a"])
def test_indexed_tagger_equals_scan_all_entries(dictionaries, words):
    assert DictionaryEntityTagger(dictionaries).tag(words) == scan_all_entries_tag(
        dictionaries, words
    )


# ------------------------------------------------ ingest differential (reference)
_DOC_WORDS = st.sampled_from(
    ["magnesium", "MagNesium", "renal", "FAILURE", "failure", "preeclampsia", "5", "-",
     "fluorouracil", "don't", "'s", "\x00", ",", "café", "given", "ada", "Ada", "\u2026", "ada."]
)
_SPACES = [" ", "  ", "\u00a0", "\u2003", "\x1c", "\n", "\t"]
_ENDS = [". ", "! ", "?! ", "... ", ".\u2003", ".\x1c", ".", "!?.", " .!? "]
_GAPS = st.sampled_from(_SPACES * 3 + _ENDS)  # mostly inside a sentence
_BLANKS = st.sampled_from(["", " ", "\u2003\n", "\x1c", ". "])
_DOC_TEXTS = st.one_of(
    st.sampled_from(["", " \u2003\x1c"]),
    st.builds(
        lambda lead, parts, trail: lead + "".join(word + gap for word, gap in parts) + trail,
        _BLANKS, st.lists(st.tuples(_DOC_WORDS, _GAPS), min_size=4, max_size=30), _BLANKS,
    ),
)
# Terminal punctuation inside a surface: tagged over a whole document, such
# a surface could match across a sentence end, which must never happen.
_SURFACE_SEPARATORS = st.sampled_from([" ", "-", "\u2003", " - ", ". ", "! ", "?", "\u2026 "])
_DOC_SURFACES = st.one_of(
    st.sampled_from(["magnesium", "5-fluorouracil", "renal failure", "Renal", "ada", "don't",
                     "pre\u2003eclampsia", "café", "failure -", "preeclampsia", "ada. renal",
                     "failure!", "\u2026", "renal failure. given", "magnesium?! Ada"]),
    st.builds(
        lambda words, separator: separator.join(words),
        st.lists(_DOC_WORDS, min_size=1, max_size=3), _SURFACE_SEPARATORS,
    ),
)
_DOC_DICTIONARIES = st.fixed_dictionaries(
    {
        "chemical": st.dictionaries(_DOC_SURFACES, st.sampled_from(["c1", "c2"]), max_size=5),
        "disease": st.dictionaries(_DOC_SURFACES, st.sampled_from(["d1", "d2"]), max_size=5),
    }
)
_RELATIONS = st.sampled_from(
    [("r", "chemical", "disease", None), ("r", "chemical", "disease", 1),
     ("r", "disease", "chemical", 0), ("s", "chemical", "chemical", None)]
)
_ADVERSARIAL = {
    "chemical": {"Magnesium": "c1", "5-fluorouracil": "c2", "ada": "c3", "ada. renal": "c4"},
    "disease": {"renal failure": "d1", "renal": "d2", "pre\u2003eclampsia": "d3",
                "preeclampsia": "d4", "don't": "d5"},
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    dictionaries=st.one_of(st.just(_ADVERSARIAL), _DOC_DICTIONARIES),
    texts=st.lists(_DOC_TEXTS, min_size=1, max_size=4),
    relation=_RELATIONS,
)
# Unicode whitespace, runs of terminal punctuation, a multi-word entity that
# ends a sentence, NUL and apostrophes, an empty and a blank document.
@example(
    _ADVERSARIAL,
    ["\u2003Ada gave 5-Fluorouracil!?. Then renal\u00a0failure.\x1cMagnesium\x00don't renal "
     "FAILURE", "", " \u2003 ", "magnesium 's... preeclampsia ada renal failure."],
    ("r", "chemical", "disease", None),
)
# A surface spanning a sentence end: "ada . renal" lies in the tokens of the
# whole document, but its "." ends the first sentence, so "renal failure" and
# "magnesium" are tagged in the second one instead.
@example(
    {"chemical": {"ada. renal": "c1", "magnesium": "c2"},
     "disease": {"renal failure": "d1", "failure!": "d2", "failure": "d3"}},
    ["ada. renal failure given magnesium", "Ada.\u2003Renal failure! magnesium failure!",
     "ada. renal failure!"],
    ("r", "chemical", "disease", None),
)
def test_ingest_equals_the_reference_on_adversarial_documents(dictionaries, texts, relation):
    documents = [
        (f"doc{index}", text, ("train", "test")[index % 2], {"index": index})
        for index, text in enumerate(texts)
    ]
    assert library(dictionaries, documents, relation, gold_rule) == reference(
        dictionaries, documents, relation, gold_rule
    )


# ------------------------------------------------------- candidate digest pins
def candidate_list_digest(task) -> str:
    """sha256 over everything the corpus put into the task's candidates."""

    def span(view):
        return [view.text, view.word_start, view.word_end, view.entity_type, view.canonical_id]

    rows = [
        [
            split,
            candidate.uid,
            candidate.split,
            candidate.relation_type,
            candidate.gold_label,
            span(candidate.span1),
            span(candidate.span2),
            candidate.sentence.words,
            candidate.sentence.text,
            candidate.sentence.position,
            candidate.sentence.document_name,
            candidate.sentence.document_metadata,
        ]
        for split in ("train", "dev", "test")
        for candidate in task.candidates[split]
    ]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


_DIGEST_BUILDERS = {
    "cdr": lambda seed: build_cdr_task(scale=0.05, seed=seed),
    "spouses": lambda seed: build_spouses_task(scale=0.05, seed=seed),
    "radiology": lambda seed: build_radiology_task(scale=0.02, seed=seed),
}

# Dumped under the commit before the context layer was rewritten
# (``python tests/test_context.py`` prints this table); the rewrite and every
# later change to it must reproduce the candidate lists exactly.
_CANDIDATE_DIGESTS = {
    ("cdr", 0): "a61927413f69832ee931cf886a7dd146c4b044364172d4ad625ed1ed7d193a20",
    ("cdr", 1): "5adbe714731532d0890d66e8be73fd496b7868930435b32b68d0fc5bfaf7e769",
    ("cdr", 2): "acc63d5d61ba60f3a9eafdb2484c31ff97eeb5f57e0143aaefe398629bae4175",
    ("spouses", 0): "d9a3d54fe1a170610b8a0ff2a7acd0e4267cfc0a3b9fd8a3a8bc54a1880de26a",
    ("spouses", 1): "9d1531c6908799017f274878bc629d3bf7ed7be0969106dab3933b50f15062ab",
    ("spouses", 2): "fd576ea6eaf1a8bf070a04f6a385cb7ef5cd8b4e60719121844084c19e0f82b9",
    ("radiology", 0): "0a9551dda8ca7394142046fa903c7a58327292beddd06f1c8555c3056ee86844",
    ("radiology", 1): "b64bd7d1ea4e58b0b9642bd653ae81aa800fbed37467732c0ec3e722a8e24dc9",
    ("radiology", 2): "4b64bca707ea952d30a8989a0b33f48bb4cdfc65554a7fcf65a8b35a6cb8d233",
}


@pytest.mark.parametrize("name,seed", sorted(_CANDIDATE_DIGESTS))
def test_candidate_lists_match_pinned_digests(name, seed):
    assert candidate_list_digest(_DIGEST_BUILDERS[name](seed)) == _CANDIDATE_DIGESTS[name, seed]


if __name__ == "__main__":
    for _name, _build in _DIGEST_BUILDERS.items():
        for _seed in (0, 1, 2):
            print(f'    ("{_name}", {_seed}): "{candidate_list_digest(_build(_seed))}",')
