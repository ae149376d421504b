"""Corpus: the context hierarchy plus candidate materialization.

A :class:`Corpus` owns the records of the hierarchy directly — one list per
record type in insertion order (a record's ``id`` is its 1-based position)
and, for each parent id, the list of its children — so every traversal is a
list or dict lookup and ingest, extraction and materialization are linear in
corpus size.  It materializes :class:`repro.context.candidates.Candidate`
views — the denormalized objects labeling functions receive.

Records are stored a document (or an extraction) at a time: every record is
built and checked first, with its id taken from its position, and then the
whole batch is appended, so an error on the way leaves the corpus as it was.
Per sentence, ingest reads the preprocessed words, offsets and entities once
and builds the sentence's spans and mentions in one comprehension each —
no Python call per token or per record beyond the record's own constructor.
Children lists are put in their query order at that moment (a document's
sentences by ``position``, a sentence's spans by ``word_start``, both
stable), so :meth:`Corpus.sentences_of` and :meth:`Corpus.entities_of` read
them without sorting; the order, and so every candidate, is the one of
sorting on each query.  Each entity stores one span and one mention, so a
span and its mention share an id.  :meth:`Corpus.candidates` checks the ids
of a batch of records once, then reads the records by index.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter
from typing import Callable, Optional, Sequence, TypeVar

from repro.context.candidates import Candidate, CandidateRecord, SentenceView, SpanView
from repro.context.contexts import Document, EntityMention, Sentence, Span
from repro.context.preprocessing import TaggedEntity, TextPreprocessor
from repro.exceptions import ContextError

R = TypeVar("R")


class Corpus:
    """A collection of documents with their context hierarchy and candidates.

    Parameters
    ----------
    name:
        Human-readable corpus name (e.g. ``"cdr-synthetic"``).
    preprocessor:
        Pipeline used by :meth:`add_document` to split, tokenize, and tag
        entities.  Optional when documents are ingested pre-processed.
    """

    def __init__(self, name: str, preprocessor: Optional[TextPreprocessor] = None) -> None:
        self.name = name
        self.preprocessor = preprocessor
        self._documents: list[Document] = []
        self._sentences: list[Sentence] = []
        self._spans: list[Span] = []
        self._mentions: list[EntityMention] = []  # the mention of span id i is at i - 1
        self._candidate_records: list[CandidateRecord] = []
        # Parent id -> children in query order.
        self._document_sentences: dict[int, list[Sentence]] = {}
        self._sentence_spans: dict[int, list[Span]] = {}
        self._extracted: set[tuple[int, str]] = set()

    # ------------------------------------------------------------------ ingest
    def add_document(
        self,
        name: str,
        text: str,
        split: str = "train",
        metadata: Optional[dict] = None,
    ) -> Document:
        """Ingest a raw document: preprocess, store sentences, spans, entities."""
        if self.preprocessor is None:
            raise ContextError(
                "corpus has no preprocessor; use add_processed_document for "
                "pre-tokenized input"
            )
        sentences = self.preprocessor.process_document(text)
        return self.add_processed_document(name, text, sentences, split=split, metadata=metadata)

    def add_processed_document(
        self,
        name: str,
        text: str,
        sentences: Sequence[dict],
        split: str = "train",
        metadata: Optional[dict] = None,
    ) -> Document:
        """Ingest a document whose sentences are already tokenized and tagged.

        Each sentence dict must have keys ``text``, ``words``, ``position``;
        optional keys are ``char_offsets`` and ``entities`` (a list of
        :class:`TaggedEntity` or equivalent dicts).  Entity spans must lie
        inside their sentence; otherwise nothing of the document is stored.
        """
        document = Document(name, text, split, dict(metadata or {}), len(self._documents) + 1)
        stored: list[Sentence] = []
        spans: list[Span] = []
        mentions: list[EntityMention] = []
        sentence_spans: dict[int, list[Span]] = {}
        next_span = len(self._spans) + 1
        for sentence_id, sentence_dict in enumerate(sentences, len(self._sentences) + 1):
            words = list(sentence_dict["words"])
            offsets = sentence_dict["char_offsets"] if "char_offsets" in sentence_dict else ()
            position = sentence_dict["position"]
            stored.append(
                Sentence(
                    document.id, position, sentence_dict["text"], words,
                    list(map(list, offsets)), sentence_id,
                )
            )
            entities = list(sentence_dict["entities"] if "entities" in sentence_dict else ())
            if not entities:
                continue
            if any(map(isinstance, entities, repeat(dict))):
                entities = [TaggedEntity(**e) if isinstance(e, dict) else e for e in entities]
            num_words = len(words)
            for entity in entities:
                if not 0 <= entity.word_start < entity.word_end <= num_words:
                    raise ContextError(
                        f"document {name!r}, sentence {position}: entity span "
                        f"{entity.text!r} [{entity.word_start}, {entity.word_end}) lies "
                        f"outside a sentence of {num_words} tokens"
                    )
            new_spans = [
                Span(sentence_id, entity.word_start, entity.word_end, entity.text, span_id)
                for span_id, entity in enumerate(entities, next_span)
            ]
            mentions += [
                EntityMention(span_id, entity.entity_type, entity.canonical_id, span_id)
                for span_id, entity in enumerate(entities, next_span)
            ]
            next_span += len(new_spans)
            spans += new_spans
            sentence_spans[sentence_id] = sorted(new_spans, key=_WORD_START)
        self._documents.append(document)
        self._sentences += stored
        self._spans += spans
        self._mentions += mentions
        self._document_sentences[document.id] = sorted(stored, key=_POSITION)
        self._sentence_spans.update(sentence_spans)
        return document

    def add_candidate_records(
        self,
        document: Document,
        relation_type: str,
        records: Sequence[CandidateRecord],
        gold_labeler: Optional[Callable[[Candidate], Optional[int]]] = None,
    ) -> None:
        """Store one extraction of ``relation_type`` from ``document``.

        ``records`` get the next ids in order; ``gold_labeler``, if given,
        sees each record's :class:`Candidate`, and a non-``None`` answer
        becomes the record's ``gold_label``.  Nothing is stored until every
        label is in, and then the records and the claim on the pair are
        stored together, so a labeler that raises leaves the corpus unchanged
        and the document free to extract again.  A second extraction of the
        pair (it would store every candidate again under new ids) raises
        :class:`ContextError`.
        """
        key = (document.id, relation_type)
        if key in self._extracted:
            raise ContextError(
                f"candidates of relation type {relation_type!r} were already extracted "
                f"from document {document.name!r}"
            )
        for record_id, record in enumerate(records, len(self._candidate_records) + 1):
            record.id = record_id
        if gold_labeler is not None:
            for record, candidate in zip(records, self._views(records)):
                gold = gold_labeler(candidate)
                if gold is not None:
                    record.gold_label = int(gold)
        self._candidate_records += records
        self._extracted.add(key)

    # ----------------------------------------------------------------- queries
    @property
    def num_documents(self) -> int:
        """Number of documents in the corpus."""
        return len(self._documents)

    @property
    def num_sentences(self) -> int:
        """Number of sentences in the corpus."""
        return len(self._sentences)

    @property
    def num_candidates(self) -> int:
        """Number of stored candidate records."""
        return len(self._candidate_records)

    def documents(self, split: Optional[str] = None) -> list[Document]:
        """All documents in id order, optionally filtered to one split."""
        return _in_split(self._documents, split)

    def sentences_of(self, document: Document) -> list[Sentence]:
        """Sentences of ``document`` ordered by position."""
        return list(self._document_sentences.get(document.id, ()))

    def entities_of(self, sentence: Sentence) -> list[tuple[Span, EntityMention]]:
        """All ``(span, entity_mention)`` pairs tagged in ``sentence``.

        Ordered by ``word_start``; spans starting at the same token keep
        their insertion order.
        """
        mentions = self._mentions
        return [(span, mentions[span.id - 1]) for span in self._sentence_spans.get(sentence.id, ())]

    def candidate_records(self, split: Optional[str] = None) -> list[CandidateRecord]:
        """Stored candidate records in id order, optionally filtered by split."""
        return _in_split(self._candidate_records, split)

    # ----------------------------------------------------------- materialization
    def materialize_candidate(self, record: CandidateRecord) -> Candidate:
        """Build the denormalized :class:`Candidate` view for ``record``."""
        return self._views([record])[0]

    def candidates(self, split: Optional[str] = None) -> list[Candidate]:
        """Materialize all candidates, optionally restricted to one split."""
        return self._views(self.candidate_records(split))

    def _views(self, records: Sequence[CandidateRecord]) -> list[Candidate]:
        """The :class:`Candidate` of each record: ids checked for the batch, then indexed."""
        sentences, spans, mentions = self._sentences, self._spans, self._mentions
        _check_ids(records, "sentence_id", sentences, "sentence")
        _check_ids(records, "span1_id", spans, "span")
        _check_ids(records, "span2_id", spans, "span")
        views = []
        for record in records:
            sentence = sentences[record.sentence_id - 1]
            document = self._documents[sentence.document_id - 1]
            span1, mention1 = spans[record.span1_id - 1], mentions[record.span1_id - 1]
            span2, mention2 = spans[record.span2_id - 1], mentions[record.span2_id - 1]
            candidate = Candidate(
                uid=record.id,
                span1=SpanView(
                    span1.text, span1.word_start, span1.word_end,
                    mention1.entity_type, mention1.canonical_id,
                ),
                span2=SpanView(
                    span2.text, span2.word_start, span2.word_end,
                    mention2.entity_type, mention2.canonical_id,
                ),
                sentence=SentenceView(
                    words=list(sentence.words),
                    text=sentence.text,
                    position=sentence.position,
                    document_name=document.name,
                    document_metadata=dict(document.metadata),
                ),
                relation_type=record.relation_type,
                split=record.split,
                gold_label=record.gold_label,
            )
            candidate.validate()
            views.append(candidate)
        return views


_POSITION = attrgetter("position")
_WORD_START = attrgetter("word_start")


def _check_ids(records: Sequence[CandidateRecord], field: str, table: list, kind: str) -> None:
    """Raise unless every record's ``field`` is the id of a record in ``table``."""
    ids = list(map(attrgetter(field), records))
    if ids and not (1 <= min(ids) and max(ids) <= len(table)):
        bad = next(i for i in ids if not 1 <= i <= len(table))
        raise ContextError(f"corpus has no {kind} with id {bad!r}")


def _in_split(records: list[R], split: Optional[str]) -> list[R]:
    if split is None:
        return list(records)
    return [record for record in records if record.split == split]
