"""Corpus: the context hierarchy plus candidate materialization.

A :class:`Corpus` owns the records of the hierarchy directly — one list per
record type in insertion order (a record's ``id`` is its 1-based position)
and, for each parent id, the list of its children, appended at insert — so
every traversal is a list or dict lookup and ingest, extraction and
materialization are linear in corpus size.  It materializes
:class:`repro.context.candidates.Candidate` views — the denormalized objects
labeling functions receive.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional, Sequence, TypeVar

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
        self._mentions: list[EntityMention] = []
        self._candidate_records: list[CandidateRecord] = []
        # Parent id -> children in insertion order.
        self._document_sentences: dict[int, list[Sentence]] = {}
        self._sentence_spans: dict[int, list[Span]] = {}
        self._span_mentions: dict[int, list[EntityMention]] = {}
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
        inside their sentence.
        """
        document = _append(
            self._documents,
            Document(name=name, text=text, split=split, metadata=dict(metadata or {})),
        )
        self._document_sentences[document.id] = []
        for sentence_dict in sentences:
            sentence = _append(
                self._sentences,
                Sentence(
                    document_id=document.id,
                    position=sentence_dict["position"],
                    text=sentence_dict["text"],
                    words=list(sentence_dict["words"]),
                    char_offsets=[list(pair) for pair in sentence_dict.get("char_offsets", [])],
                ),
            )
            self._document_sentences[document.id].append(sentence)
            self._sentence_spans[sentence.id] = []
            for entity in sentence_dict.get("entities", []):
                self._add_entity(document, sentence, entity)
        return document

    def _add_entity(
        self, document: Document, sentence: Sentence, entity: TaggedEntity | dict
    ) -> EntityMention:
        if isinstance(entity, dict):
            entity = TaggedEntity(**entity)
        if not 0 <= entity.word_start < entity.word_end <= len(sentence.words):
            raise ContextError(
                f"document {document.name!r}, sentence {sentence.position}: entity span "
                f"{entity.text!r} [{entity.word_start}, {entity.word_end}) lies outside a "
                f"sentence of {len(sentence.words)} tokens"
            )
        span = _append(
            self._spans,
            Span(
                sentence_id=sentence.id,
                word_start=entity.word_start,
                word_end=entity.word_end,
                text=entity.text,
            ),
        )
        self._sentence_spans[sentence.id].append(span)
        mention = _append(
            self._mentions,
            EntityMention(
                span_id=span.id,
                entity_type=entity.entity_type,
                canonical_id=entity.canonical_id,
            ),
        )
        self._span_mentions[span.id] = [mention]
        return mention

    def begin_extraction(self, document: Document, relation_type: str) -> None:
        """Claim ``document`` for one extraction of ``relation_type``.

        A second extraction of the same pair would store every candidate
        again under new ids, so it raises :class:`ContextError` instead.
        """
        key = (document.id, relation_type)
        if key in self._extracted:
            raise ContextError(
                f"candidates of relation type {relation_type!r} were already extracted "
                f"from document {document.name!r}"
            )
        self._extracted.add(key)

    def add_candidate_record(
        self,
        sentence: Sentence,
        span1: Span,
        span2: Span,
        relation_type: str,
        split: str,
        gold_label: Optional[int] = None,
    ) -> CandidateRecord:
        """Store a candidate record linking a sentence and two spans."""
        return _append(
            self._candidate_records,
            CandidateRecord(
                sentence_id=sentence.id,
                span1_id=span1.id,
                span2_id=span2.id,
                relation_type=relation_type,
                split=split,
                gold_label=gold_label,
            ),
        )

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
        return sorted(self._document_sentences.get(document.id, ()), key=_POSITION)

    def entities_of(self, sentence: Sentence) -> list[tuple[Span, EntityMention]]:
        """All ``(span, entity_mention)`` pairs tagged in ``sentence``.

        Ordered by ``word_start``; spans starting at the same token keep
        their insertion order.
        """
        spans = sorted(self._sentence_spans.get(sentence.id, ()), key=_WORD_START)
        return [
            (span, mention)
            for span in spans
            for mention in self._span_mentions.get(span.id, ())
        ]

    def candidate_records(self, split: Optional[str] = None) -> list[CandidateRecord]:
        """Stored candidate records in id order, optionally filtered by split."""
        return _in_split(self._candidate_records, split)

    # ----------------------------------------------------------- materialization
    def materialize_candidate(self, record: CandidateRecord) -> Candidate:
        """Build the denormalized :class:`Candidate` view for ``record``."""
        sentence = _by_id(self._sentences, record.sentence_id, "sentence")
        document = _by_id(self._documents, sentence.document_id, "document")
        candidate = Candidate(
            uid=record.id,
            span1=self._span_view(_by_id(self._spans, record.span1_id, "span")),
            span2=self._span_view(_by_id(self._spans, record.span2_id, "span")),
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
        return candidate

    def candidates(self, split: Optional[str] = None) -> list[Candidate]:
        """Materialize all candidates, optionally restricted to one split."""
        return [self.materialize_candidate(record) for record in self.candidate_records(split)]

    def _span_view(self, span: Span) -> SpanView:
        mentions = self._span_mentions.get(span.id)
        mention = mentions[0] if mentions else None
        return SpanView(
            text=span.text,
            word_start=span.word_start,
            word_end=span.word_end,
            entity_type=mention.entity_type if mention else None,
            canonical_id=mention.canonical_id if mention else None,
        )


_POSITION = attrgetter("position")
_WORD_START = attrgetter("word_start")


def _append(records: list[R], record: R) -> R:
    """Store ``record`` and give it the next 1-based id of its type."""
    records.append(record)
    record.id = len(records)
    return record


def _by_id(records: list[R], record_id: int, kind: str) -> R:
    if not 1 <= record_id <= len(records):
        raise ContextError(f"corpus has no {kind} with id {record_id!r}")
    return records[record_id - 1]


def _in_split(records: list[R], split: Optional[str]) -> list[R]:
    if split is None:
        return list(records)
    return [record for record in records if record.split == split]
