"""Corpus: the context hierarchy as columns, plus candidate materialization.

A :class:`Corpus` stores the hierarchy as per-corpus columns, not records:

* per document, its :class:`Document` record, its tokens (one list, sentence
  after sentence), their character offsets in its text (``None`` for a
  pre-tokenized document) and its sentences in ``position`` order;
* per sentence, its document, position, text, token bounds into the
  document's tokens, its character offsets when given pre-tokenized, and
  its spans in ``word_start`` order;
* per span (a span and its entity mention share an id), its sentence, word
  start and end within the sentence, text, entity type and canonical id.

A record's ``id`` is its 1-based position in its table; inside the corpus
every reference is the 0-based index.  :class:`Sentence`, :class:`Span` and
:class:`EntityMention` records are views, built only when
:meth:`Corpus.sentences_of` or :meth:`Corpus.entities_of` asks for them;
ingest, extraction and materialization read the columns.  The child orders
are those of sorting on each query (a document's sentences by ``position``,
a sentence's spans by ``word_start``, both stable), sorted once at ingest.

Both ingest doors store a document through one routine, all at once: its
columns are built and checked first and appended together, so an error on
the way (an entity span outside its sentence) leaves the corpus as it was.
:meth:`Corpus.add_document` makes a fixed number of Python calls per
document, none per sentence, entity or token.  :meth:`Corpus.candidates`
checks the ids of a batch of candidate records once and builds each
:class:`~repro.context.candidates.Candidate` (the denormalized view labeling
functions receive) from the columns.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from operator import add, attrgetter, eq, sub
from typing import Callable, Optional, Sequence, TypeVar

from repro.context.candidates import Candidate, CandidateRecord, SentenceView, SpanView
from repro.context.contexts import Document, EntityMention, Sentence, Span
from repro.context.preprocessing import TaggedEntity, TextPreprocessor
from repro.exceptions import ContextError

R = TypeVar("R")

_SENTENCE_COLUMNS = ("document", "position", "text", "start", "end", "offsets", "spans")
_SPAN_COLUMNS = ("sentence", "start", "end", "text", "type", "canonical_id")


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
        self._words: list[list[str]] = []
        self._offsets: list[Optional[list[tuple[int, int]]]] = []
        self._document_sentences: list[list[int]] = []
        # Column name -> one value per sentence / per span.
        self._sentences: dict[str, list] = {key: [] for key in _SENTENCE_COLUMNS}
        self._spans: dict[str, list] = {key: [] for key in _SPAN_COLUMNS}
        self._candidate_records: list[CandidateRecord] = []
        self._extracted: set[tuple[int, str]] = set()

    # ------------------------------------------------------------------ ingest
    def add_document(
        self, name: str, text: str, split: str = "train", metadata: Optional[dict] = None
    ) -> Document:
        """Ingest a raw document: preprocess, store sentences, spans, entities."""
        if self.preprocessor is None:
            raise ContextError(
                "corpus has no preprocessor; use add_processed_document for "
                "pre-tokenized input"
            )
        words, offsets, starts, ends, texts, entities = self.preprocessor.process_document(text)
        columns = (range(len(texts)), texts, starts, ends, repeat(None, len(texts)))
        return self._store(name, text, split, metadata, words, offsets, columns, entities)

    def add_processed_document(
        self, name: str, text: str, sentences: Sequence[dict], split: str = "train",
        metadata: Optional[dict] = None,
    ) -> Document:
        """Ingest a document whose sentences are already tokenized and tagged.

        Each sentence dict must have keys ``text``, ``words``, ``position``;
        optional keys are ``char_offsets`` and ``entities`` (a list of
        :class:`TaggedEntity` or equivalent dicts).  Entity spans must lie
        inside their sentence; otherwise nothing of the document is stored.
        """
        words: list[str] = []
        rows, entities = [], []
        for index, sentence in enumerate(sentences):
            start, position = len(words), sentence["position"]
            words += sentence["words"]
            for entity in sentence.get("entities", ()):
                entity = TaggedEntity(**entity) if isinstance(entity, dict) else entity
                if not 0 <= entity.word_start < entity.word_end <= len(words) - start:
                    raise ContextError(
                        f"document {name!r}, sentence {position}: entity span "
                        f"{entity.text!r} [{entity.word_start}, {entity.word_end}) lies "
                        f"outside a sentence of {len(words) - start} tokens"
                    )
                entities.append((
                    index, start + entity.word_start, start + entity.word_end, entity.text,
                    entity.entity_type, entity.canonical_id,
                ))
            offsets = list(map(list, sentence.get("char_offsets", ())))
            rows.append((position, sentence["text"], start, len(words), offsets))
        columns = tuple(zip(*rows)) or ((),) * 5
        entity_columns = tuple(zip(*entities)) or ((),) * 6
        return self._store(name, text, split, metadata, words, None, columns, entity_columns)

    def _store(self, name, text, split, metadata, words, offsets, columns, entities) -> Document:
        """Append one checked document, its tokens and its sentence and span columns.

        ``columns`` are the sentences' positions, texts, token starts and ends
        and given char offsets; ``entities`` the columns of
        :meth:`~repro.context.preprocessing.DictionaryEntityTagger.tag_document`,
        sentence after sentence, with token indexes into ``words``.
        """
        positions, _, starts, _, _ = columns
        first_sentence, first_span = len(self._sentences["document"]), len(self._spans["text"])
        sentence_of, begins, ends, texts, types, ids = entities
        # Spans in query order: by sentence, then stably by word_start.
        keys = list(zip(sentence_of, begins))
        by_start = sorted(range(len(keys)), key=keys.__getitem__)
        span_ids = list(map(add, by_start, repeat(first_span)))
        cuts = list(map(bisect_left, repeat(sentence_of), range(len(positions) + 1)))
        bases = list(map(starts.__getitem__, sentence_of))
        document = Document(name, text, split, dict(metadata or {}), len(self._documents) + 1)
        self._documents.append(document)
        self._words.append(words)
        self._offsets.append(offsets)
        by_position = sorted(range(len(positions)), key=positions.__getitem__)
        self._document_sentences.append(list(map(add, by_position, repeat(first_sentence))))
        for table, values in (
            (self._sentences, (
                repeat(document.id - 1, len(positions)), *columns,
                [span_ids[a:b] for a, b in zip(cuts, cuts[1:])],
            )),
            (self._spans, (
                map(add, sentence_of, repeat(first_sentence)), map(sub, begins, bases),
                map(sub, ends, bases), texts, types, ids,
            )),
        ):
            for column, new in zip(table.values(), values):
                column += new
        return document

    def add_candidate_records(
        self, document: Document, relation_type: str, records: Sequence[CandidateRecord],
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
        return len(self._sentences["document"])

    @property
    def num_candidates(self) -> int:
        """Number of stored candidate records."""
        return len(self._candidate_records)

    def documents(self, split: Optional[str] = None) -> list[Document]:
        """All documents in id order, optionally filtered to one split."""
        return _in_split(self._documents, split)

    def sentences_of(self, document: Document) -> list[Sentence]:
        """Sentences of ``document`` ordered by position."""
        return list(map(self._sentence, self._sentence_order(document)))

    def entities_of(self, sentence: Sentence) -> list[tuple[Span, EntityMention]]:
        """All ``(span, entity_mention)`` pairs tagged in ``sentence``.

        Ordered by ``word_start``; spans starting at the same token keep
        their insertion order.
        """
        if sentence.id not in range(1, self.num_sentences + 1):
            return []
        sentences, starts, ends, texts, types, ids = self._spans.values()
        return [
            (Span(sentences[span] + 1, starts[span], ends[span], texts[span], span + 1),
             EntityMention(span + 1, types[span], ids[span], span + 1))
            for span in self._sentences["spans"][sentence.id - 1]
        ]

    def candidate_records(self, split: Optional[str] = None) -> list[CandidateRecord]:
        """Stored candidate records in id order, optionally filtered by split."""
        return _in_split(self._candidate_records, split)

    def _sentence_order(self, document: Document) -> list[int]:
        """Indexes of ``document``'s sentences by position (none if not stored here)."""
        if document.id not in range(1, len(self._documents) + 1):
            return []
        return self._document_sentences[document.id - 1]

    def _sentence(self, index: int) -> Sentence:
        """The :class:`Sentence` view of sentence ``index``."""
        document, position, text, start, end, offsets, _ = (
            column[index] for column in self._sentences.values()
        )
        if offsets is None:  # ingested from text: the document's offsets, rebased
            base = self._offsets[document][start][0]
            offsets = [(a - base, b - base) for a, b in self._offsets[document][start:end]]
        return Sentence(
            document + 1, position, text, self._words[document][start:end],
            list(map(list, offsets)), index + 1,
        )

    def _entity_columns(self, document: Document) -> tuple:
        """What extraction reads of ``document``: per sentence by position,
        ``(index, span indexes by word_start)``; and the span table's type,
        start and end columns."""
        order, spans = self._sentence_order(document), self._spans
        sentence_spans = map(self._sentences["spans"].__getitem__, order)
        return zip(order, sentence_spans), spans["type"], spans["start"], spans["end"]

    # ----------------------------------------------------------- materialization
    def materialize_candidate(self, record: CandidateRecord) -> Candidate:
        """Build the denormalized :class:`Candidate` view for ``record``."""
        return self._views([record])[0]

    def candidates(self, split: Optional[str] = None) -> list[Candidate]:
        """Materialize all candidates, optionally restricted to one split."""
        return self._views(self.candidate_records(split))

    def _views(self, records: Sequence[CandidateRecord]) -> list[Candidate]:
        """The :class:`Candidate` of each record: ids checked for the batch, then
        every view built from the columns."""
        rows = _indexes(records, "sentence_id", self.num_sentences, "sentence")
        firsts = _indexes(records, "span1_id", len(self._spans["text"]), "span")
        seconds = _indexes(records, "span2_id", len(self._spans["text"]), "span")
        of_document, positions, sentence_texts, bounds, ends, _, _ = self._sentences.values()
        span_sentences, starts, span_ends, texts, types, ids = self._spans.values()
        documents = list(map(of_document.__getitem__, rows))
        views = [
            Candidate(
                record.id,
                SpanView(texts[a], starts[a], span_ends[a], types[a], ids[a]),
                SpanView(texts[b], starts[b], span_ends[b], types[b], ids[b]),
                SentenceView(
                    self._words[index][bounds[row] : ends[row]], sentence_texts[row],
                    positions[row], document.name, dict(document.metadata),
                ),
                record.relation_type, record.split, record.gold_label,
            )
            for record, row, a, b, index, document in zip(
                records, rows, firsts, seconds, documents,
                map(self._documents.__getitem__, documents),
            )
        ]
        # Ingest checked every span against its own sentence, so a view is
        # valid when both its spans lie in its record's sentence.
        if not all(map(eq, map(span_sentences.__getitem__, firsts + seconds), rows + rows)):
            for candidate in views:
                candidate.validate()
        return views


def _indexes(records: Sequence[CandidateRecord], field: str, size: int, kind: str) -> list[int]:
    """The 0-based index of each record's ``field``; raise unless every one
    is the id of one of the ``size`` records of ``kind``."""
    ids = list(map(attrgetter(field), records))
    if ids and not (1 <= min(ids) and max(ids) <= size):
        bad = next(i for i in ids if not 1 <= i <= size)
        raise ContextError(f"corpus has no {kind} with id {bad!r}")
    return list(map(sub, ids, repeat(1)))


def _in_split(records: list[R], split: Optional[str]) -> list[R]:
    if split is None:
        return list(records)
    return [record for record in records if record.split == split]
