"""Context types: Document, Sentence, Span, and EntityMention records.

Each context type is a plain flat record: its own fields, the id of its
parent (``*_id``), and an ``id`` — its 1-based position in its table, in
insertion order per type.  A :class:`repro.context.corpus.Corpus` keeps the
hierarchy as columns and builds :class:`Sentence`, :class:`Span` and
:class:`EntityMention` records as views when a query asks for them; records
hold no references to each other, so a hierarchy is acyclic and pickles as
plain data.  Labeling functions traverse candidates instead
(:mod:`repro.context.candidates`, paper Example 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass
class Document:
    """A source document: the root of the context hierarchy.

    Fields
    ------
    name:
        Stable external identifier (e.g. a synthetic PubMed id).
    text:
        Raw document text.
    split:
        Which evaluation split the document belongs to: ``"train"``,
        ``"dev"``, or ``"test"``.
    metadata:
        Free-form dict of extra attributes (e.g. MeSH-like codes for the
        radiology reports).
    """

    name: str
    text: str
    split: str
    metadata: dict[str, Any]
    id: Optional[int] = None


@dataclass
class Sentence:
    """A sentence within a document, carrying its tokenization.

    Fields
    ------
    document_id:
        Id of the parent :class:`Document`.
    position:
        Zero-based index of the sentence within its document.
    text:
        Sentence text.
    words:
        List of token strings.
    char_offsets:
        List of ``(start, end)`` character offsets of each token within the
        sentence text.
    """

    document_id: int
    position: int
    text: str
    words: list[str]
    char_offsets: list[list[int]]
    id: Optional[int] = None


@dataclass
class Span:
    """A contiguous token span within a sentence.

    Fields
    ------
    sentence_id:
        Id of the parent :class:`Sentence`.
    word_start, word_end:
        Inclusive-start / exclusive-end token indices within the sentence.
    text:
        The surface text of the span.
    """

    sentence_id: int
    word_start: int
    word_end: int
    text: str
    id: Optional[int] = None


@dataclass
class EntityMention:
    """A typed entity annotation over a span (e.g. chemical / disease / person).

    Fields
    ------
    span_id:
        Id of the annotated :class:`Span`.
    entity_type:
        Entity type label, e.g. ``"chemical"``.
    canonical_id:
        Optional knowledge-base identifier used by distant-supervision LFs.
    """

    span_id: int
    entity_type: str
    canonical_id: Optional[str] = None
    id: Optional[int] = None
