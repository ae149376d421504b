"""Candidates: the data points labeling functions vote on.

A candidate is a tuple of context objects (paper Figure 3).  In this
reproduction candidates are binary relation mentions: a pair of entity-tagged
spans within one sentence, plus denormalized convenience attributes (the
sentence's words, the spans' word ranges, entity types and canonical KB ids)
so that labeling functions can be written against plain attributes without
reaching back into the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.exceptions import ContextError


@dataclass
class CandidateRecord:
    """The stored form of a candidate: ids into the context hierarchy.

    References the sentence and the two entity spans by id, plus the split
    and an optional gold label used only for evaluation.  ``id`` is assigned
    by the corpus at insert and becomes :attr:`Candidate.uid`.
    """

    sentence_id: int
    span1_id: int
    span2_id: int
    relation_type: str
    split: str
    gold_label: Optional[int] = None
    id: Optional[int] = None


@dataclass
class SpanView:
    """A denormalized, read-only view of an entity span inside a candidate."""

    text: str
    word_start: int
    word_end: int
    entity_type: Optional[str] = None
    canonical_id: Optional[str] = None

    def get_word_range(self) -> tuple[int, int]:
        """Token range ``(start, end)`` of the span (end exclusive)."""
        return self.word_start, self.word_end

    @property
    def length(self) -> int:
        """Number of tokens covered by the span."""
        return self.word_end - self.word_start


@dataclass
class SentenceView:
    """A denormalized, read-only view of the sentence containing a candidate."""

    words: list[str]
    text: str
    position: int = 0
    document_name: str = ""
    document_metadata: dict[str, Any] = field(default_factory=dict)


@dataclass
class Candidate:
    """A relation-mention candidate: two entity spans in one sentence.

    Labeling functions receive instances of this class.  The first span is
    conventionally the "subject" entity (e.g. the chemical in a
    chemical-disease relation) and the second the "object" (the disease).

    Attributes
    ----------
    uid:
        Stable integer id of the candidate (the ``id`` of its
        :class:`CandidateRecord`).
    span1, span2:
        The two entity spans.
    sentence:
        The containing sentence view (``candidate.sentence.words`` gives the
        token list, matching the paper's ``x.parent.words``).
    relation_type:
        Name of the relation being classified (e.g. ``"causes"``).
    split:
        Evaluation split of the candidate.
    gold_label:
        Ground-truth label if known (used for evaluation only; the pipeline
        never trains on it).
    metadata:
        Extra task-specific attributes (e.g. image feature vectors for the
        cross-modal radiology task).
    """

    uid: int
    span1: SpanView
    span2: SpanView
    sentence: SentenceView
    relation_type: str = "relation"
    split: str = "train"
    gold_label: Optional[int] = None
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def parent(self) -> SentenceView:
        """Alias matching the paper's ``x.parent`` (the containing sentence)."""
        return self.sentence

    @property
    def chemical(self) -> SpanView:
        """Alias for :attr:`span1` used by CDR/Chem-style labeling functions."""
        return self.span1

    @property
    def disease(self) -> SpanView:
        """Alias for :attr:`span2` used by CDR/Chem-style labeling functions."""
        return self.span2

    @property
    def person1(self) -> SpanView:
        """Alias for :attr:`span1` used by Spouses-style labeling functions."""
        return self.span1

    @property
    def person2(self) -> SpanView:
        """Alias for :attr:`span2` used by Spouses-style labeling functions."""
        return self.span2

    def words_between(self) -> list[str]:
        """Tokens strictly between the two spans, in sentence order."""
        first, second = self.ordered_spans()
        return list(self.sentence.words[first.word_end : second.word_start])

    def text_between(self) -> str:
        """Space-joined text between the two spans."""
        return " ".join(self.words_between())

    def ordered_spans(self) -> tuple[SpanView, SpanView]:
        """The two spans ordered by sentence position (leftmost first)."""
        if self.span1.word_start <= self.span2.word_start:
            return self.span1, self.span2
        return self.span2, self.span1

    def span1_precedes_span2(self) -> bool:
        """True when span1 occurs before span2 in the sentence."""
        return self.span1.word_start < self.span2.word_start

    def token_distance(self) -> int:
        """Number of tokens separating the two spans (0 when adjacent)."""
        first, second = self.ordered_spans()
        return max(0, second.word_start - first.word_end)

    def window_left(self, size: int) -> list[str]:
        """Tokens immediately to the left of the earlier span."""
        first, _ = self.ordered_spans()
        return list(self.sentence.words[max(0, first.word_start - size) : first.word_start])

    def window_right(self, size: int) -> list[str]:
        """Tokens immediately to the right of the later span."""
        _, second = self.ordered_spans()
        return list(self.sentence.words[second.word_end : second.word_end + size])

    def validate(self) -> None:
        """Check span offsets lie within the sentence; raise :class:`ContextError` if not."""
        num_words = len(self.sentence.words)
        for name, span in (("span1", self.span1), ("span2", self.span2)):
            if span.word_start < 0 or span.word_end > num_words or span.word_start >= span.word_end:
                raise ContextError(
                    f"{name} range [{span.word_start}, {span.word_end}) is invalid for a "
                    f"sentence with {num_words} tokens"
                )


def uses_stock(objects: Iterable, base: type, names: Sequence[str]) -> bool:
    """Every object's class carries ``base``'s own implementation of ``names``.

    The condition under which a vectorized re-implementation of those
    accessors (the pushdown tier's derived columns, the featurization
    kernel's scope ranges) is exact; a subclass overriding any of them — or
    a duck-typed stand-in — sends the chunk to the per-candidate path.
    """
    return all(
        getattr(kind, name, None) is getattr(base, name)
        for kind in set(map(type, objects))
        for name in names
    )
