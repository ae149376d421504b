"""Candidate extraction: turning tagged sentences into candidate records.

The paper's running example defines candidates as all co-occurring
(chemical, disease) mention pairs within a sentence.  The
:class:`PairedEntityCandidateSpace` generalizes this: given two entity types,
every ordered pair of mentions of those types in a sentence is a candidate.

Per sentence, extraction reads the sentence's entities in ``word_start``
order and pairs them with ``itertools`` (``combinations`` for one type,
``product`` for two), which yields the pairs in the order of the nested loops
they replace.  Extraction is atomic per document: its records and gold labels
are built first and stored together with the document's claim, so a gold
labeler that raises stores nothing and leaves the document to extract again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from numbers import Integral
from typing import Callable, Optional

from repro.context.candidates import Candidate, CandidateRecord
from repro.context.contexts import Document, EntityMention, Span
from repro.context.corpus import Corpus
from repro.exceptions import ContextError


@dataclass(frozen=True)
class PairedEntityCandidateSpace:
    """Defines the candidate space as pairs of entity mentions in a sentence.

    Parameters
    ----------
    relation_type:
        Name given to extracted candidates (e.g. ``"causes"``).
    type1, type2:
        Entity types of the first / second argument (e.g. ``"chemical"`` and
        ``"disease"``).  When the types are equal (e.g. person-person for the
        Spouses task), unordered pairs are produced once, with the leftmost
        mention as the first argument.
    max_token_distance:
        Optional cap on the number of tokens between the two mentions: an
        integer ≥ 0 (not a bool); ``None`` allows any distance within a
        sentence.  Anything else raises :class:`ContextError`.
    """

    relation_type: str
    type1: str
    type2: str
    max_token_distance: Optional[int] = None

    def __post_init__(self) -> None:
        distance = self.max_token_distance
        if distance is not None and (
            isinstance(distance, bool) or not isinstance(distance, Integral) or distance < 0
        ):
            raise ContextError(
                f"max_token_distance must be None or an integer >= 0, got {distance!r}"
            )

    def pairs(
        self, entities: list[tuple[Span, EntityMention]]
    ) -> list[tuple[Span, Span]]:
        """Enumerate candidate span pairs for one sentence's tagged entities."""
        first = [span for span, mention in entities if mention.entity_type == self.type1]
        if self.type1 == self.type2:
            pairs = list(combinations(first, 2))
        else:
            second = [span for span, mention in entities if mention.entity_type == self.type2]
            pairs = [pair for pair in product(first, second) if pair[0].id != pair[1].id]
        if self.max_token_distance is None:
            return pairs
        kept = []
        for span1, span2 in pairs:
            left, right = (span2, span1) if span2.word_start < span1.word_start else (span1, span2)
            if right.word_start - left.word_end <= self.max_token_distance:
                kept.append((span1, span2))
        return kept


class CandidateExtractor:
    """Extracts candidate records from a corpus and stores them in it.

    Parameters
    ----------
    candidate_space:
        The :class:`PairedEntityCandidateSpace` describing which entity pairs
        become candidates.
    gold_labeler:
        Optional callable mapping a materialized :class:`Candidate` to its
        gold label (or ``None``).  Used by the synthetic dataset generators,
        which know the planted relations; real deployments would only have
        gold labels on dev/test splits.
    """

    def __init__(
        self,
        candidate_space: PairedEntityCandidateSpace,
        gold_labeler: Optional[Callable[[Candidate], Optional[int]]] = None,
    ) -> None:
        self.candidate_space = candidate_space
        self.gold_labeler = gold_labeler

    def extract(self, corpus: Corpus, splits: Optional[list[str]] = None) -> int:
        """Extract candidates for every document (optionally restricted to splits).

        Returns the number of candidate records created.  Raises
        :class:`repro.exceptions.ContextError` for a document this relation
        type was already extracted from.
        """
        created = 0
        for document in corpus.documents():
            if splits is not None and document.split not in splits:
                continue
            created += self.extract_document(corpus, document)
        return created

    def extract_document(self, corpus: Corpus, document: Document) -> int:
        """Extract candidates from a single document (once per relation type).

        All or nothing: the records and their gold labels are built first,
        then stored with the document's claim (see
        :meth:`Corpus.add_candidate_records`).
        """
        relation_type = self.candidate_space.relation_type
        records = [
            CandidateRecord(sentence.id, span1.id, span2.id, relation_type, document.split)
            for sentence in corpus.sentences_of(document)
            for span1, span2 in self.candidate_space.pairs(corpus.entities_of(sentence))
        ]
        corpus.add_candidate_records(document, relation_type, records, self.gold_labeler)
        return len(records)
