"""Candidate extraction: turning tagged sentences into candidate records.

The paper's running example defines candidates as all co-occurring
(chemical, disease) mention pairs within a sentence.  The
:class:`PairedEntityCandidateSpace` generalizes this: given two entity types,
every ordered pair of mentions of those types in a sentence is a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.context.candidates import Candidate
from repro.context.contexts import Document, EntityMention, Span
from repro.context.corpus import Corpus


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
        Optional cap on the number of tokens between the two mentions;
        ``None`` allows any distance within a sentence.
    """

    relation_type: str
    type1: str
    type2: str
    max_token_distance: Optional[int] = None

    def pairs(
        self, entities: list[tuple[Span, EntityMention]]
    ) -> list[tuple[Span, Span]]:
        """Enumerate candidate span pairs for one sentence's tagged entities."""
        first = [(span, mention) for span, mention in entities if mention.entity_type == self.type1]
        second = [
            (span, mention) for span, mention in entities if mention.entity_type == self.type2
        ]
        pairs: list[tuple[Span, Span]] = []
        if self.type1 == self.type2:
            for i in range(len(first)):
                for j in range(i + 1, len(first)):
                    pairs.append((first[i][0], first[j][0]))
        else:
            for span1, _ in first:
                for span2, _ in second:
                    if span1.id == span2.id:
                        continue
                    pairs.append((span1, span2))
        if self.max_token_distance is None:
            return pairs
        kept = []
        for span1, span2 in pairs:
            left, right = sorted((span1, span2), key=lambda s: s.word_start)
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
        """Extract candidates from a single document (once per relation type)."""
        relation_type = self.candidate_space.relation_type
        corpus.begin_extraction(document, relation_type)
        created = 0
        for sentence in corpus.sentences_of(document):
            entities = corpus.entities_of(sentence)
            for span1, span2 in self.candidate_space.pairs(entities):
                record = corpus.add_candidate_record(
                    sentence=sentence,
                    span1=span1,
                    span2=span2,
                    relation_type=relation_type,
                    split=document.split,
                )
                if self.gold_labeler is not None:
                    gold = self.gold_labeler(corpus.materialize_candidate(record))
                    if gold is not None:
                        record.gold_label = int(gold)
                created += 1
        return created
