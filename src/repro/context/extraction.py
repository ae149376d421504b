"""Candidate extraction: turning tagged sentences into candidate records.

The paper's running example defines candidates as all co-occurring
(chemical, disease) mention pairs within a sentence.  The
:class:`PairedEntityCandidateSpace` generalizes this: given two entity types,
every ordered pair of mentions of those types in a sentence is a candidate.

Extraction reads the corpus's columns one document at a time: per sentence
(in ``position`` order) the span indexes by ``word_start``, filtered to each
type by ``compress`` over the span type column, and paired with
``itertools`` (``combinations`` for one type, ``product`` for two), in the
order of the nested loops they replace — no Python call per sentence or per
entity, one record constructor per candidate.  Extraction is atomic per
document: its records and gold labels are built first and stored together
with the document's claim, so a gold labeler that raises stores nothing and
leaves the document to extract again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, product, repeat
from numbers import Integral
from operator import eq
from typing import Callable, Iterable, Optional, Sequence

from repro.context.candidates import Candidate, CandidateRecord
from repro.context.contexts import Document
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
        self, sentences: Iterable[tuple[int, Sequence[int]]], types: Sequence[str],
        starts: Sequence[int], ends: Sequence[int],
    ) -> list[tuple[int, tuple[int, int]]]:
        """Candidate span pairs of one document, read from span columns.

        ``sentences`` yields each sentence's index and its span indexes by
        ``word_start``; ``types``, ``starts`` and ``ends`` are the span
        columns those index.  Returns ``(sentence, (span1, span2))`` per pair.
        """
        type1, type2 = self.type1, self.type2
        found: list[tuple[int, tuple[int, int]]] = []
        for sentence, spans in sentences:
            first = compress(spans, map(eq, map(types.__getitem__, spans), repeat(type1)))
            if type1 == type2:
                found += zip(repeat(sentence), combinations(first, 2))
            else:
                second = compress(spans, map(eq, map(types.__getitem__, spans), repeat(type2)))
                found += zip(repeat(sentence), product(first, second))
        distance = self.max_token_distance
        if distance is None:
            return found
        # Keep the pairs with at most ``distance`` tokens between the two spans.
        return [(sentence, (a, b)) for sentence, (a, b) in found if distance >= (
            starts[b] - ends[a] if starts[a] <= starts[b] else starts[a] - ends[b])]


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
        self, candidate_space: PairedEntityCandidateSpace,
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
        space = self.candidate_space
        relation_type, split = space.relation_type, document.split
        records = [
            CandidateRecord(sentence + 1, span1 + 1, span2 + 1, relation_type, split)
            for sentence, (span1, span2) in space.pairs(*corpus._entity_columns(document))
        ]
        corpus.add_candidate_records(document, relation_type, records, self.gold_labeler)
        return len(records)
