"""The context hierarchy data model (Documents → Sentences → Spans → Candidates).

This is the reproduction of Snorkel's data model (paper Section 2, Figure 3):
input data is stored as a hierarchy of context types connected by
parent/child relationships — plain records held by a
:class:`~repro.context.corpus.Corpus`, which keeps each parent's list of
children — and candidates — the data points to be classified — are tuples
of contexts (here: pairs of entity-tagged spans in a sentence).
"""

from repro.context.candidates import Candidate
from repro.context.contexts import Document, EntityMention, Sentence, Span
from repro.context.corpus import Corpus
from repro.context.extraction import CandidateExtractor, PairedEntityCandidateSpace
from repro.context.preprocessing import (
    DictionaryEntityTagger,
    SimpleSentenceSplitter,
    SimpleTokenizer,
    TextPreprocessor,
)

__all__ = [
    "Document",
    "Sentence",
    "Span",
    "EntityMention",
    "Candidate",
    "Corpus",
    "SimpleTokenizer",
    "SimpleSentenceSplitter",
    "DictionaryEntityTagger",
    "TextPreprocessor",
    "CandidateExtractor",
    "PairedEntityCandidateSpace",
]
