"""Text preprocessing: tokenization, sentence splitting, and dictionary NER.

The paper wraps CoreNLP / SpaCy for preprocessing and named-entity
recognition.  For the synthetic corpora used here, a regex tokenizer,
punctuation-based sentence splitter, and a dictionary (gazetteer) entity
tagger exercise the same pipeline stages: documents are split into sentences,
sentences into tokens with character offsets, and entity mentions are tagged
as typed spans that candidate extraction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.utils.textutils import normalize, split_sentences, tokenize_with_offsets


class SimpleTokenizer:
    """Regex word/punctuation tokenizer that records character offsets."""

    def tokenize(self, text: str) -> tuple[list[str], list[tuple[int, int]]]:
        """Return ``(words, char_offsets)`` for ``text``."""
        triples = tokenize_with_offsets(text)
        words = [token for token, _, _ in triples]
        offsets = [(start, end) for _, start, end in triples]
        return words, offsets


class SimpleSentenceSplitter:
    """Sentence splitter on terminal punctuation followed by whitespace."""

    def split(self, text: str) -> list[str]:
        """Split ``text`` into sentence strings."""
        return split_sentences(text)


@dataclass(frozen=True)
class TaggedEntity:
    """An entity found by the tagger: token range, surface text, type, KB id."""

    word_start: int
    word_end: int
    text: str
    entity_type: str
    canonical_id: Optional[str] = None


class DictionaryEntityTagger:
    """Gazetteer-based entity tagger.

    Parameters
    ----------
    dictionaries:
        Mapping from entity type (e.g. ``"chemical"``) to a mapping from
        surface form to canonical id.  Multi-word surface forms are matched
        greedily, longest-first, case-insensitively.
    """

    def __init__(self, dictionaries: Mapping[str, Mapping[str, str]]) -> None:
        entries: list[tuple[tuple[str, ...], str, str]] = []
        for entity_type, surface_to_id in dictionaries.items():
            for surface, canonical_id in surface_to_id.items():
                tokens = tuple(normalize(token) for token in surface.split())
                if tokens:
                    entries.append((tokens, entity_type, canonical_id))
        # Longest surface forms first so greedy matching prefers them; the
        # sort is stable, so equal lengths keep dictionary order.  Entries are
        # then grouped by first token in that order: only those can match at a
        # position, and the first of them that does is the overall winner.
        entries.sort(key=lambda entry: len(entry[0]), reverse=True)
        self._entries_by_first_token: dict[str, list[tuple[tuple[str, ...], str, str]]] = {}
        for entry in entries:
            self._entries_by_first_token.setdefault(entry[0][0], []).append(entry)

    def tag(self, words: Sequence[str]) -> list[TaggedEntity]:
        """Tag entity mentions in a tokenized sentence.

        Matches are non-overlapping; when two dictionary entries could match
        at the same position the longer one wins.
        """
        normalized = [normalize(word) for word in words]
        tagged: list[TaggedEntity] = []
        position = 0
        while position < len(words):
            for tokens, entity_type, canonical_id in self._entries_by_first_token.get(
                normalized[position], ()
            ):
                end = position + len(tokens)
                if end <= len(words) and tuple(normalized[position:end]) == tokens:
                    tagged.append(
                        TaggedEntity(
                            word_start=position,
                            word_end=end,
                            text=" ".join(words[position:end]),
                            entity_type=entity_type,
                            canonical_id=canonical_id,
                        )
                    )
                    position = end
                    break
            else:
                position += 1
        return tagged


class TextPreprocessor:
    """Full preprocessing pipeline: split, tokenize, and (optionally) tag.

    Produces plain dictionaries describing sentences and tagged entities so
    that :class:`repro.context.corpus.Corpus` can store them as records
    without this module depending on the corpus.
    """

    def __init__(
        self,
        tokenizer: Optional[SimpleTokenizer] = None,
        sentence_splitter: Optional[SimpleSentenceSplitter] = None,
        entity_tagger: Optional[DictionaryEntityTagger] = None,
    ) -> None:
        self.tokenizer = tokenizer or SimpleTokenizer()
        self.sentence_splitter = sentence_splitter or SimpleSentenceSplitter()
        self.entity_tagger = entity_tagger

    def process_document(self, text: str) -> list[dict]:
        """Process one document's text into sentence dicts.

        Each returned dict has keys ``text``, ``words``, ``char_offsets``,
        ``position``, and ``entities`` (a list of :class:`TaggedEntity`).
        """
        sentences = []
        for position, sentence_text in enumerate(self.sentence_splitter.split(text)):
            words, offsets = self.tokenizer.tokenize(sentence_text)
            entities = self.entity_tagger.tag(words) if self.entity_tagger else []
            sentences.append(
                {
                    "text": sentence_text,
                    "words": words,
                    "char_offsets": offsets,
                    "position": position,
                    "entities": entities,
                }
            )
        return sentences
