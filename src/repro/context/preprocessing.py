"""Text preprocessing: tokenization, sentence splitting, and dictionary NER.

The paper wraps CoreNLP / SpaCy for preprocessing and named-entity
recognition.  For the synthetic corpora used here, a regex tokenizer,
punctuation-based sentence splitter, and a dictionary (gazetteer) entity
tagger exercise the same pipeline stages: documents are split into sentences,
sentences into tokens with character offsets, and entity mentions are tagged
as typed spans that candidate extraction consumes.

Per sentence the stock components make a fixed number of Python calls, not
one per token: the tokenizer is one ``finditer`` whose words and offsets are
read off the matches by ``map`` in C, and the tagger lowercases the words by
``map``, finds the positions whose token starts a dictionary entry in one
comprehension and runs the greedy longest-first match only there.  The
other positions cannot start an entry, so the tags are those of trying every
entry at every position (``tests/test_context.py`` holds the tagger to that
loop, and ``tests/reference_context.py`` the whole ingest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.utils.textutils import split_sentences, tokenize, tokenize_with_offsets


class SimpleTokenizer:
    """Regex word/punctuation tokenizer that records character offsets.

    ``tokenize(text)`` returns ``(words, char_offsets)``; it is the text
    utility itself, aliased at class level so a call is one frame.
    """

    tokenize = staticmethod(tokenize_with_offsets)


class SimpleSentenceSplitter:
    """Sentence splitter on terminal punctuation followed by whitespace.

    ``split(text)`` returns the sentence strings (aliased like
    :meth:`SimpleTokenizer.tokenize`).
    """

    split = staticmethod(split_sentences)


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
        surface form to canonical id.  A surface form is split into tokens by
        the sentence tokenizer's pattern (so ``"5-fluorouracil"`` is the three
        tokens ``5``, ``-``, ``fluorouracil``), and multi-token forms are
        matched greedily, longest-first, case-insensitively.
    """

    def __init__(self, dictionaries: Mapping[str, Mapping[str, str]]) -> None:
        entries: list[tuple[list[str], int, str, str]] = []
        for entity_type, surface_to_id in dictionaries.items():
            for surface, canonical_id in surface_to_id.items():
                tokens = list(map(str.lower, tokenize(surface)))
                if tokens:
                    entries.append((tokens, len(tokens), entity_type, canonical_id))
        # Longest surface forms first so greedy matching prefers them; the
        # sort is stable, so equal lengths keep dictionary order.  Entries are
        # then grouped by first token in that order: only those can match at a
        # position, and the first of them that does is the overall winner.
        entries.sort(key=lambda entry: entry[1], reverse=True)
        self._entries_by_first_token: dict[str, list[tuple[list[str], int, str, str]]] = {}
        for entry in entries:
            self._entries_by_first_token.setdefault(entry[0][0], []).append(entry)

    def tag(self, words: Sequence[str]) -> list[TaggedEntity]:
        """Tag entity mentions in a tokenized sentence.

        Matches are non-overlapping; when two dictionary entries could match
        at the same position the longer one wins.
        """
        entries = self._entries_by_first_token
        normalized = list(map(str.lower, words))
        tagged: list[TaggedEntity] = []
        covered = 0  # positions before this lie inside an earlier match
        for start in [i for i, token in enumerate(normalized) if token in entries]:
            if start < covered:
                continue
            for tokens, length, entity_type, canonical_id in entries[normalized[start]]:
                end = start + length
                # A slice running past the sentence is shorter, so unequal.
                if normalized[start:end] == tokens:
                    text = " ".join(words[start:end])
                    tagged.append(TaggedEntity(start, end, text, entity_type, canonical_id))
                    covered = end
                    break
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
