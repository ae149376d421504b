"""Text preprocessing: one pass per document to tokens, sentences and entity tags.

The paper wraps CoreNLP / SpaCy for preprocessing and named-entity
recognition.  For the synthetic corpora used here, a regex tokenizer,
punctuation-based sentence splitter, and a dictionary (gazetteer) entity
tagger exercise the same pipeline stages: documents are split into sentences,
sentences into tokens with character offsets, and entity mentions are tagged
as typed spans that candidate extraction consumes.

Every stage runs once per document, not once per sentence.
:meth:`TextPreprocessor.process_document` tokenizes the whole text in one
``finditer`` whose matches also mark the sentence ends
(:func:`repro.utils.textutils.tokenize_document`), so sentences are token
bounds into the document's tokens.  The tagger lowercases the document's
tokens once, finds the positions whose token starts a dictionary entry by
``map`` in C, and runs the greedy longest-first match only there, allowing
no match to run past the end of its sentence.  The other positions cannot
start an entry, so the tags are those of trying every entry at every
position of every sentence (``tests/test_context.py`` holds the tagger to
that loop, and ``tests/reference_context.py`` the whole ingest, stated one
sentence at a time).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from typing import Mapping, Optional, Sequence

from repro.utils.textutils import tokenize, tokenize_document


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
        _, starts, ends, texts, types, ids = self.tag_document(words, (len(words),))
        return list(map(TaggedEntity, starts, ends, texts, types, ids))

    def tag_document(self, words: Sequence[str], sentence_ends: Sequence[int]) -> tuple:
        """Tag a document's tokens; no match crosses a sentence end.

        ``sentence_ends`` are the exclusive token ends of the document's
        sentences, increasing, the last one ``len(words)``.  Returns the
        parallel columns ``(sentence, start, end, text, entity_type,
        canonical_id)`` of the matches in document order: ``sentence``
        indexes ``sentence_ends`` and ``start``/``end`` index ``words``.
        """
        entries = self._entries_by_first_token
        lowered = list(map(str.lower, words))
        found: list[tuple] = []
        covered = 0  # positions before this lie inside an earlier match
        sentence, limit = -1, 0  # the sentence of ``start`` and its end
        for start in compress(count(), map(entries.__contains__, lowered)):
            if start < covered:
                continue
            while start >= limit:
                sentence += 1
                limit = sentence_ends[sentence]
            for tokens, length, entity_type, canonical_id in entries[lowered[start]]:
                end = start + length
                if end <= limit and lowered[start:end] == tokens:
                    found += ((sentence, start, end, entity_type, canonical_id),)  # no call
                    covered = end
                    break
        sentences, starts, ends, types, ids = tuple(zip(*found)) or ((),) * 5
        texts = tuple(map(" ".join, map(words.__getitem__, map(slice, starts, ends))))
        return sentences, starts, ends, texts, types, ids


class TextPreprocessor:
    """Full preprocessing pipeline: split, tokenize, and (optionally) tag.

    Produces plain columns, so that :class:`repro.context.corpus.Corpus` can
    store them without this module depending on the corpus.
    """

    def __init__(self, entity_tagger: Optional[DictionaryEntityTagger] = None) -> None:
        self.entity_tagger = entity_tagger

    def process_document(self, text: str) -> tuple:
        """Tokenize, split and tag one document's text in one pass.

        Returns ``(words, offsets, sentence_starts, sentence_ends, texts,
        entities)``: the document's tokens and their ``(char_start,
        char_end)`` offsets in ``text``; each sentence's token bounds and
        text; and the columns of :meth:`DictionaryEntityTagger.tag_document`
        (empty without a tagger).
        """
        words, offsets, ends = tokenize_document(text)
        starts = [0, *ends[:-1]] if ends else []
        texts = [text[offsets[start][0] : offsets[end - 1][1]] for start, end in zip(starts, ends)]
        tagger = self.entity_tagger
        entities = tagger.tag_document(words, ends) if tagger else ((),) * 6
        return words, offsets, starts, ends, texts, entities
