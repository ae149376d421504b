"""Minimal text processing helpers (tokenization, n-grams, normalization).

The paper pre-processes text with CoreNLP / SpaCy.  The synthetic corpora in
this reproduction are generated from word-level templates, so a simple
whitespace/punctuation tokenizer and regex sentence splitter are a faithful
substitute for the code paths that matter (span offsets, word windows,
n-gram features).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

_TOKEN_PATTERN = re.compile(r"[A-Za-z0-9_']+|[^\sA-Za-z0-9_']")
_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+")


def tokenize(text: str) -> list[str]:
    """Split ``text`` into word and punctuation tokens."""
    return _TOKEN_PATTERN.findall(text)


def tokenize_with_offsets(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Tokenize ``text``: the tokens and their ``(char_start, char_end)`` offsets.

    One ``finditer`` pass; the words and offsets are read off the matches by
    ``map`` in C, with no Python frame per token.
    """
    matches = list(_TOKEN_PATTERN.finditer(text))
    return list(map(re.Match.group, matches)), list(map(re.Match.span, matches))


def split_sentences(text: str) -> list[str]:
    """Split ``text`` into stripped, non-empty sentences on terminal punctuation."""
    return list(filter(None, map(str.strip, _SENTENCE_BOUNDARY.split(text))))


def normalize(token: str) -> str:
    """Lowercase a token; the poor man's lemmatizer used by several LFs."""
    return token.lower()


def ngrams(tokens: Sequence[str], n: int) -> Iterator[tuple[str, ...]]:
    """Yield contiguous ``n``-grams of ``tokens``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    for i in range(len(tokens) - n + 1):
        yield tuple(tokens[i : i + n])


def window(tokens: Sequence[str], start: int, end: int, size: int) -> tuple[list[str], list[str]]:
    """Return the ``size`` tokens before ``start`` and after ``end`` (exclusive)."""
    left = list(tokens[max(0, start - size) : start])
    right = list(tokens[end : end + size])
    return left, right


def contains_any(tokens: Iterable[str], vocabulary: Iterable[str]) -> bool:
    """Case-insensitive membership test of any ``vocabulary`` word in ``tokens``."""
    vocab = {normalize(word) for word in vocabulary}
    return any(normalize(token) in vocab for token in tokens)
