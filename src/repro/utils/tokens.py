"""The process's token table: one dense integer id per distinct raw token.

Both readers of a chunk's words — the compiled LF tier's token index
(:mod:`repro.labeling.pushdown.program`) and the featurizer's n-gram codes
(:mod:`repro.discriminative.featurizers`) — work on token ids rather than
strings, and both take them from here, so a chunk's words are looked up
once (:meth:`repro.labeling.pushdown.fields.ColumnarChunk.word_ids`) and a
token keeps its id from chunk to chunk and run to run.

The table only appends: ``tokens[i]`` is the token with id ``i``, and a
token is appended before the id that points at it is published, so readers
take no lock; interning takes :attr:`TokenTable.lock`.  It admits at most
:data:`TABLE_CAP` tokens.  A chunk whose new tokens do not fit restarts the
process's table from its own tokens, and a chunk that alone exceeds the cap
gets a private table nobody else sees.  Ids therefore depend on what the
process has seen; no consumer may let one reach an output — they key memos
(hashed n-grams, predicate outcomes) on ``(table, id)`` and emit only what
the token itself determines.
"""

from __future__ import annotations

import threading
from itertools import chain, count, filterfalse
from typing import Optional, Sequence

import numpy as np

#: Entries the process's tables admit: tokens here, and, per ``ngram_range``,
#: the featurizer's hashed codes over all n-gram sizes (16 bytes each: 512 kB
#: of code tables at most).  Swept on three chunked corpora, each fourteen
#: chunks through one fitted featurizer from empty tables (kernel CPU seconds for
#: 14 x 1 024 candidates, best of 15 alternated in one process on a noisy
#: 2-vCPU host) at 2**13 / 2**14 / 2**15 / 2**16 / 2**17: ``text_stream``
#: (5 852 keys) .121 / .129 / .114 / .117 / .125, Zipf(1.3) over 50k tokens
#: (115 557 keys) .282 / .273 / .268 / .273 / .258, disjoint vocabularies
#: (471 473 keys, none repeats) .465 / .543 / .504 / .542 / .569.  Tables a
#: stream cannot reuse cost it cache, so the worst case wants a small cap and
#: a Zipf stream gains little from a large one (the keys that repeat most
#: arrive first): 2**15 is the smallest power of two that holds every e2e
#: corpus (``kary_crash_resume`` 18 262 keys); against the per-chunk kernel it
#: replaced, the disjoint corpus then pays +0 to +12 % (median of 11
#: alternations, three runs: +12, +0, +4 %) where 2**17 cost it 14-20 %.
TABLE_CAP = 2**15


class TokenTable:
    """Raw token → id, and back (``tokens``)."""

    __slots__ = ("ids", "tokens", "lock")

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.tokens: list[str] = []
        self.lock = threading.Lock()

    def ids_of(self, flat: list, limit: int) -> Optional[np.ndarray]:
        """Ids of ``flat``, its new tokens interned while the table stays
        within ``limit`` tokens; ``None`` when they do not all fit."""
        lookup = self.ids.__getitem__
        try:
            return np.fromiter(map(lookup, flat), np.int64, len(flat))
        except KeyError:
            pass
        with self.lock:
            fresh = list(filterfalse(self.ids.__contains__, dict.fromkeys(flat)))
            first = len(self.tokens)
            if first + len(fresh) > limit:
                return None
            self.tokens.extend(fresh)
            self.ids.update(zip(fresh, count(first)))
        return np.fromiter(map(lookup, flat), np.int64, len(flat))


def own_ids(flat: list) -> tuple[TokenTable, np.ndarray]:
    """A new table holding just ``flat``'s tokens, and their ids in it."""
    table = TokenTable()
    return table, table.ids_of(flat, len(flat))


_TABLE = TokenTable()


def token_ids(flat: list) -> tuple[TokenTable, np.ndarray]:
    """The table that ids ``flat`` (every token exactly a ``str``) and the ids.

    A chunk of known tokens is looked up without a lock; new tokens are
    interned, and tokens past :data:`TABLE_CAP` restart the table (see the
    module docstring).
    """
    global _TABLE
    table = _TABLE
    ids = table.ids_of(flat, TABLE_CAP)
    if ids is None:
        table, ids = own_ids(flat)
        if len(table.tokens) <= TABLE_CAP:
            _TABLE = table
    return table, ids


def token_rows(rows: Sequence) -> tuple[TokenTable, np.ndarray, np.ndarray, set]:
    """Rows of tokens as ids: ``(table, ids, lengths, skipped)``.

    ``ids`` are the flattened tokens' ids in the process's token table
    (:func:`token_ids`), ``lengths`` the tokens per row.  A row that
    is not a ``list``/``tuple``, or holds a token that is not exactly a
    ``str`` (a subclass may override what a kernel assumes), counts as empty
    and is in ``skipped``; one C pass proves there are none.
    """
    skipped: set[int] = set()
    flat = None if set(map(type, rows)) - {list, tuple} else list(chain.from_iterable(rows))
    if flat is None or set(map(type, flat)) - {str}:
        rows = list(rows)
        for i, row in enumerate(rows):
            if type(row) not in (list, tuple) or set(map(type, row)) - {str}:
                rows[i] = ()
                skipped.add(i)
        flat = list(chain.from_iterable(rows))
    return (*token_ids(flat), np.fromiter(map(len, rows), np.int64, len(rows)), skipped)
