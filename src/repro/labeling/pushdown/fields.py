"""Columnar candidate fields: per-chunk extraction of the values LFs read.

The pushdown execution model hoists every candidate field a compiled suite
reads — ``words_between()``, span attributes, sentence attributes, window
slices — out of the per-candidate×per-LF inner loop and into **one
extraction pass per chunk**.  A field is identified by a structural key
(``("words_between",)``, ``("span1", "text")``, ``("window_left", 3)``,
...); :class:`ColumnarChunk` caches the extracted :class:`Column` under
that key, so ten LFs reading ``words_between()`` share one pass over the
chunk instead of calling the accessor ten times per candidate.

Extraction is *error-faithful*: a candidate whose accessor raises does not
poison the chunk — the exception is recorded per row in
:attr:`Column.errors` and propagates to exactly the LFs whose programs read
that column, mirroring what each interpreted LF would have raised on that
candidate.

Columns are numpy arrays.  Values are kept in an ``object`` array unless
*every* extracted value is exactly a Python ``int`` (→ ``int64``) or
exactly a ``bool`` (→ ``bool``); the strict ``type(v) is int`` check is
what lets downstream label canonicalization use the vectorized range check
while preserving the interpreted path's ``isinstance(raw, int)`` semantics
bit-for-bit (a column holding e.g. ``np.int64`` values stays ``object`` and
is canonicalized per row, exactly as :class:`LabelingFunction` would
reject/accept each raw value).
"""

from __future__ import annotations

from operator import attrgetter, methodcaller
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.context.candidates import Candidate, uses_stock

#: Candidate no-argument accessor methods exposed as fields.
CANDIDATE_METHODS = ("words_between", "text_between", "token_distance", "span1_precedes_span2")

#: Candidate window methods; the key carries the (constant) window size.
WINDOW_METHODS = ("window_left", "window_right")

#: Plain candidate attributes exposed as fields.
CANDIDATE_ATTRS = ("uid", "relation_type", "split")

#: Span attributes exposed as fields (``("span1", attr)`` / ``("span2", attr)``).
SPAN_ATTRS = ("text", "canonical_id", "entity_type", "word_start", "word_end", "length")

#: Sentence attributes exposed as fields (``("sentence", attr)``).
SENTENCE_ATTRS = ("words", "text", "position", "document_name")

# int64 can hold anything LF fields realistically produce; values at the
# extremes fall back to the object path so numpy never silently wraps.
_INT64_SAFE = 2**62


class Column:
    """One evaluated column: per-row values plus the rows whose read raised.

    ``values`` is a numpy array (``object``, ``int64``, or ``bool`` dtype)
    of length ``num_rows``; rows present in ``errors`` hold a neutral filler
    (``None`` / ``0`` / ``False``) and must be treated as undefined.
    """

    __slots__ = ("values", "errors")

    def __init__(self, values: np.ndarray, errors: Optional[dict[int, BaseException]] = None):
        self.values = values
        self.errors = errors or None

    def __len__(self) -> int:
        return len(self.values)


def make_column(values: list, errors: Optional[dict[int, BaseException]]) -> Column:
    """Build a :class:`Column`, auto-typing to ``int64``/``bool`` when safe."""
    if errors:
        probe = [v for i, v in enumerate(values) if i not in errors]
    else:
        probe = values
    types = set(map(type, probe))
    if probe and types == {bool}:
        filled = [False if i in errors else v for i, v in enumerate(values)] if errors else values
        return Column(np.asarray(filled, dtype=bool), errors)
    if probe and types == {int}:
        filled = [0 if i in errors else v for i, v in enumerate(values)] if errors else values
        try:
            array = np.asarray(filled, dtype=np.int64)
        except OverflowError:
            pass  # beyond int64 entirely: object path below
        else:
            # Range check vectorized; numpy already raised on anything that
            # does not fit int64, so min/max are exact.
            if -_INT64_SAFE < array.min() and array.max() < _INT64_SAFE:
                return Column(array, errors)
    # np.asarray would try to broadcast list-valued rows into a 2-D array;
    # empty + slice assignment keeps each row as one object.
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return Column(array, errors)


def extract_column(candidates: Sequence, reader: Callable[[Any], Any]) -> Column:
    """Apply ``reader`` to every candidate, recording per-row exceptions."""
    try:
        return make_column(list(map(reader, candidates)), None)
    except Exception:
        values: list = []
        errors: dict[int, BaseException] = {}
        for i, candidate in enumerate(candidates):
            try:
                values.append(reader(candidate))
            except Exception as exc:  # noqa: BLE001 - faithful per-row capture
                values.append(None)
                errors[i] = exc
        return make_column(values, errors)


def field_reader(key: tuple) -> Callable[[Any], Any]:
    """The per-candidate accessor a field key denotes.

    ``methodcaller``/``attrgetter`` are C-implemented, so the extraction
    loop dispatches without a Python lambda frame per candidate; they raise
    the same ``AttributeError`` a ``getattr`` chain would.
    """
    head = key[0]
    if head in WINDOW_METHODS and len(key) == 2:
        return methodcaller(head, key[1])
    if head in CANDIDATE_METHODS and len(key) == 1:
        return methodcaller(head)
    if head in ("span1", "span2") and len(key) == 2 and key[1] in SPAN_ATTRS:
        return attrgetter(f"{head}.{key[1]}")
    if head == "sentence" and len(key) == 2 and key[1] in SENTENCE_ATTRS:
        return attrgetter(f"sentence.{key[1]}")
    if head in CANDIDATE_ATTRS and len(key) == 1:
        return attrgetter(head)
    raise KeyError(f"unknown candidate field key {key!r}")


class ColumnarChunk:
    """One chunk of candidates plus the cache of every evaluated column.

    Both raw fields and derived expression columns live in one cache keyed
    by structural expression keys (see :mod:`repro.labeling.pushdown.
    program`), so any two compiled LFs whose programs contain the same
    subexpression share its evaluation within the chunk.

    Fields whose stock implementations are pure arithmetic over the span
    offsets (``token_distance``, ``span1_precedes_span2``) or a slice of the
    sentence words (``words_between``, ``text_between``) are **derived** —
    computed vectorized from the offset/words columns instead of calling the
    Python accessor per candidate.  Derivation only applies when every
    candidate in the chunk uses the canonical ``Candidate``
    implementations (an override anywhere disables it) and the source
    columns are clean; anything else falls back to per-candidate extraction,
    so results and errors are always exactly the accessor's.
    """

    __slots__ = ("candidates", "num_rows", "_cache", "_canonical")

    def __init__(self, candidates: Sequence) -> None:
        self.candidates = candidates
        self.num_rows = len(candidates)
        self._cache: dict[tuple, Column] = {}
        self._canonical: Optional[bool] = None

    def get(self, key: tuple) -> Optional[Column]:
        return self._cache.get(key)

    def put(self, key: tuple, column: Column) -> Column:
        self._cache[key] = column
        return column

    def field(self, key: tuple) -> Column:
        cached = self._cache.get(("field", key))
        if cached is None:
            column = self._derive(key)
            if column is None:
                column = extract_column(self.candidates, field_reader(key))
            cached = self.put(("field", key), column)
        return cached

    def canonical_candidates(self) -> bool:
        """Every candidate uses the stock derivable-accessor implementations."""
        if self._canonical is None:
            self._canonical = uses_stock(self.candidates, Candidate, _DERIVABLE_METHODS)
        return self._canonical

    def _derive(self, key: tuple) -> Optional[Column]:
        derive = _DERIVED_FIELDS.get(key)
        if derive is None or not self.canonical_candidates():
            return None
        try:
            return derive(self)
        except Exception:
            # Any surprise falls back to the exact per-candidate accessor.
            return None

    def _span_offsets(self):
        """``(first_end, second_start, s1_start, s2_start)`` int64 arrays, or
        ``None`` when any offset column is dirty (errors / non-int)."""
        cols = [
            self.field(("span1", "word_start")),
            self.field(("span1", "word_end")),
            self.field(("span2", "word_start")),
            self.field(("span2", "word_end")),
        ]
        if any(col.errors is not None or col.values.dtype != np.int64 for col in cols):
            return None
        s1s, s1e, s2s, s2e = (col.values for col in cols)
        ordered = s1s <= s2s  # Candidate.ordered_spans
        return np.where(ordered, s1e, s2e), np.where(ordered, s2s, s1s), s1s, s2s


def _derive_token_distance(chunk: ColumnarChunk) -> Optional[Column]:
    offsets = chunk._span_offsets()
    if offsets is None:
        return None
    first_end, second_start = offsets[0], offsets[1]
    return Column(np.maximum(0, second_start - first_end))


def _derive_precedes(chunk: ColumnarChunk) -> Optional[Column]:
    offsets = chunk._span_offsets()
    if offsets is None:
        return None
    return Column(offsets[2] < offsets[3])


def _derive_words_between(chunk: ColumnarChunk) -> Optional[Column]:
    offsets = chunk._span_offsets()
    if offsets is None:
        return None
    words_col = chunk.field(("sentence", "words"))
    if words_col.errors is not None:
        return None
    rows = words_col.values.tolist()
    values = [
        list(w[a:b])
        for w, a, b in zip(rows, offsets[0].tolist(), offsets[1].tolist())
    ]
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return Column(array, None)


def _derive_text_between(chunk: ColumnarChunk) -> Optional[Column]:
    words_col = chunk.field(("words_between",))
    if words_col.errors is not None:
        return None
    values = list(map(" ".join, words_col.values.tolist()))
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return Column(array, None)


#: Accessors the derivations above re-implement; overriding any of them on a
#: candidate class disables derivation for chunks containing that class.
_DERIVABLE_METHODS = (
    "words_between",
    "text_between",
    "token_distance",
    "span1_precedes_span2",
    "ordered_spans",
)

_DERIVED_FIELDS = {
    ("token_distance",): _derive_token_distance,
    ("span1_precedes_span2",): _derive_precedes,
    ("words_between",): _derive_words_between,
    ("text_between",): _derive_text_between,
}
