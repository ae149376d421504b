"""Columnar candidate fields: per-chunk extraction of the values LFs read.

The pushdown execution model hoists every candidate field a compiled suite
reads — ``words_between()``, span attributes, sentence attributes — out of
the per-candidate×per-LF inner loop and into **one extraction pass per
chunk**.  A field is identified by a structural key (``("words_between",)``,
``("span1", "text")``, ...); :class:`ColumnarChunk` caches the extracted
:class:`Column` under that key, so ten LFs reading ``words_between()``
share one pass over the chunk instead of calling the accessor ten times per
candidate.

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

from itertools import repeat
from operator import attrgetter, methodcaller
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.context.candidates import Candidate, uses_stock
from repro.utils.tokens import token_rows

#: Candidate no-argument accessor methods exposed as fields.
CANDIDATE_METHODS = ("words_between", "text_between", "token_distance", "span1_precedes_span2")

#: Plain candidate attributes exposed as fields.
CANDIDATE_ATTRS = ("uid", "relation_type", "split")

#: Span attributes exposed as fields (``("span1", attr)`` / ``("span2", attr)``).
SPAN_ATTRS = ("text", "canonical_id", "entity_type", "word_start", "word_end", "length")

#: Sentence attributes exposed as fields (``("sentence", attr)``).
SENTENCE_ATTRS = ("words", "text", "position", "document_name")

#: The field columns :meth:`ColumnarChunk.rows` reads.
_SPAN_FIELDS = ("text", "word_start", "word_end")
BLOCK_FIELDS = (("sentence", "words"), *(("span1", f) for f in _SPAN_FIELDS),
                *(("span2", f) for f in _SPAN_FIELDS))

_PARTS = tuple(map(attrgetter, ("sentence", "span1", "span2")))
_WORDS = attrgetter("words")
_SPAN = tuple(map(attrgetter, _SPAN_FIELDS))
_UNREAD = object()

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
    return object_column(values, errors)


def bool_column(values: list, errors: Optional[dict]) -> Column:
    """Bool array from per-row real booleans (error rows filled ``False``)."""
    if errors:
        filled = [False if i in errors else bool(v) for i, v in enumerate(values)]
        return Column(np.asarray(filled, dtype=bool), errors)
    return Column(np.asarray(values, dtype=bool), errors)


def object_column(values: list, errors: Optional[dict] = None) -> Column:
    """An ``object`` column holding each value as one row."""
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
    """One chunk of candidates, read once, and the cache of every column over it.

    **The block.**  Both readers of a chunk — the compiled LF programs and
    :meth:`repro.discriminative.featurizers.RelationFeaturizer.chunk_triples`
    — take their candidate fields from here, and the fused
    :func:`~repro.labeling.engine.tasks.label_and_featurize_chunk` hands one
    block to both.  :meth:`rows` is one C-level attribute pass: every
    candidate's ``sentence``, ``span1`` and ``span2`` are read once, then each
    sentence's ``words`` and each span's ``text``, ``word_start`` and
    ``word_end``; the seven field columns over them (:data:`BLOCK_FIELDS`)
    are built from it, not by a pass of their own.  :meth:`word_ids`
    flattens the words once, proves every token exactly a ``str`` once, and
    looks each up once (:func:`~repro.utils.tokens.token_rows`) in the process's token table
    (:mod:`repro.utils.tokens`): the token index of the words column and
    the featurizer's n-gram codes both start from those ids.  A read that
    raises anywhere leaves :meth:`rows` ``None``, and every field is then
    read per row, its errors recorded per row, as before.

    **The cache.**  Raw fields and derived expression columns live in one
    cache keyed by structural expression keys (see :mod:`repro.labeling.
    pushdown.program`), so any two compiled LFs whose programs contain the
    same subexpression share its evaluation within the chunk.

    Fields whose stock implementations are pure arithmetic over the span
    offsets (``token_distance``, ``span1_precedes_span2``) or a slice of the
    sentence words (``words_between``, ``text_between``) are **derived** —
    computed vectorized from the offset/words columns instead of calling the
    Python accessor per candidate.  Derivation only applies when every
    candidate in the chunk uses the canonical ``Candidate``
    implementations (an override anywhere disables it) and the source
    columns are clean; anything else falls back to per-candidate extraction,
    so results and errors are always exactly the accessor's.

    ``memo`` is the per-apply memo of the compiled plan evaluating over the
    block and ``token_groups`` that plan's token kernels by source column
    (both ``None`` outside one; see :func:`~repro.labeling.pushdown.
    program.token_groups`).  A block is also the sequence of its candidates, so
    the interpreted chunk task takes one as it is.
    """

    __slots__ = ("candidates", "num_rows", "memo", "token_groups", "_cache", "_canonical", "_rows",
                 "_ids")

    def __init__(self, candidates: Sequence) -> None:
        self.candidates = candidates
        self.num_rows = len(candidates)
        self.memo: Optional[dict] = None
        self.token_groups: Optional[dict] = None
        self._cache: dict[tuple, Column] = {}
        self._canonical: Optional[bool] = None
        self._rows: Any = _UNREAD
        self._ids: Any = _UNREAD

    def __len__(self) -> int:
        return self.num_rows

    def __iter__(self):
        return iter(self.candidates)

    @classmethod
    def of(cls, candidates: Sequence) -> "ColumnarChunk":
        """``candidates`` if it is a block already, else a new block over them."""
        return candidates if isinstance(candidates, ColumnarChunk) else cls(candidates)

    def get(self, key: tuple) -> Optional[Column]:
        return self._cache.get(key)

    def put(self, key: tuple, column: Column) -> Column:
        self._cache[key] = column
        return column

    def field(self, key: tuple) -> Column:
        cached = self._cache.get(("field", key))
        if cached is None:
            rows = self.rows() if key in BLOCK_FIELDS else None
            column = make_column(list(rows[key]), None) if rows else self._derive(key)
            if column is None:
                column = extract_column(self.candidates, field_reader(key))
            cached = self.put(("field", key), column)
        return cached

    def rows(self) -> Optional[dict]:
        """The one read: each :data:`BLOCK_FIELDS` key's per-row values, and
        under ``"spans"`` every ``span1``, then every ``span2``; ``None`` when
        a read raised."""
        if self._rows is _UNREAD:
            self._rows = None
            try:
                # One attribute per pass: no tuple per candidate to build and transpose.
                sentences, spans1, spans2 = map(tuple, map(map, _PARTS, repeat(self.candidates)))
                rows = {"spans": spans1 + spans2, BLOCK_FIELDS[0]: tuple(map(_WORDS, sentences))}
                for keys, spans in ((BLOCK_FIELDS[1:4], spans1), (BLOCK_FIELDS[4:], spans2)):
                    rows.update(zip(keys, map(tuple, map(map, _SPAN, repeat(spans)))))
                self._rows = rows
            except Exception:  # noqa: BLE001 - each field is then read per row
                pass
        return self._rows

    def word_ids(self) -> Optional[tuple]:
        """:func:`token_rows` of the sentence words; ``None`` when :meth:`rows` is."""
        if self._ids is _UNREAD:
            rows = self.rows()
            self._ids = None if rows is None else token_rows(rows[BLOCK_FIELDS[0]])
        return self._ids

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

    def span_offsets(self) -> Optional[np.ndarray]:
        """``[[start1, start2], [end1, end2], [first_start, second_start],
        [first_end, second_end]]`` as one ``(4, 2, n)`` int64 array — the
        last two with the spans in sentence order (``Candidate.ordered_spans``)
        — or ``None`` when any offset column is dirty (errors / non-int)."""
        ends = ("word_start", "word_end")
        cols = [self.field((span, end)) for end in ends for span in ("span1", "span2")]
        if any(col.errors is not None or col.values.dtype != np.int64 for col in cols):
            return None
        offsets = np.stack([col.values for col in cols]).reshape(2, 2, self.num_rows)
        ordered = np.where(offsets[0, 0] <= offsets[0, 1], offsets, offsets[:, ::-1])
        return np.concatenate([offsets, ordered])


def _derive_token_distance(chunk: ColumnarChunk) -> Optional[Column]:
    offsets = chunk.span_offsets()
    if offsets is None:
        return None
    return Column(np.maximum(0, offsets[2, 1] - offsets[3, 0]))


def _derive_precedes(chunk: ColumnarChunk) -> Optional[Column]:
    offsets = chunk.span_offsets()
    if offsets is None:
        return None
    return Column(offsets[0, 0] < offsets[0, 1])


def _derive_words_between(chunk: ColumnarChunk) -> Optional[Column]:
    offsets = chunk.span_offsets()
    if offsets is None:
        return None
    words_col = chunk.field(("sentence", "words"))
    if words_col.errors is not None:
        return None
    rows = words_col.values.tolist()
    bounds = zip(rows, offsets[3, 0].tolist(), offsets[2, 1].tolist())
    return object_column([list(w[a:b]) for w, a, b in bounds])


def _derive_text_between(chunk: ColumnarChunk) -> Optional[Column]:
    words_col = chunk.field(("words_between",))
    if words_col.errors is not None:
        return None
    return object_column(list(map(" ".join, words_col.values.tolist())))


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
