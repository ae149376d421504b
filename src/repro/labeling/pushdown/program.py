"""The columnar expression IR compiled LFs evaluate over a chunk.

A compiled LF is a :class:`CompiledProgram`: an ordered list of
:class:`Branch` es, each ``(guard, leaf)`` — the guard a boolean column
expression (the conjunction of the source path's conditions), the leaf
either a constant label or a column expression.  Evaluation walks the
branches in source order over the rows still undecided, exactly mirroring
the interpreted body's control flow; rows no branch takes abstain (the
implicit ``return None``).

Expression nodes (:class:`ColExpr` subclasses) evaluate to
:class:`~repro.labeling.pushdown.fields.Column` s and are cached in the
:class:`~repro.labeling.pushdown.fields.ColumnarChunk` under *structural*
keys, so identical subexpressions across LFs (the shared
``words_between()`` normalization, a common regex) are computed once per
chunk.

Two disciplines keep compiled output bit-identical to the interpreted path:

* **Error masking.** Any per-row evaluation may raise (``normalize(None)``,
  regex on a non-string); exceptions are carried per row in
  ``Column.errors`` and masked by the short-circuit structure —
  :class:`BoolAnd` keeps a right-operand error only where the left operand
  was truthy, :class:`IfExpCol` keeps a branch error only where the
  condition selected that branch — so a compiled LF errors on exactly the
  rows where the interpreted LF would have raised, with the same exception.
* **Canonicalization fidelity.** Leaf values replicate
  :func:`repro.labeling.lf.canonical_label` exactly, including its strict
  ``isinstance(raw, int)`` / ``raw is True`` semantics: int64/bool-typed
  columns (built only from values that were exact Python ints/bools, see
  :func:`~repro.labeling.pushdown.fields.make_column`) take the vectorized
  path; anything else is canonicalized per row on the raw objects.
"""

from __future__ import annotations

import operator
import re
from itertools import chain, count
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

try:  # CPython's parsed-regex internals; absence just disables the prefilter.
    from re import _compiler as _sre_compiler
    from re import _constants as _sre_constants
    from re import _parser as _sre_parser
except ImportError:  # pragma: no cover - non-CPython fallback
    _sre_compiler = _sre_constants = _sre_parser = None  # type: ignore[assignment]

# Characters where regex ignore-case matching and ``str.lower`` disagree: the
# non-ASCII members of sre's case-equivalence classes (long s, dotless i,
# micro sign, ...) plus the uppercase signs whose lowercase collides with an
# ordinary letter and dotted capital I (whose ``str.lower`` changes length).
# A column containing any of these skips the lowered-literal prefilter.
if _sre_compiler is not None and hasattr(_sre_compiler, "_EXTRA_CASES"):
    _EXOTIC_CASE_RE: Optional["re.Pattern[str]"] = re.compile(
        "["
        + "".join(
            re.escape(chr(code))
            for key, group in _sre_compiler._EXTRA_CASES.items()
            for code in (key, *group)
            if code > 0x7F
        )
        + "\u0130\u1e9e\u2126\u212a\u212b]"
    )
else:  # pragma: no cover - table moved/renamed: disable ignore-case prefilter
    _EXOTIC_CASE_RE = None

from repro.exceptions import LabelingError
from repro.labeling.lf import canonical_label
from repro.labeling.pushdown.fields import Column, ColumnarChunk, make_column
from repro.types import NEGATIVE, POSITIVE


def const_key(value: Any) -> tuple:
    """Structural cache-key component for a constant (id fallback if unhashable)."""
    try:
        hash(value)
    except TypeError:
        return ("id", id(value))
    return (type(value).__name__, value)


class K:
    """A constant operand riding alongside :class:`ColExpr` s in a node."""

    __slots__ = ("value", "key")

    def __init__(self, value: Any) -> None:
        self.value = value
        self.key = ("k", const_key(value))


Operand = Union["ColExpr", K]


class _Repeat:
    """A constant pretending to be a row list (indexable, iterable)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __getitem__(self, index: int) -> Any:
        return self.value


def _rowlist(operand: Operand, chunk: ColumnarChunk):
    """Python-object row values for an operand: ``(rows, errors)``.

    Numeric columns go through ``tolist`` so per-row evaluation sees exact
    Python ints/bools (numpy scalars have different ``/`` and ``isinstance``
    semantics than the interpreted path).
    """
    if isinstance(operand, K):
        return _Repeat(operand.value), None
    column = operand.eval(chunk)
    return column.values.tolist(), column.errors


def _merge_errors(*error_dicts: Optional[dict]) -> dict[int, BaseException]:
    """Union per-row errors; the leftmost operand's exception wins per row."""
    merged: dict[int, BaseException] = {}
    for errors in error_dicts:
        if errors:
            for row, exc in errors.items():
                merged.setdefault(row, exc)
    return merged


def _map1(n: int, rows, errors: Optional[dict], fn: Callable):
    """Apply ``fn`` per row, inheriting and collecting per-row errors."""
    if not errors:
        # map() iterates at C speed; it raises at the same row a manual loop
        # would, at which point the slow path takes over from scratch.
        try:
            return list(map(fn, rows)), None
        except Exception:
            pass
    out = [None] * n
    collected = dict(errors) if errors else {}
    for i in range(n):
        if i in collected:
            continue
        try:
            out[i] = fn(rows[i])
        except Exception as exc:  # noqa: BLE001 - faithful per-row capture
            collected[i] = exc
    return out, collected or None


def _map2(n: int, a_rows, a_errors, b_rows, b_errors, fn: Callable):
    base = _merge_errors(a_errors, b_errors)
    if not base:
        # _Repeat supports the sequence protocol, so map() zips it against
        # the finite operand (at least one operand is always a real column).
        try:
            return list(map(fn, a_rows, b_rows)), None
        except Exception:
            pass
    out = [None] * n
    collected = dict(base)
    for i in range(n):
        if i in collected:
            continue
        try:
            out[i] = fn(a_rows[i], b_rows[i])
        except Exception as exc:  # noqa: BLE001
            collected[i] = exc
    return out, collected or None


def _object_column(values: list, errors: Optional[dict]) -> Column:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return Column(array, errors)


def _bool_column(values: list, errors: Optional[dict]) -> Column:
    """Bool array from per-row real booleans (error rows filled ``False``)."""
    if errors:
        filled = [False if i in errors else bool(v) for i, v in enumerate(values)]
        return Column(np.asarray(filled, dtype=bool), errors)
    return Column(np.asarray(values, dtype=bool), errors)


def as_bool_mask(column: Column, n: int) -> np.ndarray:
    """A column's truth mask (error rows ``False``); never mutates the column."""
    values = column.values
    if isinstance(values, np.ndarray) and values.dtype == np.bool_:
        return values
    if isinstance(values, np.ndarray) and values.dtype != object:
        return values.astype(bool)
    rows = values.tolist()
    errors = column.errors
    return np.fromiter(
        (False if errors and i in errors else bool(rows[i]) for i in range(n)),
        count=n,
        dtype=bool,
    )


def _is_int_operand(operand: Operand, column: Optional[Column]) -> bool:
    if isinstance(operand, K):
        return type(operand.value) is int
    return isinstance(column.values, np.ndarray) and column.values.dtype == np.int64


def _numeric_value(operand: Operand, column: Optional[Column]):
    return operand.value if isinstance(operand, K) else column.values


class ColExpr:
    """Base class: a cached, chunk-evaluable column expression."""

    __slots__ = ("key",)
    #: Evaluation yields a real boolean per row (usable as a return value).
    is_bool = False
    #: Truthiness proxy (regex match object, non-empty test): valid only in
    #: condition position, never as a value/leaf.
    cond_only = False

    def eval(self, chunk: ColumnarChunk) -> Column:
        column = chunk.get(self.key)
        if column is None:
            column = chunk.put(self.key, self._compute(chunk))
        return column

    def _compute(self, chunk: ColumnarChunk) -> Column:  # pragma: no cover
        raise NotImplementedError


class FieldCol(ColExpr):
    """A raw candidate field column."""

    __slots__ = ("field_key",)

    def __init__(self, field_key: tuple) -> None:
        self.field_key = field_key
        self.key = ("field", field_key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        return chunk.field(self.field_key)


class MapRow(ColExpr):
    """Per-row scalar transform ``fn(value)`` (normalize, str methods, casts)."""

    __slots__ = ("child", "fn", "real_bool")

    def __init__(self, child: ColExpr, fn: Callable, fn_key: tuple, is_bool: bool = False):
        self.child = child
        self.fn = fn
        self.real_bool = is_bool
        self.key = ("map", fn_key, child.key)

    @property
    def is_bool(self) -> bool:  # type: ignore[override]
        return self.real_bool

    def _compute(self, chunk: ColumnarChunk) -> Column:
        column = self.child.eval(chunk)
        rows = column.values.tolist()
        values, errors = _map1(chunk.num_rows, rows, column.errors, self.fn)
        if self.real_bool:
            return _bool_column(values, errors)
        return make_column(values, errors)


class StrLower(ColExpr):
    """``normalize(value)`` (i.e. ``str.lower``) over a scalar string column.

    All-string columns lower in one ``np.char.lower`` sweep (the result is a
    unicode-dtype column; ``tolist`` hands exact Python strings downstream);
    anything else falls back to the per-row helper, raising exactly where
    the interpreted call would.
    """

    __slots__ = ("child", "fn")

    def __init__(self, child: ColExpr, fn: Callable) -> None:
        self.child = child
        self.fn = fn
        self.key = ("strlower", child.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        column = self.child.eval(chunk)
        values = column.values
        if column.errors is None and values.dtype.kind == "U":
            return Column(np.char.lower(values), None)
        rows = values.tolist()
        if column.errors is None:
            flags = None
            try:
                joined = "".join(rows)  # all-string probe, one C pass
                good = rows
            except TypeError:
                flags = np.fromiter(
                    (type(v) is str for v in rows), dtype=bool, count=len(rows)
                )
                good = [v if f else "" for v, f in zip(rows, flags.tolist())]
                joined = "".join(good)
            # numpy U-dtype round-trips drop trailing NULs, so NUL-bearing
            # text takes the exact per-row path instead.
            if "\x00" not in joined:
                lowered = np.char.lower(np.asarray(good, dtype=str))
                if flags is None:
                    return Column(lowered, None)
                out = lowered.tolist()
                errors: dict[int, BaseException] = {}
                fn = self.fn
                for i in np.nonzero(~flags)[0].tolist():
                    try:
                        out[i] = fn(rows[i])
                    except Exception as exc:  # noqa: BLE001 - faithful capture
                        errors[i] = exc
                        out[i] = None
                return make_column(out, errors or None)
        out, map_errors = _map1(chunk.num_rows, rows, column.errors, self.fn)
        return make_column(out, map_errors)


class Map2(ColExpr):
    """Per-row binary transform ``fn(a, b)`` (subscript by column, min/max)."""

    __slots__ = ("left", "right", "fn")

    def __init__(self, left: Operand, right: Operand, fn: Callable, fn_key: tuple):
        self.left = left
        self.right = right
        self.fn = fn
        self.key = ("map2", fn_key, left.key, right.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        a_rows, a_errors = _rowlist(self.left, chunk)
        b_rows, b_errors = _rowlist(self.right, chunk)
        values, errors = _map2(chunk.num_rows, a_rows, a_errors, b_rows, b_errors, self.fn)
        return make_column(values, errors)


class MapElems(ColExpr):
    """A comprehension over a sequence column: one container per row."""

    __slots__ = ("child", "elem_fn", "kind", "filter_fn")

    _BUILDERS = {"list": list, "set": set, "tuple": tuple}

    def __init__(
        self,
        child: ColExpr,
        elem_fn: Callable,
        fn_key: tuple,
        kind: str,
        filter_fn: Optional[Callable] = None,
        filter_key: tuple = (),
    ) -> None:
        self.child = child
        self.elem_fn = elem_fn
        self.kind = kind
        self.filter_fn = filter_fn
        self.key = ("elems", kind, fn_key, filter_key, child.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        build = self._BUILDERS[self.kind]
        elem_fn = self.elem_fn
        filter_fn = self.filter_fn
        if filter_fn is None:
            # map() raises at the same element a comprehension would.
            row_fn = lambda row: build(map(elem_fn, row))  # noqa: E731
        else:
            row_fn = lambda row: build(elem_fn(t) for t in row if filter_fn(t))  # noqa: E731
        column = self.child.eval(chunk)
        values, errors = _map1(chunk.num_rows, column.values.tolist(), column.errors, row_fn)
        return _object_column(values, errors)


def _mandatory_literal(pattern) -> Optional[str]:
    """Longest literal substring every match of ``pattern`` must contain.

    Walks the parsed pattern collecting maximal runs of ``LITERAL`` nodes in
    mandatory positions — top level, plain groups, and repeats with
    ``min >= 1``; branches, assertions, and flag-changing groups are skipped
    conservatively (their literals are simply not claimed as mandatory).  Any
    successful match — ``search``, ``match``, or ``fullmatch`` — contains
    every mandatory run as a substring, so rows without the longest run can
    be rejected by one C-level ``in`` per row without touching the regex
    engine.  Under ``IGNORECASE`` the literal is lowercased and only claimed
    when pure ASCII; the caller must then lowercase each row before the
    ``in`` check *and* skip the prefilter for text containing the
    :data:`_EXOTIC_CASE_RE` characters, where ``str.lower`` and sre's
    case-equivalence table disagree.  Returns ``None`` when no usable run of
    length >= 2 exists or the analysis does not apply (bytes pattern, parse
    surprise).
    """
    if _sre_parser is None or isinstance(pattern.pattern, bytes):
        return None
    ignorecase = bool(pattern.flags & re.IGNORECASE)
    if ignorecase and _EXOTIC_CASE_RE is None:
        return None
    try:
        parsed = _sre_parser.parse(pattern.pattern, pattern.flags)
    except Exception:  # pragma: no cover - re.compile already accepted it
        return None
    runs: list[str] = []

    def walk(sequence) -> None:
        current: list[str] = []
        for op, arg in sequence:
            if op is _sre_constants.LITERAL:
                current.append(chr(arg))
                continue
            if current:
                runs.append("".join(current))
                current = []
            if op is _sre_constants.SUBPATTERN:
                _group, add_flags, del_flags, sub = arg
                if not add_flags and not del_flags:
                    walk(sub)
            elif op in (_sre_constants.MAX_REPEAT, _sre_constants.MIN_REPEAT):
                min_count, _max_count, sub = arg
                if min_count >= 1:
                    walk(sub)
        if current:
            runs.append("".join(current))

    try:
        walk(parsed)
    except Exception:  # pragma: no cover - defensive against parser changes
        return None
    if ignorecase:
        runs = [run.lower() for run in runs if run.isascii()]
    best = max(runs, key=len, default="")
    return best if len(best) >= 2 else None


class RegexSearch(ColExpr):
    """``pattern.search/match/fullmatch`` truthiness over a text column."""

    __slots__ = ("child", "method", "literal", "ignorecase")
    cond_only = True
    is_bool = True

    def __init__(self, pattern, method: str, child: ColExpr) -> None:
        self.child = child
        self.method = getattr(pattern, method)
        self.literal = _mandatory_literal(pattern)
        self.ignorecase = bool(pattern.flags & re.IGNORECASE)
        self.key = ("regex", pattern.pattern, pattern.flags, method, child.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        method = self.method
        column = self.child.eval(chunk)
        rows = column.values.tolist()
        if not column.errors:
            literal = self.literal
            if literal is not None:
                # The prefilter is only sound over strings (`lit in v` on a
                # non-str container silently answers membership, not
                # substring); one join probes the whole column.  Ignore-case
                # additionally requires the column to be free of the exotic
                # characters where lowering and sre case folding disagree.
                try:
                    joined = "".join(rows)
                except TypeError:
                    literal = None
                else:
                    if self.ignorecase and _EXOTIC_CASE_RE.search(joined):
                        literal = None
            matches = None
            hits: Optional[list[int]] = None
            try:
                if literal is not None:
                    if self.ignorecase:
                        hits = [i for i, v in enumerate(rows) if literal in v.lower()]
                    else:
                        hits = [i for i, v in enumerate(rows) if literal in v]
                    matches = list(map(method, [rows[i] for i in hits]))
                else:
                    matches = list(map(method, rows))
            except Exception:
                matches = None
            if matches is not None:
                if hits is None:
                    values = np.fromiter(
                        (m is not None for m in matches), dtype=bool, count=len(matches)
                    )
                else:
                    values = np.zeros(chunk.num_rows, dtype=bool)
                    if hits:
                        values[hits] = np.fromiter(
                            (m is not None for m in matches), dtype=bool, count=len(hits)
                        )
                return Column(values, None)
        values, errors = _map1(
            chunk.num_rows, rows, column.errors, lambda v: method(v) is not None
        )
        return _bool_column(values, errors)


class ContainsPhrase(ColExpr):
    """Contiguous-phrase containment (``declarative._contains_phrase``)."""

    __slots__ = ("child", "phrase")
    is_bool = True

    def __init__(self, child: ColExpr, phrase: Sequence[str]) -> None:
        self.child = child
        self.phrase = tuple(phrase)
        self.key = ("phrase", self.phrase, child.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        phrase = self.phrase
        n_phrase = len(phrase)
        if n_phrase == 0:
            row_fn = lambda row: False  # noqa: E731
        elif n_phrase == 1:
            first = phrase[0]

            def row_fn(row):
                if type(row) in (list, tuple):
                    return first in row
                return any(tuple(row[i : i + 1]) == phrase for i in range(len(row)))

        else:

            def row_fn(row):
                return any(
                    tuple(row[i : i + n_phrase]) == phrase for i in range(len(row) - n_phrase + 1)
                )

        column = self.child.eval(chunk)
        values, errors = _map1(chunk.num_rows, column.values.tolist(), column.errors, row_fn)
        return _bool_column(values, errors)


class AnyElem(ColExpr):
    """``any(pred(t) for t in seq)`` per row (the keyword-LF loop idiom)."""

    __slots__ = ("child", "pred", "want_all")
    is_bool = True

    def __init__(self, child: ColExpr, pred: Callable, pred_key: tuple, want_all: bool = False):
        self.child = child
        self.pred = pred
        self.want_all = want_all
        self.key = ("allelem" if want_all else "anyelem", pred_key, child.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        pred = self.pred
        fold = all if self.want_all else any
        row_fn = lambda row: fold(map(pred, row))  # noqa: E731 - lazy, short-circuits
        column = self.child.eval(chunk)
        values, errors = _map1(chunk.num_rows, column.values.tolist(), column.errors, row_fn)
        return _bool_column(values, errors)


class _TokenIndex:
    """Flattened view of a token-sequence column, built once per chunk.

    The flat tokens are deduplicated lazily (distinct tokens plus inverse
    codes), so every kernel over the same source column — lowercasing,
    equality, vocabulary membership, first-match scans — runs over the small
    unique-token array and gathers the result back through the codes instead
    of sweeping every token again.  Tokens that are not exactly ``str`` are
    replaced by ``""`` in the flat list; the rows the vectorized kernels
    cannot vouch for — rows that are not ``list``/``tuple``, or rows
    containing such a token — are collected in ``fallback_rows`` and
    :class:`TokenMatch` / :class:`TokenScan` recompute those with their
    exact per-row Python fallback.
    """

    __slots__ = ("rows", "offsets", "lengths", "flat", "fallback_rows",
                 "_uniques", "_inverse", "_lowered")

    def __init__(self, column: Column, n: int) -> None:
        rows = column.values.tolist()
        sequences = rows
        fallback: set[int] = set()
        if not set(map(type, rows)) <= {list, tuple}:
            sequences = list(rows)
            for i, row in enumerate(rows):
                if type(row) not in (list, tuple):
                    sequences[i] = ()
                    fallback.add(i)
        flat = list(chain.from_iterable(sequences))
        total = len(flat)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, sequences), dtype=np.int64, count=n), out=offsets[1:])
        # One C pass proving every flat token is exactly a ``str`` (a
        # subclass may override what the kernels assume); the per-token
        # scan only runs when one is not.
        if set(map(type, flat)) <= {str}:
            joined = "".join(flat)
        else:
            str_flags = np.fromiter(
                (type(t) is str for t in flat), dtype=bool, count=total
            )
            flat = [t if type(t) is str else "" for t in flat]
            bad = np.zeros(total + 1, dtype=np.int64)
            np.cumsum(~str_flags, out=bad[1:])
            fallback.update(np.nonzero(bad[offsets[1:]] - bad[offsets[:-1]])[0].tolist())
            joined = "".join(flat)
        if "\x00" in joined:
            # numpy U-dtype round-trips drop trailing NULs; hand every row
            # to the exact per-row fallback rather than risk a mismatch.
            fallback = set(range(n))
        self.rows = rows
        self.offsets = offsets
        self.lengths = np.diff(offsets)
        self.flat = flat
        self.fallback_rows = fallback
        self._uniques = None
        self._inverse = None
        self._lowered = None

    def _unique(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct flat tokens (first-seen order) and each token's code."""
        if self._uniques is None:
            # A dict dedups at C speed without sorting, and only the few
            # distinct tokens are ever copied into a fixed-width array.
            codes = dict(zip(dict.fromkeys(self.flat), count()))
            self._uniques = (
                np.asarray(list(codes), dtype=str) if codes else np.empty(0, dtype="<U1")
            )
            self._inverse = np.fromiter(
                map(codes.__getitem__, self.flat), dtype=np.int64, count=len(self.flat)
            )
        return self._uniques, self._inverse

    def _unique_needles(self, lower: bool) -> np.ndarray:
        uniques, _ = self._unique()
        if not lower:
            return uniques
        if self._lowered is None:
            # np.char.lower applies str.lower element-wise over the (small)
            # unique array, so values match the interpreted normalize().
            self._lowered = np.char.lower(uniques)
        return self._lowered

    def match_eq(self, needle: str, lower: bool) -> np.ndarray:
        mask_u = self._unique_needles(lower) == needle
        return self.row_any(mask_u[self._inverse])

    def match_isin(self, members: list, lower: bool) -> np.ndarray:
        uniques = self._unique_needles(lower)
        if members:
            mask_u = np.isin(uniques, np.asarray(members, dtype=str))
        else:
            mask_u = np.zeros(len(uniques), dtype=bool)
        return self.row_any(mask_u[self._inverse])

    def row_any(self, token_mask: np.ndarray) -> np.ndarray:
        """Per-row ``any(token matched)`` via a cumulative-sum difference."""
        counts = np.zeros(len(token_mask) + 1, dtype=np.int64)
        np.cumsum(token_mask, out=counts[1:])
        return (counts[self.offsets[1:]] - counts[self.offsets[:-1]]) > 0


    def row_first(self, token_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row: did a token match, and the flat position of the first
        that did (meaningless where none did)."""
        positions = np.flatnonzero(token_mask)
        if not positions.size:
            empty = np.zeros(len(self.lengths), dtype=np.int64)
            return empty.astype(bool), empty
        # The first matching position at or after the row's start is the
        # row's own only if it still lies before the row's end.
        nearest = np.searchsorted(positions, self.offsets[:-1])
        first = positions[np.minimum(nearest, positions.size - 1)]
        return (nearest < positions.size) & (first < self.offsets[1:]), first


def _token_index(chunk: ColumnarChunk, child: ColExpr, column: Column) -> _TokenIndex:
    key = ("tokidx", child.key)
    index = chunk.get(key)
    if index is None:
        index = chunk.put(key, _TokenIndex(column, chunk.num_rows))  # type: ignore[arg-type]
    return index  # type: ignore[return-value]


class TokenMatch(ColExpr):
    """Vectorized any-token predicate over a token-sequence column.

    The compiler lowers three hot idioms to this node — single-token phrase
    containment over a normalized list, ``any(normalize(t) in VOCAB ...)``
    keyword membership (and the equivalent set-intersection truthiness),
    and non-emptiness of a derived container — replacing their per-row
    Python loops with one flattened sweep per chunk: tokens are flattened
    once per source column (cached), lowercased with ``np.char.lower`` when
    the idiom normalizes, and the per-row ``any`` is a cumsum difference
    over row offsets.  Rows the index cannot vouch for are recomputed with
    ``row_fallback`` — the exact per-row Python equivalent — so values and
    errors stay bit-identical to the interpreted path.
    """

    __slots__ = ("child", "mode", "needle", "lower", "row_fallback")
    is_bool = True

    def __init__(
        self,
        child: ColExpr,
        mode: str,
        needle: Any,
        lower: bool,
        row_fallback: Callable,
    ) -> None:
        self.child = child
        self.mode = mode  # "eq" | "isin" | "nonempty"
        self.needle = needle
        self.lower = lower
        self.row_fallback = row_fallback
        self.key = ("tokmatch", mode, bool(lower), const_key(needle), child.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        column = self.child.eval(chunk)
        index = _token_index(chunk, self.child, column)
        if self.mode == "nonempty":
            values = index.lengths > 0
        elif self.mode == "eq":
            values = index.match_eq(self.needle, self.lower)
        else:
            # Non-string members can never equal a string token, so the
            # vector sweep only checks the string members; rows with
            # non-string tokens are in fallback_rows and recomputed.
            members = [m for m in self.needle if type(m) is str]
            values = index.match_isin(members, self.lower)
        errors = dict(column.errors) if column.errors else {}
        if index.fallback_rows:
            fallback = self.row_fallback
            rows = index.rows
            for i in sorted(index.fallback_rows):
                if i in errors:
                    continue
                try:
                    values[i] = bool(fallback(rows[i]))
                except Exception as exc:  # noqa: BLE001 - faithful capture
                    values[i] = False
                    errors[i] = exc
        if errors:
            values[np.fromiter(errors, dtype=np.int64)] = False
        return Column(values, errors or None)


class TokenScan(ColExpr):
    """First-match scan of a token-sequence column: the loop

    ``for t in row: if pred(t): return arm(t)``

    per row, where ``arm`` runs the match arm and canonicalizes what it
    returns.  The node is the loop's guard — true where some token matched —
    and :attr:`labels` is the leaf holding the canonical label that match
    returned.  ``pred`` and ``arm`` are the exact Python closures, but they
    run once per *unique* token of the chunk (the :class:`_TokenIndex` is
    shared with every other token kernel over the same column); each row's
    first matching token is then resolved vectorized.  Rows the index cannot
    vouch for, and rows holding a token on which either closure raised, take
    the exact per-row loop, so labels, error rows and exceptions are those
    of the interpreted loop.
    """

    __slots__ = ("child", "pred", "arm", "labels")
    is_bool = True
    cond_only = True

    def __init__(
        self, child: ColExpr, pred: Callable, arm: Callable, scan_key: tuple
    ) -> None:
        self.child = child
        self.pred = pred
        self.arm = arm
        self.key = ("tokscan", scan_key, child.key)
        self.labels = _ScanLabels(self)

    def _scan_row(self, row) -> tuple[bool, int]:
        pred = self.pred
        for token in row:
            if pred(token):
                return True, self.arm(token)
        return False, 0

    def _compute(self, chunk: ColumnarChunk) -> Column:
        column = self.child.eval(chunk)
        index = _token_index(chunk, self.child, column)
        uniques, inverse = index._unique()
        pred, arm = self.pred, self.arm
        match_u = np.zeros(len(uniques), dtype=bool)
        label_u = np.zeros(len(uniques), dtype=np.int64)
        raised_u: list[int] = []
        for j, token in enumerate(uniques.tolist()):
            try:
                if pred(token):
                    label_u[j] = arm(token)
                    match_u[j] = True
            except Exception:  # noqa: BLE001 - its rows rerun the exact loop
                raised_u.append(j)
        hit, first = index.row_first(match_u[inverse])
        labels = np.zeros(chunk.num_rows, dtype=np.int64)
        labels[hit] = label_u[inverse[first[hit]]]
        slow = set(index.fallback_rows)
        if raised_u:
            raised = np.zeros(len(uniques), dtype=bool)
            raised[raised_u] = True
            slow.update(np.flatnonzero(index.row_any(raised[inverse])).tolist())
        errors = dict(column.errors) if column.errors else {}
        for i in sorted(slow):
            if i in errors:
                continue
            try:
                hit[i], labels[i] = self._scan_row(index.rows[i])
            except Exception as exc:  # noqa: BLE001 - faithful capture
                errors[i] = exc
        if errors:
            hit[np.fromiter(errors, dtype=np.int64)] = False
        chunk.put(self.labels.key, Column(labels, None))
        return Column(hit, errors or None)


class _ScanLabels(ColExpr):
    """The canonical labels a :class:`TokenScan` leaves beside its hits."""

    __slots__ = ("scan",)

    def __init__(self, scan: TokenScan) -> None:
        self.scan = scan
        self.key = ("scanlabels", scan.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        self.scan.eval(chunk)
        return chunk.get(self.key)  # type: ignore[return-value]


class Contains(ColExpr):
    """Membership ``item in container`` (either side a column or constant)."""

    __slots__ = ("item", "container", "negate")
    is_bool = True

    def __init__(self, item: Operand, container: Operand, negate: bool = False) -> None:
        self.item = item
        self.container = container
        self.negate = negate
        self.key = ("in", negate, item.key, container.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        if isinstance(self.container, K) and not self.negate:
            # `x in s` dispatches to s.__contains__ — mapping the bound C
            # method over the rows skips a Python lambda frame per row.
            contains = getattr(self.container.value, "__contains__", None)
            if contains is not None:
                a_rows, a_errors = _rowlist(self.item, chunk)
                values, errors = _map1(chunk.num_rows, a_rows, a_errors, contains)
                return _bool_column(values, errors)
        a_rows, a_errors = _rowlist(self.item, chunk)
        b_rows, b_errors = _rowlist(self.container, chunk)
        fn = (lambda a, b: a not in b) if self.negate else (lambda a, b: a in b)
        values, errors = _map2(chunk.num_rows, a_rows, a_errors, b_rows, b_errors, fn)
        return _bool_column(values, errors)


_CMP_OPS = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
    "is": operator.is_,
    "is_not": operator.is_not,
}

#: Comparison ops safe to vectorize on numeric arrays (numpy semantics match
#: Python's for int/bool operands).
_VECTOR_CMP = {"lt", "le", "gt", "ge", "eq", "ne"}


class Compare(ColExpr):
    """One binary comparison; numeric operands vectorize, the rest go per row."""

    __slots__ = ("op", "left", "right")
    is_bool = True

    def __init__(self, op: str, left: Operand, right: Operand) -> None:
        self.op = op
        self.left = left
        self.right = right
        self.key = ("cmp", op, left.key, right.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        left_col = self.left.eval(chunk) if isinstance(self.left, ColExpr) else None
        right_col = self.right.eval(chunk) if isinstance(self.right, ColExpr) else None
        if (
            self.op in _VECTOR_CMP
            and _is_int_operand(self.left, left_col)
            and _is_int_operand(self.right, right_col)
        ):
            values = _CMP_OPS[self.op](
                _numeric_value(self.left, left_col), _numeric_value(self.right, right_col)
            )
            errors = _merge_errors(
                left_col.errors if left_col is not None else None,
                right_col.errors if right_col is not None else None,
            )
            if errors:
                values = values.copy()
                values[np.fromiter(errors, dtype=np.int64)] = False
            return Column(values, errors or None)
        a_rows, a_errors = _rowlist(self.left, chunk)
        b_rows, b_errors = _rowlist(self.right, chunk)
        values, errors = _map2(
            chunk.num_rows, a_rows, a_errors, b_rows, b_errors, _CMP_OPS[self.op]
        )
        return _bool_column(values, errors)


class ConstBool(ColExpr):
    """A boolean constant broadcast over the chunk (folded conditions)."""

    __slots__ = ("value",)
    is_bool = True

    def __init__(self, value: bool) -> None:
        self.value = bool(value)
        self.key = ("boolconst", self.value)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        return Column(np.full(chunk.num_rows, self.value, dtype=bool), None)


class BoolAnd(ColExpr):
    """Short-circuit ``and`` of two boolean columns with error masking."""

    __slots__ = ("left", "right")
    is_bool = True

    def __init__(self, left: ColExpr, right: ColExpr) -> None:
        self.left = left
        self.right = right
        self.key = ("and", left.key, right.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        n = chunk.num_rows
        left = self.left.eval(chunk)
        right = self.right.eval(chunk)
        left_mask = as_bool_mask(left, n)
        values = left_mask & as_bool_mask(right, n)
        errors = dict(left.errors) if left.errors else {}
        if right.errors:
            # Short-circuit fidelity: the right operand only runs (and can
            # only raise) where the left operand was truthy.
            for row, exc in right.errors.items():
                if row not in errors and left_mask[row]:
                    errors[row] = exc
        if errors:
            values = values.copy() if values is left_mask else values
            values[np.fromiter(errors, dtype=np.int64)] = False
        return Column(values, errors or None)


class BoolOr(ColExpr):
    """Short-circuit ``or`` of two boolean columns with error masking."""

    __slots__ = ("left", "right")
    is_bool = True

    def __init__(self, left: ColExpr, right: ColExpr) -> None:
        self.left = left
        self.right = right
        self.key = ("or", left.key, right.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        n = chunk.num_rows
        left = self.left.eval(chunk)
        right = self.right.eval(chunk)
        left_mask = as_bool_mask(left, n)
        values = left_mask | as_bool_mask(right, n)
        errors = dict(left.errors) if left.errors else {}
        if right.errors:
            for row, exc in right.errors.items():
                if row not in errors and not left_mask[row]:
                    errors[row] = exc
        if errors:
            values = values.copy() if values is left_mask else values
            values[np.fromiter(errors, dtype=np.int64)] = False
        return Column(values, errors or None)


class NotCol(ColExpr):
    """Boolean negation."""

    __slots__ = ("child",)
    is_bool = True

    def __init__(self, child: ColExpr) -> None:
        self.child = child
        self.key = ("not", child.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        column = self.child.eval(chunk)
        values = ~as_bool_mask(column, chunk.num_rows)
        if column.errors:
            values[np.fromiter(column.errors, dtype=np.int64)] = False
        return Column(values, column.errors)


class Truthy(ColExpr):
    """``bool(value)`` per row — a condition-position truthiness proxy."""

    __slots__ = ("child",)
    is_bool = True
    cond_only = True

    def __init__(self, child: ColExpr) -> None:
        self.child = child
        self.key = ("truthy", child.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        column = self.child.eval(chunk)
        values = column.values
        if isinstance(values, np.ndarray) and values.dtype == np.bool_:
            return column
        if isinstance(values, np.ndarray) and values.dtype.kind == "U":
            # String truthiness is non-emptiness.
            return Column(values != "", column.errors)
        if isinstance(values, np.ndarray) and values.dtype != object:
            return Column(values != 0, column.errors)
        rows, errors = _map1(chunk.num_rows, values.tolist(), column.errors, bool)
        return _bool_column(rows, errors)


class IfExpCol(ColExpr):
    """Conditional expression merge with branch-selected error masking."""

    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: ColExpr, then: Operand, other: Operand) -> None:
        self.cond = cond
        self.then = then
        self.other = other
        self.key = ("ifexp", cond.key, then.key, other.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        n = chunk.num_rows
        cond = self.cond.eval(chunk)
        mask = as_bool_mask(cond, n)
        then_rows, then_errors = _rowlist(self.then, chunk)
        other_rows, other_errors = _rowlist(self.other, chunk)
        errors = dict(cond.errors) if cond.errors else {}
        if then_errors:
            for row, exc in then_errors.items():
                if row not in errors and mask[row]:
                    errors[row] = exc
        if other_errors:
            for row, exc in other_errors.items():
                if row not in errors and not mask[row]:
                    errors[row] = exc
        values = [
            t if m else o for m, t, o in zip(mask.tolist(), then_rows, other_rows)
        ]
        return make_column(values, errors or None)


class TupleCol(ColExpr):
    """Per-row container literal (tuple / list / set of item expressions)."""

    __slots__ = ("items", "kind")

    _BUILDERS = {"tuple": tuple, "list": list, "set": set}

    def __init__(self, items: Sequence[Operand], kind: str = "tuple") -> None:
        self.items = tuple(items)
        self.kind = kind
        self.key = ("container", kind) + tuple(item.key for item in self.items)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        build = self._BUILDERS[self.kind]
        rows_per_item = []
        error_dicts = []
        for item in self.items:
            rows, errors = _rowlist(item, chunk)
            rows_per_item.append(rows)
            error_dicts.append(errors)
        errors = _merge_errors(*error_dicts)
        # zip() stops at the finite column operands (at least one exists;
        # all-constant containers are folded by the compiler).
        if self.kind == "tuple":
            values = list(zip(*rows_per_item))
        else:
            values = [build(t) for t in zip(*rows_per_item)]
        return _object_column(values, errors or None)


_BIN_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "truediv": operator.truediv,
    "floordiv": operator.floordiv,
    "mod": operator.mod,
    "pow": operator.pow,
    "and_": operator.and_,
    "or_": operator.or_,
    "xor": operator.xor,
}

class BinCol(ColExpr):
    """Binary operator (arithmetic, set algebra) over two operands.

    ``vectorize`` is granted by the *compiler* only for add/sub over
    magnitude-bounded integer operands — a blanket int64 fast path could
    silently wrap where Python promotes to big ints.
    """

    __slots__ = ("op", "left", "right", "vectorize")

    def __init__(self, op: str, left: Operand, right: Operand, vectorize: bool = False):
        self.op = op
        self.left = left
        self.right = right
        self.vectorize = vectorize
        self.key = ("bin", op, left.key, right.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        left_col = self.left.eval(chunk) if isinstance(self.left, ColExpr) else None
        right_col = self.right.eval(chunk) if isinstance(self.right, ColExpr) else None
        if (
            self.vectorize
            and _is_int_operand(self.left, left_col)
            and _is_int_operand(self.right, right_col)
        ):
            values = _BIN_OPS[self.op](
                _numeric_value(self.left, left_col), _numeric_value(self.right, right_col)
            )
            errors = _merge_errors(
                left_col.errors if left_col is not None else None,
                right_col.errors if right_col is not None else None,
            )
            return Column(values, errors or None)
        a_rows, a_errors = _rowlist(self.left, chunk)
        b_rows, b_errors = _rowlist(self.right, chunk)
        values, errors = _map2(
            chunk.num_rows, a_rows, a_errors, b_rows, b_errors, _BIN_OPS[self.op]
        )
        return make_column(values, errors)


class NegCol(ColExpr):
    """Unary minus."""

    __slots__ = ("child",)

    def __init__(self, child: ColExpr) -> None:
        self.child = child
        self.key = ("neg", child.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        column = self.child.eval(chunk)
        if isinstance(column.values, np.ndarray) and column.values.dtype == np.int64:
            return Column(-column.values, column.errors)
        values, errors = _map1(
            chunk.num_rows, column.values.tolist(), column.errors, operator.neg
        )
        return make_column(values, errors)


class LenCol(ColExpr):
    """``len(value)`` per row as an int64 column."""

    __slots__ = ("child",)

    def __init__(self, child: ColExpr) -> None:
        self.child = child
        self.key = ("len", child.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        column = self.child.eval(chunk)
        values, errors = _map1(chunk.num_rows, column.values.tolist(), column.errors, len)
        if errors:
            values = [0 if i in errors else v for i, v in enumerate(values)]
        return Column(np.asarray(values, dtype=np.int64), errors)


class Branch:
    """One compiled return site: guard (path condition) and leaf."""

    __slots__ = ("guard", "value", "column")

    def __init__(
        self,
        guard: Optional[ColExpr],
        value: Optional[int] = None,
        column: Optional[ColExpr] = None,
    ) -> None:
        self.guard = guard
        self.value = value
        self.column = column


class CompiledProgram:
    """A compiled LF body: ordered branches over columnar expressions.

    :meth:`evaluate` returns ``(labels, errors)`` — an ``(n,)`` int64 label
    array (0 = abstain) and a per-row exception dict — bit-identical in
    labels and error placement to running the wrapped
    :class:`LabelingFunction` on every candidate.
    """

    __slots__ = ("branches", "lf_name", "cardinality", "reads")

    def __init__(
        self, branches: Sequence[Branch], lf_name: str, cardinality: int, reads=((), (), ())
    ) -> None:
        self.branches = list(branches)
        self.lf_name = lf_name
        self.cardinality = cardinality
        #: What compiling read off constants: ``(owner, attribute, value)``
        #: per attribute read, then the mutable containers whose contents a
        #: fold read beside a shallow copy of each, taken then (see
        #: ``repro.labeling.pushdown.task._ConstantRefs``).
        self.reads = reads

    def evaluate(self, chunk: ColumnarChunk) -> tuple[np.ndarray, dict[int, BaseException]]:
        n = chunk.num_rows
        labels = np.zeros(n, dtype=np.int64)
        undecided = np.ones(n, dtype=bool)
        errors: dict[int, BaseException] = {}
        for branch in self.branches:
            if not undecided.any():
                break
            if branch.guard is None:
                take = undecided.copy()
            else:
                guard = branch.guard.eval(chunk)
                if guard.errors:
                    for row, exc in guard.errors.items():
                        if undecided[row]:
                            errors[row] = exc
                            undecided[row] = False
                take = undecided & as_bool_mask(guard, n)
            if branch.column is None:
                if branch.value:
                    labels[take] = branch.value
                undecided &= ~take
                continue
            column = branch.column.eval(chunk)
            decided = take.copy()
            if column.errors:
                for row, exc in column.errors.items():
                    if take[row]:
                        errors[row] = exc
                        take[row] = False
            self._canonicalize_into(labels, column, take, errors)
            undecided &= ~decided
        return labels, errors

    # ------------------------------------------------------- canonicalization
    def _canonicalize_into(
        self,
        labels: np.ndarray,
        column: Column,
        take: np.ndarray,
        errors: dict[int, BaseException],
    ) -> None:
        """Scatter canonical labels for ``take`` rows, mirroring
        :func:`~repro.labeling.lf.canonical_label` (including its error text)."""
        values = column.values
        if isinstance(values, np.ndarray) and values.dtype == np.bool_:
            # Exact Python bools only (see make_column): True → +1, False → -1
            # before any range check, exactly like the interpreted branch.
            labels[take] = np.where(values[take], POSITIVE, NEGATIVE)
            return
        if isinstance(values, np.ndarray) and values.dtype == np.int64:
            # Exact Python ints only: the vectorized range check.
            if self.cardinality == 2:
                bad = take & ((values < -1) | (values > 1))
            else:
                bad = take & ((values < 0) | (values > self.cardinality))
            for row in np.nonzero(bad)[0].tolist():
                try:
                    canonical_label(int(values[row]), self.lf_name, self.cardinality)
                except LabelingError as exc:  # always: the value is out of range
                    errors[row] = exc
                take[row] = False
            labels[take] = values[take]
            return
        rows = values.tolist()
        for row in np.nonzero(take)[0]:
            try:
                labels[row] = canonical_label(rows[row], self.lf_name, self.cardinality)
            except LabelingError as exc:
                errors[int(row)] = exc
                take[row] = False
