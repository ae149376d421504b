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
chunk.  There are nine kinds:

* :class:`FieldCol` — a candidate field, read once per chunk;
* :class:`Elementwise` — one row function over column and constant
  operands: comparisons, membership, truthiness, ``not``, ``normalize``,
  the one-argument builtins and tuple/list/set displays, with a numpy and
  a ``str`` fast path as data on the node;
* :class:`ShortCircuit` — ``and`` / ``or``;
* :class:`IfExpCol` — a conditional expression;
* :class:`MapElems` — a comprehension over a sequence column;
* :class:`RegexSearch` — a compiled pattern's ``search`` / ``match`` /
  ``fullmatch``;
* the token kernels :class:`TokenScan` (a first-match loop) and
  :class:`TokenMatch` (keyword membership, phrase, non-emptiness), with
  :class:`_ScanLabels`, the labels a scan's match arm returned.

Two disciplines keep compiled output bit-identical to the interpreted path:

* **Error masking.** Any per-row evaluation may raise (``normalize(None)``,
  regex on a non-string); exceptions are carried per row in
  ``Column.errors`` and masked by the short-circuit structure —
  :class:`ShortCircuit` keeps a right-operand error only where the left
  operand did not decide the row, :class:`IfExpCol` keeps a branch error
  only where the condition selected that branch, and an
  :class:`Elementwise` row keeps its leftmost operand's error — so a
  compiled LF errors on exactly the rows where the interpreted LF would
  have raised, with the same exception.
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
from functools import partial
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
from repro.labeling.pushdown.fields import (
    Column,
    ColumnarChunk,
    bool_column,
    make_column,
    object_column,
)
from repro.utils import tokens as token_table
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


def _rowlist(operand: Operand, chunk: ColumnarChunk):
    """Python-object row values for an operand: ``(rows, errors)``.

    Numeric columns go through ``tolist`` so per-row evaluation sees exact
    Python ints/bools (numpy scalars have different ``/`` and ``isinstance``
    semantics than the interpreted path); a constant repeats once per row.
    """
    if isinstance(operand, K):
        return [operand.value] * chunk.num_rows, None
    column = operand.eval(chunk)
    return column.values.tolist(), column.errors


def _map(fn: Callable, rows: list, errors: Optional[dict]):
    """``fn(*args)`` per row of the operand row lists ``rows``: ``(values, errors)``.

    A row in ``errors`` (its operands' errors, merged leftmost first: the
    one the interpreted expression raises) is skipped; a row on which
    ``fn`` raises records that exception.
    """
    if not errors:
        # map() iterates at C speed; it raises at the same row a manual loop
        # would, at which point the slow path takes over from scratch.
        try:
            return list(map(fn, *rows)), None
        except Exception:
            pass
    out, errors = [None] * len(rows[0]), dict(errors or ())
    for i, args in enumerate(zip(*rows)):
        if i not in errors:
            try:
                out[i] = fn(*args)
            except Exception as exc:  # noqa: BLE001 - faithful per-row capture
                errors[i] = exc
    return out, errors or None


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


class Elementwise(ColExpr):
    """One row function over column and constant operands.

    ``fn(*values)`` runs per row, mapped over the operands' row lists at C
    speed (:func:`_map`); a row keeps the error of its leftmost operand that
    raised, or the one ``fn`` raised.  ``build`` makes the column of the
    results (:func:`bool_column`, ``make_column`` or ``object_column``); a
    ``packed`` node hands ``fn`` the row's operand values as one tuple (a
    tuple, list or set display).  Two fast paths are data on the node:

    * ``vector``, a numpy function returning a new bool array, runs on the
      operands instead when every one is an exact-int/bool array or an
      ``int`` constant within int64 (comparisons, truthiness, negation);
    * ``strfn``, a C row function, runs instead when every row of the one
      operand is a ``str`` (``normalize``'s ``str.lower``).

    The compiler gives every node the structural key of the expression it
    stands for.
    """

    __slots__ = ("operands", "fn", "build", "packed", "vector", "strfn", "is_bool", "cond_only")

    def __init__(
        self,
        key: tuple,
        fn: Callable,
        operands: Sequence[Operand],
        build: Callable = bool_column,
        packed: bool = False,
        vector: Optional[Callable] = None,
        strfn: Optional[Callable] = None,
        cond_only: bool = False,
    ) -> None:
        self.key = key
        self.fn = fn
        self.operands = tuple(operands)
        self.build = build
        self.packed = packed
        self.vector = vector
        self.strfn = strfn
        self.is_bool = build is bool_column
        self.cond_only = cond_only

    def _compute(self, chunk: ColumnarChunk) -> Column:
        vector, values, errors = self.vector, [], {}
        for operand in self.operands:
            if type(operand) is K:
                value = operand.value
                # numpy refuses an int beyond int64 against a bool array.
                vector = vector if type(value) is int and -(2**63) <= value < 2**63 else None
            else:
                column = operand.eval(chunk)
                value = column.values
                vector = vector if value.dtype != object else None
                if column.errors:
                    errors = {**column.errors, **errors}  # the leftmost operand's wins
            values += (value,)
        if vector is not None:
            out = vector(*values)
            if errors:
                out[list(errors)] = False
            return Column(out, errors)
        n = chunk.num_rows
        rows = [v.tolist() if type(o) is not K else [v] * n for o, v in zip(self.operands, values)]
        if self.packed:
            rows = [list(zip(*rows))]
        elif self.strfn is not None and not errors and not set(map(type, rows[0])) - {str}:
            return object_column(list(map(self.strfn, rows[0])))
        return self.build(*_map(self.fn, rows, errors))


class MapElems(ColExpr):
    """A comprehension over a sequence column: one container per row."""

    __slots__ = ("child", "elem_fn", "kind", "filter_fn")

    _BUILDERS = {"list": list, "set": set}

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
        return object_column(*_map(row_fn, [column.values.tolist()], column.errors))


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
                    probed: Any = rows
                    if self.ignorecase:  # one lowered copy per column, shared by its regexes
                        key = ("lower", self.child.key)
                        probed = chunk.get(key) or chunk.put(key, list(map(str.lower, rows)))
                    hits = [i for i, v in enumerate(probed) if literal in v]
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
        return bool_column(*_map(lambda v: method(v) is not None, [rows], column.errors))


class _TokenIndex:
    """Flattened view of a token-sequence column, built once per chunk.

    Every flat token has an id in the process's token table
    (:mod:`repro.utils.tokens`): for the sentence words these are the ids
    the block looked up for both of its readers (:meth:`~repro.labeling.
    pushdown.fields.ColumnarChunk.word_ids`), for any other column they are
    looked up here.  The distinct ids of the chunk (``ids``), each flat
    token's position among them (``inverse``) and its row (``row_of``)
    follow by array ops, so the token kernels over the column
    (:func:`_resolve`) run over the few distinct tokens and gather their
    outcomes back through ``inverse`` instead of sweeping every token again.
    The rows the kernels cannot vouch for — rows that are not
    ``list``/``tuple``, or rows holding a token that is not exactly a
    ``str`` — count as empty, are collected in ``fallback_rows``, and take
    each kernel's exact per-row Python path.
    """

    __slots__ = ("rows", "row_of", "fallback_rows", "table", "ids", "inverse")

    def __init__(self, column: Column, n: int, words: Optional[tuple] = None) -> None:
        rows = column.values.tolist()
        table, flat_ids, lengths, fallback = words or token_table.token_rows(rows)
        present = np.zeros(len(table.tokens), dtype=bool)
        present[flat_ids] = True
        ids = present.nonzero()[0]
        position = np.zeros(present.size, dtype=np.int64)
        position[ids] = np.arange(ids.size)
        self.rows = rows
        self.row_of = np.arange(n).repeat(lengths)
        self.fallback_rows = fallback
        self.table = table
        self.ids = ids
        self.inverse = position[flat_ids]


def _token_index(chunk: ColumnarChunk, child: ColExpr, column: Column) -> _TokenIndex:
    key = ("tokidx", child.key)
    index = chunk.get(key)
    if index is None:
        words = chunk.word_ids() if child.key == _WORDS_KEY and column.errors is None else None
        index = chunk.put(key, _TokenIndex(column, chunk.num_rows, words))  # type: ignore[arg-type]
    return index  # type: ignore[return-value]


class TokenScan(ColExpr):
    """First-match scan of a token-sequence column: the loop

    ``for t in row: if pred(t): return arm(t)``

    per row, where ``arm`` runs the match arm and canonicalizes what it
    returns (a constant return is an arm that ignores ``t``; only a
    membership test with a constant return lowers to :class:`TokenMatch`
    instead).  The node is the loop's guard — true where some token matched —
    and :attr:`labels` is the leaf holding the canonical label that match
    returned.  ``pred`` and ``arm`` are the exact Python closures, run once
    per distinct token (:meth:`_sweep`); the node itself is resolved with
    every other token kernel of its plan over the same source column
    (:func:`_resolve`).
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

    def _compute(self, chunk: ColumnarChunk) -> Column:
        groups = chunk.token_groups
        _resolve(chunk, groups.get(self.key, (self,)) if groups else (self,))
        return chunk.get(self.key)  # type: ignore[return-value]

    def _scan_row(self, row) -> tuple[bool, int]:
        """The exact per-row loop: ``(matched, label)``."""
        pred = self.pred
        for token in row:
            if pred(token):
                return True, self.arm(token)
        return False, 0

    def _sweep(self, tokens: list) -> list:
        """Each token's outcome: ``_NO_MATCH``, ``_RAISED``, or
        ``label << 2 | _MATCH`` for a match whose arm returned ``label``."""
        pred, arm = self.pred, self.arm
        try:
            return [arm(token) << 2 | _MATCH if pred(token) else _NO_MATCH for token in tokens]
        except Exception:  # noqa: BLE001 - find the tokens whose pred or arm raised
            outcomes = []
        for token in tokens:
            try:
                outcomes.append(arm(token) << 2 | _MATCH if pred(token) else _NO_MATCH)
            except Exception:  # noqa: BLE001 - its rows rerun the exact loop
                outcomes.append(_RAISED)
        return outcomes


def _no_label(token: str) -> int:
    return 0


class TokenMatch(TokenScan):
    """Any-token predicate over a token-sequence column: a :class:`TokenScan`
    whose test is a C-level callable and whose match carries no label.

    The compiler lowers three idioms to this node: keyword membership — the
    first-match loop ``for t in seq: if normalize(t) in VOCAB: return K``
    and ``bool({normalize(t) for t in seq} & VOCAB)`` (mode ``"isin"``) —
    single-token phrase containment over a normalized list (``"eq"``), and
    non-emptiness of a derived container (``"nonempty"``).  Each distinct
    token is lowercased (``str.lower``) when the idiom normalizes and tested
    as the Python ``str`` it is — by the vocabulary's own ``__contains__``,
    or ``==`` with the phrase token — in one ``map`` with no Python frame
    per token.  Rows the index cannot vouch for, and rows holding a token
    whose test raised, take ``row_fallback``, the exact per-row Python
    equivalent, so values and errors stay those of the interpreted path.
    """

    __slots__ = ("mode", "needle", "lower", "row_fallback")
    cond_only = False

    def __init__(
        self,
        child: ColExpr,
        mode: str,
        needle: Any,
        lower: bool,
        row_fallback: Callable,
    ) -> None:
        self.child = child
        self.pred = partial(operator.eq if mode == "eq" else operator.contains, needle)
        self.arm = _no_label
        self.mode = mode  # "eq" | "isin" | "nonempty"
        self.needle = needle
        self.lower = lower
        self.row_fallback = row_fallback
        self.key = ("tokmatch", mode, bool(lower), const_key(needle), child.key)
        self.labels = None

    def _scan_row(self, row) -> tuple[bool, int]:
        return bool(self.row_fallback(row)), 0

    def _sweep(self, tokens: list) -> list:
        if self.mode == "nonempty":
            return [_MATCH] * len(tokens)
        tokens = list(map(str.lower, tokens)) if self.lower else tokens
        try:
            return np.fromiter(map(self.pred, tokens), bool, len(tokens)) * 2 + _NO_MATCH
        except Exception:  # noqa: BLE001 - find the tokens whose test raised
            return TokenScan._sweep(self, tokens)


#: Token outcome codes (the low two bits; 0 is "not yet known"); a match
#: is ``_NO_MATCH + 2``.
_NO_MATCH, _RAISED, _MATCH = 1, 2, 3

_WORDS_KEY = ("field", ("sentence", "words"))


def _outcomes(chunk: ColumnarChunk, index: _TokenIndex, kernels: tuple) -> np.ndarray:
    """Each kernel's outcome (:meth:`TokenScan._sweep`) per distinct token
    of ``index``: a ``kernels`` × ``index.ids`` matrix.

    Outcomes are kept in the chunk's ``memo`` (the plan's, one apply call
    long, and never longer: a constant a kernel reads when it runs may
    change between calls) by token id of ``index.table``, so each kernel
    tests a token once per apply call, not once per chunk.  A token is
    swept again unless every kernel's outcome for it is known (another
    thread may be half way through storing them).
    """
    memo, table, ids = chunk.memo, index.table, index.ids
    state = memo.get(kernels) if memo is not None else None
    fresh = state is None or state[0] is not table
    known = np.zeros((len(kernels), 0), np.int64) if fresh else state[1]
    outcomes = np.zeros((len(kernels), ids.size), np.int64)
    seen = ids < known.shape[1]
    outcomes[:, seen] = known[:, ids[seen]]
    todo = (outcomes == 0).any(axis=0).nonzero()[0]
    if todo.size:
        tokens = list(map(table.tokens.__getitem__, ids[todo].tolist()))
        for row, kernel in enumerate(kernels):
            outcomes[row, todo] = kernel._sweep(tokens)
        if memo is not None and len(table.tokens) <= token_table.TABLE_CAP:
            if known.shape[1] <= ids[-1]:
                grown = np.zeros((len(kernels), len(table.tokens)), np.int64)
                grown[:, : known.shape[1]] = known
                known = grown
            known[:, ids[todo]] = outcomes[:, todo]
            memo[kernels] = (table, known)
    return outcomes


def _resolve(chunk: ColumnarChunk, kernels: tuple) -> None:
    """Evaluate ``kernels`` — token kernels over one source column — at once,
    leaving each one's hit column (and a scan's labels) in the chunk cache.

    The kernels' per-token outcomes (:func:`_outcomes`) go through
    ``inverse`` in one gather, and one ``nonzero`` lists every (kernel,
    position) that matched, ordered, so the first pair of each (kernel,
    row) is that row's first match.  Rows the index cannot vouch for, rows
    holding a token on which a kernel raised, and nothing else, take the
    kernel's exact per-row path (:meth:`TokenScan._scan_row`); rows whose
    column read raised keep that error.
    """
    child = kernels[0].child
    column = child.eval(chunk)
    index = _token_index(chunk, child, column)
    outcomes = _outcomes(chunk, index, kernels)
    kinds, inverse, n = outcomes & 3, index.inverse, chunk.num_rows
    found, position = (kinds == _MATCH)[:, inverse].nonzero()
    cell = found * n + index.row_of[position]
    first = np.empty(cell.size, dtype=bool)
    first[:1] = True
    first[1:] = cell[1:] != cell[:-1]
    hits = np.zeros((len(kernels), n), dtype=bool)
    hits.flat[cell[first]] = True
    labels = np.zeros((len(kernels), n), dtype=np.int64)
    labels.flat[cell[first]] = (outcomes >> 2)[found[first], inverse[position[first]]]
    raised: dict[int, set] = {}
    if (kinds == _RAISED).any():
        found, position = (kinds == _RAISED)[:, inverse].nonzero()
        for k, row in zip(found.tolist(), index.row_of[position].tolist()):
            raised.setdefault(k, set()).add(row)
    for k, kernel in enumerate(kernels):
        hit, label, errors = hits[k], labels[k], dict(column.errors or ())
        slow = index.fallback_rows.union(raised.get(k, ())) if raised else index.fallback_rows
        for i in sorted(slow) if slow else ():
            if i in errors:
                continue
            try:
                hit[i], label[i] = kernel._scan_row(index.rows[i])
            except Exception as exc:  # noqa: BLE001 - faithful capture
                errors[i] = exc
        if errors:
            hit[np.fromiter(errors, dtype=np.int64)] = False
        chunk.put(kernel.key, Column(hit, errors))
        if kernel.labels is not None:
            chunk.put(kernel.labels.key, Column(label))


def token_groups(programs) -> dict:
    """Each token kernel's key → the kernels of ``programs`` over its source
    column, one per key: what :func:`_resolve` evaluates together."""
    columns: dict = {}
    for program in programs:
        for kernel in program.kernels:
            columns.setdefault(kernel.child.key, {}).setdefault(kernel.key, kernel)
    groups: dict = {}
    for kernels in columns.values():
        groups.update(dict.fromkeys(kernels, tuple(kernels.values())))
    return groups


class _ScanLabels(ColExpr):
    """The canonical labels a :class:`TokenScan` leaves beside its hits."""

    __slots__ = ("scan",)

    def __init__(self, scan: TokenScan) -> None:
        self.scan = scan
        self.key = ("scanlabels", scan.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        self.scan.eval(chunk)
        return chunk.get(self.key)  # type: ignore[return-value]


class ShortCircuit(ColExpr):
    """Short-circuit ``and`` / ``or`` of two boolean columns with error masking.

    The right operand runs, and can raise, only on the rows the left one
    does not decide: where it is truthy for ``and``, falsy for ``or``.
    """

    __slots__ = ("left", "right", "is_and")
    is_bool = True

    def __init__(self, is_and: bool, left: ColExpr, right: ColExpr) -> None:
        self.left = left
        self.right = right
        self.is_and = is_and
        self.key = ("and" if is_and else "or", left.key, right.key)

    def _compute(self, chunk: ColumnarChunk) -> Column:
        n = chunk.num_rows
        left = self.left.eval(chunk)
        right = self.right.eval(chunk)
        left_mask = as_bool_mask(left, n)
        right_mask = as_bool_mask(right, n)
        values = left_mask & right_mask if self.is_and else left_mask | right_mask
        errors = dict(left.errors) if left.errors else {}
        if right.errors:
            for row, exc in right.errors.items():
                if row not in errors and left_mask[row] == self.is_and:
                    errors[row] = exc
        if errors:
            values[np.fromiter(errors, dtype=np.int64)] = False
        return Column(values, errors or None)


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

    __slots__ = ("branches", "lf_name", "cardinality", "reads", "kernels")

    def __init__(
        self, branches: Sequence[Branch], lf_name: str, cardinality: int, reads=((), ())
    ) -> None:
        self.branches = list(branches)
        self.lf_name = lf_name
        self.cardinality = cardinality
        #: What compiling read off constants: ``(owner, attribute, value)``
        #: per attribute read, then ``(value, encoding)`` per unhashable
        #: constant whose contents a fold read, its
        #: :func:`repro.labeling.lf.encoding` taken then (see
        #: ``repro.labeling.pushdown.task._ConstantRefs``).
        self.reads = reads
        #: The token kernels the branches reach, one per key (see :func:`token_groups`).
        self.kernels: list[TokenScan] = []
        stack: list = [node for branch in self.branches for node in (branch.guard, branch.column)]
        seen: set = set()
        while stack:
            node = stack.pop()
            if isinstance(node, tuple):  # a container literal's items
                stack.extend(node)
            elif isinstance(node, ColExpr) and node.key not in seen:
                seen.add(node.key)
                if isinstance(node, TokenScan):
                    self.kernels.append(node)
                for cls in type(node).__mro__[:-2]:  # ColExpr's one slot is the key
                    stack.extend(getattr(node, slot) for slot in cls.__slots__)

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
