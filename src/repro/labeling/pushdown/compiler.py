"""Restricted symbolic execution of LF bodies into columnar programs.

:func:`compile_lf` walks the AST of a labeling function (recovered by
:mod:`repro.analysis.source`) with an abstract environment mapping names to

* ``K(value)`` — a constant resolved from the closure/globals (labels,
  compiled patterns, keyword sets, thresholds);
* a :class:`~repro.labeling.pushdown.program.ColExpr` — a per-candidate
  column expression;
* ``_Obj(kind)`` — the candidate object itself or one of its span/sentence
  sub-objects, whose attribute and method reads become
  :class:`~repro.labeling.pushdown.program.FieldCol` s.

Statements are executed symbolically: assignments bind names, ``if`` s with
constant tests fold (dead arms — like the ``raise ValueError`` else-arm of
the declarative factories' scope dispatch — are never visited), ``if`` s with
column tests fork the environment and either terminate per arm (emitting
:class:`~repro.labeling.pushdown.program.Branch` es guarded by the path
condition) or φ-merge divergent bindings through ``IfExpCol``.  Every
``return`` site becomes one branch; branches are emitted in source order,
and the evaluator's undecided-row masking reproduces first-return-wins
control flow exactly.

A ``for`` loop is accepted in one shape, the first-match scan, with no
``else`` on either statement::

    for t in <candidate sequence column>:
        if <pred(t, constants)>:
            [name = <expr(t, constants, earlier names)>]*
            return <expr>

``pred`` and every ``expr`` are *scalar* expressions (:meth:`_Compiler.
_scalar`): comparisons, ``and``/``or``/``not``, arithmetic, conditional
expressions, subscripts and constant-bound slices, allowlisted string
methods and builtins, and reads of constants — names, and attributes of a
constant such as ``self.prefix`` on a callable instance.  They become
genuine Python closures, so each evaluates, and raises, exactly as the
body's expression does.  An ``if`` inside the match arm is accepted only
when its test folds to a constant (``if self.cardinality == 2:``), and every
surviving path through the arm must ``return``.  A loop that returns a
*constant* keeps the boolean kernels — ``TokenMatch`` when the test is a
vocabulary membership, else ``AnyElem`` — and one whose return is computed
from the matched element lowers to
:class:`~repro.labeling.pushdown.program.TokenScan`, which runs the closures
once per distinct token of the chunk.

Anything outside the subset raises :class:`CompileError` — naming the
source line of the statement it was executing — and the caller falls back to
the interpreted LF: the compiler is *sound, not complete*; it may refuse, it
must never produce different labels or errors.  This module is the one
statement of the compilable subset: :func:`repro.labeling.pushdown.task.decide`
asks it, and ``analyze_lf``'s ``COMPILABLE`` / ``OPAQUE`` verdict is its
answer.

The walk follows execution paths, so statements in folded-dead arms and
after a ``return`` are never seen.  What such code changes without running
is read off the code object instead: a ``yield`` or ``await`` anywhere makes
the function a generator or coroutine (``co_flags``), and a ``del``,
``import``, ``except ... as`` or nested ``def`` binding a name anywhere makes
every read of it local (``co_varnames``).
"""

from __future__ import annotations

import ast
import copy
import inspect
import re
from operator import methodcaller
from typing import Any, Callable, Optional

from repro.analysis.source import SourceInfo, extract_source, is_unresolved
from repro.labeling.lf import canonical_label
from repro.labeling.pushdown import program as prog
from repro.labeling.pushdown.fields import (
    CANDIDATE_ATTRS,
    CANDIDATE_METHODS,
    SENTENCE_ATTRS,
    SPAN_ATTRS,
    WINDOW_METHODS,
)
from repro.labeling.pushdown.program import (
    K,
    AnyElem,
    BinCol,
    BoolAnd,
    BoolOr,
    Branch,
    ColExpr,
    Compare,
    CompiledProgram,
    ConstBool,
    Contains,
    ContainsPhrase,
    FieldCol,
    IfExpCol,
    LenCol,
    Map2,
    MapElems,
    MapRow,
    NegCol,
    NotCol,
    RegexSearch,
    StrLower,
    TokenMatch,
    TokenScan,
    Truthy,
    TupleCol,
    const_key,
)
from repro.utils.textutils import normalize as _normalize

__all__ = ["CompileError", "compile_lf"]


class CompileError(Exception):
    """The LF body fell outside the compilable subset; use the fallback."""


class _Scalar:
    """A loop match arm's local: an elementwise closure and its key."""

    __slots__ = ("fn", "key")

    def __init__(self, fn: Callable, key: tuple) -> None:
        self.fn = fn
        self.key = key


class _Obj:
    """The candidate (or one of its sub-objects) flowing through the body."""

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        self.kind = kind  # "candidate" | "span1" | "span2" | "sentence"


#: Candidate attribute aliases onto the two spans and the sentence.
_SPAN_ALIASES = {
    "span1": "span1",
    "chemical": "span1",
    "person1": "span1",
    "span2": "span2",
    "disease": "span2",
    "person2": "span2",
}
_SENTENCE_ALIASES = {"sentence": "sentence", "parent": "sentence"}

#: Pure helper functions the compiler may push into per-row kernels,
#: identified by ``(module, qualname)``.
_HELPER_NORMALIZE = ("repro.utils.textutils", "normalize")
_HELPER_CONTAINS_PHRASE = ("repro.labeling.declarative", "_contains_phrase")
_HELPER_CONTAINS_ANY = ("repro.utils.textutils", "contains_any")
_SCALAR_HELPERS = {_HELPER_NORMALIZE}

_REGEX_METHODS = {"search", "match", "fullmatch"}

#: ``_scalar`` keys identifying the two elementwise transforms whose
#: container idioms lower to the vectorized :class:`TokenMatch` kernel.
_NORMALIZE_ELEM_KEY = ("call", _HELPER_NORMALIZE, ("var",))
_IDENTITY_ELEM_KEY = ("var",)


def _phrase_check(phrase: tuple):
    """The exact single-token row check :class:`ContainsPhrase` applies."""
    first = phrase[0]

    def check(row):
        if type(row) in (list, tuple):
            return first in row
        return any(tuple(row[i : i + 1]) == phrase for i in range(len(row)))

    return check

#: Builtins allowed as single-column per-row transforms.
_ROW_BUILTINS = {
    "len", "str", "int", "float", "abs", "bool", "tuple", "list", "set",
    "frozenset", "sorted", "sum", "min", "max", "any", "all",
}
_BOOL_BUILTINS = {"bool", "any", "all"}

#: String-ish methods allowed per row on a column receiver (called through
#: ``getattr`` at runtime, so non-string rows raise exactly as interpreted).
_ROW_METHODS = {
    "lower", "upper", "strip", "lstrip", "rstrip", "title", "casefold",
    "startswith", "endswith", "find", "rfind", "count", "index",
    "split", "rsplit", "replace", "join",
    "isdigit", "isalpha", "isalnum", "islower", "isupper",
}
_BOOL_METHODS = {
    "startswith", "endswith", "isdigit", "isalpha", "isalnum", "islower", "isupper",
}

_CMP_AST = {
    ast.Lt: "lt", ast.LtE: "le", ast.Gt: "gt", ast.GtE: "ge",
    ast.Eq: "eq", ast.NotEq: "ne", ast.Is: "is", ast.IsNot: "is_not",
}
_BIN_AST = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "truediv",
    ast.FloorDiv: "floordiv", ast.Mod: "mod", ast.Pow: "pow",
    ast.BitAnd: "and_", ast.BitOr: "or_", ast.BitXor: "xor",
}

#: ``co_flags`` of a function whose call does not run its body to a ``return``.
_NOT_A_PLAIN_CALL = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR

#: Constants safe to vectorize alongside int64 field columns without any
#: risk of int64 overflow (fields themselves are bounded by make_column).
_CONST_BOUND = 2**61

#: Builtin containers whose contents can change under a compiled program.
_MUTABLE = (list, dict, set, bytearray)


def _fqn(fn: Any) -> tuple:
    return (getattr(fn, "__module__", None), getattr(fn, "__qualname__", None))


def _scalar_const(value: Any) -> tuple:
    """The ``_scalar`` pair of a constant: a closure ignoring its argument."""
    return (lambda t, v=value: v), ("k", const_key(value))


def _is_const_key(key: tuple) -> bool:
    """The ``_scalar`` key is :func:`_scalar_const`'s: the closure reads no element."""
    return key[:1] == ("k",)


def _is_atomic_int(sym: Any) -> bool:
    """Operand whose int64 magnitude is bounded (safe to vector add/sub)."""
    if isinstance(sym, K):
        return type(sym.value) is int and -_CONST_BOUND < sym.value < _CONST_BOUND
    return isinstance(sym, (FieldCol, LenCol))


def compile_lf(lf: Any, cardinality: Optional[int] = None) -> CompiledProgram:
    """Compile one LF into a :class:`CompiledProgram`, or raise
    :class:`CompileError` when the body is outside the supported subset."""
    if cardinality is None:
        declared = getattr(lf, "cardinality", None)
        cardinality = int(declared) if isinstance(declared, int) else 2
    name = getattr(lf, "name", None) or getattr(lf, "__name__", None) or type(lf).__name__
    inner = getattr(lf, "function", lf)
    info = extract_source(lf)
    if info.tree is None:
        raise CompileError(f"source {info.failure or 'unavailable'}")
    compiler = _Compiler(info, name, cardinality, instance=inner)
    try:
        return compiler.compile()
    except CompileError as exc:
        raise CompileError(f"{exc} (line {compiler.lineno})") from exc


class _Compiler:
    def __init__(self, info: SourceInfo, lf_name: str, cardinality: int, instance: Any = None):
        self.info = info
        self.lf_name = lf_name
        self.cardinality = cardinality
        self.instance = instance
        self.branches: list[Branch] = []
        self.assigned: set[str] = set()
        #: What folds read off constants (see ``CompiledProgram.reads``):
        #: ``(owner, attribute, value)`` per attribute read, and a shallow
        #: copy per mutable container whose contents were read.
        self.attributes: list[tuple] = []
        self.contents: dict[int, tuple] = {}
        #: Source line of the statement being executed; a refusal names it.
        self.lineno: int = info.tree.lineno

    # ------------------------------------------------------------- top level
    def compile(self) -> CompiledProgram:
        tree = self.info.tree
        code = self.info.function.__code__
        if code.co_flags & _NOT_A_PLAIN_CALL:
            # Calling it returns a generator / coroutine object, whatever
            # the path the walk below would follow returns.
            raise CompileError("generator or coroutine function")
        env = self._initial_env(tree)
        self.assigned.update(code.co_varnames, code.co_cellvars)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.assigned.add(node.id)
        if isinstance(tree, ast.Lambda):
            self._emit_return(tree.body, env, None)
        else:
            # Falling off the end returns None → abstain; rows reaching
            # there are exactly the still-undecided ones, already 0.
            self._block(tree.body, env, None)
        if not self.branches:
            raise CompileError("no return sites compiled")
        values, copies = zip(*self.contents.values()) if self.contents else ((), ())
        reads = (tuple(self.attributes), values, copies)
        return CompiledProgram(self.branches, self.lf_name, self.cardinality, reads)

    def _read(self, *values: Any) -> None:
        """A fold read the contents of ``values``: keep a copy of each that can change."""
        for value in values:
            if isinstance(value, _MUTABLE):
                self.contents.setdefault(id(value), (value, copy.copy(value)))

    def _getattr(self, owner: Any, attr: str) -> Any:
        """``getattr`` on a constant, recorded so a rebinding invalidates the program."""
        value = getattr(owner, attr)
        self.attributes.append((owner, attr, value))
        return value

    def _initial_env(self, tree: ast.AST) -> dict:
        args = tree.args
        names = [arg.arg for arg in args.posonlyargs + args.args]
        if args.vararg or args.kwarg or args.kwonlyargs:
            raise CompileError("*args/**kwargs/keyword-only parameters")
        env: dict[str, Any] = {}
        index = 0
        if names and names[0] == "self":
            if self.instance is None or not callable(self.instance):
                raise CompileError("unbound self parameter")
            env["self"] = K(self.instance)
            index = 1
        if index >= len(names):
            raise CompileError("no candidate parameter")
        env[names[index]] = _Obj("candidate")
        extra = names[index + 1 :]
        defaults = getattr(self.info.function, "__defaults__", None) or ()
        if len(extra) > len(defaults):
            raise CompileError("extra parameters without defaults")
        for param, value in zip(extra, defaults[len(defaults) - len(extra) :]):
            env[param] = K(value)
        return env

    # ------------------------------------------------------------ statements
    def _block(self, stmts: list, env: dict, path: Optional[ColExpr]) -> bool:
        """Symbolically execute a statement list; True when every row on
        this path has returned."""
        for stmt in stmts:
            self.lineno = stmt.lineno
            if isinstance(stmt, ast.Return):
                self._emit_return(stmt.value, env, path)
                return True
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Assign):
                if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
                    raise CompileError("non-name assignment target")
                env[stmt.targets[0].id] = self._value_sym(stmt.value, env)
                continue
            if isinstance(stmt, ast.AnnAssign):
                if stmt.value is None or not isinstance(stmt.target, ast.Name):
                    raise CompileError("annotation-only assignment")
                env[stmt.target.id] = self._value_sym(stmt.value, env)
                continue
            if isinstance(stmt, ast.If):
                cond = self._condition(stmt.test, env)
                if isinstance(cond, K):
                    live = stmt.body if cond.value else stmt.orelse
                    if live and self._block(live, env, path):
                        return True
                    continue
                then_env = dict(env)
                else_env = dict(env)
                then_term = self._block(stmt.body, then_env, self._and(path, cond))
                negated = self._negate(cond)
                else_term = (
                    self._block(stmt.orelse, else_env, self._and(path, negated))
                    if stmt.orelse
                    else False
                )
                if then_term and else_term:
                    return True
                if then_term:
                    env.clear()
                    env.update(else_env)
                    path = self._and(path, negated)
                    continue
                if else_term:
                    env.clear()
                    env.update(then_env)
                    path = self._and(path, cond)
                    continue
                merged = self._phi(then_env, else_env, cond)
                env.clear()
                env.update(merged)
                continue
            if isinstance(stmt, ast.For):
                self._compile_any_loop(stmt, env, path)
                continue
            raise CompileError(f"unsupported statement {type(stmt).__name__}")
        return False

    def _phi(self, then_env: dict, else_env: dict, cond: ColExpr) -> dict:
        merged: dict[str, Any] = {}
        for name, then_sym in then_env.items():
            if name not in else_env:
                continue  # conditionally bound; later reads fail → fallback
            else_sym = else_env[name]
            if then_sym is else_sym:
                merged[name] = then_sym
                continue
            if isinstance(then_sym, _Obj) or isinstance(else_sym, _Obj):
                if isinstance(then_sym, _Obj) and isinstance(else_sym, _Obj):
                    if then_sym.kind == else_sym.kind:
                        merged[name] = then_sym
                continue
            if then_sym.key == else_sym.key:
                merged[name] = then_sym
                continue
            merged[name] = IfExpCol(cond, then_sym, else_sym)
        return merged

    def _compile_any_loop(self, stmt: ast.For, env: dict, path: Optional[ColExpr]) -> None:
        """The one loop shape (see the module docstring) → one branch."""
        body = stmt.body
        if (
            stmt.orelse
            or not isinstance(stmt.target, ast.Name)
            or len(body) != 1
            or not isinstance(body[0], ast.If)
            or body[0].orelse
        ):
            raise CompileError("loop outside the first-match idiom")
        sequence = self._value_sym(stmt.iter, env)
        if not isinstance(sequence, ColExpr):
            raise CompileError("loop iterable is not a candidate column")
        var = stmt.target.id
        test = body[0].test
        steps: list = []
        scalars = dict(env)  # arm-local bindings die with the return
        returned = self._match_arm(body[0].body, var, env, scalars, steps)
        if returned is None:
            raise CompileError("loop match arm can fall through")
        constant = None
        if not steps:
            try:
                constant = self._value_sym(returned, env)
            except CompileError:
                pass  # reads the matched element: the scan kernel's case
        if constant is not None:
            if not isinstance(constant, K):
                raise CompileError("loop return value is not a constant")
            value = self._canonical_const(constant.value)
            cond = self._specialize_membership(test, var, env, sequence)
            if cond is None:
                pred, pred_key = self._scalar(test, var, env)
                cond = AnyElem(sequence, pred, pred_key)
            self.branches.append(Branch(self._and(path, cond), value=value))
        else:
            pred, pred_key = self._scalar(test, var, env)
            value_fn, value_key = self._scalar(returned, var, scalars)
            step_fns = tuple(fn for fn, _key in steps)
            lf_name, cardinality = self.lf_name, self.cardinality

            def arm(t):
                # Later expressions inline the assigned names; running each
                # assignment in order is what raises where the body would.
                for step in step_fns:
                    step(t)
                return canonical_label(value_fn(t), lf_name, cardinality)

            scan_key = (
                pred_key, tuple(key for _fn, key in steps), value_key, lf_name, cardinality,
            )
            scan = TokenScan(sequence, pred, arm, scan_key)
            self.branches.append(Branch(self._and(path, scan), column=scan.labels))
        env.pop(var, None)  # the loop variable leaks a data-dependent value

    def _match_arm(self, stmts: list, var: str, env: dict, scalars: dict, steps: list):
        """Walk a loop's match arm: bind its assignments in ``scalars`` (and
        list them in ``steps``), fold its constant ``if`` s, and return the
        expression of the ``return`` reached — ``None`` if none is."""
        for stmt in stmts:
            self.lineno = stmt.lineno
            if isinstance(stmt, ast.Return):
                return stmt.value or ast.Constant(value=None)
            if isinstance(stmt, ast.Pass):
                continue
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id != var
            ):
                pair = self._scalar(stmt.value, var, scalars)
                steps.append(pair)
                scalars[stmt.targets[0].id] = _Scalar(*pair)
                continue
            if isinstance(stmt, ast.If):
                cond = self._condition(stmt.test, env)
                if not isinstance(cond, K):
                    raise CompileError("if in a loop match arm is not constant")
                returned = self._match_arm(
                    stmt.body if cond.value else stmt.orelse, var, env, scalars, steps
                )
                if returned is not None:
                    return returned
                continue
            raise CompileError(f"{type(stmt).__name__} in a loop match arm")
        return None

    # --------------------------------------------------------------- returns
    def _emit_return(self, node: Optional[ast.AST], env: dict, path: Optional[ColExpr]) -> None:
        if node is None or (isinstance(node, ast.Constant) and node.value is None):
            self.branches.append(Branch(path, value=0))
            return
        if isinstance(node, ast.IfExp):
            cond = self._condition(node.test, env)
            if isinstance(cond, K):
                self._emit_return(node.body if cond.value else node.orelse, env, path)
                return
            self._emit_return(node.body, env, self._and(path, cond))
            self._emit_return(node.orelse, env, self._and(path, self._negate(cond)))
            return
        sym = self._value_sym(node, env)
        if isinstance(sym, K):
            self.branches.append(Branch(path, value=self._canonical_const(sym.value)))
            return
        if isinstance(sym, _Obj):
            raise CompileError("returning the candidate object")
        if sym.cond_only:
            raise CompileError("returning a truthiness proxy value")
        self.branches.append(Branch(path, column=sym))

    def _canonical_const(self, raw: Any) -> int:
        if raw is None:
            return 0
        if raw is True:
            return 1
        if raw is False:
            return -1
        if isinstance(raw, int) and not isinstance(raw, bool):
            value = int(raw)
            if self.cardinality == 2:
                if value in (-1, 0, 1):
                    return value
            elif 0 <= value <= self.cardinality:
                return value
            # The interpreted path raises per candidate; refusing keeps the
            # compiled path from having to replicate a guaranteed error.
            raise CompileError(f"constant label {value} outside the declared range")
        raise CompileError(f"constant return of type {type(raw).__name__}")

    # --------------------------------------------- token-kernel specialization
    def _token_source(self, sym):
        """``(src, elem_fn, lower, kind)`` when ``sym`` is a container built
        by mapping normalize/identity over a token column, else ``None``."""
        if not isinstance(sym, MapElems) or sym.filter_fn is not None:
            return None
        fn_key = sym.key[2]
        kind = sym.key[1]
        if fn_key == _NORMALIZE_ELEM_KEY:
            return sym.child, sym.elem_fn, True, kind
        if fn_key == _IDENTITY_ELEM_KEY:
            return sym.child, sym.elem_fn, False, kind
        return None

    def _specialize_phrase(self, tokens: ColExpr, phrase: tuple):
        """Single-token phrase containment → vectorized :class:`TokenMatch`."""
        if len(phrase) != 1 or type(phrase[0]) is not str:
            return None
        check = _phrase_check(phrase)
        source = self._token_source(tokens)
        if source is not None:
            child, elem_fn, lower, kind = source
            if kind not in ("list", "tuple"):
                return None
            build = MapElems._BUILDERS[kind]
            fallback = lambda row, f=elem_fn, b=build, c=check: c(b(map(f, row)))  # noqa: E731
            return TokenMatch(child, "eq", phrase[0], lower, fallback)
        return TokenMatch(tokens, "eq", phrase[0], False, check)

    def _specialize_membership(self, elt: ast.AST, var: str, env: dict, sequence: ColExpr):
        """``any(t in VOCAB ...)`` / ``any(normalize(t) in VOCAB ...)`` →
        vectorized :class:`TokenMatch` membership."""
        if (
            not isinstance(elt, ast.Compare)
            or len(elt.ops) != 1
            or not isinstance(elt.ops[0], ast.In)
        ):
            return None
        left = elt.left
        lower = False
        if (
            isinstance(left, ast.Call)
            and not left.keywords
            and len(left.args) == 1
            and isinstance(left.args[0], ast.Name)
            and left.args[0].id == var
            and isinstance(left.func, ast.Name)
        ):
            callee = env.get(left.func.id)
            if callee is None:
                resolved = self.info.resolve_name(left.func.id)
                if is_unresolved(resolved) or left.func.id in self.assigned:
                    return None
                callee = K(resolved)
            if not isinstance(callee, K) or _fqn(callee.value) != _HELPER_NORMALIZE:
                return None
            lower = True
        elif not (isinstance(left, ast.Name) and left.id == var):
            return None
        try:
            container = self._scalar_value(elt.comparators[0], var, env, "container")
            pred, _ = self._scalar(elt, var, env)
        except CompileError:
            return None
        if not isinstance(container, (set, frozenset, tuple, list, dict)):
            return None
        # The fallback short-circuits exactly like the interpreted any().
        fallback = lambda row, p=pred: any(map(p, row))  # noqa: E731
        return TokenMatch(sequence, "isin", container, lower, fallback)

    def _truthy(self, sym: ColExpr) -> ColExpr:
        """Truthiness, with container idioms lowered to vectorized kernels."""
        source = self._token_source(sym)
        if source is not None:
            child, elem_fn, lower, kind = source
            build = MapElems._BUILDERS[kind]
            fallback = lambda row, f=elem_fn, b=build: bool(b(map(f, row)))  # noqa: E731
            return TokenMatch(child, "nonempty", None, lower, fallback)
        if isinstance(sym, BinCol) and sym.op == "and_":
            for mapped, const in ((sym.left, sym.right), (sym.right, sym.left)):
                if not isinstance(const, K) or not isinstance(
                    const.value, (set, frozenset)
                ):
                    continue
                source = self._token_source(mapped)
                if source is None or source[3] != "set":
                    continue
                child, elem_fn, lower, _ = source
                vocab = const.value
                # bool({f(t) for t in row} & vocab) ≡ any token's image in
                # vocab; the comprehension (not the &) is what can raise, so
                # the fallback rebuilds the set exactly as interpreted.
                fallback = (  # noqa: E731
                    lambda row, f=elem_fn, v=vocab: bool({f(t) for t in row} & v)
                )
                return TokenMatch(child, "isin", vocab, lower, fallback)
        return Truthy(sym)

    # ------------------------------------------------------------ conditions
    def _and(self, path: Optional[ColExpr], cond: ColExpr) -> ColExpr:
        return cond if path is None else BoolAnd(path, cond)

    def _negate(self, cond: ColExpr) -> ColExpr:
        return NotCol(cond)

    def _condition(self, node: ast.AST, env: dict):
        """Compile in condition position → ``K`` (folded) or a bool ColExpr."""
        if isinstance(node, ast.BoolOp):
            is_and = isinstance(node.op, ast.And)
            chain: Optional[ColExpr] = None
            for value in node.values:
                sym = self._condition(value, env)
                if isinstance(sym, K):
                    if bool(sym.value) == is_and:
                        continue  # identity element: skip
                    # Absorbing element: evaluation short-circuits here, but
                    # errors from the columns already in the chain survive.
                    if chain is None:
                        return K(bool(sym.value))
                    terminal = ConstBool(not is_and)
                    return BoolAnd(chain, terminal) if is_and else BoolOr(chain, terminal)
                chain = (
                    sym
                    if chain is None
                    else (BoolAnd(chain, sym) if is_and else BoolOr(chain, sym))
                )
            return chain if chain is not None else K(is_and)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            sym = self._condition(node.operand, env)
            if isinstance(sym, K):
                return K(not sym.value)
            return NotCol(sym)
        sym = self._value_sym(node, env)
        if isinstance(sym, K):
            self._read(sym.value)  # the caller takes its truth
            return sym
        if isinstance(sym, _Obj):
            raise CompileError("candidate object in condition position")
        if sym.is_bool:
            return sym
        return self._truthy(sym)

    # ----------------------------------------------------------- expressions
    def _value_sym(self, node: ast.AST, env: dict):
        """Compile in value position → ``K`` | ``ColExpr`` | ``_Obj``."""
        if isinstance(node, ast.Constant):
            return K(node.value)
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in self.assigned:
                raise CompileError(f"read of unassigned local {node.id!r}")
            value = self.info.resolve_name(node.id)
            if is_unresolved(value):
                raise CompileError(f"unresolved name {node.id!r}")
            return K(value)
        if isinstance(node, ast.Attribute):
            return self._attribute(node, env)
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.Compare):
            return self._compare(node, env)
        if isinstance(node, ast.BoolOp):
            return self._value_boolop(node, env)
        if isinstance(node, ast.UnaryOp):
            return self._unaryop(node, env)
        if isinstance(node, ast.BinOp):
            return self._binop(node, env)
        if isinstance(node, ast.IfExp):
            cond = self._condition(node.test, env)
            if isinstance(cond, K):
                return self._value_sym(node.body if cond.value else node.orelse, env)
            then_sym = self._operand(node.body, env)
            else_sym = self._operand(node.orelse, env)
            return IfExpCol(cond, then_sym, else_sym)
        if isinstance(node, ast.Subscript):
            return self._subscript(node, env)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            kind = {ast.Tuple: "tuple", ast.List: "list", ast.Set: "set"}[type(node)]
            items = [self._operand(item, env) for item in node.elts]
            if all(isinstance(item, K) for item in items):
                builder = {"tuple": tuple, "list": list, "set": set}[kind]
                return K(builder(item.value for item in items))
            return TupleCol(items, kind)
        if isinstance(node, (ast.ListComp, ast.SetComp)):
            return self._comprehension(node, env)
        raise CompileError(f"unsupported expression {type(node).__name__}")

    def _operand(self, node: ast.AST, env: dict):
        sym = self._value_sym(node, env)
        if isinstance(sym, _Obj):
            raise CompileError("candidate object used as a value")
        return sym

    def _attribute(self, node: ast.Attribute, env: dict):
        base = self._value_sym(node.value, env)
        attr = node.attr
        if isinstance(base, _Obj):
            if base.kind == "candidate":
                if attr in _SPAN_ALIASES:
                    return _Obj(_SPAN_ALIASES[attr])
                if attr in _SENTENCE_ALIASES:
                    return _Obj("sentence")
                if attr in CANDIDATE_ATTRS:
                    return FieldCol((attr,))
                raise CompileError(f"candidate attribute {attr!r}")
            if base.kind in ("span1", "span2"):
                if attr in SPAN_ATTRS:
                    return FieldCol((base.kind, attr))
                raise CompileError(f"span attribute {attr!r}")
            if base.kind == "sentence":
                if attr in SENTENCE_ATTRS:
                    return FieldCol(("sentence", attr))
                raise CompileError(f"sentence attribute {attr!r}")
            raise CompileError(f"object attribute {attr!r}")
        if isinstance(base, K):
            try:
                return K(self._getattr(base.value, attr))
            except Exception as exc:
                raise CompileError(f"constant attribute {attr!r}: {exc}") from exc
        raise CompileError(f"attribute {attr!r} on a column value")

    def _compare(self, node: ast.Compare, env: dict):
        if len(node.ops) != 1:
            raise CompileError("chained comparison")
        op = node.ops[0]
        left = self._operand(node.left, env)
        right = self._operand(node.comparators[0], env)
        if isinstance(op, (ast.In, ast.NotIn)):
            negate = isinstance(op, ast.NotIn)
            if isinstance(left, K) and isinstance(right, K):
                self._read(left.value, right.value)
                try:
                    result = left.value in right.value
                except Exception as exc:
                    raise CompileError(f"constant membership failed: {exc}") from exc
                return K(result != negate)
            return Contains(left, right, negate=negate)
        if type(op) not in _CMP_AST:
            raise CompileError(f"comparison {type(op).__name__}")
        op_name = _CMP_AST[type(op)]
        if isinstance(left, K) and isinstance(right, K):
            if op_name not in ("is", "is_not"):
                self._read(left.value, right.value)
            try:
                result = prog._CMP_OPS[op_name](left.value, right.value)
            except Exception as exc:
                raise CompileError(f"constant comparison failed: {exc}") from exc
            return K(result)
        return Compare(op_name, left, right)

    def _value_boolop(self, node: ast.BoolOp, env: dict):
        # ``a and b`` in value position returns an *operand*, not a bool;
        # only all-real-bool operands make the condition fold equivalent.
        for value in node.values:
            sym = self._value_sym(value, env)
            if isinstance(sym, K):
                if type(sym.value) is not bool:
                    raise CompileError("non-boolean operand in value-position and/or")
            elif isinstance(sym, _Obj) or not sym.is_bool or sym.cond_only:
                raise CompileError("non-boolean operand in value-position and/or")
        result = self._condition(node, env)
        return K(bool(result.value)) if isinstance(result, K) else result

    def _unaryop(self, node: ast.UnaryOp, env: dict):
        if isinstance(node.op, ast.Not):
            sym = self._condition(node.operand, env)
            if isinstance(sym, K):
                return K(not sym.value)
            return NotCol(sym)
        operand = self._operand(node.operand, env)
        if isinstance(operand, K):
            try:
                if isinstance(node.op, ast.USub):
                    return K(-operand.value)
                if isinstance(node.op, ast.UAdd):
                    return K(+operand.value)
                if isinstance(node.op, ast.Invert):
                    return K(~operand.value)
            except Exception as exc:
                raise CompileError(f"constant unary op failed: {exc}") from exc
        if isinstance(node.op, ast.USub):
            return NegCol(operand)
        raise CompileError(f"unary {type(node.op).__name__} on a column")

    def _binop(self, node: ast.BinOp, env: dict):
        left = self._operand(node.left, env)
        right = self._operand(node.right, env)
        if type(node.op) not in _BIN_AST:
            raise CompileError(f"operator {type(node.op).__name__}")
        op_name = _BIN_AST[type(node.op)]
        if isinstance(left, K) and isinstance(right, K):
            self._read(left.value, right.value)
            try:
                return K(prog._BIN_OPS[op_name](left.value, right.value))
            except Exception as exc:
                raise CompileError(f"constant arithmetic failed: {exc}") from exc
        vectorize = (
            op_name in ("add", "sub") and _is_atomic_int(left) and _is_atomic_int(right)
        )
        return BinCol(op_name, left, right, vectorize=vectorize)

    def _subscript(self, node: ast.Subscript, env: dict):
        base = self._operand(node.value, env)
        if isinstance(node.slice, ast.Slice):
            parts = []
            for bound in (node.slice.lower, node.slice.upper, node.slice.step):
                if bound is None:
                    parts.append(None)
                else:
                    bound_sym = self._operand(bound, env)
                    if not isinstance(bound_sym, K):
                        raise CompileError("non-constant slice bound")
                    parts.append(bound_sym.value)
            index: Any = K(slice(*parts))
        else:
            index = self._operand(node.slice, env)
        if isinstance(base, K) and isinstance(index, K):
            self._read(base.value)
            try:
                return K(base.value[index.value])
            except Exception as exc:
                raise CompileError(f"constant subscript failed: {exc}") from exc
        getter = lambda container, key: container[key]  # noqa: E731
        return Map2(base, index, getter, ("getitem",))

    def _comprehension(self, node, env: dict, kind: Optional[str] = None):
        if kind is None:
            kind = "list" if isinstance(node, ast.ListComp) else "set"
        if len(node.generators) != 1:
            raise CompileError("nested comprehension")
        gen = node.generators[0]
        if gen.is_async or not isinstance(gen.target, ast.Name):
            raise CompileError("unsupported comprehension target")
        if len(gen.ifs) > 1:
            raise CompileError("multiple comprehension filters")
        sequence = self._value_sym(gen.iter, env)
        if not isinstance(sequence, ColExpr):
            raise CompileError("comprehension over a non-column iterable")
        var = gen.target.id
        elem_fn, elem_key = self._scalar(node.elt, var, env)
        if gen.ifs:
            filter_fn, filter_key = self._scalar(gen.ifs[0], var, env)
            return MapElems(sequence, elem_fn, elem_key, kind, filter_fn, filter_key)
        return MapElems(sequence, elem_fn, elem_key, kind)

    # ----------------------------------------------------------------- calls
    def _call(self, node: ast.Call, env: dict):
        if node.keywords:
            raise CompileError("keyword arguments in call")
        func = node.func
        if isinstance(func, ast.Attribute):
            return self._method_call(func, node.args, env)
        callee = self._value_sym(func, env)
        if not isinstance(callee, K):
            raise CompileError("calling a non-constant callable")
        fn = callee.value
        fqn = _fqn(fn)
        args = node.args
        if fqn == _HELPER_CONTAINS_PHRASE and len(args) == 2:
            tokens = self._operand(args[0], env)
            phrase = self._operand(args[1], env)
            if isinstance(tokens, ColExpr) and isinstance(phrase, K):
                self._read(phrase.value)
                try:
                    phrase_tuple = tuple(phrase.value)
                except TypeError as exc:
                    raise CompileError("non-sequence phrase constant") from exc
                special = self._specialize_phrase(tokens, phrase_tuple)
                if special is not None:
                    return special
                return ContainsPhrase(tokens, phrase_tuple)
        if fqn == _HELPER_CONTAINS_ANY and len(args) == 2:
            tokens = self._operand(args[0], env)
            vocab = self._operand(args[1], env)
            if isinstance(tokens, ColExpr) and isinstance(vocab, K):
                helper, vocabulary = fn, vocab.value
                self._read(vocabulary)  # normalized into the kernel's needle below
                fallback = lambda row: helper(row, vocabulary)  # noqa: E731
                try:
                    # contains_any normalizes its (constant) vocabulary per
                    # call; hoist that to compile time for the vector kernel.
                    vocab_norm = frozenset(_normalize(word) for word in vocabulary)
                except Exception:
                    vocab_norm = None  # a bad vocab raises per row; keep generic
                if vocab_norm is not None:
                    return TokenMatch(tokens, "isin", vocab_norm, True, fallback)
                return MapRow(
                    tokens,
                    fallback,
                    ("helper", "contains_any", const_key(vocabulary)),
                    is_bool=True,
                )
        if fqn in _SCALAR_HELPERS and len(args) == 1:
            argument = self._operand(args[0], env)
            if isinstance(argument, K):
                return self._eager_call(fn, [argument.value])
            if fqn == _HELPER_NORMALIZE:
                return StrLower(argument, fn)
            return MapRow(argument, fn, ("helper",) + fqn)
        if fqn[0] == "builtins" and fqn[1] in _ROW_BUILTINS:
            return self._builtin_call(fqn[1], fn, node, env)
        raise CompileError(f"call to {fqn[1] or fn!r}")

    def _builtin_call(self, name: str, fn: Callable, node: ast.Call, env: dict):
        args = node.args
        if name in ("any", "all") and len(args) == 1 and isinstance(args[0], ast.GeneratorExp):
            gen_node = args[0]
            if len(gen_node.generators) != 1:
                raise CompileError("nested generator in any()/all()")
            gen = gen_node.generators[0]
            if gen.is_async or not isinstance(gen.target, ast.Name) or gen.ifs:
                raise CompileError("unsupported generator in any()/all()")
            sequence = self._value_sym(gen.iter, env)
            if not isinstance(sequence, ColExpr):
                raise CompileError("any()/all() over a non-column iterable")
            if name == "any":
                special = self._specialize_membership(
                    gen_node.elt, gen.target.id, env, sequence
                )
                if special is not None:
                    return special
            pred, pred_key = self._scalar(gen_node.elt, gen.target.id, env)
            return AnyElem(sequence, pred, pred_key, want_all=(name == "all"))
        if name in ("tuple", "list", "set", "frozenset") and len(args) == 1 and isinstance(
            args[0], ast.GeneratorExp
        ):
            kind = {"tuple": "tuple", "list": "list", "set": "set", "frozenset": "set"}[name]
            result = self._comprehension(args[0], env, kind=kind)
            if name == "frozenset":
                return MapRow(result, frozenset, ("cast", "frozenset"))
            return result
        syms = [self._operand(arg, env) for arg in args]
        if all(isinstance(sym, K) for sym in syms):
            return self._eager_call(fn, [sym.value for sym in syms])
        if len(syms) == 1 and isinstance(syms[0], ColExpr):
            if name == "len":
                return LenCol(syms[0])
            return MapRow(syms[0], fn, ("builtin", name), is_bool=name in _BOOL_BUILTINS)
        if len(syms) == 2 and name in ("min", "max"):
            return Map2(syms[0], syms[1], fn, ("builtin", name))
        raise CompileError(f"unsupported builtin call {name}()")

    def _eager_call(self, fn: Callable, values: list):
        self._read(*values)
        try:
            return K(fn(*values))
        except Exception as exc:
            raise CompileError(f"constant call failed: {exc}") from exc

    def _method_call(self, func: ast.Attribute, args: list, env: dict):
        base = self._value_sym(func.value, env)
        method = func.attr
        if isinstance(base, _Obj):
            return self._object_method(base, method, args, env)
        if isinstance(base, K):
            receiver = base.value
            if isinstance(receiver, re.Pattern) and method in _REGEX_METHODS:
                if len(args) != 1:
                    raise CompileError("regex method arity")
                argument = self._operand(args[0], env)
                if isinstance(argument, K):
                    return self._eager_call(getattr(receiver, method), [argument.value])
                return RegexSearch(receiver, method, argument)
            if isinstance(receiver, (str, int, float, tuple, frozenset, bytes)):
                syms = [self._operand(arg, env) for arg in args]
                if all(isinstance(sym, K) for sym in syms):
                    return self._eager_call(
                        getattr(receiver, method), [sym.value for sym in syms]
                    )
                if method in _ROW_METHODS and len(syms) == 1:
                    bound = getattr(receiver, method)
                    return MapRow(
                        syms[0],
                        bound,
                        ("constmeth", const_key(receiver), method),
                        is_bool=method in _BOOL_METHODS,
                    )
            raise CompileError(f"method {method!r} on constant {type(receiver).__name__}")
        # Column receiver: per-row method dispatch through getattr keeps the
        # exact AttributeError/TypeError a non-conforming row would raise.
        if method not in _ROW_METHODS:
            raise CompileError(f"method {method!r} on a column value")
        syms = [self._operand(arg, env) for arg in args]
        if not all(isinstance(sym, K) for sym in syms):
            raise CompileError("non-constant method arguments")
        arg_values = tuple(sym.value for sym in syms)
        fn = lambda row, m=method, a=arg_values: getattr(row, m)(*a)  # noqa: E731
        key = ("rowmeth", method) + tuple(const_key(v) for v in arg_values)
        return MapRow(base, fn, key, is_bool=method in _BOOL_METHODS)

    def _object_method(self, base: _Obj, method: str, args: list, env: dict):
        if base.kind == "candidate":
            if method in CANDIDATE_METHODS:
                if args:
                    raise CompileError(f"{method}() takes no arguments")
                return FieldCol((method,))
            if method in WINDOW_METHODS:
                if len(args) != 1:
                    raise CompileError(f"{method}() arity")
                size = self._operand(args[0], env)
                if not isinstance(size, K) or type(size.value) is not int:
                    raise CompileError(f"{method}() size is not a constant int")
                return FieldCol((method, size.value))
            raise CompileError(f"candidate method {method!r}")
        if base.kind in ("span1", "span2") and method == "get_word_range" and not args:
            return TupleCol(
                (FieldCol((base.kind, "word_start")), FieldCol((base.kind, "word_end"))),
                "tuple",
            )
        raise CompileError(f"method {method!r} on {base.kind}")

    # ------------------------------------------------------- scalar kernels
    def _scalar(self, node: ast.AST, var: str, env: dict):
        """Compile an elementwise expression over loop variable ``var`` into
        a genuine Python closure ``(fn, structural_key)``."""
        if isinstance(node, ast.Name) and node.id == var:
            return (lambda t: t), ("var",)
        if isinstance(node, ast.Constant):
            return _scalar_const(node.value)
        if isinstance(node, ast.Name):
            sym = env.get(node.id)
            if isinstance(sym, _Scalar):
                return sym.fn, sym.key
            if sym is None:
                resolved = self.info.resolve_name(node.id)
                if is_unresolved(resolved) or node.id in self.assigned:
                    raise CompileError(f"unresolved name {node.id!r} in scalar expression")
                sym = K(resolved)
            if not isinstance(sym, K):
                raise CompileError(f"non-constant name {node.id!r} in scalar expression")
            return _scalar_const(sym.value)
        if isinstance(node, ast.Attribute):
            receiver = self._scalar_value(node.value, var, env, "attribute receiver")
            try:
                return _scalar_const(self._getattr(receiver, node.attr))
            except Exception as exc:
                raise CompileError(f"constant attribute {node.attr!r}: {exc}") from exc
        if isinstance(node, ast.IfExp):
            test_fn, test_key = self._scalar(node.test, var, env)
            then_fn, then_key = self._scalar(node.body, var, env)
            else_fn, else_key = self._scalar(node.orelse, var, env)
            fn = lambda t, c=test_fn, a=then_fn, b=else_fn: a(t) if c(t) else b(t)  # noqa: E731
            return fn, ("ifexp", test_key, then_key, else_key)
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise CompileError("chained comparison in scalar expression")
            left_fn, left_key = self._scalar(node.left, var, env)
            right_fn, right_key = self._scalar(node.comparators[0], var, env)
            op = node.ops[0]
            if isinstance(op, (ast.In, ast.NotIn)):
                if isinstance(op, ast.In):
                    fn = lambda t, lf=left_fn, rf=right_fn: lf(t) in rf(t)  # noqa: E731
                else:
                    fn = lambda t, lf=left_fn, rf=right_fn: lf(t) not in rf(t)  # noqa: E731
                return fn, ("cmp", type(op).__name__, left_key, right_key)
            if type(op) not in _CMP_AST:
                raise CompileError(f"scalar comparison {type(op).__name__}")
            op_fn = prog._CMP_OPS[_CMP_AST[type(op)]]
            fn = lambda t, lf=left_fn, rf=right_fn, o=op_fn: o(lf(t), rf(t))  # noqa: E731
            return fn, ("cmp", _CMP_AST[type(op)], left_key, right_key)
        if isinstance(node, ast.BoolOp):
            part_fns = []
            part_keys = []
            for part in node.values:
                part_fn, part_key = self._scalar(part, var, env)
                part_fns.append(part_fn)
                part_keys.append(part_key)
            if isinstance(node.op, ast.And):
                def fn(t, fns=tuple(part_fns)):
                    result = True
                    for part in fns:
                        result = part(t)
                        if not result:
                            return result
                    return result

                return fn, ("and",) + tuple(part_keys)

            def fn(t, fns=tuple(part_fns)):
                result = False
                for part in fns:
                    result = part(t)
                    if result:
                        return result
                return result

            return fn, ("or",) + tuple(part_keys)
        if isinstance(node, ast.UnaryOp):
            child_fn, child_key = self._scalar(node.operand, var, env)
            if isinstance(node.op, ast.Not):
                return (lambda t, cf=child_fn: not cf(t)), ("not", child_key)
            if isinstance(node.op, ast.USub):
                return (lambda t, cf=child_fn: -cf(t)), ("neg", child_key)
            raise CompileError(f"scalar unary {type(node.op).__name__}")
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BIN_AST:
                raise CompileError(f"scalar operator {type(node.op).__name__}")
            left_fn, left_key = self._scalar(node.left, var, env)
            right_fn, right_key = self._scalar(node.right, var, env)
            op_fn = prog._BIN_OPS[_BIN_AST[type(node.op)]]
            fn = lambda t, lf=left_fn, rf=right_fn, o=op_fn: o(lf(t), rf(t))  # noqa: E731
            return fn, ("bin", _BIN_AST[type(node.op)], left_key, right_key)
        if isinstance(node, ast.Tuple):
            item_pairs = [self._scalar(item, var, env) for item in node.elts]
            fns = tuple(pair[0] for pair in item_pairs)
            keys = tuple(pair[1] for pair in item_pairs)
            return (lambda t, fs=fns: tuple(f(t) for f in fs)), ("tuple",) + keys
        if isinstance(node, ast.Call):
            return self._scalar_call(node, var, env)
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
            base_fn, base_key = self._scalar(node.value, var, env)
            bounds = tuple(
                None if bound is None else self._scalar_value(bound, var, env, "slice bound")
                for bound in (node.slice.lower, node.slice.upper, node.slice.step)
            )
            fn = lambda t, bf=base_fn, s=slice(*bounds): bf(t)[s]  # noqa: E731
            return fn, ("getslice", base_key) + tuple(const_key(b) for b in bounds)
        if isinstance(node, ast.Subscript):
            base_fn, base_key = self._scalar(node.value, var, env)
            index_fn, index_key = self._scalar(node.slice, var, env)
            fn = lambda t, bf=base_fn, xf=index_fn: bf(t)[xf(t)]  # noqa: E731
            return fn, ("getitem", base_key, index_key)
        raise CompileError(f"unsupported scalar expression {type(node).__name__}")

    def _scalar_value(self, node: ast.AST, var: str, env: dict, what: str) -> Any:
        """The value of a scalar expression that must not read the element."""
        fn, key = self._scalar(node, var, env)
        if not _is_const_key(key):
            raise CompileError(f"non-constant {what} in scalar expression")
        return fn(None)  # a constant closure; the arg is unused

    def _scalar_call(self, node: ast.Call, var: str, env: dict):
        if node.keywords:
            raise CompileError("keyword arguments in scalar call")
        func = node.func
        if isinstance(func, ast.Attribute):
            recv_fn, recv_key = self._scalar(func.value, var, env)
            if func.attr not in _ROW_METHODS:
                raise CompileError(f"scalar method {func.attr!r}")
            arg_pairs = [self._scalar(arg, var, env) for arg in node.args]
            arg_fns = tuple(pair[0] for pair in arg_pairs)
            arg_keys = tuple(pair[1] for pair in arg_pairs)
            method = func.attr
            key = ("meth", method, recv_key) + arg_keys
            if all(map(_is_const_key, arg_keys)):
                # Constant arguments: one C-level call per element, raising
                # what the getattr below would on a receiver without it.
                call = methodcaller(method, *(af(None) for af in arg_fns))
                if recv_key == ("var",):
                    return call, key
                return (lambda t, rf=recv_fn, c=call: c(rf(t))), key

            def fn(t, rf=recv_fn, m=method, afs=arg_fns):
                return getattr(rf(t), m)(*(af(t) for af in afs))

            return fn, key
        if not isinstance(func, ast.Name):
            raise CompileError("unsupported scalar callee")
        callee = env.get(func.id)
        if callee is None:
            resolved = self.info.resolve_name(func.id)
            if is_unresolved(resolved) or func.id in self.assigned:
                raise CompileError(f"unresolved scalar callee {func.id!r}")
            callee = K(resolved)
        if not isinstance(callee, K):
            raise CompileError("non-constant scalar callee")
        fn_obj = callee.value
        fqn = _fqn(fn_obj)
        allowed = fqn in _SCALAR_HELPERS or (
            fqn[0] == "builtins"
            and fqn[1] in ("len", "str", "int", "float", "abs", "bool", "tuple")
        )
        if not allowed:
            raise CompileError(f"scalar call to {fqn[1] or fn_obj!r}")
        arg_pairs = [self._scalar(arg, var, env) for arg in node.args]
        if all(_is_const_key(key) for _fn, key in arg_pairs):
            folded = self._eager_call(fn_obj, [arg_fn(None) for arg_fn, _key in arg_pairs])
            return _scalar_const(folded.value)
        if len(arg_pairs) == 1:
            arg_fn, arg_key = arg_pairs[0]
            if arg_key == ("var",):
                return fn_obj, ("call", fqn, arg_key)
            return (
                lambda t, f=fn_obj, af=arg_fn: f(af(t))
            ), ("call", fqn, arg_key)
        arg_fns = tuple(pair[0] for pair in arg_pairs)
        arg_keys = tuple(pair[1] for pair in arg_pairs)

        def fn(t, f=fn_obj, afs=arg_fns):
            return f(*(af(t) for af in afs))

        return fn, ("call", fqn) + arg_keys
