"""The pushdown-compilability classifier.

Decides, per LF, whether the body falls inside the *declarative subset* that
the relational-pushdown roadmap item can compile to vectorized columnar
execution — and if so, which shape it matched.  The contract:

* A ``COMPILABLE`` verdict means the LF's label is a pure function of (a)
  candidate field accesses, (b) closure-held constants (compiled regexes,
  keyword/pair sets, numeric thresholds), and (c) a small allowlist of pure
  builtins/helpers — with control flow limited to conditionals, loops over
  candidate-derived sequences, and comprehensions.  Such an LF can be
  evaluated for a whole chunk at once without entering per-candidate Python.
* The ``shape`` names the dominant predicate so a compiler backend can pick
  its plan: ``regex_match`` (closure ``re.Pattern`` applied to candidate
  text), ``membership`` (keyword / dictionary / phrase containment against a
  closure container), ``threshold_compare`` (candidate-derived number vs. a
  constant), ``field_equality`` (candidate field vs. constant),
  ``field_projection`` (the label *is* a candidate field), ``constant``, or
  ``token_scan`` (a loop over a candidate sequence returning something
  decoded from the first element that passes a test).
  Each predicate site additionally contributes a
  :class:`~repro.analysis.diagnostics.PredicatePayload` (the source
  expression plus the resolved pattern / container / bound constant), so
  the compiler backend can report and plan without re-resolving closures.
* ``OPAQUE`` means at least one construct escapes the subset; ``detail``
  names the first offender.  Opaque callables (weak classifiers, arbitrary
  globals) are the canonical cause.

Verdicts must agree with runtime behavior: :mod:`repro.analysis.runtime`
cross-checks that a COMPILABLE LF is observationally pure and deterministic
on synthetic candidates.
"""

from __future__ import annotations

import ast
import builtins as _builtins
import re
from typing import Any, Optional

from repro.analysis.diagnostics import PredicatePayload, PushdownVerdict
from repro.analysis.lint import FunctionScope, dotted_chain, root_name
from repro.analysis.source import SourceInfo, is_unresolved

#: Pure builtins a compilable LF may call.
_PURE_BUILTINS = {
    "len",
    "any",
    "all",
    "int",
    "float",
    "str",
    "bool",
    "abs",
    "min",
    "max",
    "sum",
    "sorted",
    "tuple",
    "list",
    "set",
    "frozenset",
    "dict",
    "enumerate",
    "range",
    "zip",
    "round",
    "isinstance",
    "repr",
}

#: Pure helper functions (by ``module.qualname``) the compiler backend knows
#: how to vectorize, with the signal shape each one implies (``None`` = no
#: shape of its own).
_PURE_HELPERS: dict[tuple[str, str], Optional[str]] = {
    ("repro.utils.textutils", "normalize"): None,
    ("repro.labeling.declarative", "_contains_phrase"): "membership",
}

_REGEX_METHODS = {"search", "match", "fullmatch", "findall", "finditer"}

#: Statement types a compilable body may contain.
_ALLOWED_STATEMENTS = (
    ast.FunctionDef,
    ast.Return,
    ast.If,
    ast.Assign,
    ast.AnnAssign,
    ast.For,
    ast.Raise,
    ast.Pass,
    ast.Expr,
    ast.Break,
    ast.Continue,
)

#: Shape priority when several predicates appear in one body.
_SHAPE_ORDER = [
    "token_scan",
    "regex_match",
    "membership",
    "threshold_compare",
    "field_equality",
    "field_projection",
    "constant",
]


class _PushdownVisitor(ast.NodeVisitor):
    def __init__(self, info: SourceInfo, scope: FunctionScope) -> None:
        self.info = info
        self.scope = scope
        self.signals: set[str] = set()
        self.predicates: list[PredicatePayload] = []
        self.opaque_reasons: list[str] = []

    # ------------------------------------------------------------------ utils
    def _opaque(self, reason: str, node: ast.AST) -> None:
        lineno = getattr(node, "lineno", None)
        if lineno is not None:
            reason = f"{reason} (line {lineno})"
        self.opaque_reasons.append(reason)

    def _signal(self, shape: str, node: ast.AST, constant: Any = None) -> None:
        """Record a predicate site: the shape signal plus its payload."""
        self.signals.add(shape)
        try:
            description = ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on our subset
            description = type(node).__name__
        self.predicates.append(
            PredicatePayload(
                shape=shape,
                description=description,
                constant=constant,
                lineno=getattr(node, "lineno", None),
            )
        )

    def _resolve(self, name: str) -> Any:
        return self.info.resolve_name(name)

    def _involves_candidate(self, node: ast.AST) -> bool:
        """True when the expression reads the candidate (or locals/self)."""
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                kind = self.scope.kind(child.id)
                if kind in ("param", "local", "self"):
                    return True
        return False

    # ------------------------------------------------------------- statements
    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.stmt) and not isinstance(node, _ALLOWED_STATEMENTS):
            self._opaque(f"statement {type(node).__name__} is outside the subset", node)
            return
        if isinstance(node, (ast.Lambda, ast.Await, ast.Yield, ast.YieldFrom, ast.NamedExpr)):
            self._opaque(f"expression {type(node).__name__} is outside the subset", node)
            return
        super().generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is not self.info.tree:
            self._opaque("nested function definition", node)
            return
        for statement in node.body:
            self.visit(statement)

    def visit_For(self, node: ast.For) -> None:
        """``for t in seq: if pred(t): [name = ...]* return f(t, names)`` is
        the first-match scan the compiler lowers to one token kernel."""
        match = node.body[0]
        if (
            not node.orelse
            and isinstance(node.target, ast.Name)
            and len(node.body) == 1
            and isinstance(match, ast.If)
            and not match.orelse
        ):
            arm = [child for stmt in match.body for child in ast.walk(stmt)]
            bound = {node.target.id} | {
                child.id
                for child in arm
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store)
            }
            returned = [
                name
                for child in arm
                if isinstance(child, ast.Return) and child.value is not None
                for name in ast.walk(child.value)
            ]
            if any(isinstance(name, ast.Name) and name.id in bound for name in returned):
                self._signal("token_scan", match.test)
        self.generic_visit(node)

    # ------------------------------------------------------------------ calls
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self._check_name_call(node, func.id)
        elif isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        else:
            self._opaque("call through a computed callable", node)
        for argument in node.args:
            self.visit(argument)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def _check_name_call(self, node: ast.Call, name: str) -> None:
        if self.scope.is_local(name):
            self._opaque(f"calls locally-bound callable {name!r}", node)
            return
        value = self._resolve(name)
        if is_unresolved(value):
            self._opaque(f"calls unresolvable callable {name!r}", node)
            return
        if name in _PURE_BUILTINS and value is getattr(_builtins, name, None):
            return
        if isinstance(value, type) and issubclass(value, BaseException):
            return  # raising is allowed; the exception constructor is pure
        helper_key = (getattr(value, "__module__", ""), getattr(value, "__qualname__", ""))
        if helper_key in _PURE_HELPERS:
            shape = _PURE_HELPERS[helper_key]
            if shape is not None:
                constant = self._closure_value(node.args[1]) if len(node.args) > 1 else None
                self._signal(shape, node, constant)
            return
        self._opaque(f"calls opaque callable {name!r}", node)

    def _check_attribute_call(self, node: ast.Call, func: ast.Attribute) -> None:
        base = root_name(func.value)
        if base is None:
            self._opaque("method call on a computed object", node)
            return
        kind = self.scope.kind(base)
        if kind in ("param", "local", "self"):
            # Candidate accessors and string methods on candidate-derived
            # locals: the columnar backend maps these to column expressions.
            return
        value = self._resolve(base)
        if is_unresolved(value):
            chain = dotted_chain(func) or [base, func.attr]
            self._opaque(f"calls unresolvable {'.'.join(chain)}", node)
            return
        resolved = _resolve_attribute_base(value, func.value)
        if isinstance(resolved, re.Pattern) and func.attr in _REGEX_METHODS:
            self._signal("regex_match", node, resolved)
            return
        if isinstance(resolved, str):
            return  # pure string-method call on a closure constant
        chain = dotted_chain(func) or [base, func.attr]
        self._opaque(f"calls opaque callable {'.'.join(chain)}", node)

    # ------------------------------------------------------------ comparisons
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.In, ast.NotIn)):
                self._check_membership(left, right, node)
            elif isinstance(op, (ast.Lt, ast.Gt, ast.LtE, ast.GtE)):
                self._check_threshold(left, right, node)
            elif isinstance(op, (ast.Eq, ast.NotEq)):
                self._check_equality(left, right, node)
        self.generic_visit(node)

    def _closure_value(self, node: ast.AST) -> Any:
        """The closure/global constant an operand denotes, if any."""
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name) and self.scope.kind(node.id) in ("free", "global"):
            value = self._resolve(node.id)
            if not is_unresolved(value):
                return value
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self._closure_value(node.operand)
            if isinstance(inner, (int, float)):
                return -inner
        return None

    def _check_membership(self, member: ast.AST, container: ast.AST, node: ast.AST) -> None:
        value = self._closure_value(container)
        if isinstance(value, (set, frozenset, dict, tuple, list)) and self._involves_candidate(
            member
        ):
            self._signal("membership", node, value)

    def _check_threshold(self, left: ast.AST, right: ast.AST, node: ast.AST) -> None:
        for probe, bound in ((left, right), (right, left)):
            value = self._closure_value(bound)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if self._involves_candidate(probe):
                    self._signal("threshold_compare", node, value)
                    return

    def _check_equality(self, left: ast.AST, right: ast.AST, node: ast.AST) -> None:
        for probe, bound in ((left, right), (right, left)):
            value = self._closure_value(bound)
            if value is not None and self._involves_candidate(probe):
                self._signal("field_equality", node, value)
                return

    # ----------------------------------------------------------- set algebra
    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.BitAnd, ast.BitOr)):
            for operand, other in ((node.left, node.right), (node.right, node.left)):
                value = self._closure_value(operand)
                if isinstance(value, (set, frozenset)) and self._involves_candidate(other):
                    self._signal("membership", node, value)
                    break
        self.generic_visit(node)


def _resolve_attribute_base(value: Any, node: ast.AST) -> Any:
    """Follow ``a.b`` attribute loads from a resolved root, without calling."""
    chain = dotted_chain(node)
    if chain is None:
        return value
    for attr in chain[1:]:
        value = getattr(value, attr, None)
        if value is None:
            return None
    return value


def classify_pushdown(info: SourceInfo, scope: Optional[FunctionScope] = None) -> PushdownVerdict:
    """Classify one LF body as ``COMPILABLE`` (with shape) or ``OPAQUE``."""
    if info.tree is None:
        return PushdownVerdict("OPAQUE", detail=f"source {info.failure or 'unavailable'}")
    if isinstance(info.tree, ast.Lambda):
        return PushdownVerdict("OPAQUE", detail="lambda bodies are not classified")
    scope = scope or FunctionScope(info)
    visitor = _PushdownVisitor(info, scope)
    visitor.visit(info.tree)
    if visitor.opaque_reasons:
        return PushdownVerdict("OPAQUE", detail=visitor.opaque_reasons[0])
    signals = visitor.signals
    predicates = list(visitor.predicates)
    if not signals:
        shape = _projection_shape(info, scope)
        signals = {shape}
        predicates.append(PredicatePayload(shape=shape, description="return expression"))
    for shape in _SHAPE_ORDER:
        if shape in signals:
            matched = sorted(signals)
            return PushdownVerdict(
                "COMPILABLE",
                shape=shape,
                detail=f"matched predicate(s): {', '.join(matched)}",
                predicates=tuple(predicates),
            )
    return PushdownVerdict("OPAQUE", detail="no recognizable predicate shape")


def _projection_shape(info: SourceInfo, scope: FunctionScope) -> str:
    """Shape of a predicate-free body: a field read or a pure constant."""
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Return) and node.value is not None:
            for child in ast.walk(node.value):
                if isinstance(child, ast.Name) and scope.kind(child.id) in ("param", "self"):
                    return "field_projection"
    return "constant"
