"""AST lint passes over labeling-function bodies.

:func:`lint_function` runs every static check on one :class:`SourceInfo`:

* **Label-range inference** — constant propagation over every ``return``
  expression (constants, names bound to constants, closure/global integer
  cells, conditional expressions, boolean results) checked against the
  declared cardinality and the abstention conventions (``LF101``/``LF102``/
  ``LF103``).  Inference is deliberately conservative: range/abstention
  conclusions that need *complete* knowledge are only drawn when every
  return path resolved, so partially-analyzable LFs produce no noise.
* **Nondeterminism** — unseeded ``random`` / ``numpy.random`` draws
  (``LF201``), clock reads (``LF202``), entropy sources (``LF203``), and
  ``hash()``/``id()`` dependence (``LF204``).  Call targets are resolved
  through the closure and module globals to the defining module when
  possible, with a textual fallback for unresolvable roots so aliased
  imports still match.
* **Shared-state hazards** — ``global``-declared stores and mutation of
  module-level objects (``LF301``), ``nonlocal`` stores and mutation of
  closure cells (``LF302``), candidate-argument mutation (``LF303``), and
  LF-instance (``self``) mutation (``LF304``) — the hazards that make an LF
  unsafe under the threads executor and divergent under the processes one.
* **I/O in the hot path** — file, process, and network calls that run once
  per candidate (``LF401``).
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.labeling.source import SourceInfo, is_unresolved

#: ``random``-module attributes that do *not* constitute an unseeded draw.
_RANDOM_SAFE = {"seed", "getstate", "setstate", "Random", "SystemRandom"}

#: ``numpy.random`` attributes that are constructors, not draws; calling one
#: *without arguments* is still an unseeded source.
_NUMPY_RANDOM_CONSTRUCTORS = {"default_rng", "RandomState", "Generator", "SeedSequence"}

_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("time", "clock_gettime"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

_ENTROPY_CALLS = {
    ("os", "urandom"),
    ("os", "getrandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
}

_IO_MODULES = {
    "subprocess",
    "requests",
    "urllib",
    "urllib.request",
    "socket",
    "http",
    "http.client",
    "shutil",
    "sqlite3",
}

_OS_IO_ATTRS = {
    "system",
    "popen",
    "remove",
    "unlink",
    "rename",
    "makedirs",
    "mkdir",
    "rmdir",
    "listdir",
    "scandir",
    "stat",
}

_PATH_IO_ATTRS = {
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
    "open",
    "unlink",
    "mkdir",
    "touch",
    "glob",
    "iterdir",
    "exists",
}

_IO_BUILTINS = {"open", "input", "print"}

#: Method names whose call mutates the receiver in place.
MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "clear",
    "sort",
    "reverse",
    "add",
    "discard",
    "update",
    "setdefault",
    "popitem",
    "appendleft",
    "extendleft",
    "rotate",
    "__setitem__",
    "__delitem__",
}


def dotted_chain(node: ast.AST) -> Optional[list[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``None`` for non-name-rooted bases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def root_name(node: ast.AST) -> Optional[str]:
    """Leftmost ``Name`` of an attribute/subscript chain, or ``None``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class FunctionScope:
    """Name classification for one analyzed function body."""

    def __init__(self, info: SourceInfo) -> None:
        self.info = info
        tree = info.tree
        self.params: list[str] = info.parameters
        self.global_decls: set[str] = set()
        self.nonlocal_decls: set[str] = set()
        self.local_stores: set[str] = set()
        function = info.function
        code = getattr(function, "__code__", None)
        self.freevars: set[str] = set(code.co_freevars) if code is not None else set()
        if tree is not None:
            for node in ast.walk(tree):
                if isinstance(node, ast.Global):
                    self.global_decls.update(node.names)
                elif isinstance(node, ast.Nonlocal):
                    self.nonlocal_decls.update(node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    if node.id not in self.global_decls | self.nonlocal_decls:
                        self.local_stores.add(node.id)
        # AST-derived closure view for functions analyzed without a live
        # code object (e.g. contract checks over plain module functions).
        self.freevars |= self.nonlocal_decls

    @property
    def candidate_param(self) -> Optional[str]:
        """The per-candidate argument: the first non-``self`` parameter."""
        params = [name for name in self.params if name != "self"]
        return params[0] if params else None

    @property
    def self_param(self) -> Optional[str]:
        return "self" if "self" in self.params else None

    def is_local(self, name: str) -> bool:
        return name in self.params or name in self.local_stores

    def kind(self, name: str) -> str:
        """Classify a name: ``param``/``self``/``local``/``free``/``global``."""
        if name == self.self_param:
            return "self"
        if name in self.params:
            return "param"
        if name in self.nonlocal_decls or (name in self.freevars and name not in self.local_stores):
            return "free"
        if name in self.global_decls:
            return "global"
        if name in self.local_stores:
            return "local"
        return "global"


class _LintVisitor(ast.NodeVisitor):
    """Single-pass emitter for the nondeterminism / mutation / I/O checks."""

    def __init__(self, info: SourceInfo, scope: FunctionScope, lf_name: str) -> None:
        self.info = info
        self.scope = scope
        self.lf_name = lf_name
        self.diagnostics: list[Diagnostic] = []
        # Constants bound to local names by simple single assignments, used
        # by the return-range inference (name -> frozenset of ints, or None
        # once the name is reassigned to something unresolvable).
        self.local_constants: dict[str, Optional[frozenset[int]]] = {}

    # ------------------------------------------------------------------ utils
    def _emit(self, code: str, message: str, node: ast.AST) -> None:
        diagnostic = make_diagnostic(
            code, message, lf_name=self.lf_name, lineno=getattr(node, "lineno", None)
        )
        if diagnostic not in self.diagnostics:
            self.diagnostics.append(diagnostic)

    def _resolve_module_of(self, name: str) -> Optional[str]:
        """``__name__`` of the module object bound to ``name``, if any."""
        value = self.info.resolve_name(name)
        if is_unresolved(value):
            return None
        module_name = getattr(value, "__name__", None)
        if module_name is not None and type(value).__name__ == "module":
            return module_name
        return None

    def _is_builtin(self, name: str) -> bool:
        """True when ``name`` is the unshadowed builtin of that name."""
        if self.scope.is_local(name) or name in self.scope.freevars:
            return False
        value = self.info.resolve_name(name)
        if is_unresolved(value):
            return True  # undefined name: assume the builtin was intended
        import builtins

        return value is getattr(builtins, name, None)

    # ------------------------------------------------------------------ calls
    def visit_Call(self, node: ast.Call) -> None:
        chain = dotted_chain(node.func)
        if chain is not None:
            self._check_call_chain(node, chain)
        self._check_mutating_method(node)
        self.generic_visit(node)

    def _check_call_chain(self, node: ast.Call, chain: list[str]) -> None:
        root, attrs = chain[0], chain[1:]
        if not attrs:
            self._check_bare_call(node, root)
            return
        if self.scope.is_local(root):
            return  # method call on a parameter or local: candidate access
        module = self._resolve_module_of(root)
        # Resolve one attribute deeper when the root is a package whose
        # submodule carries the draw (numpy.random, urllib.request, ...).
        submodule = None
        if module is not None and len(attrs) >= 2:
            inner = getattr(self.info.resolve_name(root), attrs[0], None)
            if type(inner).__name__ == "module":
                submodule = getattr(inner, "__name__", None)
        leaf = attrs[-1]
        dotted = ".".join(chain)

        if self._matches_random(module, submodule, dotted, attrs):
            if leaf in _NUMPY_RANDOM_CONSTRUCTORS or leaf == "Random":
                if not node.args and not node.keywords:
                    self._emit(
                        "LF201",
                        f"{dotted}() constructs an unseeded generator; pass an "
                        "explicit seed so every run draws the same stream",
                        node,
                    )
                return
            if module == "random" and leaf in _RANDOM_SAFE:
                return
            self._emit(
                "LF201",
                f"call to {dotted} draws from a shared unseeded RNG; labels "
                "will differ between runs and across executor backends",
                node,
            )
            return
        if (root, leaf) in _CLOCK_CALLS or (
            module in ("time", "datetime") and (module, leaf) in _CLOCK_CALLS
        ):
            self._emit(
                "LF202",
                f"call to {dotted} makes the label depend on the clock",
                node,
            )
            return
        if (root, leaf) in _ENTROPY_CALLS or module == "secrets":
            self._emit(
                "LF203",
                f"call to {dotted} reads an OS entropy source",
                node,
            )
            return
        self._check_io_chain(node, root, attrs, module, dotted)

    def _matches_random(
        self,
        module: Optional[str],
        submodule: Optional[str],
        dotted: str,
        attrs: list[str],
    ) -> bool:
        if module == "random":
            return True
        if module is not None and module.startswith("numpy") and attrs[0] == "random":
            return True
        if submodule is not None and submodule.startswith("numpy.random"):
            return True
        if module is None:
            # Unresolvable root: fall back to the conventional spellings.
            return (
                dotted.startswith("random.")
                or dotted.startswith("np.random.")
                or dotted.startswith("numpy.random.")
            )
        return False

    def _check_bare_call(self, node: ast.Call, name: str) -> None:
        if name in ("hash", "id") and self._is_builtin(name):
            self._emit(
                "LF204",
                f"{name}() output varies across interpreter runs "
                "(PYTHONHASHSEED / address layout); derive the label from "
                "stable candidate fields instead",
                node,
            )
        elif name in _IO_BUILTINS and self._is_builtin(name):
            self._emit(
                "LF401",
                f"{name}() runs once per candidate; hoist I/O out of the LF "
                "or precompute the resource",
                node,
            )

    def _check_io_chain(
        self,
        node: ast.Call,
        root: str,
        attrs: list[str],
        module: Optional[str],
        dotted: str,
    ) -> None:
        leaf = attrs[-1]
        if module == "os" and leaf in _OS_IO_ATTRS:
            self._emit("LF401", f"call to {dotted} performs I/O per candidate", node)
            return
        if module is not None and (module in _IO_MODULES or module.split(".")[0] in _IO_MODULES):
            self._emit("LF401", f"call to {dotted} performs I/O per candidate", node)
            return
        if module is None and root in _IO_MODULES and not self.scope.is_local(root):
            self._emit("LF401", f"call to {dotted} performs I/O per candidate", node)
            return
        value = self.info.resolve_name(root)
        path_types = ("Path", "PosixPath", "WindowsPath")
        if not is_unresolved(value) and type(value).__name__ in path_types:
            if leaf in _PATH_IO_ATTRS:
                self._emit("LF401", f"call to {dotted} performs I/O per candidate", node)

    # -------------------------------------------------------------- mutation
    def _mutation_code(self, name: str) -> Optional[tuple[str, str]]:
        kind = self.scope.kind(name)
        if kind == "global":
            value = self.info.resolve_name(name)
            if is_unresolved(value):
                return None
            if type(value).__name__ == "module":
                return None  # module attribute writes are caught via stores
            return ("LF301", f"module-level object {name!r}")
        if kind == "free":
            return ("LF302", f"closure variable {name!r}")
        if kind == "param":
            if name == self.scope.candidate_param:
                return ("LF303", f"candidate argument {name!r}")
            return None
        if kind == "self":
            return ("LF304", "LF instance state (self)")
        return None

    def _check_mutating_method(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATING_METHODS:
            return
        name = root_name(func.value)
        if name is None:
            return
        target = self._mutation_code(name)
        if target is not None:
            code, what = target
            self._emit(
                code,
                f".{func.attr}() mutates {what}; shared state diverges under "
                "the threads/processes executors",
                node,
            )

    def _check_store_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.scope.global_decls:
                self._emit(
                    "LF301",
                    f"assignment to global {target.id!r}; worker processes "
                    "each mutate their own copy and runs diverge",
                    target,
                )
            elif target.id in self.scope.nonlocal_decls:
                self._emit(
                    "LF302",
                    f"assignment to nonlocal {target.id!r} mutates closure "
                    "state shared across candidates",
                    target,
                )
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            name = root_name(target)
            if name is None:
                return
            result = self._mutation_code(name)
            if result is not None:
                code, what = result
                kind = "attribute" if isinstance(target, ast.Attribute) else "item"
                self._emit(code, f"{kind} store into {what}", target)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store_target(element)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_target(target)
        self._track_local_constant(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_store_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_store_target(target)
        self.generic_visit(node)

    # ---------------------------------------------- local constant tracking
    def _track_local_constant(self, node: ast.Assign) -> None:
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        name = node.targets[0].id
        values = _eval_label_expr(node.value, self.info, {})
        if name in self.local_constants or values is None:
            # Reassignment (or unresolvable value) invalidates the binding.
            self.local_constants[name] = None
        else:
            self.local_constants[name] = values


def _eval_label_expr(
    node: ast.AST,
    info: SourceInfo,
    local_constants: dict[str, Optional[frozenset[int]]],
) -> Optional[frozenset[int]]:
    """Possible integer label values of an expression, or ``None`` if unknown.

    ``None``/``True``/``False`` follow the canonicalization of
    :class:`repro.labeling.lf.LabelingFunction`: abstain / +1 / -1.
    """
    if isinstance(node, ast.Constant):
        value = node.value
        if value is None:
            return frozenset({0})
        if value is True:
            return frozenset({1})
        if value is False:
            return frozenset({-1})
        if isinstance(value, int):
            return frozenset({int(value)})
        return None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _eval_label_expr(node.operand, info, local_constants)
        if inner is None:
            return None
        sign = -1 if isinstance(node.op, ast.USub) else 1
        return frozenset(sign * value for value in inner)
    if isinstance(node, ast.Name):
        if node.id in local_constants:
            return local_constants[node.id]
        value = info.resolve_name(node.id)
        if is_unresolved(value):
            return None
        if value is None:
            return frozenset({0})
        if value is True:
            return frozenset({1})
        if value is False:
            return frozenset({-1})
        if isinstance(value, int):
            return frozenset({int(value)})
        return None
    if isinstance(node, ast.IfExp):
        body = _eval_label_expr(node.body, info, local_constants)
        orelse = _eval_label_expr(node.orelse, info, local_constants)
        if body is None or orelse is None:
            return None
        return body | orelse
    if isinstance(node, (ast.Compare,)):
        # A comparison result canonicalizes True -> +1, False -> -1.
        return frozenset({1, -1})
    if isinstance(node, ast.BoolOp):
        values: frozenset[int] = frozenset()
        for operand in node.values:
            inner = _eval_label_expr(operand, info, local_constants)
            if inner is None:
                return None
            values |= inner
        return values
    return None


def _iter_own_returns(tree: ast.AST) -> Iterable[ast.Return]:
    """``Return`` nodes of this function, not of nested function definitions."""
    stack = list(getattr(tree, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Return):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _falls_off_end(tree: ast.AST) -> bool:
    """Conservatively: can control flow reach the implicit ``return None``?

    True unless the final top-level statement is a ``return`` or ``raise``
    (an ``if``/``else`` whose branches all return also counts, one level
    deep — enough for real LF bodies without building a CFG).
    """
    body = getattr(tree, "body", None)
    if not body:
        return True
    return not _always_exits(body[-1])


def _always_exits(node: ast.stmt) -> bool:
    if isinstance(node, (ast.Return, ast.Raise)):
        return True
    if isinstance(node, ast.If):
        if not node.orelse:
            return False
        return _always_exits_block(node.body) and _always_exits_block(node.orelse)
    if isinstance(node, ast.Try):
        if node.finalbody and _always_exits_block(node.finalbody):
            return True
        if not _always_exits_block(node.body):
            return False
        return all(_always_exits_block(handler.body) for handler in node.handlers)
    return False


def _always_exits_block(body: list[ast.stmt]) -> bool:
    return bool(body) and _always_exits(body[-1])


def infer_labels(
    info: SourceInfo,
    local_constants: dict[str, Optional[frozenset[int]]],
) -> tuple[Optional[frozenset[int]], frozenset[int], bool]:
    """Return-range inference over one function body.

    Returns ``(complete, partial, has_abstain_path)`` where ``complete`` is
    the full label set when *every* return path resolved (else ``None``),
    ``partial`` is the union of the paths that did resolve (for range
    checks), and ``has_abstain_path`` is True when an abstention
    (``return None`` / fall-off) is provably reachable.
    """
    tree = info.tree
    if isinstance(tree, ast.Lambda):
        values = _eval_label_expr(tree.body, info, local_constants)
        if values is None:
            return None, frozenset(), False
        return values, values, 0 in values
    resolved: frozenset[int] = frozenset()
    complete = True
    for node in _iter_own_returns(tree):
        if node.value is None:
            resolved |= frozenset({0})
            continue
        values = _eval_label_expr(node.value, info, local_constants)
        if values is None:
            complete = False
            continue
        resolved |= values
    if _falls_off_end(tree):
        resolved |= frozenset({0})
    has_abstain = 0 in resolved
    return (resolved if complete else None), resolved, has_abstain


def lint_function(
    info: SourceInfo,
    lf_name: str,
    cardinality: int = 2,
) -> tuple[list[Diagnostic], Optional[frozenset[int]]]:
    """Run every AST check; return (diagnostics, complete label set or None)."""
    if info.tree is None:
        code = "LF001" if info.failure == "unavailable" else "LF002"
        return (
            [
                make_diagnostic(
                    code,
                    "static checks skipped; only runtime probes apply",
                    lf_name=lf_name,
                )
            ],
            None,
        )
    scope = FunctionScope(info)
    visitor = _LintVisitor(info, scope, lf_name)
    visitor.visit(info.tree)
    diagnostics = visitor.diagnostics

    complete, partial, has_abstain = infer_labels(info, visitor.local_constants)
    valid = _valid_labels(cardinality)
    bad = sorted(value for value in partial if value not in valid)
    if bad:
        diagnostics.append(
            make_diagnostic(
                "LF101",
                f"returns label(s) {bad} outside the declared cardinality-"
                f"{cardinality} range {sorted(valid)}",
                lf_name=lf_name,
                lineno=getattr(info.tree, "lineno", None),
            )
        )
    elif complete is not None:
        if not has_abstain:
            diagnostics.append(
                make_diagnostic(
                    "LF102",
                    "every return path emits a label; an LF that cannot "
                    "abstain forces a vote on every candidate",
                    lf_name=lf_name,
                    lineno=getattr(info.tree, "lineno", None),
                )
            )
        if complete <= {0}:
            diagnostics.append(
                make_diagnostic(
                    "LF103",
                    "every return path abstains; the LF contributes no labels",
                    lf_name=lf_name,
                    lineno=getattr(info.tree, "lineno", None),
                )
            )
    return diagnostics, complete


def _valid_labels(cardinality: int) -> frozenset[int]:
    if cardinality == 2:
        return frozenset({-1, 0, 1})
    return frozenset(range(0, cardinality + 1))
