"""AST lint passes over labeling-function bodies.

:func:`lint_function` runs the two checks that flag an interpreted LF
which would label the same candidates differently without raising:

* **Nondeterminism** — unseeded ``random`` / ``numpy.random`` draws
  (``LF201``), clock reads (``LF202``), entropy sources (``LF203``), and
  ``hash()``/``id()`` dependence (``LF204``).  Call targets are resolved
  through the closure and module globals to the defining module when
  possible, with a textual fallback for unresolvable roots so aliased
  imports still match.
* **Shared-state hazards** — ``global``-declared stores and mutation of
  module-level objects (``LF301``; a method call on a module-level
  ``random.Random`` / ``numpy.random`` generator counts, seeded or not, since
  every draw advances the state all candidates share), ``nonlocal`` stores
  and mutation of closure cells (``LF302``), candidate-argument mutation
  (``LF303``), and LF-instance (``self``) mutation (``LF304``) — the hazards
  that make an LF unsafe under the threads executor and divergent under the
  processes one.
"""

from __future__ import annotations

import ast
import builtins
import random
from typing import Optional

import numpy as np

from repro.analysis.diagnostics import CODES, Diagnostic
from repro.labeling.source import SourceInfo, is_unresolved

#: ``random``-module attributes that do *not* constitute an unseeded draw.
_RANDOM_SAFE = {"seed", "getstate", "setstate", "Random", "SystemRandom"}

#: ``numpy.random`` attributes that are constructors, not draws; calling one
#: *without arguments* is still an unseeded source.
_NUMPY_RANDOM_CONSTRUCTORS = {"default_rng", "RandomState", "Generator", "SeedSequence"}

#: Generator objects whose methods advance (or reset) the state they hold.
_GENERATOR_TYPES = (random.Random, np.random.Generator, np.random.RandomState)

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
        self.params: list[str] = info.parameters
        self.global_decls: set[str] = set()
        self.nonlocal_decls: set[str] = set()
        self.local_stores: set[str] = set()
        self.freevars: set[str] = set(info.function.__code__.co_freevars)
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Global):
                self.global_decls.update(node.names)
            elif isinstance(node, ast.Nonlocal):
                self.nonlocal_decls.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                if node.id not in self.global_decls | self.nonlocal_decls:
                    self.local_stores.add(node.id)

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
    """Single-pass emitter for the nondeterminism / mutation checks."""

    def __init__(self, info: SourceInfo, scope: FunctionScope, lf_name: str) -> None:
        self.info = info
        self.scope = scope
        self.lf_name = lf_name
        self.diagnostics: list[Diagnostic] = []

    # ------------------------------------------------------------------ utils
    def _emit(self, code: str, message: str, node: ast.AST) -> None:
        diagnostic = Diagnostic(
            code, CODES[code][0], message, self.lf_name, getattr(node, "lineno", None)
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
        if isinstance(self.info.resolve_name(root), _GENERATOR_TYPES):
            target = self._mutation_code(root)
            if target is not None:
                code, what = target
                self._emit(
                    code,
                    f"{'.'.join(chain)}() advances the generator held by {what}; "
                    "each label depends on how many draws ran before it",
                    node,
                )
            return
        module = self._resolve_module_of(root)
        # Resolve one attribute deeper when the root is a package whose
        # submodule carries the draw (numpy.random, ...).
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


def lint_function(info: SourceInfo, lf_name: str) -> list[Diagnostic]:
    """Every AST check over one LF body; nothing when no source of it was
    read (``info.tree`` is ``None``: unavailable, ambiguous or stale)."""
    if info.tree is None:
        return []
    visitor = _LintVisitor(info, FunctionScope(info), lf_name)
    visitor.visit(info.tree)
    return visitor.diagnostics
