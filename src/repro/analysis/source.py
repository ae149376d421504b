"""Source extraction and environment resolution for LF callables.

The analyzer receives *callables* — plain functions, closures produced by the
declarative operators, ``functools.partial`` objects, bound methods, or class
instances with ``__call__`` (the picklable vote readers) — possibly wrapped
in a :class:`repro.labeling.lf.LabelingFunction`.  This module normalizes all
of those into the underlying function object, recovers its source with
``inspect``/``ast``, and exposes the two environments static evaluation can
draw constants from: the closure cells and the defining module's globals.
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

_UNRESOLVED = object()


def resolve_function(fn: Any) -> Callable:
    """Unwrap ``fn`` to the innermost plain function object.

    Handles :class:`~repro.labeling.lf.LabelingFunction` wrappers (their
    ``.function`` attribute), ``functools.partial``, bound methods, and
    callable instances (``type(fn).__call__``).  Returns the original object
    when no further unwrapping applies.
    """
    seen: set[int] = set()
    while id(fn) not in seen:
        seen.add(id(fn))
        wrapped = getattr(fn, "function", None)
        if wrapped is not None and callable(wrapped) and not inspect.isfunction(fn):
            fn = wrapped
            continue
        if isinstance(fn, functools.partial):
            fn = fn.func
            continue
        if inspect.ismethod(fn):
            fn = fn.__func__
            continue
        if not inspect.isfunction(fn) and hasattr(type(fn), "__call__"):
            call = type(fn).__call__
            if inspect.isfunction(call):
                fn = call
                continue
        break
    return fn


@dataclass
class SourceInfo:
    """The analyzable view of one callable."""

    function: Callable
    #: The ``ast.FunctionDef`` / ``ast.Lambda`` node of the body, or ``None``
    #: when source was unavailable or unparsable.
    tree: Optional[ast.AST] = None
    source: Optional[str] = None
    #: Why ``tree`` is ``None``: ``"unavailable"``, ``"unparsable"`` or
    #: ``"ambiguous"`` (the fragment is not provably this function's body).
    failure: Optional[str] = None
    #: Closure environment: free-variable name -> cell contents.
    closure: dict[str, Any] = field(default_factory=dict)
    #: The defining module's global namespace (may be empty for builtins).
    globals: dict[str, Any] = field(default_factory=dict)

    @property
    def parameters(self) -> list[str]:
        """Positional parameter names of the analyzed function."""
        if self.tree is None:
            return []
        args = self.tree.args
        names = [arg.arg for arg in args.posonlyargs + args.args]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        names.extend(arg.arg for arg in args.kwonlyargs)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        return names

    def resolve_name(self, name: str) -> Any:
        """Look ``name`` up in the closure, then the globals, then builtins.

        Returns :data:`_UNRESOLVED` when the name is not bound anywhere the
        analyzer can see (e.g. a local).
        """
        if name in self.closure:
            return self.closure[name]
        if name in self.globals:
            return self.globals[name]
        builtins = self.globals.get("__builtins__")
        if isinstance(builtins, dict) and name in builtins:
            return builtins[name]
        if builtins is not None and not isinstance(builtins, dict):
            return getattr(builtins, name, _UNRESOLVED)
        return _UNRESOLVED


def is_unresolved(value: Any) -> bool:
    """True when :meth:`SourceInfo.resolve_name` failed to bind the name."""
    return value is _UNRESOLVED


def _find_function_node(module: ast.Module, name: str) -> Optional[ast.AST]:
    """The node of the code object named ``name`` in a parsed source fragment.

    ``inspect.getsource`` of a decorated function returns the decorated
    definition; of a lambda, the whole statement.  Either way the target is
    the first ``FunctionDef``/``AsyncFunctionDef``/``Lambda`` in the fragment
    — if it is the function asked about: ``getsource`` of a
    ``functools.wraps`` wrapper is the *wrapped* definition, and of one of
    several lambdas on a line is all of them.  The compiler replays this
    tree in place of the function, so what is not provably its body is none.
    """
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node if node.name == name else None
        if isinstance(node, ast.Lambda):
            lambdas = sum(isinstance(other, ast.Lambda) for other in ast.walk(module))
            return node if name == "<lambda>" and lambdas == 1 else None
    return None


#: Memoized ``(source, tree, failure)`` per code object (weakly, in the
#: discipline of ``repro.analysis._ANALYSIS_CACHE``): ``inspect.getsource``
#: re-scans the defining module and ``ast.parse`` re-parses the body on every
#: call, and every closure a factory stamps out shares one code object.  No
#: analysis or compiler pass mutates the tree.
_PARSED: "weakref.WeakKeyDictionary[Any, tuple]" = weakref.WeakKeyDictionary()


def _parse(function: Callable) -> tuple:
    try:
        source = textwrap.dedent(inspect.getsource(function))
    except (OSError, TypeError):
        return None, None, "unavailable"
    try:
        module = ast.parse(source)
    except SyntaxError:
        # A lambda inside a larger expression (e.g. a call argument) does
        # not dedent into valid standalone source.
        return source, None, "unparsable"
    tree = _find_function_node(module, function.__code__.co_name)
    return source, tree, None if tree is not None else "ambiguous"


def extract_source(fn: Any) -> SourceInfo:
    """Build the :class:`SourceInfo` for any callable the analyzer accepts."""
    function = resolve_function(fn)
    info = SourceInfo(function=function)
    if inspect.isfunction(function):
        for name, cell in zip(function.__code__.co_freevars, function.__closure__ or ()):
            try:
                info.closure[name] = cell.cell_contents
            except ValueError:  # pragma: no cover - unfilled cell
                continue
        info.globals = function.__globals__
    if not (inspect.isfunction(function) or inspect.ismethod(function)):
        info.failure = "unavailable"
        return info
    code = function.__code__
    parsed = _PARSED.get(code)
    if parsed is None:
        parsed = _PARSED[code] = _parse(function)
    info.source, info.tree, info.failure = parsed
    return info
