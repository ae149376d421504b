"""Source extraction and environment resolution for LF callables.

The pushdown compiler and the LF linter (:mod:`repro.analysis`) receive
*callables* — plain functions, closures produced by the
declarative operators, ``functools.partial`` objects, bound methods, or class
instances with ``__call__`` (the picklable vote readers) — possibly wrapped
in a :class:`repro.labeling.lf.LabelingFunction`.  This module normalizes all
of those into the underlying function object, recovers its source with
``inspect``/``ast`` — only when that source still compiles to the code
that runs — and exposes the two environments static evaluation can draw
constants from: the closure cells and the defining module's globals.
"""

import __future__

import ast
import copy
import functools
import inspect
import linecache
import operator
import textwrap
import types
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.labeling.lf import encoding

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
    #: Why ``tree`` is ``None``: ``"unavailable"``, ``"unparsable"``,
    #: ``"ambiguous"`` (the fragment is not provably this function's body) or
    #: ``"stale"`` (the file no longer holds the running code).
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
    — if it is the function asked about: the source of one of several
    lambdas on a line is all of them.  The compiler replays this tree in
    place of the function, so what is not provably its body is none.
    """
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node if node.name == name else None
        if isinstance(node, ast.Lambda):
            lambdas = sum(isinstance(other, ast.Lambda) for other in ast.walk(module))
            return node if name == "<lambda>" and lambdas == 1 else None
    return None


#: Memoized ``(code ref, (source, tree, failure))`` per code object: reading,
#: parsing and compiling the body again on every call would cost more than
#: the decision it feeds, and every closure a factory stamps out shares one
#: code object.  A code object is immutable, so whether its source compiles
#: to it never changes.  Keyed by identity, not by code equality, which
#: ignores the file (an exec'd copy of a function has no source of its own),
#: and weakly: an entry goes with its code.  No analysis or compiler pass
#: mutates the tree.
_PARSED: dict[int, tuple] = {}


def _forget(key: int, _ref: Any) -> None:
    _PARSED.pop(key, None)


#: Every ``__future__`` compiler flag a code object's ``co_flags`` can carry.
_FUTURE_FLAGS = functools.reduce(
    operator.or_, (getattr(__future__, name).compiler_flag for name in __future__.all_feature_names)
)


@functools.lru_cache(maxsize=64)
def _imported_names(module_source: str) -> frozenset:
    """The names a module's own scope binds by ``import``."""
    names, stack = set(), [ast.parse(module_source)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return frozenset(names)


def _compiled_encoding(module: ast.Module, path: list, flags: int) -> Optional[tuple]:
    """:func:`~repro.labeling.lf.encoding` of the code object at ``path``
    (nested code names) in the compiled ``module``."""
    try:
        compiled = compile(module, "<source>", "exec", flags=flags, dont_inherit=True)
    except (SyntaxError, ValueError):
        return None
    for name in path:
        compiled = next(
            (const for const in compiled.co_consts
             if isinstance(const, types.CodeType) and const.co_name == name),
            None,
        )
        if compiled is None:
            return None
    return encoding(compiled)


def _compiles_to(tree: ast.AST, function: Callable) -> bool:
    """Does the extracted ``tree`` compile to ``function``'s code, line
    tables aside?

    ``inspect.getsource`` reads the defining file as it is now, and an edit
    since import changed it, not the code that runs.  The node is compiled
    without its decorators, with the code's ``__future__`` flags, inside a
    synthetic function that binds the code's free variables (so closure
    reads stay closure reads) and, for a method, a class of its owner's name
    (so private names mangle alike); the two are compared by the code part
    of :func:`repro.labeling.lf.encoding` — bytecode, names, constants and
    nested code, no line numbers.
    """
    code, at = function.__code__, {"lineno": 1, "col_offset": 0}
    expected = encoding(code)
    if expected is None:
        return False
    node = copy.copy(tree)
    if isinstance(node, ast.Lambda):
        node = ast.Expr(node, **at)
    else:
        node.decorator_list = []
    path, body = ["_synthetic", code.co_name], [node]
    owner = function.__qualname__.split(".")[-2:-1]
    if owner and owner[0].isidentifier():
        path.insert(1, owner[0])
        body = [ast.ClassDef(owner[0], [], [], body, [], **at)]
    free = [name for name in code.co_freevars if not (len(path) > 2 and name == "__class__")]
    if free:
        targets = [ast.Name(name, ast.Store(), **at) for name in free]
        body.insert(0, ast.Assign(targets, ast.Constant(None, **at), **at))
    arguments = ast.arguments([], [], None, [], [], None, [])
    module = ast.Module([ast.FunctionDef("_synthetic", arguments, body, [], **at)], [])
    flags = code.co_flags & _FUTURE_FLAGS
    if _compiled_encoding(module, path, flags) == expected:
        return True
    # CPython 3.11+ compiles a call ``name.attr()`` differently when the
    # defining module imports ``name``: import those, and compile again.
    receivers = {
        call.func.value.id for call in ast.walk(tree)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name) and call.func.value.id in function.__globals__
    }
    if not receivers:
        return False
    try:
        imported = receivers & _imported_names("".join(linecache.getlines(code.co_filename)))
    except (SyntaxError, ValueError):
        return False
    module.body[:0] = [ast.Import([ast.alias(name, **at)], **at) for name in sorted(imported)]
    return bool(imported) and _compiled_encoding(module, path, flags) == expected


def _parse_block(source: str, function: Callable) -> tuple:
    """``(source, tree, failure)`` of one candidate source text."""
    try:
        module = ast.parse(source)
    except SyntaxError:
        # A lambda inside a larger expression (e.g. a call argument) does
        # not dedent into valid standalone source.
        return source, None, "unparsable"
    tree = _find_function_node(module, function.__code__.co_name)
    if tree is None:
        return source, None, "ambiguous"
    if not _compiles_to(tree, function):
        return source, None, "stale"
    return source, tree, None


def _blocks(code: types.CodeType, lines: list) -> Iterator[str]:
    """Where the definition of ``code`` may lie in its file's ``lines``.

    ``inspect.getsource`` without its module search: the code names its
    first line (a decorator's, a ``def``'s or a lambda's).  A ``def`` ends,
    as a rule, where its last instruction's statement does, which needs no
    tokenizing; ``inspect.getblock``'s end, which does, is tried next.
    """
    first = code.co_firstlineno - 1
    if code.co_name != "<lambda>" and hasattr(code, "co_positions"):  # 3.11+
        ends = [end for _, end, _, _ in code.co_positions() if end]
        if ends:
            yield "".join(lines[first:max(ends)])
    yield "".join(inspect.getblock(lines[first:]))


def _parse(function: Callable) -> tuple:
    # The code that runs names its own lines: a ``functools.wraps`` wrapper
    # is read as the wrapper, not (as ``inspect.getsource`` would) as the
    # definition its ``__wrapped__`` points at.
    code = function.__code__
    linecache.checkcache(code.co_filename)
    lines = linecache.getlines(code.co_filename, function.__globals__)
    if not lines:
        return None, None, "unavailable"
    for block in _blocks(code, lines):
        parsed = _parse_block(textwrap.dedent(block), function)
        if parsed[1] is None and block[:1].isspace():
            # Dedenting rewrites the multi-line strings of an indented
            # body; under an ``if`` the block keeps them.
            retry = _parse_block(f"if 1:\n{block}", function)
            if retry[1] is not None:
                parsed = (parsed[0], ast.increment_lineno(retry[1], -1), None)
        if parsed[1] is not None:
            return parsed
    return parsed


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
    entry = _PARSED.get(id(code))
    if entry is None or entry[0]() is not code:
        forget = functools.partial(_forget, id(code))
        entry = _PARSED[id(code)] = (weakref.ref(code, forget), _parse(function))
    info.source, info.tree, info.failure = entry[1]
    return info
