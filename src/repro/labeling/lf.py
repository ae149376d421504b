"""The labeling function abstraction.

A labeling function (LF) is a black-box function ``λ : X → Y ∪ {∅}`` that
takes a candidate and emits a label or abstains (paper Section 2).  In this
library LFs are wrapped in :class:`LabelingFunction`, which normalizes return
values (``True`` / ``False`` / ``None`` map to +1 / -1 / 0), tracks optional
metadata (a *source type* such as ``"pattern"`` or ``"distant_supervision"``
used by the ablation experiments), and validates outputs so buggy LFs fail
loudly during application.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import re
import sys
import types
import weakref
from itertools import repeat
from typing import Any, Callable, Optional

from repro.exceptions import LabelingError
from repro.types import ABSTAIN, NEGATIVE, POSITIVE


def canonical_label(raw: Any, name: str, cardinality: int) -> int:
    """The integer label a raw LF return value stands for.

    ``True`` / ``False`` / ``None`` map to +1 / -1 / 0; an ``int`` must lie in
    ``{-1, 0, 1}`` (binary) or ``0..cardinality``; anything else raises
    :class:`LabelingError` naming the LF.  Compiled programs
    (:mod:`repro.labeling.pushdown`) canonicalize through this same function.
    """
    if raw is None:
        return ABSTAIN
    if raw is True:
        return POSITIVE
    if raw is False:
        return NEGATIVE
    if isinstance(raw, (int,)) and not isinstance(raw, bool):
        value = int(raw)
        if cardinality == 2:
            if value in (NEGATIVE, ABSTAIN, POSITIVE):
                return value
            raise LabelingError(
                f"labeling function {name!r} returned {value}, expected one of "
                f"{{-1, 0, 1}} (binary task)"
            )
        if 0 <= value <= cardinality:
            return value
        raise LabelingError(
            f"labeling function {name!r} returned {value}, expected 0..{cardinality}"
        )
    raise LabelingError(
        f"labeling function {name!r} returned {raw!r} of type {type(raw).__name__}; "
        "expected True/False/None or an integer label"
    )


class LabelingFunction:
    """A named, typed wrapper around a user labeling heuristic.

    Parameters
    ----------
    name:
        Unique name of the LF (used in analysis tables and correlation plots).
    function:
        The underlying callable.  May return ``True``/``False``/``None``, an
        integer label in ``{-1, 0, +1}`` (binary), or an integer class label
        ``>= 1`` for multi-class tasks.
    source_type:
        Category of weak supervision the LF expresses.  The paper's ablation
        (Table 6) groups LFs into ``"pattern"``, ``"distant_supervision"``,
        and ``"structure"``; crowd-worker LFs use ``"crowd"`` and weak
        classifiers ``"classifier"``.
    cardinality:
        Number of classes (2 for binary).  Used only for output validation.
    """

    def __init__(
        self,
        name: str,
        function: Callable[[Any], Any],
        source_type: str = "custom",
        cardinality: int = 2,
    ) -> None:
        if not name:
            raise LabelingError("labeling functions must have a non-empty name")
        if not callable(function):
            raise LabelingError(f"labeling function {name!r} is not callable")
        self.name = name
        self.function = function
        self.source_type = source_type
        self.cardinality = cardinality

    def __call__(self, candidate: Any) -> int:
        """Apply the LF to a candidate and return a canonical integer label."""
        try:
            raw = self.function(candidate)
        except Exception as exc:  # noqa: BLE001 - we re-raise with LF context
            raise LabelingError(
                f"labeling function {self.name!r} raised {type(exc).__name__}: {exc}"
            ) from exc
        return canonical_label(raw, self.name, self.cardinality)

    def __reduce_ex__(self, protocol: Any) -> Any:
        """Pickle by reference when this LF is the module attribute it names.

        :func:`labeling_function` rebinds a module-level function's name to
        its wrapper, so the inner function no longer pickles by reference;
        the wrapper does instead, as the function would have.  Any other LF
        pickles by value.
        """
        qualname = self.__dict__.get("__qualname__")
        module = sys.modules.get(self.__dict__.get("__module__"))  # type: ignore[arg-type]
        if qualname is not None and getattr(module, qualname, None) is self:
            return qualname
        return super().__reduce_ex__(protocol)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"LabelingFunction(name={self.name!r}, source_type={self.source_type!r})"


def labeling_function(
    name: Optional[str] = None,
    source_type: str = "custom",
    cardinality: int = 2,
) -> Callable[[Callable[[Any], Any]], LabelingFunction]:
    """Decorator turning a plain function into a :class:`LabelingFunction`.

    Example
    -------
    >>> @labeling_function(source_type="pattern")
    ... def lf_causes(x):
    ...     return True if "causes" in x.words_between() else None
    """

    def decorate(function: Callable[[Any], Any]) -> LabelingFunction:
        lf_name = name or function.__name__
        wrapped = LabelingFunction(
            name=lf_name,
            function=function,
            source_type=source_type,
            cardinality=cardinality,
        )
        functools.update_wrapper(wrapped, function, updated=())
        return wrapped

    return decorate


def code_names(code: types.CodeType) -> list[str]:
    """Every name ``code`` and the code objects nested in it may load."""
    names = list(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names += code_names(const)
    return names


class _Undigestable(Exception):
    """A value with no encoding that is the same in every process."""


#: Values encoded by their qualified name alone.
_NAMED = (type, types.BuiltinFunctionType, types.MethodDescriptorType, types.WrapperDescriptorType)

#: ``type.__flags__`` bit of a class created at run time (``Py_TPFLAGS_HEAPTYPE``).
_HEAPTYPE = 1 << 9

#: Encoded code objects (immutable, so encoded once; weakly, so an entry goes with its code).
_CODES: "weakref.WeakKeyDictionary[types.CodeType, tuple]" = weakref.WeakKeyDictionary()


def lf_digest(lf: Any) -> Optional[str]:
    """A digest of what ``lf`` computes, equal in every process and under every
    hash seed; ``None`` when something it reads has no such encoding.

    It covers the LF's code — bytecode, constants and names, nested code
    included — and the values that code reads: the globals it names, its
    closure cells and defaults, and the attributes of the LF and of a
    callable instance (whose class's ``__call__`` is code it runs), down
    through every function, bound method and object among them — an
    object's ``__dict__`` and every slot along its MRO.  Sets and dict
    items are encoded in sorted order, so no hash seed reorders them;
    modules, classes and builtins stand for themselves by name.
    """
    encoded = encoding(lf)
    if encoded is None:
        return None
    return hashlib.blake2b(repr(encoded).encode(), digest_size=16).hexdigest()


def encoding(value: Any) -> Optional[tuple]:
    """The nested tuple of plain values :func:`lf_digest` encodes a container
    or object as, everything it holds included; ``None`` when something in
    it has no such encoding."""
    try:
        return _encode(value, set())
    except (_Undigestable, RecursionError):
        return None


def _slot_state(kind: type, value: Any) -> list:
    """``(class, slot, value)`` for every slot along ``kind``'s MRO, read
    through the slot itself; ``(class, slot)`` for an unset one."""
    state = []
    for base in kind.__mro__:
        for name, slot in sorted(vars(base).items()):
            if type(slot) is types.MemberDescriptorType:
                try:
                    state.append((base.__qualname__, name, slot.__get__(value, base)))
                except AttributeError:
                    state.append((base.__qualname__, name))
    return state


def _encode(value: Any, active: set) -> Any:
    """A nested tuple of plain values standing for ``value`` (see :func:`lf_digest`)."""
    kind = type(value)
    if kind in (type(None), bool, int, float, complex, str, bytes):
        return value
    if kind in (tuple, list):
        return (kind.__name__, *map(_encode, value, repeat(active)))
    if kind in (set, frozenset, dict):
        items = value.items() if kind is dict else value
        return (kind.__name__, *sorted(map(repr, map(_encode, items, repeat(active)))))
    if kind is re.Pattern:
        return ("re", value.pattern, value.flags)
    if kind is types.ModuleType:
        return ("module", value.__name__)
    if isinstance(value, _NAMED):
        return ("named", getattr(value, "__module__", None), value.__qualname__)
    if kind is types.CodeType:
        encoded = _CODES.get(value)
        if encoded is None:
            names = (value.co_names, value.co_varnames, value.co_freevars)
            encoded = ("code", value.co_code, names, _encode(value.co_consts, active))
            _CODES[value] = encoded
        return encoded
    if id(value) in active:  # a function or object already being encoded, higher up
        return ("cycle", kind.__qualname__)
    active.add(id(value))
    try:
        if kind is types.FunctionType:
            cells = []
            for cell in value.__closure__ or ():
                try:
                    cells.append(cell.cell_contents)
                except ValueError:  # an empty cell
                    cells.append(("empty cell",))
            names = sorted(set(code_names(value.__code__)) & value.__globals__.keys())
            reads = [(name, value.__globals__[name]) for name in names]
            parts = (value.__code__, value.__defaults__, value.__kwdefaults__, cells, reads)
            return ("function", value.__module__, value.__qualname__, _encode(parts, active))
        if kind is types.MethodType:
            return ("method", _encode((value.__func__, value.__self__), active))
        state = getattr(value, "__dict__", None)
        python_defined = all(base is object or base.__flags__ & _HEAPTYPE for base in kind.__mro__)
        slotted = any("__slots__" in vars(base) for base in kind.__mro__)
        if not (python_defined and (isinstance(state, dict) or (slotted and state is None))):
            raise _Undigestable(kind.__qualname__)  # state beyond its __dict__ and slots
        if slotted:
            state = (_slot_state(kind, value), state)
        call = getattr(kind, "__call__", None)
        call = call if inspect.isfunction(call) else None
        return ("object", kind.__module__, kind.__qualname__, _encode((call, state), active))
    finally:
        active.discard(id(value))
