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
