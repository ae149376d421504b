"""Input validation helpers shared by public APIs."""

from __future__ import annotations

from repro.exceptions import ConfigurationError


def require_probability(name: str, value: float) -> float:
    """Raise :class:`ConfigurationError` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)
