"""Exception hierarchy for the Snorkel reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ContextError(ReproError):
    """Raised when the context hierarchy is used inconsistently."""


class LabelingError(ReproError):
    """Raised when a labeling function misbehaves (bad return value, etc.)."""


class LabelModelError(ReproError):
    """Raised by generative label-model training or inference failures."""


class NotFittedError(ReproError):
    """Raised when predictions are requested from an unfitted model."""


class DatasetError(ReproError):
    """Raised when a synthetic task dataset cannot be constructed."""


class ConfigurationError(ReproError):
    """Raised for invalid user-facing configuration values."""
