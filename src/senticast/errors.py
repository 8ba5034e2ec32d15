"""Exception hierarchy shared across the package.

Validation-style failures subclass ``ValidationError`` (itself a
``ValueError``) so both library callers and the CLI can map them to a
single exit code.
"""

from __future__ import annotations


class SenticastError(Exception):
    """Base class for all package errors."""


class ValidationError(SenticastError, ValueError):
    """Bad input data, parameters, or configuration."""


class ParseError(ValidationError):
    """Malformed input file; message carries the line number."""


class CalendarError(ValidationError):
    """A date fell outside the business calendar."""


class AlignmentError(ValidationError):
    """Price and text series could not be joined."""


class ShapeError(ValidationError):
    """Tensor or matrix diagnostics for mismatched dimensions."""


class ConfigError(ValidationError):
    """Invalid model or run configuration."""


class DomainError(ValidationError):
    """Value outside the mathematical domain of an operation."""


class NoObservations(SenticastError):
    """Signals an empty aggregation bucket; callers treat the day as missing."""


class CheckpointError(ValidationError):
    """Unreadable, truncated, or version-mismatched checkpoint."""


class MissingArtifactError(SenticastError):
    """A pipeline prerequisite file is absent."""

    def __init__(self, path: object) -> None:
        super().__init__(f"missing prerequisite artifact: {path}")
        self.path = str(path)


class TrainingError(SenticastError):
    """Non-finite loss or gradient during optimization."""


class GraphReuseError(SenticastError):
    """backward() through a graph whose gradients were already propagated."""
