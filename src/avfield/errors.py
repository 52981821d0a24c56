"""Exception hierarchy shared by all modules."""


class AvfieldError(Exception):
    """Base class for library errors."""


class ConfigurationError(AvfieldError):
    """Invalid grid, kernel, or run configuration."""


class DomainError(AvfieldError, ValueError):
    """Input outside the mathematical domain of an operation."""


class NumericalFailureError(AvfieldError):
    """A computation met non-finite values or could not proceed."""


class FormatError(AvfieldError):
    """Malformed state file."""
