"""Exception hierarchy shared by all modules; each refused input raises ``DomainError``."""


class AvfieldError(Exception):
    """Base class for library errors."""


class DomainError(AvfieldError, ValueError):
    """Input, setting or output path outside what an operation accepts."""


class NumericalFailureError(AvfieldError):
    """A computation met non-finite values or could not proceed."""


class FormatError(AvfieldError):
    """Malformed state file."""
