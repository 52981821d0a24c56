"""Exception hierarchy shared by all modules."""


class AvfieldError(Exception):
    """Base class for library errors."""


class ConfigurationError(AvfieldError):
    """Invalid grid, kernel, or run configuration."""


class DomainError(AvfieldError, ValueError):
    """Input outside the mathematical domain of an operation."""


class NumericalFailureError(AvfieldError):
    """Non-finite values encountered during a computation.

    Carries the last valid state when raised by the solver.
    """

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class SolverStalledError(AvfieldError):
    """Line search failed to find an acceptable step."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class FormatError(AvfieldError):
    """Malformed state file."""
