"""The three failure classes, one per CLI exit code.

Every error boltzflow raises on purpose is one of these; any other
exception is a bug and reaches the user with its traceback.
"""


class ConfigError(ValueError):
    """Malformed or unusable run configuration (exit 2)."""


class DomainError(ValueError):
    """Input outside the mathematical domain of a routine (exit 3)."""


class NumericalError(RuntimeError):
    """A solver failed on valid input (exit 4)."""
