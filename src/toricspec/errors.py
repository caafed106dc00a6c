"""Exception hierarchy shared across the package."""


class ToricSpecError(Exception):
    """Base class for all package errors."""


class ValidationError(ToricSpecError):
    """Malformed input: unparsable rational, bad profile, bad JSON shape."""


class PreconditionError(ToricSpecError):
    """Input is well formed but outside an operation's stated range."""


class MissingCoverError(ToricSpecError):
    """An orbit record cannot supply a required iterate's index data."""


class UnavailableError(ToricSpecError):
    """A spectrum entry cannot be produced by its provider."""


class ConsistencyError(ToricSpecError):
    """Two routes that must agree produced different values."""
