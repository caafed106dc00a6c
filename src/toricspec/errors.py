"""Exception hierarchy shared across the package, and the opener of the files a command names."""

import errno
from typing import IO


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


def _open_text(path: str, mode: str) -> IO[str]:
    """open(path, mode) as UTF-8 text. A name holding a NUL byte, which open()
    refuses with a ValueError, raises an OSError like any other name that
    cannot be opened, so the CLI reports it as an io error."""
    try:
        return open(path, mode, encoding="utf-8")
    except ValueError as exc:  # every caller passes a valid mode, so the name was refused
        raise OSError(errno.EINVAL, str(exc), path) from exc
