"""The package's refusals, and the opener of the files a command names.

A ToricSpecError refuses what the caller asked for, and the CLI exits 2 with its message;
two routes that disagree, or any other broken invariant, raise AssertionError."""

import errno
from typing import IO


class ToricSpecError(Exception):
    """Base class of the refusals."""


class ValidationError(ToricSpecError):
    """Malformed input: unparsable rational, bad profile, bad JSON shape."""


class PreconditionError(ToricSpecError):
    """Input is well formed but outside an operation's stated range."""


class MissingCoverError(ValidationError):
    """An orbit record cannot supply a required iterate's index data."""


def _open_text(path: str, mode: str) -> IO[str]:
    """open(path, mode) as UTF-8 text. A name holding a NUL byte, which open()
    refuses with a ValueError, raises an OSError like any other name that
    cannot be opened, so the CLI reports it as an io error."""
    try:
        return open(path, mode, encoding="utf-8")
    except ValueError as exc:  # every caller passes a valid mode, so the name was refused
        raise OSError(errno.EINVAL, str(exc), path) from exc
