"""Row rendering, witness serialization, run manifests, and the row cache.

This is the only place the exact values in command rows become text:
commands hand over rows of Fractions, integers, booleans, None and raw
witnesses, and every output (CSV, JSON, manifest, cache entry) writes a
Fraction as canonical rational text. Advisory decimal columns arrive as
text already, derived from the exact value. Manifests contain no timestamps, so identical
invocations produce identical bytes. A computed value too long to write as
text (past Python's int-to-text digit limit) is refused with a
ValidationError before anything is written.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import __version__
from .errors import ValidationError
from .paths import LatticePath
from .rationals import _int_text_limit, to_string

CACHE_ENV = "TORICSPEC_CACHE_DIR"


@contextmanager
def _text_edge() -> Iterator[None]:
    """Refuse, with a ValidationError, a value whose integers pass the digit
    limit on int-to-text conversion, the one ValueError that making text raises."""
    try:
        yield
    except ValueError as exc:
        raise ValidationError(f"a computed value has more than {_int_text_limit()} digits "
                              "and cannot be written as text") from exc


def jsonable_witness(witness: object) -> object:
    """Normalize a provider witness or a row cell into plain JSON data."""
    if witness is None:
        return None
    if isinstance(witness, (int, str)):
        return witness
    if isinstance(witness, Fraction):
        return to_string(witness)
    if isinstance(witness, LatticePath):
        return witness.to_jsonable()
    if isinstance(witness, dict):
        return {key: jsonable_witness(val) for key, val in witness.items()}
    if isinstance(witness, (list, tuple)):
        return [jsonable_witness(item) for item in witness]
    raise ValidationError(f"cannot serialize witness: {witness!r}")


def cell_text(value: object) -> str:
    """Render one CSV cell: exact rational text, JSON for structures."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    value = jsonable_witness(value)
    if isinstance(value, (int, str)):
        return str(value)
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def render_csv(columns: Sequence[str], rows: Sequence[dict]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    with _text_edge():
        for row in rows:
            writer.writerow([cell_text(row.get(col)) for col in columns])
    return buf.getvalue()


def _jsonable_rows(columns: Sequence[str], rows: Sequence[dict]) -> list[dict]:
    return [{col: jsonable_witness(row.get(col)) for col in columns} for row in rows]


def render_json(command: str, params: dict, columns: Sequence[str],
                rows: Sequence[dict]) -> str:
    with _text_edge():
        payload = {
            "command": command,
            "params": {key: jsonable_witness(val) for key, val in params.items()},
            "columns": list(columns),
            "rows": _jsonable_rows(columns, rows),
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _canonical_sha256(obj: object) -> str:
    """SHA-256 of the compact, key-sorted JSON text of obj."""
    import hashlib  # here, not at the top: loading OpenSSL slows every CLI start-up

    canon = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def domain_digest(domain_jsonable: Optional[dict]) -> Optional[str]:
    if domain_jsonable is None:
        return None
    return _canonical_sha256(domain_jsonable)


def write_manifest(path: str, argv: Sequence[str], domain_jsonable: Optional[dict],
                   columns: Sequence[str], rows: Sequence[dict]) -> None:
    with _text_edge():
        payload = {
            "argv": list(argv),
            "version": __version__,
            "domain": domain_jsonable,
            "domain_digest": domain_digest(domain_jsonable),
            "columns": list(columns),
            "rows": _jsonable_rows(columns, rows),
        }
        text = json.dumps(payload, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class RowCache:
    """Optional on-disk row cache keyed by a request digest.

    Enabled by the cache directory environment variable; corrupt,
    undecodable or missing entries are treated as misses and rewritten.
    Rows are stored in their JSON form, so a cached row renders the same
    bytes as the fresh one.
    """

    def __init__(self) -> None:
        self.directory = os.environ.get(CACHE_ENV)

    def _path(self, key: dict) -> str:
        return os.path.join(self.directory, f"{_canonical_sha256(key)}.json")

    def load(self, key: dict) -> Optional[list]:
        if not self.directory:
            return None
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload.get("key") != key:
                return None
            return payload["rows"]
        except (OSError, ValueError, KeyError):  # ValueError: undecodable, or past the digit limit
            return None

    def store(self, key: dict, rows: list) -> None:
        if not self.directory:
            return
        with _text_edge():
            text = json.dumps({"key": key, "rows": jsonable_witness(rows)})
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(self._path(key), "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError:
            pass  # caching is advisory; never fail the run for it
