"""Row rendering, witness serialization, run manifests, and the row cache.

This is the only place the exact values in command rows become text:
commands hand over rows of Fractions, integers, booleans, None and raw
witnesses, jsonable_rows turns them into JSON data once per request (a
Fraction becomes canonical rational text), and every output (CSV, JSON,
manifest, cache entry) is written from that data; rows read from the cache
are in that form already. Advisory decimal columns arrive as text already,
derived from the exact value. Manifests contain no timestamps, so identical
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
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional, Sequence

from . import __version__
from .errors import ValidationError, _open_text
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


def json_text(value: object, nl: str = "") -> str:
    """json.dumps(value, separators=(",", ":"), sort_keys=True), or json.dumps(value, indent=2)
    given nl="\\n", for JSON data (str-keyed dicts, lists, str, int, bool, None), from the
    encoder's own str and int forms: no JSONEncoder per call, no pure-Python encoder."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if not isinstance(value, (dict, list)):
        raise ValidationError(f"cannot serialize witness: {value!r}")
    inner = nl and nl + "  "  # the next level's line break and indent, none when compact
    if isinstance(value, dict):
        items = value.items() if nl else sorted(value.items())
        colon, ends = ": " if nl else ":", "{}"
        parts = [f"{encode_basestring_ascii(key)}{colon}{json_text(v, inner)}" for key, v in items]
    else:
        parts, ends = [json_text(v, inner) for v in value], "[]"
    return f"{ends[0]}{inner}{(',' + inner).join(parts)}{nl}{ends[1]}" if parts else ends


def jsonable_rows(columns: Sequence[str], rows: Sequence[dict]) -> list[dict]:
    """A command's rows as JSON data, the form every output and the row cache take."""
    with _text_edge():
        return [{col: jsonable_witness(row.get(col)) for col in columns} for row in rows]


def cell_text(value: object) -> str:
    """Render one CSV cell of JSON data: str and int as they are, None empty, the rest JSON."""
    if value is None:
        return ""
    return str(value) if isinstance(value, str) or type(value) is int else json_text(value)


def render_csv(columns: Sequence[str], rows: Sequence[dict]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    with _text_edge():
        for row in rows:
            writer.writerow([cell_text(row.get(col)) for col in columns])
    return buf.getvalue()


def render_json(command: str, params: dict, columns: Sequence[str],
                rows: Sequence[dict]) -> str:
    payload = {"command": command, "params": params, "columns": list(columns),
               "rows": [{col: row.get(col) for col in columns} for row in rows]}
    with _text_edge():
        return json_text(payload, "\n") + "\n"


def _canonical_sha256(obj: object) -> str:
    """SHA-256 of the compact, key-sorted JSON text of obj."""
    import hashlib  # here, not at the top: loading OpenSSL slows every CLI start-up

    return hashlib.sha256(json_text(obj).encode("utf-8")).hexdigest()


def write_manifest(path: str, argv: Sequence[str], domain_jsonable: Optional[dict],
                   columns: Sequence[str], rows: Sequence[dict]) -> None:
    with _text_edge():
        payload = {"argv": list(argv), "version": __version__, "domain": domain_jsonable,
                   "domain_digest": domain_jsonable and _canonical_sha256(domain_jsonable),
                   "columns": list(columns),
                   "rows": [{col: row.get(col) for col in columns} for row in rows]}
        text = json_text(payload, "\n") + "\n"
    with _open_text(path, "w") as fh:
        fh.write(text)


class RowCache:
    """Optional on-disk row cache entry for one request key.

    Enabled by the cache directory environment variable; corrupt,
    undecodable or missing entries are treated as misses and rewritten.
    Rows are stored in their JSON form, so a cached row renders the same
    bytes as the fresh one. The key is hashed once, here.
    """

    def __init__(self, key: dict) -> None:
        self.key, self.directory = key, os.environ.get(CACHE_ENV)
        self.path = self.directory and os.path.join(
            self.directory, f"{_canonical_sha256(key)}.json")

    def load(self) -> Optional[list]:
        if not self.directory:
            return None
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload.get("key") != self.key:
                return None
            return payload["rows"]
        # ValueError: undecodable, or past the digit limit; RecursionError: nested too deeply
        except (OSError, ValueError, KeyError, RecursionError):
            return None

    def store(self, rows: list) -> None:
        """Write rows already in JSON form (jsonable_rows)."""
        if not self.directory:
            return
        with _text_edge():
            text = json.dumps({"key": self.key, "rows": rows})
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError:
            pass  # caching is advisory; never fail the run for it
