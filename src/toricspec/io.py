"""Row rendering, witness serialization, run manifests, and the row cache.

Exact values are written as canonical rational text and advisory decimal
columns are always derived from the exact value. Manifests contain no
timestamps, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import os
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .errors import ValidationError
from .paths import LatticePath
from .rationals import to_string

CACHE_ENV = "TORICSPEC_CACHE_DIR"


def jsonable_witness(witness: object) -> object:
    """Normalize a provider witness or a row cell into plain JSON data."""
    if witness is None:
        return None
    if isinstance(witness, LatticePath):
        return witness.to_jsonable()
    if isinstance(witness, dict):
        return {key: jsonable_witness(val) for key, val in witness.items()}
    if isinstance(witness, (list, tuple)):
        return [jsonable_witness(item) for item in witness]
    if isinstance(witness, Fraction):
        return to_string(witness)
    if isinstance(witness, (int, str)):
        return witness
    raise ValidationError(f"cannot serialize witness: {witness!r}")


def cell_text(value: object) -> str:
    """Render one CSV cell: exact rational text, JSON for structures."""
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return to_string(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return json.dumps(jsonable_witness(value), separators=(",", ":"), sort_keys=True)


def render_csv(columns: Sequence[str], rows: Sequence[dict]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell_text(row.get(col)) for col in columns])
    return buf.getvalue()


def render_json(command: str, params: dict, columns: Sequence[str],
                rows: Sequence[dict]) -> str:
    payload = {
        "command": command,
        "params": {key: jsonable_witness(val) for key, val in params.items()},
        "columns": list(columns),
        "rows": [{col: jsonable_witness(row.get(col)) for col in columns} for row in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def domain_digest(domain_jsonable: Optional[dict]) -> Optional[str]:
    if domain_jsonable is None:
        return None
    canon = json.dumps(domain_jsonable, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_manifest(path: str, argv: Sequence[str], domain_jsonable: Optional[dict],
                   columns: Sequence[str], rows: Sequence[dict]) -> None:
    payload = {
        "argv": list(argv),
        "version": __version__,
        "domain": domain_jsonable,
        "domain_digest": domain_digest(domain_jsonable),
        "columns": list(columns),
        "rows": [{col: jsonable_witness(row.get(col)) for col in columns} for row in rows],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


class RowCache:
    """Optional on-disk row cache keyed by a request digest.

    Enabled by the cache directory environment variable; corrupt or
    missing entries are treated as misses and rewritten.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory if directory is not None else os.environ.get(CACHE_ENV)

    @property
    def enabled(self) -> bool:
        return bool(self.directory)

    def _path(self, key: dict) -> str:
        canon = json.dumps(key, separators=(",", ":"), sort_keys=True)
        digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
        return os.path.join(self.directory, f"{digest}.json")

    def load(self, key: dict) -> Optional[list]:
        if not self.enabled:
            return None
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload.get("key") != key:
                return None
            return payload["rows"]
        except (OSError, json.JSONDecodeError, KeyError):
            return None

    def store(self, key: dict, rows: list) -> None:
        if not self.enabled:
            return
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(self._path(key), "w", encoding="utf-8") as fh:
                json.dump({"key": key, "rows": rows}, fh)
        except OSError:
            pass  # caching is advisory; never fail the run for it
