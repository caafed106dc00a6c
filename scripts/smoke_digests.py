"""Run the CLI smoke cases of tests/smoke_digests.json and check each digest.

    python3 scripts/smoke_digests.py                  # python -m toricspec.cli on src/
    python3 scripts/smoke_digests.py --cli toricspec  # an installed entry point

Each case writes its files into an empty directory, runs its commands
there in order and compares the sha256 of what they print with the
table's. Without --cli the commands run `python -m toricspec.cli` and the
snippets import the package, both from this checkout's src/; with --cli
both use the environment as it is. One line per case is printed, and
the exit status is 1 when any digest differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "smoke_digests.json"


def load_cases() -> list[dict]:
    return json.loads(TABLE.read_text(encoding="utf-8"))["cases"]


def last_line(err: bytes) -> bytes:
    """What `tail -n 1` prints of err: its last line, with its newline if it has one."""
    return err[err.rfind(b"\n", 0, len(err) - 1) + 1:]


def case_output(case: dict, cli: list[str], env: dict | None = None) -> bytes:
    """The bytes a case's commands print, in order; a command that must succeed and
    fails raises RuntimeError with its stderr."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in case.get("files", {}).items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for cmd in case["commands"]:
            if "file" in cmd:
                out.append(Path(tmp, cmd["file"]).read_bytes())
                continue
            argv = [*cli, *cmd["argv"]] if "argv" in cmd else [sys.executable, "-c", cmd["python"]]
            run = subprocess.run(argv, cwd=tmp, env=env, capture_output=True,
                                 timeout=case.get("timeout", 600))
            out.append(run.stdout)
            if cmd.get("stderr") == "last-line":
                if run.returncode:
                    out.append(f"exit {run.returncode}\n".encode())
                out.append(last_line(run.stderr))
            elif run.returncode:
                raise RuntimeError(f"case {case['name']}: {cmd} exited "
                                   f"{run.returncode}:\n{run.stderr.decode(errors='replace')}")
    return b"".join(out)


def main() -> int:
    ap = argparse.ArgumentParser(prog="smoke_digests.py")
    ap.add_argument("--cli", help="command that runs the toricspec CLI (default: python -m "
                                  "toricspec.cli on this checkout's src/)")
    opts = ap.parse_args()
    if opts.cli:
        cli, env = opts.cli.split(), None
    else:
        cli = [sys.executable, "-m", "toricspec.cli"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    failed = 0
    for case in load_cases():
        digest = hashlib.sha256(case_output(case, cli, env)).hexdigest()
        ok = digest == case["sha256"]
        failed += not ok
        print(f"{'ok' if ok else 'FAIL'} {case['name']}" + ("" if ok else f": got {digest}"), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
