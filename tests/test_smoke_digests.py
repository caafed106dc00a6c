"""The CLI smoke digests of tests/smoke_digests.json, run through python -m toricspec.cli.

CI runs the same table through the installed toricspec entry point
(scripts/smoke_digests.py --cli toricspec).
"""

import hashlib
import os
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SMOKE = runpy.run_path(str(ROOT / "scripts" / "smoke_digests.py"))
CASES = SMOKE["load_cases"]()
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_every_smoke_digest_holds(case):
    out = SMOKE["case_output"](case, [sys.executable, "-m", "toricspec.cli"], ENV)
    assert hashlib.sha256(out).hexdigest() == case["sha256"]


def test_the_table_holds_seventeen_named_cases():
    assert len(CASES) == 17
    assert len({case["name"] for case in CASES}) == 17
    for case in CASES:
        assert len(case["sha256"]) == 64 and int(case["sha256"], 16) >= 0
        for cmd in case["commands"]:
            assert len(set(cmd) & {"argv", "python", "file"}) == 1
            assert set(cmd) - {"argv", "python", "file", "stderr"} == set()


@pytest.mark.parametrize("err, last", [
    (b"", b""), (b"x", b"x"), (b"a\nb\n", b"b\n"), (b"a\nb", b"b"), (b"a\n\n", b"\n"),
    (b"\n", b"\n")])
def test_only_the_last_stderr_line_is_kept_as_tail_prints_it(err, last):
    assert SMOKE["last_line"](err) == last


def test_a_required_command_that_fails_is_reported():
    case = {"name": "bad", "commands": [{"argv": ["spectrum", "--ball", "0", "--k-max", "2"]}]}
    with pytest.raises(RuntimeError, match="^case bad: .* exited 2:"):
        SMOKE["case_output"](case, [sys.executable, "-m", "toricspec.cli"], ENV)


def test_ci_runs_the_table_through_the_installed_entry_point():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert "python scripts/smoke_digests.py --cli toricspec" in workflow
