"""scripts/bench_report.py: argument checks made before any benchmark run."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_report.py"


@pytest.mark.parametrize("argv", [
    ["--parent", "TREE", "--change", "TREE", "--pairs", "1"],
    ["--parent", "TREE", "--change", "TREE", "--pairs", "0"],
    ["--pairs=-3", "--parent=TREE", "--change=TREE"],
])
def test_too_few_pairs_is_refused_before_any_run(monkeypatch, capsys, tmp_path, argv):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends perfbench/
    script = runpy.run_path(str(SCRIPT))
    compare = sys.modules["compare"]

    def no_run(*_args, **_kw):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(compare, "run_once", no_run)
    out = tmp_path / "report.json"
    argv = [arg.replace("TREE", str(tmp_path)) for arg in argv]
    monkeypatch.setattr(sys, "argv", ["bench_report.py", str(out), *argv])
    with pytest.raises(SystemExit) as exc:
        script["main"]()
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not out.exists()
