"""scripts/bench_report.py: argument checks made before any benchmark run."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_report.py"


def refused_before_any_run(monkeypatch, capsys, argv) -> str:
    """Run the script's main on argv, which must exit 2 before any benchmark
    run starts; return what it wrote to stderr."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends perfbench/
    script = runpy.run_path(str(SCRIPT))
    compare = sys.modules["compare"]

    def no_run(*_args, **_kw):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(compare, "run_once", no_run)
    monkeypatch.setattr(sys, "argv", ["bench_report.py", *argv])
    with pytest.raises(SystemExit) as exc:
        script["main"]()
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--parent", "TREE", "--change", "TREE", "--pairs", "1"],
    ["--parent", "TREE", "--change", "TREE", "--pairs", "0"],
    ["--pairs=-3", "--parent=TREE", "--change=TREE"],
])
def test_too_few_pairs_is_refused_before_any_run(monkeypatch, capsys, tmp_path, argv):
    out = tmp_path / "report.json"
    argv = [arg.replace("TREE", str(tmp_path)) for arg in argv]
    assert "--pairs must be at least 2" in refused_before_any_run(monkeypatch, capsys, [str(out), *argv])
    assert not out.exists()


def test_bare_run_prints_usage_before_any_run(monkeypatch, capsys):
    err = refused_before_any_run(monkeypatch, capsys, [])
    assert err.startswith("usage: bench_report.py OUT.json")
    assert "required: OUT.json" in err


def test_out_json_after_the_options_is_refused_before_any_run(monkeypatch, capsys, tmp_path):
    out = tmp_path / "report.json"
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--pairs", "2", str(out)]
    assert "OUT.json must come first" in refused_before_any_run(monkeypatch, capsys, argv)
    assert not out.exists()
