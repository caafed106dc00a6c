"""scripts/bench_report.py: argument checks made before any benchmark run."""

import importlib.util
import runpy
import shutil
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


def test_both_trees_are_compiled_before_the_first_run(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = runpy.run_path(str(SCRIPT))
    compare = sys.modules["compare"]
    trees = [tmp_path / "parent", tmp_path / "change"]
    for tree in trees:
        shutil.copytree(SCRIPT.parents[1] / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    names = [m.name for m in (SCRIPT.parents[1] / "src" / "toricspec").glob("*.py")]
    assert names

    def compiled_before_the_runs(*_args, **_kw):
        for tree in trees:
            for name in names:
                module = tree / "src" / "toricspec" / name
                assert Path(importlib.util.cache_from_source(str(module))).is_file(), module
        return 0

    monkeypatch.setattr(compare, "main", compiled_before_the_runs)
    monkeypatch.setattr(sys, "argv", ["bench_report.py", str(tmp_path / "report.json"),
                                      "--parent", str(trees[0]), "--change", str(trees[1])])
    assert script["main"]() == 0
