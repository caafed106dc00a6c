"""The mutant table of scripts/mutants.py, checked without running a mutant.

Each old text occurs once in its file under src/, so the table follows
refactors; each new text differs from it and still parses; names are
unique; and each killing test is defined in the test file it names. CI runs
the mutants themselves (python scripts/mutants.py).
"""

import ast
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = runpy.run_path(str(ROOT / "scripts" / "mutants.py"))["MUTANTS"]
IDS = [mutant["name"] for mutant in MUTANTS]


def test_mutant_names_are_unique():
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_each_mutant_changes_one_place_in_src(mutant):
    assert mutant["file"].startswith("src/toricspec/")
    text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert text.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
    ast.parse(text.replace(mutant["old"], mutant["new"]))


def _defines(path: Path, names: list[str]) -> bool:
    """Whether the module at path defines names[0], and within it names[1], and so on."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_each_killing_test_exists(mutant):
    assert mutant["tests"]
    for node_id in mutant["tests"]:
        file, *names = node_id.split("[", 1)[0].split("::")
        assert file.startswith("tests/test_") and names, node_id
        assert _defines(ROOT / file, names), node_id
