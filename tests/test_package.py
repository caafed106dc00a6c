"""The package's public surface: its names, where they live, and what a bare import loads."""

import ast
import importlib
import json
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import toricspec
import toricspec.cli as cli
from test_cli import parser_options

# written out by hand: a name that appears, disappears or moves shows up here
PUBLIC = {
    "domains": ["Ball", "DisjointUnion", "Domain", "Ellipsoid", "ToricProfile",
                "contact_volume", "domain_from_jsonable", "load_domain", "norm_floor",
                "omega_length", "profile_area", "triangle_profile", "validate_profile"],
    "echindex": ["IndexScanReport", "IndexScanRow", "OrbitRecord", "OrbitSet",
                 "ellipsoid_action", "ellipsoid_index", "ellipsoid_orbit_set",
                 "index_action_scan", "orbit_set_from_jsonable", "path_index_bounds",
                 "star_shaped_index"],
    "errors": ["ConsistencyError", "MissingCoverError", "PreconditionError", "ToricSpecError",
               "UnavailableError", "ValidationError"],
    "gaps": ["Approximant", "GapReport", "best_approx_above", "best_approx_below",
             "close_gap_consistency", "ellipsoid_close", "gap_asymptotics", "spectral_gap"],
    "paths": ["LatticePath", "enumerate_paths", "lattice_count_direct", "lattice_count_pick"],
    "rationals": ["approx_string", "parse_rat", "to_string"],
    "spectra": ["BallSpectrum", "EllipsoidSpectrum", "Spectrum", "ToricCapacityResult",
                "ToricSpectrum", "UnionSpectrum", "ball_capacity", "count_action_pairs",
                "nk_sequence", "nk_via_lattice", "spectrum_for", "toric_capacity_detail",
                "union_capacity", "weyl_report"],
}
PAIRS = [(mod, name) for mod, names in PUBLIC.items() for name in names]
# public once; README's "Removed public names" gives each one's replacement
REMOVED = ["DegenerateRotationError", "Rat", "conformal_scale", "cz_from_rotation", "dual_norm",
           "enclosed_area", "square_profile", "toric_capacity", "scale_domain"]
# members of the value classes that nothing called, listed there too
REMOVED_MEMBERS = [("LatticePath", "from_jsonable"), ("LatticePath", "is_empty"),
                   ("LatticePath", "degenerate"), ("LatticePath", "empty"), ("OrbitRecord", "cz"),
                   ("ToricProfile", "x_intercept"), ("ToricProfile", "y_intercept"),
                   ("Spectrum", "contact_volume"), ("EllipsoidSpectrum", "check_witness"),
                   ("BallSpectrum", "check_witness"), ("ToricSpectrum", "check_witness"),
                   ("UnionSpectrum", "check_witness"), ("LatticePath", "from_edges"),
                   ("Spectrum", "scaled")]
INSTANCES = {"LatticePath": lambda: toricspec.LatticePath(()),
             "OrbitRecord": lambda: toricspec.OrbitRecord("g", 1, -1, lambda j: 1, 1),
             "ToricProfile": lambda: toricspec.triangle_profile(F(1), F(2)),
             "Spectrum": lambda: toricspec.BallSpectrum(toricspec.Ball(F(1))),
             "EllipsoidSpectrum": lambda: toricspec.spectrum_for(toricspec.Ellipsoid(F(1), F(2))),
             "BallSpectrum": lambda: toricspec.spectrum_for(toricspec.Ball(F(1))),
             "ToricSpectrum": lambda: toricspec.spectrum_for(toricspec.triangle_profile(F(1), F(2))),
             "UnionSpectrum": lambda: toricspec.UnionSpectrum([INSTANCES["BallSpectrum"]()])}
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# the pruning rule's callers: a public name that none of these names goes; of README only
# its examples count (_caller_text)
CALLERS = ["src/toricspec/*.py", "README.md", "tests/test_acceptance.py",
           "tests/smoke_digests.json", "perfbench/*.py", "scripts/*.py"]
# the callers whose argv uses a CLI option, with README's command-line examples and the
# argv lists of tests/smoke_digests.json
ARGV_CALLERS = ["tests/test_acceptance.py", "perfbench/*.py", "scripts/*.py"]


def test_public_names_are_the_frozen_list():
    assert len(PAIRS) == 59
    assert sorted(name for _mod, name in PAIRS) == sorted(toricspec.__all__)
    assert set(toricspec.__all__) <= set(dir(toricspec))


@pytest.mark.parametrize("mod, name", PAIRS)
def test_public_name_is_the_defining_modules_object(mod, name):
    assert getattr(toricspec, name) is getattr(importlib.import_module(f"toricspec.{mod}"), name)


def _removed_names_paragraphs() -> str:
    """README's account of the removed names, which gives each one's replacement."""
    text = README.read_text(encoding="utf-8")
    return text.split("\nRemoved public names: ", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_raises_attribute_error(name):
    assert name not in toricspec.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(toricspec, name)
    assert re.search(rf"`{name}(\([^`]*\))?`", _removed_names_paragraphs())


@pytest.mark.parametrize("cls, member", REMOVED_MEMBERS)
def test_removed_member_raises_attribute_error(cls, member):
    owner = getattr(toricspec, cls)
    for obj in (owner, INSTANCES[cls]()):
        with pytest.raises(AttributeError, match=member):
            getattr(obj, member)
    assert re.search(rf"`{cls}\.{member}(\([^`]*\))?`", _removed_names_paragraphs())


def test_removed_keyword_raises_type_error():
    # count_action_pairs(strict=True) is the count at the limit less the pairs exactly at it
    with pytest.raises(TypeError, match="strict"):
        toricspec.count_action_pairs(F(2), F(3), F(6), strict=True)
    # for another volume v the deviation is ratio - 2 v
    with pytest.raises(TypeError, match="volume"):
        toricspec.weyl_report(INSTANCES["BallSpectrum"](), [1], volume=F(1))


def _caller_text(root: Path, path: Path) -> str:
    """What a caller file says: the whole file, but of README only the code of its ```python
    and ```sh blocks, so that prose naming a name, member or flag does not keep it."""
    text = path.read_text(encoding="utf-8")
    if path != root / "README.md":
        return text
    return "".join(block.split("```", 1)[0] for block in re.split(r"```(?:python|sh)\n", text)[1:])


def _unused_public_names(root: Path) -> list[str]:
    """Public names that CALLERS never name outside the export table, their own
    definition and the definitions of other such names; the files are only read."""
    public = set(toricspec.__all__)
    seen = {name: set() for name in public}  # the definitions a name is named in; None: none
    for path in sorted({p for pattern in CALLERS for p in root.glob(pattern)}):
        if path == root / "src/toricspec/__init__.py":
            continue  # the export table
        text = _caller_text(root, path)
        owner = {}  # line number -> the public definition it lies in, or "" for an import
        if path.suffix == ".py" and path.parent == root / "src/toricspec":
            for node in ast.parse(text).body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    name = ""
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    name = node.name
                elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                    name = node.targets[0].id
                else:
                    continue
                if name in public or not name:
                    owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), name))
        for number, line in enumerate(text.splitlines(), 1):
            if owner.get(number) != "":
                for word in public.intersection(re.findall(r"\w+", line)):
                    seen[word].add(owner.get(number))
    used = {name for name, owners in seen.items() if None in owners}
    while grown := {name for name, owners in seen.items() if owners & used} - used:
        used |= grown
    return sorted(public - used)


def test_every_public_name_has_a_caller():
    assert _unused_public_names(ROOT) == []


def _files(root: Path, patterns: list[str]) -> list[Path]:
    return sorted({path for pattern in patterns for path in root.glob(pattern)})


def _unused_members(root: Path) -> list[str]:
    """Public methods and properties of the classes in src/toricspec that CALLERS never name
    as `.name` outside the definitions of members of that name; the files are only read."""
    members, used = set(), set()
    for path in _files(root, CALLERS):
        text = _caller_text(root, path)
        defined = {}  # line number -> the public member whose definition holds it
        if path.suffix == ".py":
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            defined.update(dict.fromkeys(
                                range(item.lineno, item.end_lineno + 1), item.name))
                            if path.parent == root / "src/toricspec":
                                members.add(item.name)
        for number, line in enumerate(text.splitlines(), 1):
            used.update(set(re.findall(r"\.(\w+)", line)) - {defined.get(number)})
    return sorted(members - used)


def test_every_public_member_has_a_caller():
    assert _unused_members(ROOT) == []


def _command_line_examples(root: Path) -> list[str]:
    """The lines of the example block under README's "Command line"."""
    section = (root / "README.md").read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def _unused_options(root: Path) -> list[str]:
    """The parser's --options that no argv token in the callers holds: a word of README's
    command-line examples, of a smoke digest's argv or of a string in ARGV_CALLERS. A README
    bullet on a flag does not count; the files are only read."""
    strings = _command_line_examples(root)
    smoke = json.loads((root / "tests/smoke_digests.json").read_text(encoding="utf-8"))
    strings += [token for case in smoke["cases"] for command in case["commands"]
                for token in command.get("argv", [])]
    for path in _files(root, ARGV_CALLERS):
        strings += [node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    tokens = {token.split("=", 1)[0] for text in strings for token in text.split()}
    return sorted(set(parser_options()) - {"-h", "--help"} - tokens)


def test_every_cli_option_has_a_caller():
    assert _unused_options(ROOT) == []


def test_readme_quick_tour_gives_the_results_its_comments_state():
    # a tour line that calls a removed name fails the exec
    tour = README.read_text(encoding="utf-8").split("## Library quick tour\n", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(block, ns)
    lines = {line.split("#")[0].strip() for line in block.splitlines()}
    stated = {
        "spec.values(10)": [0, 2, 3, 4, 5, 6, 6, 7, 8, 8, 9],
        "spec.entry(5)": (F(6), {"m": 0, "n": 2}),
        "ToricSpectrum(triangle_profile(F(2), F(3))).entry(5)":
            (F(6), toricspec.LatticePath((((1, -1), 2),))),
        "spectral_gap(spec, F(6)).gap": 0,
        "spec.value(10**6)": 3462,
        "spec.count_le(F(9))": 12,
        "ellipsoid_close(F(1), F(89, 55), F(10))": F(1, 11),
    }
    for expr, expected in stated.items():
        assert expr in lines
        assert eval(expr, ns) == expected, expr


def _readme_json_examples() -> list:
    """The JSON values of the code blocks under README's "JSON formats"."""
    section = README.read_text(encoding="utf-8").split("## JSON formats\n", 1)[1].split("\n## ", 1)[0]
    decoder, values = json.JSONDecoder(), []
    for block in section.split("```json\n")[1:]:
        text = block.split("```", 1)[0].strip()
        while text:
            value, end = decoder.raw_decode(text)
            values.append(value)
            text = text[end:].strip()
    return values


def test_readme_command_line_examples_exit_0(capsys, tmp_path, monkeypatch):
    # the files they read, from README's JSON examples: the unit square, the union, the orbits
    examples = _readme_json_examples()
    inputs = {"square.json": next(v for v in examples if v.get("type") == "toric"),
              "union.json": next(v for v in examples if v.get("type") == "union"),
              "orbits.json": next(v for v in examples if "orbits" in v)}
    monkeypatch.delenv("TORICSPEC_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    for name, value in inputs.items():
        (tmp_path / name).write_text(json.dumps(value), encoding="utf-8")
    lines = _command_line_examples(ROOT)
    assert len(lines) == 12 and all(line.startswith("toricspec ") for line in lines)
    for line in lines:
        code = cli.main(line.split()[1:])
        assert code == 0, (line, capsys.readouterr().err)
    assert (tmp_path / "rows.csv").read_text().startswith("k,exact,approx,witness\n")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        toricspec.no_such_name
    assert not hasattr(toricspec, "no_such_name")


def test_bare_import_loads_no_submodule():
    src = str(Path(toricspec.__file__).resolve().parent.parent)
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, sys.argv[1])",
        "import toricspec",
        "assert [m for m in sys.modules if m.startswith('toricspec.')] == [], sys.modules",
        "assert 'typing' not in sys.modules",
        "assert toricspec.gaps.spectral_gap is sys.modules['toricspec.gaps'].spectral_gap",
        "assert toricspec.spectra.toric_capacity_detail.__module__ == 'toricspec.spectra'",
    ])
    # -I -S: no site packages, no environment, no user path
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the value classes are plain classes: dataclasses would pull in inspect, and it ast
    src = str(Path(toricspec.__file__).resolve().parent.parent)
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, sys.argv[1])",
        "import toricspec.cli",
        "loaded = sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules))",
        "assert loaded == [], loaded",
    ])
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# what perfbench/worker.py:install_spans wraps in traced benchmark runs
@pytest.mark.parametrize("owner, name", [
    (toricspec.spectra, "toric_capacity_detail"),
    (toricspec.gaps, "spectral_gap"),
    (toricspec.gaps, "ellipsoid_close"),
    (cli.RowCache, "load"),
    (cli.RowCache, "store"),
    *((cli, name) for name in (
        "render_csv", "render_json", "write_manifest", "load_domain", "spectral_gap",
        "gap_asymptotics", "ellipsoid_close", "best_approx_below", "best_approx_above",
        "weyl_report", "ellipsoid_index", "index_action_scan", "star_shaped_index",
        "spectrum_for")),
])
def test_traced_benchmark_patch_points_exist(owner, name):
    assert callable(getattr(owner, name))
