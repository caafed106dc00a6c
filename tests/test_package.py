"""The package's public surface: its names, where they live, and what a bare import loads."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import toricspec
import toricspec.cli as cli

# written out by hand: a name that appears, disappears or moves shows up here
PUBLIC = {
    "domains": ["Ball", "DisjointUnion", "Domain", "Ellipsoid", "ToricProfile",
                "contact_volume", "domain_from_jsonable", "dual_norm", "load_domain",
                "norm_floor", "omega_length", "profile_area", "scale_domain",
                "square_profile", "triangle_profile", "validate_profile"],
    "echindex": ["IndexScanReport", "IndexScanRow", "OrbitRecord", "OrbitSet",
                 "cz_from_rotation", "ellipsoid_action", "ellipsoid_index",
                 "ellipsoid_orbit_set", "index_action_scan", "orbit_set_from_jsonable",
                 "path_index_bounds", "star_shaped_index"],
    "errors": ["ConsistencyError", "DegenerateRotationError", "MissingCoverError",
               "PreconditionError", "ToricSpecError", "UnavailableError", "ValidationError"],
    "gaps": ["Approximant", "GapReport", "best_approx_above", "best_approx_below",
             "close_gap_consistency", "ellipsoid_close", "gap_asymptotics", "spectral_gap"],
    "paths": ["LatticePath", "enclosed_area", "enumerate_paths", "lattice_count_direct",
              "lattice_count_pick"],
    "rationals": ["Rat", "approx_string", "parse_rat", "to_string"],
    "spectra": ["BallSpectrum", "EllipsoidSpectrum", "Spectrum", "ToricCapacityResult",
                "ToricSpectrum", "UnionSpectrum", "ball_capacity", "conformal_scale",
                "count_action_pairs", "nk_sequence", "nk_via_lattice", "spectrum_for",
                "toric_capacity", "toric_capacity_detail", "union_capacity", "weyl_report"],
}
PAIRS = [(mod, name) for mod, names in PUBLIC.items() for name in names]


def test_public_names_are_the_frozen_list():
    assert len(PAIRS) == 68
    assert sorted(name for _mod, name in PAIRS) == sorted(toricspec.__all__)
    assert set(toricspec.__all__) <= set(dir(toricspec))


@pytest.mark.parametrize("mod, name", PAIRS)
def test_public_name_is_the_defining_modules_object(mod, name):
    assert getattr(toricspec, name) is getattr(importlib.import_module(f"toricspec.{mod}"), name)


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
