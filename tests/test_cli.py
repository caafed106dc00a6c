"""End-to-end command line checks, run in process through main()."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import toricspec
from toricspec import Ball, DisjointUnion, Ellipsoid, UnionSpectrum, ValidationError, spectrum_for
from toricspec import cli, gaps
from toricspec import io as tio
from toricspec.cli import main

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out):
    reader = csv.reader(io.StringIO(out))
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


PINNED_TORIC = {"type": "toric", "vertices": [["0", "2"], ["1", "3/2"], ["2", "0"]]}
PINNED_INPUTS = {
    "toric.json": PINNED_TORIC,
    "union.json": {"type": "union", "parts": [{"type": "ball", "a": "1"},
                                              {"type": "ellipsoid", "a": "2", "b": "3"},
                                              PINNED_TORIC]},
    "orbits.json": {"orbits": [{"label": "g1", "chern": 1, "self_linking": -1,
                                "multiplicity": 2, "cz": [1, 3]},
                               {"label": "g2", "chern": 1, "self_linking": -1,
                                "multiplicity": 1, "cz": [3]}],
                    "linking": [[0, 1], [1, 0]]},
}


def write_pinned_inputs(directory):
    for name, obj in PINNED_INPUTS.items():
        (directory / name).write_text(json.dumps(obj))
    return directory


class TestSpectrumCommand:
    def test_ellipsoid_exact_column(self, capsys):
        code, out, err = run(capsys, "spectrum", "--ellipsoid", "2", "3", "--k-max", "10")
        assert code == 0 and err == ""
        header, rows = rows_of(out)
        assert header == ["k", "exact", "approx", "witness"]
        assert [r["exact"] for r in rows] == ["0", "2", "3", "4", "5", "6", "6", "7", "8", "8", "9"]
        assert json.loads(rows[0]["witness"]) == {"m": 0, "n": 0}
        assert json.loads(rows[6]["witness"]) == {"m": 3, "n": 0}
        assert "\r" not in out

    def test_ball_witnesses(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--ball", "1", "--k-max", "3")
        assert code == 0
        _, rows = rows_of(out)
        assert [r["exact"] for r in rows] == ["0", "1", "1", "2"]
        assert json.loads(rows[3]["witness"]) == {"d": 2}

    def test_fractional_axes_and_approx(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--ellipsoid", "1", "89/55", "--k-max", "2")
        assert code == 0
        _, rows = rows_of(out)
        assert rows[2]["exact"] == "89/55"
        assert rows[2]["approx"] == "1.61818181818"

    def test_toric_domain_file_json_format(self, capsys, tmp_path):
        dom = tmp_path / "square.json"
        dom.write_text(json.dumps({"type": "toric",
                                   "vertices": [["0", "1"], ["1", "1"], ["1", "0"]]}))
        code, out, _ = run(capsys, "spectrum", "--domain", str(dom),
                           "--k-max", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "spectrum"
        assert payload["columns"] == ["k", "exact", "approx", "witness"]
        assert [r["exact"] for r in payload["rows"]] == ["0", "1", "2"]
        assert payload["rows"][1]["witness"] == {"edges": [{"dir": [1, 0], "mult": 1}]}

    def test_negative_k_max_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--ball", "1", "--k-max", "-1")
        assert code == 2 and "error:" in err


class TestGapAndCloseCommands:
    def test_gap_row(self, capsys):
        code, out, _ = run(capsys, "gap", "--ellipsoid", "1", "89/55", "--L", "2")
        assert code == 0
        _, rows = rows_of(out)
        assert rows[0]["gap"] == "21/55" and rows[0]["achieving_k"] == "2"

    def test_infinite_gap_row(self, capsys):
        code, out, _ = run(capsys, "gap", "--ellipsoid", "1", "1", "--L", "1/4")
        assert code == 0
        _, rows = rows_of(out)
        assert rows[0]["gap"] == "inf"
        assert rows[0]["gap_approx"] == "" and rows[0]["achieving_k"] == ""

    def test_close_row(self, capsys):
        code, out, _ = run(capsys, "close", "--a", "1", "--b", "89/55", "--L", "10")
        assert code == 0
        _, rows = rows_of(out)
        r = rows[0]
        assert r["close"] == "1/11"
        assert (r["m_minus"], r["n_minus"], r["m_plus"], r["n_plus"]) == ("5", "3", "8", "5")

    def test_close_runs_each_mediant_walk_once(self, capsys, monkeypatch):
        calls = []
        walk = gaps._approximants

        def counted(*args):
            calls.append(args)
            return walk(*args)
        monkeypatch.setattr(gaps, "_approximants", counted)
        code, out, _ = run(capsys, "close", "--a", "1", "--b", "89/55", "--L", "10000")
        assert code == 0
        assert out == ("cutoff,close,close_approx,m_minus,n_minus,m_plus,n_plus\n"
                       "10000,0,0,89,55,89,55\n")
        assert len(calls) == 1  # one walk finds both approximants

    def test_close_below_max_axis_fails(self, capsys):
        code, _, err = run(capsys, "close", "--a", "1", "--b", "89/55", "--L", "1")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("argv, digest", [
        (["close", "--a", "1", "--b", "FIB", "--L", "1e300"],
         "351292664029ecc3e99583a2a7d3518662d4986fc25b82859da41a2246f2d093"),
        (["gap", "--ellipsoid", "1", "89/55", "--L", "60"],
         "00f38a832e65f28bd472d92ea4248f78985497f95ca3459c304979524741f0f1"),
        (["gap-asymptotics", "--ellipsoid", "1", "89/55", "--L-grid", "10,20,40,80"],
         "796011b95a0965535961032e96ad5d300aa411e8b058e3f78ea34004e65ef411"),
    ])
    def test_gap_and_close_output_is_pinned(self, capsys, argv, digest):
        # digests recorded from the Fraction-loop implementation; FIB is F(1501)/F(1500)
        fib = [0, 1]
        while len(fib) < 1502:
            fib.append(fib[-1] + fib[-2])
        code, out, _ = run(capsys, *[f"{fib[1501]}/{fib[1500]}" if x == "FIB" else x for x in argv])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        (["spectrum", "--domain", "toric.json", "--k-max", "12"],
         "b5e83a111f3ae93e3d77cf5d97e260426935ecfba02866f146e7d3c76037a7a9"),
        (["spectrum", "--domain", "toric.json", "--k-max", "12", "--format", "json"],
         "3c2ed51b5327fe34da8aaaafeea996618dbfc7329a732502ba27c8f8776a9ef2"),
        (["spectrum", "--domain", "union.json", "--k-max", "10"],
         "a0fec115e785122e4e0b97a5724dd663f52225e50b98b71fbc668778e580241b"),
        (["spectrum", "--domain", "union.json", "--k-max", "10", "--format", "json"],
         "3a795a86a606f4eb17eab4c1eb56c87d1e186e7141f5cd88852d72f5b98c073c"),
        (["union", "--domain", "union.json", "--k-max", "10"],
         "a0fec115e785122e4e0b97a5724dd663f52225e50b98b71fbc668778e580241b"),
        (["union", "--domain", "union.json", "--k-max", "10", "--format", "json"],
         "7c025460bb120607cdc703288883ad579af46870a0fc4d09c9470ba3f99ac4bc"),
        (["weyl", "--ellipsoid", "2", "3", "--k", "1,10,100"],
         "100bbe5ca7d8ed586fc72767122ce5c785146ee75f26e6d99cc44df480bb8bac"),
        (["weyl", "--ellipsoid", "2", "3", "--k", "1,10", "--volume", "5/2"],
         "9be68a9274a561fc0a49a0861a375bbcc23949c1d9c8bd553862d60d03b2955e"),
        (["gap-asymptotics", "--ellipsoid", "1", "1", "--L-grid", "1/4,1,3", "--format", "json"],
         "2347bb4c3c3e53897678898c3ff83c00b628543b7acc05ef805efa785c4671a7"),
        (["gap-asymptotics", "--domain", "union.json", "--L-grid", "2,5,9"],
         "3c9854534ab66a5ffa416943cd1e8088d17696b33228072968c22abfd30dc73b"),
        (["index", "--a", "2", "--b", "3", "--m1", "4", "--m2", "7"],
         "2a4fcdb9c1f7701fb45e5217f7e4851f58fd2c0f7fb22650d5bb9a7bcaf05a35"),
        (["index", "--a", "89/55", "--b", "1", "--scan", "4", "--format", "json"],
         "5285a3161e77cdaa26a046d15b6d871f5176bd5d1dfaf9a8533eb04283c984cb"),
        (["index", "--orbit-file", "orbits.json"],
         "2c2716c237c69a9c467720cf9c09fc4a7ee0bc51bd4636e720179d9713546f75"),
        (["gap", "--domain", "toric.json", "--L", "7"],
         "6e1d25e38372826d0fa35f6a9a833571e595cfa535523f379a8f378938dfc30a"),
        (["gap", "--domain", "union.json", "--L", "7"],
         "afe1157527958d0f07cf3047f9d33c21c211e8c61eb0c143e479a9d6826bd7f6"),
        (["weyl", "--domain", "union.json", "--k", "1,5,20"],
         "cee7c5994f38edc1bb75d51337eed0ca1b1a9963615bd1760c0410cc46c92675"),
        (["weyl", "--domain", "toric.json", "--k", "1,5,20"],
         "953d7e14027649e359ea45f6ad9fcdcafe314c5cbc6b28eac9a7b5011c68435e"),
    ])
    def test_row_output_is_pinned(self, capsys, tmp_path, monkeypatch, argv, digest):
        # digests recorded before rendering moved out of the commands
        monkeypatch.chdir(write_pinned_inputs(tmp_path))
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_manifest_is_pinned(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(write_pinned_inputs(tmp_path))
        code, out, _ = run(capsys, "spectrum", "--domain", "toric.json", "--k-max", "6",
                           "--manifest", "m.json")
        assert code == 0
        assert hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest() == \
            "8ae2a1859250c961a3bd7e0ecde0fdddbbce34c506771b07e5481003f0bc984f"

    @pytest.mark.parametrize("argv, expected", [
        (["gap", "--ellipsoid", "1", "1", "--L", "1e400"], ("0", "1")),
        (["gap", "--ball", "1", "--L", "1e400"], ("0", "1")),
        (["gap", "--ellipsoid", "1", "89/55", "--L", "1e400"], ("0", "2519")),
        (["weyl", "--ellipsoid", "2", "3", "--k", "1000000"], ("1000000", "3462")),
    ])
    def test_huge_cutoffs_and_indices_return(self, argv, expected):
        # in a child process, so a regression to a sweep fails on the timeout
        env = dict(os.environ, PYTHONPATH=str(Path(toricspec.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "toricspec.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == 0 and done.stderr == ""
        _, rows = rows_of(done.stdout)
        first, second = ("gap", "achieving_k") if argv[0] == "gap" else ("k", "value")
        assert (rows[0][first], rows[0][second]) == expected

    def test_out_of_memory_is_a_short_error(self, capsys, monkeypatch):
        def exhausted(self, k_max):
            raise MemoryError
        monkeypatch.delenv("TORICSPEC_CACHE_DIR", raising=False)
        monkeypatch.setattr(toricspec.spectra.EllipsoidSpectrum, "_extend", exhausted)
        code, out, err = run(capsys, "spectrum", "--ball", "1", "--k-max", "7")
        assert (code, out) == (2, "")
        assert err.startswith("error: spectrum ") and "--k-max" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.skipif(sys.platform == "win32", reason="needs POSIX resource limits")
    def test_huge_k_max_under_a_memory_limit_exits_2(self):
        import resource
        limit = 256 * 2**20  # address space: the listing for 10^9 entries cannot fit

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        env = dict(os.environ, PYTHONPATH=str(Path(toricspec.__file__).resolve().parents[1]))
        env.pop("TORICSPEC_CACHE_DIR", None)
        done = subprocess.run([sys.executable, "-m", "toricspec.cli", "spectrum", "--ball", "1",
                               "--k-max", "1000000000"], env=env, preexec_fn=cap_memory,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: spectrum ") and "--k-max" in done.stderr
        assert "Traceback" not in done.stderr

    def test_gap_asymptotics_rows(self, capsys):
        code, out, _ = run(capsys, "gap-asymptotics", "--ellipsoid", "1", "1",
                           "--L-grid", "1/4,1/2,1,2")
        assert code == 0
        _, rows = rows_of(out)
        assert [r["gap"] for r in rows] == ["inf", "inf", "0", "0"]
        assert [r["infinite"] for r in rows] == ["true", "true", "false", "false"]
        assert all(r["suffix_sup"] == "0" for r in rows)


class TestWeylCommand:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "weyl", "--ellipsoid", "2", "3", "--k", "1,10")
        assert code == 0
        header, rows = rows_of(out)
        assert header[:3] == ["k", "value", "value_approx"]
        assert rows[0]["value"] == "2" and rows[0]["ratio"] == "4"
        assert rows[0]["deviation"] == "-8"

    def test_volume_override(self, capsys):
        code, out, _ = run(capsys, "weyl", "--ellipsoid", "2", "3",
                           "--k", "1", "--volume", "1/2")
        assert code == 0
        _, rows = rows_of(out)
        assert F(rows[0]["deviation"]) == F(rows[0]["ratio"]) - 1

    @pytest.mark.parametrize("volume", ["0", "-1"])
    def test_nonpositive_volume_is_a_usage_error(self, capsys, volume):
        code, out, err = run(capsys, "weyl", "--ball", "1", "--k", "1",
                             "--volume", volume)
        assert (code, out) == (2, "")
        assert "volume must be positive" in err


class TestIndexCommand:
    def test_closed_form(self, capsys):
        code, out, _ = run(capsys, "index", "--a", "2", "--b", "3", "--m1", "1", "--m2", "1")
        assert code == 0
        _, rows = rows_of(out)
        assert rows[0]["index"] == "8" and rows[0]["action"] == "5"

    def test_scan(self, capsys):
        code, out, _ = run(capsys, "index", "--a", "89", "--b", "55", "--scan", "2")
        assert code == 0
        _, rows = rows_of(out)
        assert len(rows) == 9
        for r in rows:
            assert int(r["index"]) == 2 * int(r["rank"])

    def test_scan_output_is_pinned(self, capsys):
        # rows and digest recorded from the loop-form implementation
        code, out, _ = run(capsys, "index", "--a", "10007/10000", "--b", "1", "--scan", "12")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 170
        assert lines[:4] == ["m1,m2,action,action_approx,index,rank,tangent_count",
                             "0,0,0,0,0,0,1", "0,1,1,1,2,1,2", "0,2,2,2,6,3,4"]
        assert lines[13:16] == ["0,12,12,12,156,78,79", "1,0,10007/10000,1.0007,4,2,3",
                                "1,1,20007/10000,2.0007,8,4,5"]
        assert lines[79:82] == ["6,0,30021/5000,6.0042,54,27,28", "6,1,35021/5000,7.0042,68,34,35",
                                "6,2,40021/5000,8.0042,84,42,43"]
        assert lines[167:] == ["12,10,55021/2500,22.0084,530,265,266",
                               "12,11,57521/2500,23.0084,576,288,289",
                               "12,12,60021/2500,24.0084,624,312,313"]
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "68b84f15e251208fe4d9933cd759172462a1bc02d8a6c3568f86d2db259f1d40"

    def test_scan_precondition_fails(self, capsys):
        code, _, err = run(capsys, "index", "--a", "1", "--b", "1", "--scan", "2")
        assert code == 2 and "ratio collision" in err

    def test_orbit_file(self, capsys, tmp_path):
        obj = {"orbits": [
                   {"label": "g1", "chern": 1, "self_linking": -1,
                    "multiplicity": 1, "cz": [1]},
                   {"label": "g2", "chern": 1, "self_linking": -1,
                    "multiplicity": 1, "cz": [3]}],
               "linking": [[0, 1], [1, 0]]}
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "index", "--orbit-file", str(path))
        assert code == 0
        _, rows = rows_of(out)
        assert rows[0]["index"] == "8"

    def test_orbit_file_short_cz(self, capsys, tmp_path):
        obj = {"orbits": [{"label": "g1", "chern": 1, "self_linking": -1,
                           "multiplicity": 3, "cz": [1]}],
               "linking": [[0]]}
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "index", "--orbit-file", str(path))
        assert code == 2 and "cover" in err

    def test_orbit_file_boolean_multiplicity(self, capsys, tmp_path):
        # JSON true is a Python bool, an int subclass; it must not count as 1
        obj = {"orbits": [{"label": "g1", "chern": 1, "self_linking": -1,
                           "multiplicity": True, "cz": [1]}],
               "linking": [[0]]}
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "index", "--orbit-file", str(path))
        assert (code, out) == (2, "")
        assert "got bool True" in err and "Traceback" not in err

    def test_missing_orbit_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "index", "--orbit-file", str(tmp_path / "absent.json"))
        assert code == 3 and "io error:" in err

    def test_incomplete_flags(self, capsys):
        code, _, err = run(capsys, "index", "--a", "2", "--b", "3")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("argv, message", [
        (["index", "--a", "1"], "index needs --a and --b unless --orbit-file is given"),
        (["index", "--orbit-file", "chern.json"],
         "orbit 'g1': chern and self_linking must be ints, got float 1.5"),
        (["index", "--orbit-file", "row.json"], "'linking' rows must be integer lists"),
        (["index", "--orbit-file", "entry.json"], "linking entries must be ints, got bool True"),
        (["index", "--orbit-file", "label.json"], "orbit labels must be strings, got NoneType None"),
    ], ids=["no-b", "float-chern", "int-row", "bool-entry", "null-label"])
    def test_refusals_are_pinned(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        record = {"label": "g1", "chern": 1, "self_linking": -1, "multiplicity": 1, "cz": [1]}
        files = {"chern.json": {"orbits": [{**record, "chern": 1.5}], "linking": [[0]]},
                 "row.json": {"orbits": [record], "linking": [5]},
                 "entry.json": {"orbits": [record, {**record, "label": "g2"}],
                                "linking": [[0, True], [True, 0]]},
                 "label.json": {"orbits": [{**record, "label": None}], "linking": [[0]]}}
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


class TestUnionCommand:
    def write_union(self, tmp_path):
        dom = DisjointUnion((Ball(F(1)), Ellipsoid(F(2), F(3))))
        path = tmp_path / "union.json"
        path.write_text(json.dumps(dom.to_jsonable()))
        return path, dom

    def test_values_and_partitions(self, capsys, tmp_path):
        path, dom = self.write_union(tmp_path)
        code, out, _ = run(capsys, "union", "--domain", str(path), "--k-max", "4")
        assert code == 0
        _, rows = rows_of(out)
        spec = spectrum_for(dom)
        assert [r["exact"] for r in rows] == ["0", "2", "3", "4", "5"]
        assert [F(r["exact"]) for r in rows] == spec.values(4)
        for k, r in enumerate(rows):
            wit = json.loads(r["witness"])
            assert sum(wit["partition"]) == k

    def test_non_union_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(Ball(F(1)).to_jsonable()))
        code, _, err = run(capsys, "union", "--domain", str(path), "--k-max", "2")
        assert code == 2 and "union" in err


class TestValidateCommand:
    def test_echoes_canonical_json(self, capsys, tmp_path):
        path = tmp_path / "dom.json"
        path.write_text(json.dumps({"type": "ellipsoid", "a": "2/4", "b": "3"}))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert json.loads(out) == {"type": "ellipsoid", "a": "1/2", "b": "3"}

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 3 and "io error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and "error:" in err


class TestParsingAndIo:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "spectrum", "--ball", "1", "--k-max", "2", "--bogus")
        assert code == 2 and "usage" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_conflicting_domain_flags(self, capsys):
        code, _, err = run(capsys, "spectrum", "--ball", "1",
                           "--ellipsoid", "1", "2", "--k-max", "2")
        assert code == 2 and "usage" in err

    def test_bad_rational_argument(self, capsys):
        code, _, err = run(capsys, "spectrum", "--ball", "1/0", "--k-max", "2")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "usage" in out

    def test_parser_is_built_once_and_reused(self, capsys, tmp_path, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.chdir(write_pinned_inputs(tmp_path))
        monkeypatch.delenv("TORICSPEC_CACHE_DIR", raising=False)
        calls = [
            ("spectrum", "--ellipsoid", "2", "3", "--k-max", "6"),
            ("frobnicate",),
            ("spectrum", "--ball", "1", "--k-max", "-1"),
            ("--help",),
            ("union", "--domain", "union.json", "--k-max", "5"),
            ("index", "--a", "89", "--b", "55", "--scan", "2"),
        ]
        first = [run(capsys, *argv) for argv in calls]
        assert [r[0] for r in first] == [0, 2, 2, 0, 0, 0]
        assert [run(capsys, *argv) for argv in calls] == first

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--domain", "bad.json", "--k-max", "2"],
        ["validate", "bad.json"],
        ["index", "--orbit-file", "bad.json"],
    ])
    def test_undecodable_input_file(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: malformed") and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["close", "--a", "1", "--b", "2", "--L", "1e5000"], "argument --L: rational literal"),
        (["spectrum", "--ball", "1e5000", "--k-max", "1"], "argument --ball: rational literal"),
        (["gap", "--ball", "1", "--L", "1e-5000"], "argument --L: rational literal"),
        (["validate", "big.json"], "error: rational literal '1e5000' has a numerator"),
        (["validate", "bigint.json"], "error: malformed domain JSON"),
        # a parsed input whose computed index passes the limit
        (["index", "--a", "1", "--b", "1e-4290", "--m1", "100000", "--m2", "0"],
         "error: a computed value has more than 4300 digits"),
        (["index", "--a", "1", "--b", "1e-4290", "--m1", "100000", "--m2", "0",
          "--format", "json", "--manifest", "m.json"],
         "error: a computed value has more than 4300 digits"),
    ], ids=["close", "spectrum", "gap", "validate", "validate-int", "index-csv", "index-json"])
    def test_a_value_past_the_digit_limit_exits_2(self, capsys, tmp_path, monkeypatch,
                                                   argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.json").write_text(json.dumps({"type": "ball", "a": "1e5000"}))
        (tmp_path / "bigint.json").write_text('{"type": "ball", "a": 1' + "0" * 5000 + "}")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("argv", [
        ["close", "--a", "1", "--b", "2", "--L", "1" * 5000],
        ["spectrum", "--domain", "long.json", "--k-max", "1"],
        ["union", "--domain", "long-union.json", "--k-max", "1"],
        # short literals whose exponent alone passes the limit, refused before 10**e is built
        ["close", "--a", "1", "--b", "2", "--L", "1e30000000"],
        ["close", "--a", "1", "--b", "2", "--L", "1e-30000000"],
        ["spectrum", "--domain", "exponent.json", "--k-max", "1"],
    ], ids=["close", "domain", "union-denominator", "exponent", "negative-exponent",
            "domain-exponent"])
    def test_a_literal_past_the_digit_limit_is_named_briefly(self, capsys, tmp_path, monkeypatch,
                                                             argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "long.json").write_text(json.dumps({"type": "ball", "a": "1" * 5000}))
        (tmp_path / "long-union.json").write_text(json.dumps(
            {"type": "union", "parts": [{"type": "ball", "a": "1"},
                                        {"type": "ellipsoid", "a": "1", "b": "1/" + "7" * 5000}]}))
        (tmp_path / "exponent.json").write_text(json.dumps({"type": "ball", "a": "2.5e30000000"}))
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert f"more than {sys.get_int_max_str_digits()} digits" in err and "Traceback" not in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("argv, text", [
        (["close", "--a", "1", "--b", "2", "--L", "1." + "1" * 4001], "(8005 characters) is below max(a, b) = 2;"),
        (["validate", "in.json"], "unknown domain type: 'tttttttttttttttttttttttt'..."),
        (["validate", "vertex.json"], "two-element list: '[0, 1, 2, 3, 4, 5, 6, 7,'... (688890 characters)"),
        (["validate", "key.json"], "unknown fields: \"['kkkkkkkkkkkkkkkkkkkkkk\"..."),
        (["index", "--orbit-file", "in.json"], "bad orbit record: '[0, 0, 0, 0, 0, 0, 0, 0,'... (300000 characters)"),
        (["index", "--orbit-file", "label.json"], "orbit 'llllllllllllllllllllllll'..."),
        (["index", "--orbit-file", "cover.json"], "orbit 'llllllllllllllllllllllll'..."),
        (["weyl", "--ball", "1", "--k", "1," * 50000], "empty list item: '1,1,1,1,1,1,1,1,1,1,1,1,'"),
        (["spectrum", "--ball", "1", "--k-max", "1" * 5000],
         "argument --k-max: invalid int value: '111111111111111111111111'... (5000 characters)"),
        (["union", "--domain", "in.json", "--k-max", "x" * 100_000],
         "argument --k-max: invalid int value: 'xxxxxxxxxxxxxxxxxxxxxxxx'..."),
        (["index", "--a", "1", "--b", "2", "--m1", "1" * 5000, "--m2", "0"],
         "argument --m1: invalid int value: '111111111111111111111111'..."),
        (["index", "--a", "1", "--b", "2", "--m1", "0", "--m2", "2." * 3000],
         "argument --m2: invalid int value: '2.2.2.2.2.2.2.2.2.2.2.2.'..."),
        (["index", "--a", "1", "--b", "2", "--scan", "9" * 5000],
         "argument --scan: invalid int value: '999999999999999999999999'..."),
    ], ids=["cutoff", "type", "vertex", "key", "record", "label", "cover", "list", "k-max",
            "union-k-max", "m1", "m2", "scan"])
    def test_a_long_outside_value_is_echoed_briefly(self, capsys, tmp_path, monkeypatch,
                                                    argv, text):
        monkeypatch.chdir(tmp_path)
        long = 100_000
        record = {"label": "l" * long, "chern": 1, "self_linking": -1, "multiplicity": 2, "cz": [1]}
        files = {"in.json": {"type": "t" * long, "orbits": [[0] * long], "linking": [[0]]},
                 "vertex.json": {"type": "toric", "vertices": [list(range(long))]},
                 "key.json": {"type": "ball", "a": "1", "k" * long: 1},
                 "label.json": {"orbits": [{**record, "chern": 1.5}], "linking": [[0]]},
                 "cover.json": {"orbits": [record], "linking": [[0]]}}
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert text in err and "Traceback" not in err
        # a usage error (the list case) prints argparse's fixed usage text before its message
        *usage, message = err.splitlines()
        assert len(message.encode()) < 300 and (not usage or usage[0].startswith("usage:"))
        assert usage or len(err.encode()) < 300

    @pytest.mark.parametrize("argv, line", [
        (["spectrum", "--ball", "1", "--k-max", "x"],
         "toricspec spectrum: error: argument --k-max: invalid int value: 'x'"),
        (["union", "--domain", "u.json", "--k-max", "1.5"],
         "toricspec union: error: argument --k-max: invalid int value: '1.5'"),
        (["index", "--a", "1", "--b", "2", "--m1", "", "--m2", "0"],
         "toricspec index: error: argument --m1: invalid int value: ''"),
        (["index", "--a", "1", "--b", "2", "--m1", "0", "--m2", "1e3"],
         "toricspec index: error: argument --m2: invalid int value: '1e3'"),
        (["index", "--a", "1", "--b", "2", "--scan", "7'"],
         "toricspec index: error: argument --scan: invalid int value: \"7'\""),
    ], ids=["k-max", "union-k-max", "m1", "m2", "scan"])
    def test_a_short_bad_int_is_echoed_as_argparse_does(self, capsys, argv, line):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[0].startswith("usage:") and err.splitlines()[-1] == line

    @pytest.mark.parametrize("argv, line", [
        (["weyl", "--ball", "1", "--k", "1,x"],
         "toricspec weyl: error: argument --k: invalid int value: 'x'"),
        (["weyl", "--ball", "1", "--k", "1," + "x" * 300],
         "toricspec weyl: error: argument --k: invalid int value: "
         "'xxxxxxxxxxxxxxxxxxxxxxxx'... (300 characters)"),
        (["weyl", "--ball", "1", "--k", "1," + "1" * 5000],
         "toricspec weyl: error: argument --k: invalid int value: "
         "'111111111111111111111111'... (5000 characters)"),
        (["gap-asymptotics", "--ball", "1", "--L-grid", "1,x/y"],
         "toricspec gap-asymptotics: error: argument --L-grid: not a rational literal: 'x/y'"),
    ], ids=["k", "long-k", "digits-k", "L-grid"])
    def test_a_list_item_is_read_like_its_single_value_flag(self, capsys, argv, line):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[0].startswith("usage:") and err.splitlines()[-1] == line
        # the same item given to the single-value flag of its kind gets the same message
        item = argv[-1].split(",")[1]
        single = ["spectrum", "--ball", "1", "--k-max", item] if argv[0] == "weyl" else \
            ["gap", "--ball", "1", "--L", item]
        _, _, single_err = run(capsys, *single)
        assert single_err.splitlines()[-1].split(": ", 3)[-1] == line.split(": ", 3)[-1]

    def test_output_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run(capsys, "spectrum", "--ball", "1", "--k-max", "2",
                           "--output", str(target))
        assert code == 0 and out == ""
        header, rows = rows_of(target.read_text())
        assert [r["exact"] for r in rows] == ["0", "1", "1"]

    def test_unwritable_manifest_delivers_no_rows(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "spectrum", "--ball", "1", "--k-max", "2",
                             "--manifest", "nodir/m.json")
        assert (code, out) == (3, "")
        assert err.startswith("io error:") and "nodir/m.json" in err

    @pytest.mark.parametrize("argv, flag", [
        (["weyl", "--ellipsoid", "2", "3", "--k", ","], "--k"),
        (["gap-asymptotics", "--ellipsoid", "1", "1", "--L-grid", ","], "--L-grid"),
        (["weyl", "--ellipsoid", "2", "3", "--k", " "], "--k"),
        # one empty item among others
        (["weyl", "--ball", "1", "--k", "1,,3"], "--k"),
        (["weyl", "--ball", "1", "--k", "1,3,"], "--k"),
        (["gap-asymptotics", "--ball", "1", "--L-grid", ",2"], "--L-grid"),
        (["gap-asymptotics", "--ball", "1", "--L-grid", "1, ,2"], "--L-grid"),
    ])
    def test_empty_list_is_a_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"argument {flag}: empty list" in err

    def test_manifest_is_reproducible(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        args = ("spectrum", "--ellipsoid", "2", "3", "--k-max", "5",
                "--output", str(tmp_path / "o.csv"), "--manifest", str(manifest))
        assert run(capsys, *args)[0] == 0
        blob1 = manifest.read_bytes()
        assert run(capsys, *args)[0] == 0
        blob2 = manifest.read_bytes()
        assert blob1 == blob2
        payload = json.loads(blob1)
        assert payload["version"] == "0.1.0"
        assert payload["domain"] == {"type": "ellipsoid", "a": "2", "b": "3"}
        assert len(payload["domain_digest"]) == 64
        assert payload["argv"][0] == "spectrum"
        assert [r["exact"] for r in payload["rows"]] == ["0", "2", "3", "4", "5", "6"]


class TestRowCache:
    def test_cache_round_trip(self, capsys, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("TORICSPEC_CACHE_DIR", str(cache_dir))
        args = ("spectrum", "--ellipsoid", "2", "3", "--k-max", "8")
        code, first, _ = run(capsys, *args)
        assert code == 0
        files = list(cache_dir.glob("*.json"))
        assert len(files) == 1
        code, second, _ = run(capsys, *args)
        assert code == 0 and second == first

    def test_corrupt_entry_is_a_miss(self, capsys, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("TORICSPEC_CACHE_DIR", str(cache_dir))
        args = ("spectrum", "--ball", "1", "--k-max", "4")
        code, first, _ = run(capsys, *args)
        assert code == 0
        entry = next(cache_dir.glob("*.json"))
        entry.write_text("{broken")
        code, again, _ = run(capsys, *args)
        assert code == 0 and again == first

    def test_entry_past_the_digit_limit_is_a_miss(self, capsys, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("TORICSPEC_CACHE_DIR", str(cache_dir))
        args = ("spectrum", "--ball", "1", "--k-max", "4")
        first = run(capsys, *args)
        entry = next(cache_dir.glob("*.json"))
        entry.write_text('{"key": 1' + "0" * 5000 + "}")
        assert run(capsys, *args) == first

    def test_an_entry_holding_another_requests_key_is_a_miss_and_rewritten(
            self, capsys, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("TORICSPEC_CACHE_DIR", str(cache_dir))
        other = run(capsys, "spectrum", "--ball", "1", "--k-max", "4")
        (other_entry,) = cache_dir.glob("*.json")
        args = ("spectrum", "--ball", "1", "--k-max", "5")
        first = run(capsys, *args)
        (entry,) = set(cache_dir.glob("*.json")) - {other_entry}
        entry.write_text(other_entry.read_text())
        assert run(capsys, *args) == first != other
        assert json.loads(entry.read_text())["key"]["k_max"] == 5

    def test_a_cache_path_that_is_a_file_still_delivers_the_rows(self, capsys, tmp_path,
                                                                 monkeypatch):
        args = ("spectrum", "--ball", "1", "--k-max", "4")
        monkeypatch.delenv("TORICSPEC_CACHE_DIR", raising=False)
        uncached = run(capsys, *args)
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory")
        monkeypatch.setenv("TORICSPEC_CACHE_DIR", str(blocker))
        assert run(capsys, *args) == uncached and uncached[0] == 0
        assert blocker.read_text() == "not a directory"

    def test_distinct_requests_get_distinct_entries(self, capsys, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("TORICSPEC_CACHE_DIR", str(cache_dir))
        assert run(capsys, "spectrum", "--ball", "1", "--k-max", "4")[0] == 0
        assert run(capsys, "spectrum", "--ball", "1", "--k-max", "5")[0] == 0
        assert len(list(cache_dir.glob("*.json"))) == 2

    def test_undecodable_entry_is_a_miss(self, capsys, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("TORICSPEC_CACHE_DIR", str(cache_dir))
        args = ("spectrum", "--ellipsoid", "2", "3", "--k-max", "6")
        first = run(capsys, *args)
        assert first[0] == 0
        entry = next(cache_dir.glob("*.json"))
        entry.write_bytes(b"\xff\xfe" + entry.read_bytes())
        assert run(capsys, *args) == first
        assert json.loads(entry.read_text())["rows"][6]["exact"] == "6"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("domain_file", ["toric.json", "union.json"])
    def test_warm_run_prints_the_cold_bytes(self, capsys, tmp_path, monkeypatch,
                                            domain_file, fmt):
        monkeypatch.chdir(write_pinned_inputs(tmp_path))
        monkeypatch.setenv("TORICSPEC_CACHE_DIR", str(tmp_path / "cache"))
        args = ("spectrum", "--domain", domain_file, "--k-max", "9", "--format", fmt)
        cold = run(capsys, *args)
        assert cold[0] == 0 and len(list((tmp_path / "cache").glob("*.json"))) == 1

        def no_compute(domain):
            raise AssertionError("a warm run must not compute the spectrum")
        monkeypatch.setattr(cli, "spectrum_for", no_compute)
        assert run(capsys, *args) == cold


# JSON data as rows and manifests hold it: text of any script, bools, None, long ints
JSON_DATA = st.recursive(
    st.none() | st.booleans() | st.integers(-10**300, 10**300) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24)


class TestJsonText:
    @settings(max_examples=400, deadline=None)
    @given(JSON_DATA)
    @example({"k": 0, "witness": {"d": 0}, "empty": [{}, [], ""], "none": None, "bool": [True, False]})
    @example(["\u00e9\u2028\x00\"\\/", {"\U0001f600": "\ud800"}])
    @example([10**299, -10**299, 0])
    def test_writes_the_bytes_json_dumps_writes(self, value):
        assert tio.json_text(value) == json.dumps(value, separators=(",", ":"), sort_keys=True)
        assert tio.json_text(value, "\n") == json.dumps(value, indent=2)

    def test_a_float_is_refused_as_the_row_conversion_refuses_it(self):
        for write in (tio.json_text, tio.jsonable_witness):
            with pytest.raises(ValidationError, match=r"^cannot serialize witness: 1\.5$"):
                write([{"x": 1.5}])

    def test_an_int_past_the_digit_limit_raises_what_json_dumps_raises(self):
        big = [10 ** (sys.get_int_max_str_digits() + 1)]
        with pytest.raises(ValueError):
            json.dumps(big)
        with pytest.raises(ValueError):
            tio.json_text(big)


class TestOneJsonPass:
    ARGV = ("spectrum", "--domain", "union.json", "--k-max", "6")

    def counting_conversion(self, monkeypatch):
        calls = []
        real = tio.jsonable_witness
        monkeypatch.setattr(tio, "jsonable_witness", lambda w: calls.append(w) or real(w))
        return calls

    def test_rows_are_converted_once_whatever_the_outputs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(write_pinned_inputs(tmp_path))
        monkeypatch.delenv("TORICSPEC_CACHE_DIR", raising=False)
        calls = self.counting_conversion(monkeypatch)
        assert run(capsys, *self.ARGV)[0] == 0
        csv_only = len(calls)
        calls.clear()
        monkeypatch.setenv("TORICSPEC_CACHE_DIR", str(tmp_path / "cache"))
        assert run(capsys, *self.ARGV, "--format", "json", "--manifest", "m.json")[0] == 0
        assert len(calls) == csv_only > 7 * 4  # one walk over 7 rows of 4 cells, nested ones too

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cached_rows_are_handed_on_as_read(self, capsys, tmp_path, monkeypatch, fmt):
        monkeypatch.chdir(write_pinned_inputs(tmp_path))
        monkeypatch.setenv("TORICSPEC_CACHE_DIR", str(tmp_path / "cache"))
        argv = (*self.ARGV, "--format", fmt, "--manifest", "m.json")
        cold = run(capsys, *argv)
        cold_manifest = (tmp_path / "m.json").read_bytes()
        calls = self.counting_conversion(monkeypatch)
        assert run(capsys, *argv) == cold and cold[0] == 0
        assert (tmp_path / "m.json").read_bytes() == cold_manifest
        assert calls == []

    def test_the_cache_key_is_hashed_once_per_request(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TORICSPEC_CACHE_DIR", str(tmp_path / "cache"))
        hashed = []
        real = tio._canonical_sha256
        monkeypatch.setattr(tio, "_canonical_sha256", lambda obj: hashed.append(obj) or real(obj))
        for _ in range(2):  # a miss that stores the rows, then a hit
            hashed.clear()
            assert run(capsys, "spectrum", "--ball", "1", "--k-max", "3")[0] == 0
            assert [obj["op"] for obj in hashed] == ["spectrum"]

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--domain", "union.json", "--k-max", "6", "--format", "json",
         "--manifest", "m.json"),
        ("union", "--domain", "union.json", "--k-max", "4", "--manifest", "m.json"),
        ("weyl", "--domain", "toric.json", "--k", "1,5", "--format", "json"),
        ("index", "--orbit-file", "orbits.json", "--format", "json", "--manifest", "m.json"),
        ("validate", "union.json"),
    ])
    def test_no_json_encoder_is_built_for_an_uncached_request(self, capsys, tmp_path, monkeypatch,
                                                              argv):
        monkeypatch.chdir(write_pinned_inputs(tmp_path))
        monkeypatch.delenv("TORICSPEC_CACHE_DIR", raising=False)
        expected = run(capsys, *argv)

        def refuse(self, value):
            raise AssertionError("a JSONEncoder was used")
        monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
        assert run(capsys, *argv) == expected and expected[0] == 0
