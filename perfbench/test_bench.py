"""Tests of the benchmark itself (not of toricspec).

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from math import floor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from workloads import PROBES, WORKLOADS, make_workload  # noqa: E402


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def work_counts(result: dict) -> dict:
    """Per-layer metrics that count work rather than time it."""
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] not in ("ms", "us") and k != "trace.overhead_ratio"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_with_one_seed_repeat_their_work_counts(workload):
    runs = []
    for _ in range(2):
        out = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append(work_counts(result))
    assert runs[0] == runs[1]
    assert any(v for v in runs[0].values())


def test_wrong_shape_probe_shows_the_row_cache_defect():
    """The known defect: 5 of 80 requests find a wrong-shaped entry and crash.

    RowCache.load hands a JSON list or a non-list "rows" on, and the CLI
    raises AttributeError instead of treating the entry as a miss. When
    that is fixed, this test fails; the fix then moves the probe into
    BENCHMARK.json as a workload and changes this test to expect no
    failures.
    """
    out = bench("--workload", PROBES[0], "--seed", "2", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] % 80 == 0
    assert result["failed"] * 80 == result["attempted"] * 5
    reasons = [line for line in out.stdout.splitlines() if line.startswith("FAILED ")]
    assert len(reasons) == 5
    assert all("AttributeError" in line for line in reasons)


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in WORKLOADS:
        assert make_workload(workload, 3) == make_workload(workload, 3)
        assert make_workload(workload, 3) != make_workload(workload, 4)


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_continued_fraction_search_matches_exhaustive_search():
    rng = random.Random(0)
    for _ in range(300):
        x = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        cap = rng.randint(1, 60)
        n, m = oracle.best_le(x, cap)
        want = max(Fraction(floor(x * d), d) for d in range(1, cap + 1))
        assert Fraction(n, m) == want and m <= cap


def test_floor_sum_count_matches_row_scan():
    rng = random.Random(1)
    for _ in range(300):
        an, bn, level = rng.randint(1, 40), rng.randint(1, 40), rng.randint(-3, 900)
        rows = sum((level - an * m) // bn + 1 for m in range(max(level, -1) // an + 1)) if level >= 0 else 0
        assert oracle.count_le(an, bn, level) == rows
