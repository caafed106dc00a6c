"""Acceptance gate: fifteen checks, one test and one printed verdict each.

Budgets are wall-clock seconds measured around the workload under test.
Reference values marked frozen were produced by standalone oracle scripts
before the library existed and must never be regenerated from the library;
one more test, outside the fifteen, holds the frozen gap table to the
output of its standalone script.
"""

import csv
import io
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import floor, gcd
from pathlib import Path

import pytest

from conftest import SEED
from test_paths import random_path
from toricspec import (
    Ball,
    BallSpectrum,
    Ellipsoid,
    EllipsoidSpectrum,
    ball_capacity,
    best_approx_above,
    best_approx_below,
    close_gap_consistency,
    ellipsoid_close,
    ellipsoid_index,
    ellipsoid_orbit_set,
    gap_asymptotics,
    index_action_scan,
    lattice_count_direct,
    lattice_count_pick,
    nk_sequence,
    nk_via_lattice,
    path_index_bounds,
    spectral_gap,
    star_shaped_index,
    toric_capacity_detail,
    triangle_profile,
    union_capacity,
)

F = Fraction
GOLDEN = F(89, 55)

# Frozen output of scripts/oracle_gap_table.py for axes (1, 89/55) on the
# cutoff grid 10, 20, ..., 200. Computed before the library was written;
# regenerate only by rerunning that standalone script, never from the
# library under test. Columns: cutoff, gap, cutoff * gap, suffix supremum.
FROZEN_GAP_TABLE = (
    (F(10), F(1, 11), F(10, 11), F(16, 11)),
    (F(20), F(3, 55), F(12, 11), F(16, 11)),
    (F(30), F(2, 55), F(12, 11), F(16, 11)),
    (F(40), F(1, 55), F(8, 11), F(16, 11)),
    (F(50), F(1, 55), F(10, 11), F(16, 11)),
    (F(60), F(1, 55), F(12, 11), F(16, 11)),
    (F(70), F(1, 55), F(14, 11), F(16, 11)),
    (F(80), F(1, 55), F(16, 11), F(16, 11)),
    (F(90), F(0), F(0), F(0)),
    (F(100), F(0), F(0), F(0)),
    (F(110), F(0), F(0), F(0)),
    (F(120), F(0), F(0), F(0)),
    (F(130), F(0), F(0), F(0)),
    (F(140), F(0), F(0), F(0)),
    (F(150), F(0), F(0), F(0)),
    (F(160), F(0), F(0), F(0)),
    (F(170), F(0), F(0), F(0)),
    (F(180), F(0), F(0), F(0)),
    (F(190), F(0), F(0), F(0)),
    (F(200), F(0), F(0), F(0)),
)

TORIC_PAIRS = ((F(2), F(3)), (F(1), F(1)), (F(3), F(7)), (F(5), F(4)), (F(1), GOLDEN))
TORIC_K_MAX = 30


@pytest.fixture(scope="module")
def toric_details():
    """Criterion 4 workload, shared with criterion 5: every minimization
    result for the five pairs, k = 0..30, plus the elapsed seconds."""
    details = []
    start = time.monotonic()
    for a, b in TORIC_PAIRS:
        profile = triangle_profile(a, b)
        expected = [v for v, _w in nk_sequence(a, b, TORIC_K_MAX)]
        for k in range(TORIC_K_MAX + 1):
            details.append(((a, b, k), toric_capacity_detail(profile, k), expected[k]))
    elapsed = time.monotonic() - start
    return details, elapsed


@pytest.fixture(scope="module")
def path_corpus():
    """Criterion 6 corpus, shared with criterion 9: 200 seeded random paths."""
    rng = random.Random(SEED)
    return [random_path(rng) for _ in range(200)]


def test_criterion_01_spectrum_command_lists_the_sequence():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "toricspec.cli",
         "spectrum", "--ellipsoid", "2", "3", "--k-max", "10"],
        capture_output=True, text=True)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    reader = csv.reader(io.StringIO(proc.stdout))
    header = next(reader)
    exact = [row[header.index("exact")] for row in reader]
    assert exact == ["0", "2", "3", "4", "5", "6", "6", "7", "8", "8", "9"]
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    print(f"criterion 1: PASS - spectrum CLI emitted 0,2,3,4,5,6,6,7,8,8,9 "
          f"in {elapsed:.3f}s")


def test_criterion_02_heap_and_lattice_routes_agree():
    rng = random.Random(SEED)
    start = time.monotonic()
    checked = 0
    for _ in range(10):
        den_a, den_b = rng.randint(1, 5), rng.randint(1, 5)
        a = F(rng.randint(1, 20 * den_a), den_a)
        b = F(rng.randint(1, 20 * den_b), den_b)
        seq = [v for v, _w in nk_sequence(a, b, 200)]
        for k in range(1, 201):
            assert nk_via_lattice(a, b, k) == seq[k], (a, b, k)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s, budget 10s"
    print(f"criterion 2: PASS - {checked} entries agree across both routes "
          f"in {elapsed:.3f}s")


def test_criterion_03_ball_closed_form():
    start = time.monotonic()
    seq = [v for v, _w in nk_sequence(F(1), F(1), 500)]
    for k in range(501):
        value, witness = ball_capacity(F(1), k)
        assert value == seq[k], k
        d = witness["d"]
        assert d * d + d <= 2 * k <= d * d + 3 * d, k
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"
    print(f"criterion 3: PASS - 501 ball values match the sequence with the "
          f"defining inequalities verified in {elapsed:.3f}s")


def test_criterion_04_toric_minimizer_matches_closed_form(toric_details):
    details, elapsed = toric_details
    for (a, b, k), res, expected in details:
        assert res.value == expected, (a, b, k)
    assert elapsed < 60.0, f"took {elapsed:.3f}s, budget 60s"
    scanned = sum(res.paths_scanned for _key, res, _e in details)
    print(f"criterion 4: PASS - {len(details)} minimizations over "
          f"{len(TORIC_PAIRS)} triangles match the sequence values "
          f"({scanned} paths scanned) in {elapsed:.3f}s")


def test_criterion_05_round_corners_equality(toric_details):
    details, _elapsed = toric_details
    for (a, b, k), res, _expected in details:
        assert res.min_over_at_least == res.min_over_exact == res.value, (a, b, k)
    print(f"criterion 5: PASS - minimum over count >= k+1 equals minimum over "
          f"count == k+1 in all {len(details)} minimizations")


def test_criterion_06_pick_oracle(path_corpus):
    start = time.monotonic()
    for path in path_corpus:
        assert lattice_count_direct(path) == lattice_count_pick(path), path
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"
    print(f"criterion 6: PASS - direct column count equals the area-based "
          f"count on {len(path_corpus)} random paths in {elapsed:.3f}s")


def test_criterion_07_index_action_equivalence():
    start = time.monotonic()
    report = index_action_scan(F(89), F(55), 8)
    for row in report.rows:
        assert row.index == 2 * (row.tangent_count - 1)
        assert row.index == 2 * row.rank
    elapsed = time.monotonic() - start
    assert len(report.rows) == 81
    assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"
    print(f"criterion 7: PASS - index equals twice (tangent count - 1) on all "
          f"81 pairs for axes (89, 55) in {elapsed:.3f}s")


def test_criterion_08_first_principles_match_closed_form():
    checked = 0
    for a, b in ((F(2), F(3)), (F(89), F(55))):
        for m1 in range(16):
            for m2 in range(16):
                if m1 == m2 == 0:
                    continue
                orbit_set = ellipsoid_orbit_set(a, b, m1, m2)
                assert star_shaped_index(orbit_set) == ellipsoid_index(a, b, m1, m2)
                checked += 1
    print(f"criterion 8: PASS - orbit-set sum equals the closed form on "
          f"{checked} multiplicity pairs")


def test_criterion_09_path_index_upper_bound_counts_points(path_corpus):
    for path in path_corpus:
        _lower, upper = path_index_bounds(path)
        assert upper == 2 * (lattice_count_pick(path) - 1), path
    print(f"criterion 9: PASS - upper index bound equals twice (count - 1) on "
          f"{len(path_corpus)} paths")


def test_criterion_10_weyl_growth_at_sampled_scales():
    c_ball, _w = ball_capacity(F(1), 10 ** 6)
    dev_ball = c_ball * c_ball / 10 ** 6 - 2
    assert abs(dev_ball) <= F(1, 100), dev_ball
    c_ell = nk_via_lattice(F(2), F(3), 10 ** 4)
    dev_ell = c_ell * c_ell / 10 ** 4 - 12
    assert abs(dev_ell) <= F(36, 100), dev_ell
    print(f"criterion 10: PASS - squared-value growth deviates by "
          f"{float(dev_ball):+.6f} (ball, k=10^6) and {float(dev_ell):+.4f} "
          f"(ellipsoid (2,3), k=10^4), within 0.01 and 0.36")


def oracle_pair_below(a, b, cutoff):
    best = F(0)
    for m in range(1, floor(cutoff / a) + 1):
        best = max(best, F(floor(m * a / b), m))
    return (best.denominator, best.numerator) if best else (1, 0)


def oracle_pair_above(a, b, cutoff):
    best = F(0)
    for n in range(1, floor(cutoff / b) + 1):
        best = max(best, F(floor(n * b / a), n))
    return (best.numerator, best.denominator) if best else (0, 1)


def test_criterion_11_closing_bound_matches_exhaustive_search():
    assert ellipsoid_close(F(2), F(3), F(6)) == 0
    rng = random.Random(SEED)
    start = time.monotonic()
    checked = 0
    while checked < 50:
        a = F(rng.randint(1, 2000), rng.randint(1, 1000))
        b = F(rng.randint(1, 2000), rng.randint(1, 1000))
        cutoff = max(a, b) * (1 + F(rng.randint(0, 80), 16))
        if floor(cutoff / a) > 1000 or floor(cutoff / b) > 1000:
            continue
        below = best_approx_below(a, b, cutoff)
        above = best_approx_above(a, b, cutoff)
        m_minus, n_minus = oracle_pair_below(a, b, cutoff)
        m_plus, n_plus = oracle_pair_above(a, b, cutoff)
        assert (below.m, below.n) == (m_minus, n_minus), (a, b, cutoff)
        assert (above.m, above.n) == (m_plus, n_plus), (a, b, cutoff)
        assert ellipsoid_close(a, b, cutoff) == min(
            a * m_minus - b * n_minus, b * n_plus - a * m_plus)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s, budget 30s"
    print(f"criterion 11: PASS - closing bound and both approximants match "
          f"exhaustive search on {checked} random inputs in {elapsed:.3f}s")


def test_criterion_12_close_never_exceeds_gap():
    total = 0
    for a, b in ((F(2), F(3)), (F(1), F(1)), (F(1), GOLDEN)):
        grid = [max(a, b) + i for i in range(20)]
        rows = close_gap_consistency(a, b, grid)
        assert len(rows) == 20
        for row in rows:
            assert row["gap"] is not None
            assert row["margin"] >= 0, (a, b, row)
        total += len(rows)
    print(f"criterion 12: PASS - closing bound stayed at or below the gap on "
          f"all {total} grid cutoffs for three axis pairs")


def test_criterion_13_gap_asymptotics_reproduce_frozen_table():
    spectrum = EllipsoidSpectrum(Ellipsoid(F(1), GOLDEN))
    rows = gap_asymptotics(spectrum, [row[0] for row in FROZEN_GAP_TABLE])
    assert len(rows) == len(FROZEN_GAP_TABLE)
    for row, (cutoff, gap, scaled, suffix_sup) in zip(rows, FROZEN_GAP_TABLE):
        assert not row["infinite"]
        assert (row["cutoff"], row["gap"], row["scaled"], row["suffix_sup"]) == (
            cutoff, gap, scaled, suffix_sup), cutoff
    print(f"criterion 13: PASS - all {len(rows)} rows of the frozen gap table "
          f"for axes (1, 89/55) reproduced exactly")


def test_frozen_gap_table_is_what_its_oracle_script_prints():
    # the script imports nothing from the package, so -I keeps it standalone
    script = Path(__file__).resolve().parent.parent / "scripts" / "oracle_gap_table.py"
    out = subprocess.run([sys.executable, "-I", str(script)], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    frozen = [f"({cutoff.numerator}, "
              + ", ".join(f"Fraction({x.numerator}, {x.denominator})" for x in rest) + "),"
              for cutoff, *rest in FROZEN_GAP_TABLE]
    assert rows == frozen


def test_criterion_14_union_matches_brute_force_partitions():
    parts = [BallSpectrum(Ball(F(1))),
             EllipsoidSpectrum(Ellipsoid(F(2), F(3))),
             EllipsoidSpectrum(Ellipsoid(F(1), F(2)))]
    start = time.monotonic()
    lists = [p.values(20) for p in parts]
    for k in range(21):
        best = max(lists[0][k1] + lists[1][k2] + lists[2][k - k1 - k2]
                   for k1 in range(k + 1) for k2 in range(k - k1 + 1))
        value, witness = union_capacity(parts, k)
        assert value == best, k
        assert sum(witness["partition"]) == k
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s, budget 10s"
    print(f"criterion 14: PASS - union values match brute-force partitions "
          f"for k <= 20 over three parts in {elapsed:.3f}s")


def test_criterion_15_conformality_suite():
    checked = 0
    for r in (F(2), F(5, 2), F(1, 3)):
        for a, b in ((F(2), F(3)), (F(1), GOLDEN)):
            base = [v for v, _w in nk_sequence(a, b, 100)]
            scaled = [v for v, _w in nk_sequence(r * a, r * b, 100)]
            assert scaled == [r * v for v in base], r
            checked += len(base)
            spec = EllipsoidSpectrum(Ellipsoid(a, b))
            spec_r = EllipsoidSpectrum(Ellipsoid(r * a, r * b))
            for cutoff in (F(2), F(5)):
                gap = spectral_gap(spec, cutoff).gap
                assert spectral_gap(spec_r, r * cutoff).gap == r * gap
            low = min(a, b) / 2
            assert spectral_gap(spec_r, r * low).is_infinite == spectral_gap(
                spec, low).is_infinite
            for cutoff in (max(a, b), F(10)):
                assert ellipsoid_close(r * a, r * b, r * cutoff) == r * ellipsoid_close(
                    a, b, cutoff)
    print(f"criterion 15: PASS - sequence, gap, and closing bound all scale "
          f"linearly for three ratios and two axis pairs ({checked} entries)")
