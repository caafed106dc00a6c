"""Lattice path core: canonical form, both counting routes, enumeration."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from toricspec import (
    LatticePath,
    ValidationError,
    enclosed_area,
    enumerate_paths,
    lattice_count_direct,
    lattice_count_pick,
    norm_floor,
    omega_length,
    square_profile,
    toric_capacity_detail,
    triangle_profile,
    validate_profile,
)
from toricspec.paths import _scan_paths, _stack_path, direction_table


def random_path(rng, max_coord=6, max_mult=4):
    dirs = [(p, -q) for p in range(max_coord + 1) for q in range(max_coord + 1)
            if (p or q) and gcd(p, q) == 1]
    chosen = rng.sample(dirs, rng.randint(0, min(6, len(dirs))))
    return LatticePath.from_edges(((d, rng.randint(1, max_mult)) for d in chosen))


class TestCanonicalForm:
    def test_empty(self):
        p = LatticePath.empty()
        assert p.is_empty and p.degenerate
        assert p.x_extent == 0 and p.y_extent == 0
        assert p.vertices() == [(0, 0)]

    def test_from_edges_reduces_and_merges(self):
        p = LatticePath.from_edges([((2, -2), 1), ((1, -1), 3)])
        assert p.edges == (((1, -1), 5),)

    def test_from_edges_sorts_by_decreasing_slope(self):
        p = LatticePath.from_edges([((0, -1), 1), ((1, 0), 2), ((1, -2), 1), ((2, -1), 1)])
        assert [d for d, _m in p.edges] == [(1, 0), (2, -1), (1, -2), (0, -1)]

    def test_from_edges_drops_zero_mult(self):
        assert LatticePath.from_edges([((1, 0), 0)]).is_empty

    @pytest.mark.parametrize("edges", [
        (((-1, 0), 1),),
        (((1, 1), 1),),
        (((0, 0), 1),),
        (((2, -2), 1),),
        (((1, -1), 0),),
        (((0, -1), 1), ((1, 0), 1)),
        (((1, -1), 1), ((1, -1), 1)),
    ])
    def test_constructor_rejects_non_canonical(self, edges):
        with pytest.raises(ValidationError):
            LatticePath(edges)

    def test_vertices(self):
        p = LatticePath.from_edges([((1, 0), 2), ((1, -1), 1), ((0, -1), 2)])
        assert p.vertices() == [(0, 3), (2, 3), (3, 2), (3, 0)]

    def test_json_round_trip(self):
        p = LatticePath.from_edges([((1, 0), 2), ((3, -2), 1)])
        assert LatticePath.from_jsonable(p.to_jsonable()) == p
        with pytest.raises(ValidationError):
            LatticePath.from_jsonable({"edges": [{"dir": [1]}]})
        with pytest.raises(ValidationError):
            LatticePath.from_jsonable([1, 2])


class TestCounts:
    def test_known_small_counts(self):
        assert lattice_count_direct(LatticePath.empty()) == 1
        assert lattice_count_direct(LatticePath.from_edges([((0, -1), 3)])) == 4
        assert lattice_count_direct(LatticePath.from_edges([((1, 0), 3)])) == 4
        # unit triangle: (0,0), (0,1), (1,0)
        tri = LatticePath.from_edges([((1, -1), 1)])
        assert lattice_count_direct(tri) == 3
        assert enclosed_area(tri) == Fraction(1, 2)
        # unit square corners
        sq = LatticePath.from_edges([((1, 0), 1), ((0, -1), 1)])
        assert lattice_count_direct(sq) == 4
        assert enclosed_area(sq) == 1
        # wide triangle (0,1)-(2,0): interior column holds no extra point
        wide = LatticePath.from_edges([((2, -1), 1)])
        assert lattice_count_direct(wide) == 4
        assert enclosed_area(wide) == 1

    def test_pick_equals_direct_on_random_paths(self, rng):
        for _ in range(200):
            p = random_path(rng)
            assert lattice_count_pick(p) == lattice_count_direct(p), p

    def test_pick_handles_degenerate_axis_paths(self):
        for p in (LatticePath.empty(),
                  LatticePath.from_edges([((0, -1), 5)]),
                  LatticePath.from_edges([((1, 0), 5)])):
            assert p.degenerate
            assert lattice_count_pick(p) == lattice_count_direct(p)

    def test_area_is_translation_of_shoelace(self):
        p = LatticePath.from_edges([((1, 0), 1), ((2, -1), 1), ((1, -2), 1), ((0, -1), 1)])
        assert enclosed_area(p) == Fraction(lattice_count_pick(p) - 1, 1) - Fraction(
            p.x_extent + p.y_extent + p.total_multiplicity, 2)


def naive_paths(dirs, max_length, omega, inclusive):
    # independent stream: brute-force multiplicity vectors, Fraction sums
    out = []

    def admit(edges):
        path = LatticePath.from_edges(edges)
        length = omega(path)
        if length > max_length or (not inclusive and length == max_length):
            return False
        out.append(path)
        return True

    def walk(start, edges):
        for j in range(start, len(dirs)):
            m = 1
            # unit costs are positive, so failure at m rules out m+1
            while admit(edges + [(dirs[j], m)]):
                walk(j + 1, edges + [(dirs[j], m)])
                m += 1

    if admit([]):
        walk(0, [])
    return out


class TestEnumeration:
    def test_stream_matches_naive_enumeration(self):
        prof = square_profile(Fraction(1))
        omega = lambda p: omega_length(prof, p)
        dirs = sorted(
            [(p, -q) for p in range(4) for q in range(4) if (p or q) and gcd(p, q) == 1],
            key=lambda d: (1, Fraction(0)) if d[0] == 0 else (0, Fraction(-d[1], d[0])))
        for bound, inclusive in [(Fraction(3), False), (Fraction(3), True), (Fraction(2), True)]:
            got = list(enumerate_paths(bound, Fraction(1, 2), omega, inclusive=inclusive))
            expected = naive_paths(dirs, bound, omega, inclusive)
            assert sorted(got, key=repr) == sorted(expected, key=repr), (bound, inclusive)
            assert len(set(got)) == len(got)

    def test_stream_is_deterministic_and_starts_empty(self):
        prof = triangle_profile(Fraction(2), Fraction(3))
        omega = lambda p: omega_length(prof, p)
        a = list(enumerate_paths(Fraction(7), Fraction(1), omega))
        b = list(enumerate_paths(Fraction(7), Fraction(1), omega))
        assert a == b
        assert a[0].is_empty

    def test_budget_respected(self):
        prof = triangle_profile(Fraction(2), Fraction(3))
        omega = lambda p: omega_length(prof, p)
        strict = list(enumerate_paths(Fraction(6), Fraction(1), omega))
        assert all(omega(p) < 6 for p in strict)
        inclusive = list(enumerate_paths(Fraction(6), Fraction(1), omega, inclusive=True))
        assert all(omega(p) <= 6 for p in inclusive)
        assert {p for p in inclusive if omega(p) == 6}
        assert set(strict) <= set(inclusive)

    def test_nonpositive_budget_yields_nothing(self):
        prof = square_profile(Fraction(1))
        omega = lambda p: omega_length(prof, p)
        assert list(enumerate_paths(Fraction(0), Fraction(1, 2), omega)) == []
        assert list(enumerate_paths(Fraction(-1), Fraction(1, 2), omega, inclusive=True)) == []

    def test_bad_rho_rejected(self):
        prof = square_profile(Fraction(1))
        omega = lambda p: omega_length(prof, p)
        with pytest.raises(ValidationError):
            list(enumerate_paths(Fraction(1), Fraction(0), omega))


# convex profiles: up to three edges of strictly decreasing slope from a short
# list (0 allowed first), then an optional vertical edge; heights kept positive
_profile_slopes = st.lists(
    st.sampled_from([Fraction(s) for s in ("0", "-1/3", "-1/2", "-1", "-3/2", "-2", "-3")]),
    min_size=1, max_size=3, unique=True).map(lambda s: sorted(s, reverse=True))


@st.composite
def convex_profiles(draw):
    slopes = draw(_profile_slopes)
    dxs = [draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]))
           for _ in slopes]
    drop = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]))
    if drop == 0 and slopes == [0]:
        drop = Fraction(1)
    y = drop - sum(s * dx for s, dx in zip(slopes, dxs))
    x = Fraction(0)
    verts = [(x, y)]
    for s, dx in zip(slopes, dxs):
        x, y = x + dx, y + s * dx
        verts.append((x, y))
    if drop:
        verts.append((x, Fraction(0)))
    return validate_profile(verts)


@settings(max_examples=60, deadline=None)
@given(prof=convex_profiles(),
       budget_ratio=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4),
                                     Fraction(6), Fraction(8)]),
       inclusive=st.booleans())
def test_scan_state_matches_the_slow_routes(prof, budget_ratio, inclusive):
    # the budget scales with the shorter intercept, so a draw scans from one
    # path up to about a thousand; each yielded state is checked against the
    # column scan and the Fraction length of the path on the stack
    omega = lambda p: omega_length(prof, p)
    budget = budget_ratio * min(prof.x_intercept, prof.y_intercept)
    dirs, bound, den, cap = direction_table(budget, norm_floor(prof), omega, inclusive)
    if not inclusive:
        bound -= 1
    stack: list[list[int]] = []
    scanned = 0
    for length, count in _scan_paths(dirs, bound, cap, stack):
        path = _stack_path(stack)
        assert count == lattice_count_direct(path), path
        assert length == omega(path) * den, path
        scanned += 1
    assert scanned >= 1


def test_capacity_at_k0_is_the_empty_path_from_one_scan():
    res = toric_capacity_detail(square_profile(Fraction(1)), 0)
    assert res.value == 0
    assert res.min_over_at_least == 0 and res.min_over_exact == 0
    assert res.witness == LatticePath.empty() and res.witness_at_least == LatticePath.empty()
    assert res.enumeration_bound == 0
    assert res.paths_scanned == 1
