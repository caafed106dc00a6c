"""Lattice path core: canonical form, both counting routes, enumeration."""

from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from toricspec import (
    LatticePath,
    ValidationError,
    dual_norm,
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
from toricspec.paths import _scan_paths, _slope_key, _stack_path, direction_table
from toricspec.spectra import _scan_table


def _direction_key(dx, dy):
    # the Fraction oracle of the slope order: 0 > -1/2 > -1 > ... > -inf
    if dx == 0:
        return (1, Fraction(0))
    return (0, Fraction(-dy, dx))


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


class TestEnumeration:
    @settings(max_examples=40, deadline=None)
    @given(prof=convex_profiles(),
           budget_ratio=st.sampled_from([Fraction(1), Fraction(2), Fraction(4), Fraction(6)]),
           inclusive=st.booleans())
    @example(prof=square_profile(Fraction(1)), budget_ratio=Fraction(3), inclusive=False)
    @example(prof=square_profile(Fraction(1)), budget_ratio=Fraction(3), inclusive=True)
    @example(prof=square_profile(Fraction(1)), budget_ratio=Fraction(2), inclusive=True)
    def test_stream_matches_naive_enumeration(self, prof, budget_ratio, inclusive):
        # the naive stream tries every primitive direction with p + q at most
        # budget / norm_floor and stops only at the budget
        omega = lambda p: omega_length(prof, p)
        bound = budget_ratio * min(prof.x_intercept, prof.y_intercept)
        reach = int(bound / norm_floor(prof))
        dirs = [(p, -q) for p in range(reach + 1) for q in range(reach + 1 - p)
                if (p or q) and gcd(p, q) == 1]
        got = list(enumerate_paths(bound, norm_floor(prof), omega, inclusive=inclusive))
        expected = naive_paths(dirs, bound, omega, inclusive)
        assert sorted(got, key=repr) == sorted(expected, key=repr)
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
    dirs, bound, den = direction_table(budget, norm_floor(prof), omega, inclusive)
    if not inclusive:
        bound -= 1
    stack: list[list[int]] = []
    scanned = 0
    for length, count in _scan_paths(dirs, bound, stack):
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


# primitive directions (p, q), meaning the edge vector (p, -q), and canonical
# paths built from them
_primitive_dirs = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda d: gcd(*d) == 1)
canonical_paths = st.lists(st.tuples(_primitive_dirs, st.integers(1, 4)), max_size=6).map(
    lambda edges: LatticePath.from_edges(((p, -q), m) for (p, q), m in edges))


def fraction_length(prof, path):
    # the second route: every edge's dual norm in Fractions
    return sum((m * dual_norm(prof, (Fraction(-dy), Fraction(dx))) for (dx, dy), m in path.edges),
               Fraction(0))


@settings(max_examples=200, deadline=None)
@given(prof=convex_profiles(), path=canonical_paths)
def test_integer_omega_length_matches_the_fraction_dual_norms(prof, path):
    length = omega_length(prof, path)
    assert isinstance(length, Fraction)
    assert length == fraction_length(prof, path)


@settings(max_examples=300, deadline=None)
@given(dirs=st.lists(_primitive_dirs, max_size=5), presort=st.booleans())
def test_integer_slope_check_matches_the_direction_key(dirs, presort):
    # the integer sort key orders as the Fraction oracle does
    assert sorted(dirs, key=_slope_key) == sorted(dirs, key=lambda d: _direction_key(d[0], -d[1]))
    # presorted lists reach the accepting side; repeats still reject there
    if presort:
        dirs = sorted(dirs, key=_slope_key)
    keys = [_direction_key(p, -q) for p, q in dirs]
    edges = tuple(((p, -q), 1) for p, q in dirs)
    if all(k0 < k1 for k0, k1 in zip(keys, keys[1:])):
        assert LatticePath(edges).edges == edges
    else:
        with pytest.raises(ValidationError, match="slopes must strictly decrease"):
            LatticePath(edges)


@settings(max_examples=60, deadline=None)
@given(prof=convex_profiles(),
       budget_ratio=st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(5, 2), Fraction(4),
                                     Fraction(8)]),
       inclusive=st.booleans())
def test_profile_table_matches_the_generic_table(prof, budget_ratio, inclusive):
    budget = budget_ratio * min(prof.x_intercept, prof.y_intercept)
    dirs, bound, den = direction_table(
        budget, norm_floor(prof), lambda p: fraction_length(prof, p), inclusive)
    _verts, vden = prof.scaled_vertices
    # the profile table is inclusive: for a strict budget, take the largest
    # length over the vertex denominator that lies below it
    pbound = floor(budget * vden) if inclusive else ceil(budget * vden) - 1
    pdirs = _scan_table(prof, pbound)
    assert [(p, q, Fraction(w, vden)) for p, q, w in pdirs] == \
        [(p, q, Fraction(w, den)) for p, q, w in dirs]
    if not inclusive:
        bound -= 1
    assert [(Fraction(ln, vden), count) for ln, count in _scan_paths(pdirs, pbound, [])] == \
        [(Fraction(ln, den), count) for ln, count in _scan_paths(dirs, bound, [])]
