"""Lattice path core: canonical form, both counting routes, enumeration."""

import copy
import json
import pickle
import re
from fractions import Fraction
from math import ceil, floor, gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from toricspec import (
    LatticePath,
    ToricSpectrum,
    ValidationError,
    enumerate_paths,
    lattice_count_direct,
    lattice_count_pick,
    norm_floor,
    omega_length,
    toric_capacity_detail,
    triangle_profile,
    validate_profile,
)
from toricspec.paths import Edge, _chain_twice_area, _scan_paths, _slope_key, direction_table
from toricspec.spectra import _scan_table


def _direction_key(dx, dy):
    # the Fraction oracle of the slope order: 0 > -1/2 > -1 > ... > -inf
    if dx == 0:
        return (1, Fraction(0))
    return (0, Fraction(-dy, dx))


def dual_norm(prof, v):
    # the Fraction form of the dual norm: max(|v1| x + |v2| y) over the profile's vertices
    v1, v2 = abs(v[0]), abs(v[1])
    return max(v1 * x + v2 * y for x, y in prof.vertices)


def square(c=Fraction(1)):
    # the profile of the square [0, c] x [0, c]
    return validate_profile([(0, c), (c, c), (c, 0)])


def trapezoid_area(path):
    # the area under the path, one trapezoid per edge: a second route to the shoelace sum
    verts = path.vertices()
    return sum((Fraction((x1 - x0) * (y0 + y1), 2) for (x0, y0), (x1, y1) in zip(verts, verts[1:])),
               Fraction(0))


def slope_sorted_path(edges):
    # the path of edges with distinct primitive directions, put in LatticePath's order
    return LatticePath(tuple(sorted(edges, key=lambda edge: _slope_key((edge[0][0], -edge[0][1])))))


def random_path(rng, max_coord=6, max_mult=4):
    dirs = [(p, -q) for p in range(max_coord + 1) for q in range(max_coord + 1)
            if (p or q) and gcd(p, q) == 1]
    chosen = rng.sample(dirs, rng.randint(0, min(6, len(dirs))))
    return slope_sorted_path([(d, rng.randint(1, max_mult)) for d in chosen])


class TestCanonicalForm:
    def test_empty(self):
        p = LatticePath(())
        assert p.edges == ()
        assert p.x_extent == 0 and p.y_extent == 0
        assert p.vertices() == [(0, 0)]

    def test_slope_key_sorts_by_decreasing_slope(self):
        edges = [((0, -1), 1), ((1, 0), 2), ((1, -2), 1), ((2, -1), 1)]
        with pytest.raises(ValidationError, match="^edge slopes must strictly decrease$"):
            LatticePath(tuple(edges))
        p = slope_sorted_path(edges)
        assert [d for d, _m in p.edges] == [(1, 0), (2, -1), (1, -2), (0, -1)]

    _rejected = [
        ((((-1, 0), 1),), r"direction \(-1, 0\) must point weakly right and down"),
        ((((1, 1), 1),), r"direction \(1, 1\) must point weakly right and down"),
        ((((0, 0), 1),), r"direction \(0, 0\) must point weakly right and down"),
        ((((2, -2), 1),), r"direction \(2, -2\) is not primitive"),
        ((((1, -1), 0),), "multiplicities must be positive"),
        ((((0, -1), 1), ((1, 0), 1)), "edge slopes must strictly decrease"),
        ((((1, -1), 1), ((1, -1), 1)), "edge slopes must strictly decrease"),
        ((((1, 0), True),), "edge data must be ints, got bool True"),
    ]

    @pytest.mark.parametrize("edges, match", _rejected,
                             ids=[f"edges{i}" for i in range(len(_rejected))])
    def test_constructor_rejects_non_canonical(self, edges, match):
        with pytest.raises(ValidationError, match=match):
            LatticePath(edges)

    @pytest.mark.parametrize("edges, message", [
        ((((0, 0), 1),), "direction (0, 0) must point weakly right and down"),
        ((((-1, -1), 1),), "direction (-1, -1) must point weakly right and down"),
        ((((1, 1), 1),), "direction (1, 1) must point weakly right and down"),
        ((((2, -4), 1),), "direction (2, -4) is not primitive"),
        ((((0, -2), 1),), "direction (0, -2) is not primitive"),
        ((((3, 0), 1),), "direction (3, 0) is not primitive"),
        ((((1, 0), True),), "edge data must be ints, got bool True"),
        ((((1, -1), 0),), "multiplicities must be positive"),
        ((((0, -1), 1), ((1, 0), 1)), "edge slopes must strictly decrease"),
    ], ids=["zero", "left-down", "right-up", "multiple", "vertical-multiple",
            "horizontal-multiple", "bool", "zero-mult", "slope-order"])
    def test_constructor_messages_are_pinned(self, edges, message):
        with pytest.raises(ValidationError) as exc:
            LatticePath(edges)
        assert str(exc.value) == message

    def test_vertices(self):
        p = LatticePath((((1, 0), 2), ((1, -1), 1), ((0, -1), 2)))
        assert p.vertices() == [(0, 3), (2, 3), (3, 2), (3, 0)]

    def test_json_round_trip(self):
        # path JSON is output only: the witness form, pinned through a JSON text round trip
        p = LatticePath((((1, 0), 2), ((3, -2), 1)))
        pinned = {"edges": [{"dir": [1, 0], "mult": 2}, {"dir": [3, -2], "mult": 1}]}
        assert json.loads(json.dumps(p.to_jsonable())) == p.to_jsonable() == pinned
        assert LatticePath(()).to_jsonable() == {"edges": []}


class TestCounts:
    def test_known_small_counts(self):
        assert lattice_count_direct(LatticePath(())) == 1
        assert lattice_count_direct(LatticePath((((0, -1), 3),))) == 4
        assert lattice_count_direct(LatticePath((((1, 0), 3),))) == 4
        # unit triangle: (0,0), (0,1), (1,0)
        tri = LatticePath((((1, -1), 1),))
        assert lattice_count_direct(tri) == 3
        assert trapezoid_area(tri) == Fraction(1, 2)
        # unit square corners
        sq = LatticePath((((1, 0), 1), ((0, -1), 1)))
        assert lattice_count_direct(sq) == 4
        assert trapezoid_area(sq) == 1
        # wide triangle (0,1)-(2,0): interior column holds no extra point
        wide = LatticePath((((2, -1), 1),))
        assert lattice_count_direct(wide) == 4
        assert trapezoid_area(wide) == 1

    def test_pick_equals_direct_on_random_paths(self, rng):
        for _ in range(200):
            p = random_path(rng)
            assert lattice_count_pick(p) == lattice_count_direct(p), p

    def test_pick_handles_degenerate_axis_paths(self):
        for p in (LatticePath(()),
                  LatticePath((((0, -1), 5),)),
                  LatticePath((((1, 0), 5),))):
            assert p.x_extent == 0 or p.y_extent == 0
            assert lattice_count_pick(p) == lattice_count_direct(p)

    def test_area_is_translation_of_shoelace(self):
        p = LatticePath((((1, 0), 1), ((2, -1), 1), ((1, -2), 1), ((0, -1), 1)))
        assert Fraction(_chain_twice_area(p.vertices()), 2) == trapezoid_area(p)
        assert trapezoid_area(p) == Fraction(lattice_count_pick(p) - 1, 1) - Fraction(
            p.x_extent + p.y_extent + p.total_multiplicity, 2)


def naive_paths(dirs, max_length, omega, inclusive):
    # independent stream: brute-force multiplicity vectors, Fraction sums
    out = []

    def admit(edges):
        path = slope_sorted_path(edges)
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
    @example(prof=square(), budget_ratio=Fraction(3), inclusive=False)
    @example(prof=square(), budget_ratio=Fraction(3), inclusive=True)
    @example(prof=square(), budget_ratio=Fraction(2), inclusive=True)
    def test_stream_matches_naive_enumeration(self, prof, budget_ratio, inclusive):
        # the naive stream tries every primitive direction with p + q at most
        # budget / (min(a, b) / 2), a looser reach than norm_floor's, and stops
        # only at the budget: a norm_floor too large drops a direction it keeps
        omega = lambda p: omega_length(prof, p)
        bound = budget_ratio * min(prof.vertices[-1][0], prof.vertices[0][1])
        reach = int(bound / (min(prof.vertices[-1][0], prof.vertices[0][1]) / 2))
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
        assert a[0].edges == ()

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
        prof = square()
        omega = lambda p: omega_length(prof, p)
        assert list(enumerate_paths(Fraction(0), Fraction(1, 2), omega)) == []
        assert list(enumerate_paths(Fraction(-1), Fraction(1, 2), omega, inclusive=True)) == []

    def test_bad_rho_rejected(self):
        prof = square()
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
    budget = budget_ratio * min(prof.vertices[-1][0], prof.vertices[0][1])
    dirs, bound, den = direction_table(budget, norm_floor(prof), omega, inclusive)
    if not inclusive:
        bound -= 1
    stack: list[Edge] = []
    scanned = 0
    for length, count in _scan_paths(dirs, bound, stack):
        path = LatticePath(tuple(stack))
        assert count == lattice_count_direct(path), path
        assert length == omega(path) * den, path
        scanned += 1
    assert scanned >= 1


def recursive_scan(dirs, bound):
    # the order oracle: the scan as a recursive generator over mutable
    # [p, q, mult] entries, yielding (length, count, edges) for every path
    stack = []

    def walk(j0, ln, a, count):
        yield ln, count, tuple(((p, -q), m) for p, q, m in stack)
        for j in range(j0, len(dirs)):
            p, q, w = dirs[j]
            if ln + w > bound:
                continue
            half = (p + 1) * (q + 1) // 2
            entry = [p, q, 0]
            stack.append(entry)
            ln2, a2, count2 = ln, a, count
            while ln2 + w <= bound:
                ln2 += w
                count2 += q * a2 + half
                a2 += p
                entry[2] += 1
                yield from walk(j + 1, ln2, a2, count2)
            stack.pop()

    return list(walk(0, 0, 0, 1))


def flat_scan(dirs, bound, need=None):
    stack: list[Edge] = []
    return [(ln, count, tuple(stack)) for ln, count in _scan_paths(dirs, bound, stack, need)]


@settings(max_examples=60, deadline=None)
@given(prof=convex_profiles(),
       budget_ratio=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4),
                                     Fraction(6), Fraction(8)]),
       inclusive=st.booleans())
def test_flat_scan_matches_the_recursive_walk(prof, budget_ratio, inclusive):
    budget = budget_ratio * min(prof.vertices[-1][0], prof.vertices[0][1])
    dirs, bound, _den = direction_table(budget, norm_floor(prof), lambda p: omega_length(prof, p),
                                        inclusive)
    if not inclusive:
        bound -= 1
    assert flat_scan(dirs, bound) == recursive_scan(dirs, bound)


@settings(max_examples=40, deadline=None)
@given(prof=convex_profiles(),
       budget_ratio=st.sampled_from([Fraction(1), Fraction(2), Fraction(4), Fraction(6)]))
def test_stack_snapshots_outlive_the_walk(prof, budget_ratio):
    # both toric scans keep tuple(stack) and build their paths once the walk has
    # moved on: every snapshot, built only after the walk ends, is the path yielded
    _verts, den = prof.scaled_vertices
    bound = floor(budget_ratio * min(prof.vertices[-1][0], prof.vertices[0][1]) * den)
    kept = flat_scan(_scan_table(prof, bound), bound)
    for length, count, snapshot in kept:
        path = LatticePath(snapshot)
        assert lattice_count_direct(path) == count, path
        assert omega_length(prof, path) * den == length, path
    assert len(kept) >= 2


@pytest.mark.parametrize("dirs, bound, expected", [
    # budget 0: only the empty path fits
    ([(1, 0, 1), (1, 1, 2), (0, 1, 1)], 0, [(0, 1, ())]),
    # no direction at all
    ([], 5, [(0, 1, ())]),
    # one direction: a pure multiplicity chain of triangles 3, 6, 10 points
    ([(1, 1, 2)], 7, [(0, 1, ()), (2, 3, (((1, -1), 1),)), (4, 6, (((1, -1), 2),)),
                      (6, 10, (((1, -1), 3),))]),
], ids=["budget-0", "no-directions", "one-direction"])
def test_flat_scan_edge_cases(dirs, bound, expected):
    assert flat_scan(dirs, bound) == recursive_scan(dirs, bound) == expected


def is_subsequence(part, whole):
    rest = iter(whole)
    return all(item in rest for item in part)


@settings(max_examples=60, deadline=None)
@given(prof=convex_profiles(),
       budget_ratio=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4),
                                     Fraction(6)]),
       need=st.integers(1, 60))
def test_falling_budget_walk_keeps_the_oracle_order_up_to_its_final_budget(prof, budget_ratio,
                                                                           need):
    budget = budget_ratio * min(prof.vertices[-1][0], prof.vertices[0][1])
    dirs, bound, _den = direction_table(budget, norm_floor(prof), lambda p: omega_length(prof, p),
                                        True)
    oracle = recursive_scan(dirs, bound)
    got = flat_scan(dirs, bound, need)
    # the final budget is the shortest oracle path with at least `need` points
    final = min([ln for ln, count, _e in oracle if count >= need], default=bound)
    assert is_subsequence(got, oracle)
    assert [y for y in oracle if y[0] <= final] == [y for y in got if y[0] <= final]


@pytest.mark.parametrize("dirs, bound, need, expected", [
    # the empty path encloses 1 point, so need = 1 ends the walk at once
    ([(1, 0, 1), (1, 1, 2), (0, 1, 1)], 5, 1, [(0, 1, ())]),
    # budget 0: only the empty path fits, whatever the need
    ([(1, 0, 1), (1, 1, 2), (0, 1, 1)], 0, 4, [(0, 1, ())]),
    # one direction: 6 points at length 4 cut the chain 3, 6, 10
    ([(1, 1, 2)], 7, 6, [(0, 1, ()), (2, 3, (((1, -1), 1),)), (4, 6, (((1, -1), 2),))]),
], ids=["need-1", "budget-0", "one-direction"])
def test_falling_budget_edge_cases(dirs, bound, need, expected):
    assert flat_scan(dirs, bound, need) == expected


def test_a_need_above_every_count_leaves_the_walk_fixed():
    prof = validate_profile([(0, 2), (1, Fraction(7, 4)), (2, 1), (Fraction(5, 2), 0)])
    dirs, bound, _den = direction_table(Fraction(12), norm_floor(prof),
                                        lambda p: omega_length(prof, p), True)
    fixed = flat_scan(dirs, bound)
    assert flat_scan(dirs, bound, max(count for _ln, count, _e in fixed) + 1) == fixed
    assert fixed == recursive_scan(dirs, bound) and len(fixed) > 100


def test_capacity_at_k0_is_the_empty_path_from_one_scan():
    res = toric_capacity_detail(square(), 0)
    assert res.value == 0
    assert res.min_over_at_least == 0 and res.min_over_exact == 0
    assert res.witness == LatticePath(()) and res.witness_at_least == LatticePath(())
    assert res.enumeration_bound == 0
    assert res.paths_scanned == 1


@pytest.mark.parametrize("dirs, message", [
    ([(1, 0, 1), (2, 2, 3), (0, 1, 1)], r"^direction \(2, -2\) is not primitive$"),
    ([(1, 0, 1), (0, 1, 1), (1, 1, 2)], r"^edge slopes must strictly decrease"),
    ([(1, 0, 1), (1, 1, 2), (1, 1, 2), (0, 1, 1)], r"^edge slopes must strictly decrease"),
], ids=["non-primitive", "out-of-order", "repeated"])
def test_a_bad_table_is_refused_before_the_first_path(dirs, message):
    # the scan builds its paths unchecked, so its table is checked once, up front
    stack: list[Edge] = []
    scan = _scan_paths(dirs, 10, stack)
    with pytest.raises(ValidationError, match=message):
        next(scan)
    assert stack == []


def assert_same_as_checked(path):
    # the checked constructor is the oracle of a path built unchecked
    checked = LatticePath(path.edges)
    assert checked == path and checked.edges == path.edges
    assert (repr(checked), hash(checked)) == (repr(path), hash(path))


@settings(max_examples=40, deadline=None)
@given(prof=convex_profiles(),
       budget_ratio=st.sampled_from([Fraction(1), Fraction(2), Fraction(4), Fraction(6)]),
       inclusive=st.booleans(), k=st.integers(0, 12))
def test_unchecked_paths_equal_their_checked_constructions(prof, budget_ratio, inclusive, k):
    omega = lambda p: omega_length(prof, p)
    budget = budget_ratio * min(prof.vertices[-1][0], prof.vertices[0][1])
    for path in enumerate_paths(budget, norm_floor(prof), omega, inclusive=inclusive):
        assert_same_as_checked(path)
    for _value, witness in ToricSpectrum(prof).entries(k):
        assert_same_as_checked(witness)
    res = toric_capacity_detail(prof, k)
    assert_same_as_checked(res.witness)
    assert_same_as_checked(res.witness_at_least)


def test_a_copied_or_pickled_scanned_path_is_rebuilt_through_the_checks(monkeypatch):
    prof = square()
    path = list(enumerate_paths(Fraction(4), norm_floor(prof), lambda p: omega_length(prof, p)))[-1]
    assert path.edges
    built, init = [], LatticePath.__init__

    def counted(self, edges):
        built.append(edges)
        init(self, edges)
    monkeypatch.setattr(LatticePath, "__init__", counted)
    copies = [copy.copy(path), copy.deepcopy(path), pickle.loads(pickle.dumps(path))]
    assert copies == [path] * 3 and all(c is not path for c in copies)
    assert built == [path.edges] * 3


# primitive directions (p, q), meaning the edge vector (p, -q), and canonical
# paths built from distinct ones
_primitive_dirs = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda d: gcd(*d) == 1)
canonical_paths = st.dictionaries(_primitive_dirs, st.integers(1, 4), max_size=6).map(
    lambda mults: slope_sorted_path([((p, -q), m) for (p, q), m in mults.items()]))


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
    budget = budget_ratio * min(prof.vertices[-1][0], prof.vertices[0][1])
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


def _rectangle_scan_table(prof, bound):
    # every primitive (p, q) in the intercepts' rectangle, each cost compared with the bound
    verts, _den = prof.scaled_vertices
    dirs = [(p, q, w) for p in range(bound // verts[0][1] + 1) for q in range(bound // verts[-1][0] + 1)
            if gcd(p, q) == 1 and (w := max(q * x + p * y for x, y in verts)) <= bound]
    dirs.sort(key=lambda d: _direction_key(d[0], -d[1]))
    return dirs


@settings(max_examples=80, deadline=None)
@given(prof=convex_profiles(), data=st.data())
def test_profile_table_stopping_at_the_budget_matches_the_full_rectangle(prof, data):
    # budgets from below the cheapest unit, where the table is empty, to a few
    # intercepts; the vertical direction (0, 1) is the only one with p = 0
    verts, _den = prof.scaled_vertices
    bound = data.draw(st.integers(0, 6 * max(verts[0][1], verts[-1][0])))
    table = _scan_table(prof, bound)
    assert table == _rectangle_scan_table(prof, bound)
    assert ((0, 1, verts[-1][0]) in table) == (verts[-1][0] <= bound)


@pytest.mark.parametrize("unit, message", [
    (1.5, "unit edge length must be exact; floats are rejected: 1.5"),
    (None, "unit edge length must be rational: None"),
    ("x", "unit edge length must be rational: 'x'"),
    (Fraction(-1), "unit edge (0, -1) has nonpositive length -1"),
    (0, "unit edge (0, -1) has nonpositive length 0"),
], ids=["float", "none", "text", "negative", "zero"])
def test_a_bad_unit_length_is_refused_by_name(unit, message):
    # (0, -1) is the first candidate measured, so it names the refusal
    with pytest.raises(ValidationError, match=re.escape(message)):
        direction_table(Fraction(3), Fraction(1, 2), lambda p: unit, False)
    with pytest.raises(ValidationError, match=re.escape(message)):
        list(enumerate_paths(Fraction(3), Fraction(1, 2), lambda p: unit, inclusive=True))


class _Length(Fraction):
    """A Fraction subclass, as a caller's own length type might be."""


def _additive_cost(path):
    # an additive length that is not a profile's: m (2p + 3q) per edge (p, -q),
    # at least 2 (p + q), so rho = 2
    return sum(m * (2 * dx - 3 * dy) for (dx, dy), m in path.edges)


@pytest.mark.parametrize("budget", [Fraction(2), Fraction(3), Fraction(25, 2), Fraction(14)])
@pytest.mark.parametrize("inclusive", [False, True])
def test_int_and_fraction_subclass_lengths_act_as_their_fraction(budget, inclusive):
    def run(wrap):
        omega = lambda p: wrap(_additive_cost(p))
        return (direction_table(budget, Fraction(2), omega, inclusive),
                list(enumerate_paths(budget, Fraction(2), omega, inclusive=inclusive)))

    plain = run(Fraction)
    assert run(int) == run(_Length) == plain
    # budgets 2, 3 and 14 are unit lengths: the inclusive mode keeps that edge
    units = {2 * p + 3 * q for p, q, _w in plain[0][0]}
    assert (budget in units) == (inclusive and budget.denominator == 1)


def _fraction_direction_table(max_length, rho, omega, inclusive):
    """The Fraction route to direction_table: each unit length compared as a
    Fraction, the table sorted by the Fraction slope key and scaled by one lcm."""
    reach = int(max_length / rho)
    raw = []
    for p in range(reach + 1):
        for q in range(reach + 1 - p):
            if gcd(p, q) == 1:
                w = Fraction(omega(LatticePath((((p, -q), 1),))))
                assert w > 0
                if w < max_length or (inclusive and w == max_length):
                    raw.append((p, q, w))
    raw.sort(key=lambda d: _direction_key(d[0], -d[1]))
    den = lcm(max_length.denominator, *(w.denominator for _p, _q, w in raw))
    return [(p, q, int(w * den)) for p, q, w in raw], int(max_length * den), den


_unit_dirs = st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])


@settings(max_examples=80, deadline=None)
@given(prof=convex_profiles(), data=st.data(), inclusive=st.booleans())
def test_integer_direction_table_matches_the_fraction_table(prof, data, inclusive):
    omega = lambda p: omega_length(prof, p)
    # a budget on the profile's scale, or a small multiple of a unit length,
    # which puts that unit on the inclusive edge
    if data.draw(st.booleans()):
        ratio = data.draw(st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(5, 2),
                                           Fraction(4), Fraction(8)]))
        budget = ratio * min(prof.vertices[-1][0], prof.vertices[0][1])
    else:
        p, q = data.draw(_unit_dirs)
        budget = data.draw(st.integers(1, 2)) * omega(LatticePath((((p, -q), 1),)))
    rho = norm_floor(prof)
    assert direction_table(budget, rho, omega, inclusive) == \
        _fraction_direction_table(budget, rho, omega, inclusive)


@settings(max_examples=80, deadline=None)
@given(budget=st.one_of(st.integers(1, 40).map(Fraction),
                        st.fractions(Fraction(1, 2), 40, max_denominator=7)),
       wrap=st.sampled_from([Fraction, int]), inclusive=st.booleans())
@example(budget=Fraction(2), wrap=Fraction, inclusive=True)
@example(budget=Fraction(2), wrap=Fraction, inclusive=False)
def test_integer_direction_table_matches_the_fraction_table_off_profiles(budget, wrap, inclusive):
    omega = lambda p: wrap(_additive_cost(p))
    assert direction_table(budget, Fraction(2), omega, inclusive) == \
        _fraction_direction_table(budget, Fraction(2), omega, inclusive)


def test_the_ci_profiles_horizontal_unit_is_on_the_inclusive_edge():
    # the profile that CI hashes enumerate_paths on, at its budget 2
    prof = validate_profile([(0, 2), (1, Fraction(7, 4)), (2, 1), (Fraction(5, 2), 0)])
    omega = lambda p: omega_length(prof, p)
    rho = norm_floor(prof)
    unit = LatticePath((((1, 0), 1),))
    assert rho == Fraction(10, 7) and omega(unit) == 2
    assert list(enumerate_paths(Fraction(2), rho, omega)) == [LatticePath(())]
    assert list(enumerate_paths(Fraction(2), rho, omega, inclusive=True)) == \
        [LatticePath(()), unit]
