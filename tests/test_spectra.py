"""Spectral sequences: both ellipsoid routes, closed forms, path minima,
union convolution, scaling, Weyl diagnostics."""

from fractions import Fraction
from itertools import permutations, product
from math import ceil, floor, gcd, isqrt
from operator import le

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from toricspec import (
    Ball,
    BallSpectrum,
    DisjointUnion,
    Ellipsoid,
    EllipsoidSpectrum,
    LatticePath,
    Spectrum,
    ToricSpectrum,
    UnionSpectrum,
    ValidationError,
    ball_capacity,
    close_gap_consistency,
    count_action_pairs,
    lattice_count_pick,
    nk_sequence,
    nk_via_lattice,
    omega_length,
    spectrum_for,
    toric_capacity_detail,
    triangle_profile,
    union_capacity,
    validate_profile,
    weyl_report,
)
from toricspec import gaps, spectra
from toricspec.spectra import _count_scaled, _greedy_bound
from test_domains import dilate
from test_paths import convex_profiles, fraction_length, naive_paths, square

F = Fraction


class TestEllipsoidSequence:
    def test_frozen_small_values(self):
        vals = [v for v, _w in nk_sequence(F(2), F(3), 10)]
        assert vals == [0, 2, 3, 4, 5, 6, 6, 7, 8, 8, 9]

    def test_tie_witnesses_in_lex_order(self):
        seq = nk_sequence(F(2), F(3), 10)
        assert seq[5] == (6, (0, 2)) and seq[6] == (6, (3, 0))
        assert seq[8] == (8, (1, 2)) and seq[9] == (8, (4, 0))

    def test_witness_reproduces_value(self, rng):
        a, b = F(7, 3), F(5, 4)
        for val, (m, n) in nk_sequence(a, b, 60):
            assert val == a * m + b * n

    def test_sorted_listing_matches_counting_inversion(self, rng):
        for _ in range(6):
            a = F(rng.randint(1, 12), rng.randint(1, 5))
            b = F(rng.randint(1, 12), rng.randint(1, 5))
            seq = [v for v, _w in nk_sequence(a, b, 40)]
            for k in (0, 1, 7, 23, 40):
                assert nk_via_lattice(a, b, k) == seq[k], (a, b, k)

    def test_validation(self):
        with pytest.raises(ValidationError):
            nk_sequence(F(0), F(1), 3)
        with pytest.raises(ValidationError):
            nk_sequence(F(1), F(-2), 3)
        with pytest.raises(ValidationError):
            nk_sequence(F(1), F(1), -1)
        with pytest.raises(ValidationError):
            nk_via_lattice(F(1), F(1), -2)


# small or near-10^6 denominators; equal axes and integer ratios give ties
_axis = st.builds(F, st.one_of(st.integers(1, 20), st.integers(1, 3 * 10**6)),
                  st.one_of(st.integers(1, 12), st.integers(10**6 - 20, 10**6 + 20)))
_axes = st.one_of(st.tuples(_axis, _axis), _axis.map(lambda x: (x, x)))


def _listing_reference(a, b, k_max):
    """The first k_max + 1 entries by the (v, m, n) tuple sort. Every (m', n') != (m, n)
    with m' <= m and n' <= n has strictly smaller action, so entry k has
    (m + 1)(n + 1) <= k + 1, and only those pairs need sorting."""
    return sorted((a * m + b * n, m, n)
                  for m in range(k_max + 1) for n in range((k_max + 1) // (m + 1)))[: k_max + 1]


def _check_listing(a, b, k_max, ks):
    brute = _listing_reference(a, b, k_max)
    expected = [(v, (m, n)) for v, m, n in brute]
    assert nk_sequence(a, b, k_max) == expected
    entries = EllipsoidSpectrum(Ellipsoid(a, b)).entries(k_max)
    assert [(v, (w["m"], w["n"])) for v, w in entries] == expected
    if a == b:  # the ball's witness is d = m + n
        assert BallSpectrum(Ball(a)).entries(k_max) == [(v, {"d": m + n}) for v, m, n in brute]
    assert [nk_via_lattice(a, b, k) for k in ks] == [expected[k][0] for k in ks]


@settings(max_examples=40, deadline=None)
@given(axes=_axes, k_max=st.integers(0, 30))
def test_sorted_listing_matches_brute_force_and_counting_inversion(axes, k_max):
    _check_listing(*axes, k_max, range(k_max + 1))


@pytest.mark.parametrize("a, b", [
    (F(1), F(1)), (F(7, 3), F(7, 3)), (F(1), F(3, 2)), (F(3, 2), F(1)), (F(1), F(2)),
    (F(3), F(1)), (F(2, 5), F(6, 5)), (F(1), F(4)),
    # 30-digit axes: the listing's int keys then span several machine words
    (F(10**30 + 57, 10**30), F(1)), (F(10**30 + 1), F(10**30 + 1))])
def test_tie_heavy_listings_at_large_k_match_the_tuple_sort(a, b):
    _check_listing(a, b, 300, [*range(0, 301, 23), 300])


def _nk_full_range(an, bn, k):
    """The former counting inversion: a bisection over all of [0, k min(an, bn)]."""
    lo, hi = 0, k * min(an, bn)
    while lo < hi:
        mid = (lo + hi) // 2
        if _count_scaled(an, bn, mid) >= k + 1:
            hi = mid
        else:
            lo = mid + 1
    return lo


# scaled integer axes, small or of 30 digits, equal half the time; k from 0 up to 10^12
_int_axis = st.one_of(st.integers(1, 40), st.integers(10**29, 10**30 - 1))
_int_axes = st.one_of(st.tuples(_int_axis, _int_axis), _int_axis.map(lambda x: (x, x)))
_big_k = st.one_of(st.just(0), st.integers(0, 60), st.integers(0, 10**12))


@settings(max_examples=300, deadline=None)
@given(axes=_int_axes, k=_big_k)
@example(axes=(10**30 - 1, 10**30 - 1), k=0)
@example(axes=(1, 1), k=10**12)
@example(axes=(10**30 + 57, 10**30), k=10**9)
def test_bracketed_inversion_matches_the_full_range_bisection(axes, k):
    an, bn = axes
    level = spectra._nk_scaled(an, bn, k)
    assert level == _nk_full_range(an, bn, k)
    if max(an, bn) <= 40 and k <= 60:
        # the first k + 1 pairs have m, n <= k
        assert level == sorted(an * m + bn * n for m in range(k + 1) for n in range(k + 1))[k]


@settings(max_examples=300, deadline=None)
@given(axes=_int_axes, k=_big_k)
def test_area_bounds_bracket_the_level(axes, k):
    # L^2 / 2AB <= count(L) <= (L + A + B)^2 / 2AB, so with r = ceil(sqrt(2AB (k + 1)))
    # the least level with k + 1 pairs lies in [r - A - B, r]
    an, bn = axes
    r = isqrt(2 * an * bn * (k + 1) - 1) + 1
    assert r * r >= 2 * an * bn * (k + 1) > (r - 1) ** 2
    lo, hi = max(0, r - an - bn), min(r, k * min(an, bn))
    assert _count_scaled(an, bn, lo - 1) < k + 1 <= _count_scaled(an, bn, hi)


@pytest.mark.parametrize("an, bn, k", [(1, 1, 10**12), (55, 89, 10**6), (7, 7, 0),
                                       (10**30 + 57, 10**30, 10**9), (3, 10**30, 10**12)])
def test_inversion_takes_log_of_the_axes_floor_sums(monkeypatch, an, bn, k):
    calls = []
    monkeypatch.setattr(spectra, "_count_scaled", lambda *args: calls.append(args) or _count_scaled(*args))
    assert spectra._nk_scaled(an, bn, k) == _nk_full_range(an, bn, k)
    # a bisection over a window of width <= an + bn probes at most bit_length(an + bn) levels
    assert len(calls) <= (an + bn).bit_length()


class TestCountActionPairs:
    def test_hand_counts(self):
        assert count_action_pairs(F(2), F(3), F(6)) == 7
        assert pairs_below(F(2), F(3), F(6)) == 5
        assert count_action_pairs(F(1, 2), F(1, 3), F(1)) == 7
        assert count_action_pairs(F(2), F(3), F(-1)) == 0
        assert count_action_pairs(F(2), F(3), F(0)) == 1

    def test_counts_invert_the_sequence(self):
        a, b = F(3, 2), F(4, 3)
        seq = [v for v, _w in nk_sequence(a, b, 30)]
        for k, v in enumerate(seq):
            assert count_action_pairs(a, b, v) >= k + 1
            assert pairs_below(a, b, v) <= k

    def test_brute_force_agreement(self, rng):
        for _ in range(20):
            a = F(rng.randint(1, 9), rng.randint(1, 4))
            b = F(rng.randint(1, 9), rng.randint(1, 4))
            lim = F(rng.randint(0, 40), rng.randint(1, 4))
            # a m <= lim and b n <= lim bound the box; no pair outside it counts
            naive = sum(1 for m in range(min(200, int(lim / a) + 1))
                        for n in range(min(200, int(lim / b) + 1))
                        if a * m + b * n <= lim and a * m <= lim and b * n <= lim)
            assert count_action_pairs(a, b, lim) == naive


def _row_scan_count(an, bn, ln):
    """The pair count as a row scan over the larger coefficient (the former route)."""
    if ln < 0:
        return 0
    if an < bn:
        an, bn = bn, an
    total = 0
    r = 0
    while an * r <= ln:
        total += (ln - an * r) // bn + 1
        r += 1
    return total


@settings(max_examples=200, deadline=None)
@given(an=st.integers(1, 60), bn=st.integers(1, 60), ln=st.integers(-5, 3000))
def test_floor_sum_count_matches_row_scan(an, bn, ln):
    expected = _row_scan_count(an, bn, ln)
    assert _count_scaled(an, bn, ln) == _count_scaled(bn, an, ln) == expected


def pairs_below(a, b, limit):
    """Pairs with a m + b n < limit: the count at the limit less the pairs exactly at it."""
    at = sum(1 for m in range(floor(limit / a) + 1) if ((limit - a * m) / b).denominator == 1)
    return count_action_pairs(a, b, limit) - at


def _fraction_row_scan(a, b, limit, strict):
    """Pairs with a m + b n <= limit (< with strict), one Fraction row per m."""
    total, m = 0, 0
    while a * m < limit or (not strict and a * m == limit):
        rest = (limit - a * m) / b
        total += ceil(rest) if strict else floor(rest) + 1
        m += 1
    return total


@settings(max_examples=100, deadline=None)
@given(a=st.builds(F, st.integers(1, 40), st.integers(1, 6)),
       b=st.builds(F, st.integers(1, 40), st.integers(1, 6)),
       limit=st.builds(F, st.integers(-3, 100), st.integers(1, 12)))
def test_count_action_pairs_matches_row_scan(a, b, limit):
    for x, y in ((a, b), (b, a)):
        assert count_action_pairs(x, y, limit) == _fraction_row_scan(x, y, limit, False)
        assert pairs_below(x, y, limit) == _fraction_row_scan(x, y, limit, True)


class TestBall:
    def test_closed_form_matches_sequence(self):
        vals = [v for v, _w in nk_sequence(F(1), F(1), 30)]
        for k in range(31):
            v, wit = ball_capacity(F(1), k)
            assert v == vals[k]
            d = wit["d"]
            assert d * d + d <= 2 * k <= d * d + 3 * d

    def test_scales_with_parameter(self):
        for k in (0, 1, 5, 12):
            assert ball_capacity(F(7, 3), k)[0] == F(7, 3) * ball_capacity(F(1), k)[0]

    def test_spectrum_matches_degenerate_ellipsoid(self):
        a = F(5, 4)
        ball = BallSpectrum(Ball(a))
        ell = EllipsoidSpectrum(Ellipsoid(a, a))
        assert ball.values(100) == ell.values(100)
        assert all(witness_holds(ball, k) for k in range(20))

    @pytest.mark.parametrize("a", [F(1), F(5, 4), F(7, 3), F(2, 9)])
    def test_sweep_matches_closed_form(self, a):
        # the sorted listing on E(a, a) against the second route, values and witnesses
        ball = BallSpectrum(Ball(a))
        assert ball.entries(2000) == [ball_capacity(a, k) for k in range(2001)]
        assert all(witness_holds(ball, k) for k in range(0, 2001, 97))

    @pytest.mark.parametrize("k", [10 ** 3, 10 ** 6, 10 ** 12])
    def test_value_past_cache_matches_closed_form(self, k):
        for a in (F(1), F(5, 4), F(2, 9)):
            ball = BallSpectrum(Ball(a))
            assert ball.value(k) == ball_capacity(a, k)[0]
            assert ball._prefix == (1, (), ())  # the store is still empty after random access

    @pytest.mark.parametrize("a", [F(1), F(5, 4), F(2, 9)])
    def test_count_le_matches_closed_form(self, a):
        ball = BallSpectrum(Ball(a))
        for cutoff in (F(-3), F(-1, 7), F(0), a / 2, a - F(1, 10 ** 9), a, 3 * a + F(1, 3),
                       F(10), F(10 ** 40, 3)):
            top = floor(cutoff / a)
            expected = 0 if cutoff < 0 else (top + 1) * (top + 2) // 2
            assert ball.count_le(cutoff) == expected, cutoff

    def test_validation(self):
        with pytest.raises(ValidationError):
            ball_capacity(F(0), 1)
        with pytest.raises(ValidationError):
            ball_capacity(F(1), -1)


class TestToricCapacity:
    def test_triangle_matches_ellipsoid(self):
        tri = triangle_profile(F(2), F(3))
        seq = [v for v, _w in nk_sequence(F(2), F(3), 10)]
        for k in range(11):
            res = toric_capacity_detail(tri, k)
            assert res.value == seq[k]
            assert lattice_count_pick(res.witness) == k + 1
            assert omega_length(tri, res.witness) == res.value

    def test_unit_square_first_step(self):
        res = toric_capacity_detail(square(), 1)
        assert res.value == 1
        assert res.witness == LatticePath((((1, 0), 1),))

    def test_k_zero(self):
        res = toric_capacity_detail(square(), 0)
        assert res.value == 0 and res.witness.edges == ()

    def test_detail_invariants(self):
        prof = validate_profile([(0, 3), (1, 2), (2, 0)])
        for k in range(1, 8):
            res = toric_capacity_detail(prof, k)
            assert res.value == res.min_over_exact == res.min_over_at_least
            assert lattice_count_pick(res.witness) == k + 1
            assert lattice_count_pick(res.witness_at_least) >= k + 1
            assert omega_length(prof, res.witness) == res.value
            assert res.value <= res.enumeration_bound
            assert res.paths_scanned >= 1

    def test_value_is_global_minimum_by_naive_stream(self, rng):
        # independent check: no path at all beats the reported value
        from math import gcd
        prof = validate_profile([(0, 3), (1, 2), (2, 0)])
        dirs = sorted(
            [(p, -q) for p in range(7) for q in range(7) if (p or q) and gcd(p, q) == 1],
            key=lambda d: (1, F(0)) if d[0] == 0 else (0, F(-d[1], d[0])))
        omega = lambda p: omega_length(prof, p)
        for k in (1, 2, 3, 5):
            val = toric_capacity_detail(prof, k).value
            feasible = [p for p in naive_paths(dirs, val, omega, True)
                        if lattice_count_pick(p) >= k + 1]
            assert feasible, (k, val)
            assert min(omega(p) for p in feasible) == val

    def test_validation(self):
        with pytest.raises(ValidationError):
            toric_capacity_detail(square(), -1)
        with pytest.raises(ValidationError, match="^toric_capacity_detail needs a ToricProfile$"):
            toric_capacity_detail(Ellipsoid(F(1), F(1)), 1)


def brute_force_greedy_path(prof, k):
    # the top lattice point of each column under b x + a y <= N_k(a, b), a and b the
    # intercepts; a point is on the upper hull when it lies strictly above every chord
    # from a point on its left to a point on its right; the hull closes to the x-axis
    a, b = prof.vertices[-1][0], prof.vertices[0][1]
    level = nk_via_lattice(a, b, k)
    tops = [(x, floor((level - b * x) / a)) for x in range(floor(level / b) + 1)]
    hull = [(x, y) for i, (x, y) in enumerate(tops)
            if all((y - y0) * (x1 - x0) > (y1 - y0) * (x - x0)
                   for x0, y0 in tops[:i] for x1, y1 in tops[i + 1:])]
    if hull[-1][1] > 0:
        hull.append((hull[-1][0], 0))
    steps = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])]
    return LatticePath(tuple(((dx // g, dy // g), g) for dx, dy in steps for g in [gcd(dx, dy)]))


@settings(max_examples=60, deadline=None)
@given(prof=convex_profiles())
def test_greedy_bound_is_the_fraction_length_of_the_brute_force_hull(prof):
    _verts, den = prof.scaled_vertices
    values = ToricSpectrum(prof).values(24)
    for k in range(25):
        path = brute_force_greedy_path(prof, k)
        bound = _greedy_bound(prof, k)
        assert bound == den * fraction_length(prof, path), (k, path)
        assert lattice_count_pick(path) >= k + 1
        assert bound >= den * values[k]


@pytest.mark.parametrize("a, b", [(F(1), F(1)), (F(2), F(3)), (F(3, 2), F(1)), (F(1), F(5, 2)),
                                  (F(7, 3), F(4, 5)), (F(89, 55), F(1))])
def test_greedy_bound_is_exact_on_triangles(a, b):
    tri = triangle_profile(a, b)
    _verts, den = tri.scaled_vertices
    for k in range(31):
        assert _greedy_bound(tri, k) == den * nk_via_lattice(a, b, k)
        assert _greedy_bound(tri, k) == den * fraction_length(tri, brute_force_greedy_path(tri, k))


def witness_holds(spec, k):
    """Whether entry k's witness gives its value back by the identity of the spectrum's kind."""
    val, wit = spec.entry(k)
    dom = spec.domain()
    if spec.kind == "ellipsoid":
        return val == dom.a * wit["m"] + dom.b * wit["n"]
    if spec.kind == "ball":
        return (val, wit) == ball_capacity(dom.a, k)
    if spec.kind == "toric":
        return omega_length(dom, wit) == val and lattice_count_pick(wit) == k + 1
    assert spec.kind == "union"
    ks = wit["partition"]
    return sum(ks) == k and val == sum(spectrum_for(p).value(ki) for p, ki in zip(dom.parts, ks))


class TestSpectrumProviders:
    def test_dispatch(self):
        assert spectrum_for(Ellipsoid(F(2), F(3))).kind == "ellipsoid"
        assert spectrum_for(Ball(F(1))).kind == "ball"
        assert spectrum_for(square()).kind == "toric"
        assert spectrum_for(DisjointUnion((Ball(F(1)),))).kind == "union"
        with pytest.raises(ValidationError):
            spectrum_for("nope")

    @pytest.mark.parametrize("provider, domain, message", [
        (EllipsoidSpectrum, Ball(F(1)), "EllipsoidSpectrum needs an Ellipsoid"),
        (BallSpectrum, Ellipsoid(F(1), F(1)), "BallSpectrum needs a Ball"),
        (ToricSpectrum, Ellipsoid(F(1), F(2)), "ToricSpectrum needs a ToricProfile"),
    ], ids=["ellipsoid", "ball", "toric"])
    def test_each_provider_refuses_another_domain_kind(self, provider, domain, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            provider(domain)

    def test_prefix_caching_is_stable(self):
        spec = EllipsoidSpectrum(Ellipsoid(F(2), F(3)))
        tail = spec.values(10)
        assert spec.values(4) == tail[:5]
        assert spec.entry(6) == spec.entry(6)
        with pytest.raises(ValidationError):
            spec.entry(-1)

    def test_all_witnesses_check_out(self):
        specs = [
            EllipsoidSpectrum(Ellipsoid(F(89, 55), F(1))),
            BallSpectrum(Ball(F(3, 2))),
            ToricSpectrum(validate_profile([(0, 3), (1, 2), (2, 0)])),
        ]
        for spec in specs:
            for k in range(8):
                assert witness_holds(spec, k), (spec.kind, k)

    def test_triangle_spectrum_tracks_ellipsoid(self):
        tor = ToricSpectrum(triangle_profile(F(2), F(3)))
        ell = EllipsoidSpectrum(Ellipsoid(F(2), F(3)))
        assert tor.values(12) == ell.values(12)


class TestUnion:
    def brute(self, parts, k):
        lists = [p.values(k) for p in parts]
        best = None
        for split in product(range(k + 1), repeat=len(parts)):
            if sum(split) != k:
                continue
            tot = sum(l[ki] for l, ki in zip(lists, split))
            if best is None or tot > best:
                best = tot
        return best

    def test_matches_brute_force(self):
        parts = [BallSpectrum(Ball(F(1))),
                 EllipsoidSpectrum(Ellipsoid(F(2), F(3))),
                 EllipsoidSpectrum(Ellipsoid(F(1), F(2)))]
        union = UnionSpectrum(parts)
        for k in range(12):
            assert union.value(k) == self.brute(parts, k), k
            assert witness_holds(union, k)

    def test_witness_partition_is_valid(self):
        parts = [BallSpectrum(Ball(F(1))), BallSpectrum(Ball(F(2)))]
        val, wit = union_capacity(parts, 7)
        ks = wit["partition"]
        assert sum(ks) == 7 and len(ks) == 2
        assert val == parts[0].value(ks[0]) + parts[1].value(ks[1])
        assert wit["parts"][0] == parts[0].entry(ks[0])[1]

    def test_empty_parts_rejected(self):
        with pytest.raises(ValidationError):
            UnionSpectrum([])


class TestConformality:
    @pytest.mark.parametrize("r", [F(2), F(5, 2), F(1, 3)])
    def test_values_scale_linearly(self, r):
        base = [
            (EllipsoidSpectrum(Ellipsoid(F(2), F(3))), 40),
            (BallSpectrum(Ball(F(3, 2))), 40),
            (ToricSpectrum(validate_profile([(0, 3), (1, 2), (2, 0)])), 6),
            (UnionSpectrum([BallSpectrum(Ball(F(1))),
                            EllipsoidSpectrum(Ellipsoid(F(2), F(3)))]), 10),
        ]
        for spec, k_max in base:
            assert spectrum_for(dilate(spec.domain(), r)).entries(k_max) == \
                [(r * v, w) for v, w in spec.entries(k_max)]

    def test_nested_union_has_no_domain(self):
        inner = UnionSpectrum([BallSpectrum(Ball(F(1)))])
        nested = UnionSpectrum([inner, BallSpectrum(Ball(F(2)))])
        with pytest.raises(ValidationError,
                           match="^nested unions are not supported; flatten the parts$"):
            nested.domain()


class TestWeyl:
    def test_row_contents(self):
        spec = EllipsoidSpectrum(Ellipsoid(F(2), F(3)))
        rows = weyl_report(spec, [1, 10, 100])
        assert [r["k"] for r in rows] == [1, 10, 100]
        for r in rows:
            c = spec.value(r["k"])
            assert r["value"] == c
            assert r["ratio"] == c * c / r["k"]
            assert r["deviation"] == r["ratio"] - 12

    def test_deviation_is_against_the_contact_volume(self):
        # twice the contact volume: 2 a^2 for B(a), four times the area of a profile (the
        # triangle of legs 2 and 5 has area 5), and the sum of the parts' for a union
        ball, tri = BallSpectrum(Ball(F(3, 2))), ToricSpectrum(triangle_profile(F(2), F(5)))
        for spec, twice_volume in [(ball, F(9, 2)), (tri, F(20)),
                                   (UnionSpectrum([ball, tri]), F(49, 2))]:
            for r in weyl_report(spec, [1, 7, 30]):
                assert r["deviation"] == r["ratio"] - twice_volume, spec.kind

    @pytest.mark.parametrize("k", [F(3), "3", None])
    def test_k_must_be_an_int(self, k):
        with pytest.raises(ValidationError, match="int k"):
            weyl_report(BallSpectrum(Ball(F(1))), [k])

    def test_k_must_be_positive(self):
        with pytest.raises(ValidationError):
            weyl_report(BallSpectrum(Ball(F(1))), [0])

    def test_deviation_shrinks_along_powers(self):
        spec = BallSpectrum(Ball(F(1)))
        rows = weyl_report(spec, [10, 100, 1000, 10000])
        devs = [abs(r["deviation"]) for r in rows]
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] < F(1, 20)


_triangles = st.builds(triangle_profile,
                       st.sampled_from([F(1), F(3, 2), F(2), F(5, 2), F(3)]),
                       st.sampled_from([F(1), F(4, 3), F(2), F(3)]))
_toric_profiles = st.one_of(convex_profiles(), _triangles)


@settings(max_examples=40, deadline=None)
@given(prof=_toric_profiles, k_max=st.integers(1, 10))
def test_toric_sweep_matches_per_k_route(prof, k_max):
    entries = ToricSpectrum(prof).entries(k_max)
    assert len(entries) == k_max + 1
    for k, (val, wit) in enumerate(entries):
        res = toric_capacity_detail(prof, k)
        assert (val, wit) == (res.value, res.witness), k


# closed forms that share no code with the path scan (Hutchings, arXiv:1005.2260)
def _polydisk_value(a, b, k):
    # c_k(P(a, b)) = min{a m + b n : (m + 1)(n + 1) >= k + 1}; for each m the
    # least such n is k // (m + 1)
    return min(a * m + b * (k // (m + 1)) for m in range(k + 1))


def _ellipsoid_value(a, b, k):
    # entry k of the sorted multiset {a m + b n}; its first k + 1 entries have m, n <= k
    return sorted(a * m + b * n for m in range(k + 1) for n in range(k + 1))[k]


@pytest.mark.parametrize("a, b", [(F(1), F(1)), (F(2), F(3)), (F(1, 2), F(5, 3)),
                                  (F(3), F(1)), (F(7, 4), F(7, 4))],
                         ids=["unit-square", "2-3", "1/2-5/3", "3-1", "square-7/4"])
def test_rectangle_spectrum_matches_the_polydisk_closed_form(a, b):
    spec = ToricSpectrum(validate_profile([(0, b), (a, b), (a, 0)]))
    assert spec.values(30) == [_polydisk_value(a, b, k) for k in range(31)]
    assert all(witness_holds(spec, k) for k in range(31))


def test_unit_square_at_k_100_matches_the_polydisk_closed_form():
    # many ties; the polydisk start is exact here, far below the greedy bound
    spec = ToricSpectrum(square())
    assert spec.values(100) == [_polydisk_value(F(1), F(1), k) for k in range(101)]
    assert all(witness_holds(spec, k) for k in range(101))


@pytest.mark.parametrize("prof", [
    validate_profile([(0, 2), (1, F(7, 4)), (2, 1), (F(5, 2), 0)]),
    square(),
], ids=["ci-profile", "unit-square"])
def test_sweep_at_k_40_matches_the_fixed_budget_per_k_route(prof):
    entries = ToricSpectrum(prof).entries(40)
    for k, entry in enumerate(entries):
        res = toric_capacity_detail(prof, k)
        assert entry == (res.value, res.witness), k


@st.composite
def _outward_moves(draw):
    # a convex profile and a copy with one vertex moved up and to the right:
    # the region under a chain of nonpositive slopes is closed downwards, so
    # the moved region holds the old vertices and hence the old region
    prof = draw(convex_profiles())
    verts = list(prof.vertices)
    i = draw(st.integers(0, len(verts) - 1))
    steps = st.sampled_from([F(0), F(1, 4), F(1, 2), F(1)])
    (x, y), dx, dy = verts[i], draw(steps), draw(steps)
    # the axis endpoints move along their axes
    verts[i] = (x + (dx if i else 0), y + (dy if i < len(verts) - 1 else 0))
    assume(verts[i] != prof.vertices[i])
    try:
        moved = validate_profile(verts)
    except ValidationError:
        assume(False)
    return prof, moved


@settings(max_examples=30, deadline=None)
@given(pair=_outward_moves())
def test_moving_a_vertex_outward_lowers_no_capacity(pair):
    # monotonicity under inclusion (Hutchings, arXiv:1005.2260)
    inner, outer = pair
    small, large = ToricSpectrum(inner).values(12), ToricSpectrum(outer).values(12)
    assert all(map(le, small, large)), (small, large)


@settings(max_examples=30, deadline=None)
@given(prof=convex_profiles())
def test_convex_spectrum_lies_between_the_triangle_and_the_rectangle(prof):
    # the triangle with the profile's intercepts lies inside it, and it lies
    # inside their rectangle, so monotonicity brackets every c_k
    a, b = prof.vertices[-1][0], prof.vertices[0][1]
    for k, value in enumerate(ToricSpectrum(prof).values(12)):
        assert _ellipsoid_value(a, b, k) <= value <= _polydisk_value(a, b, k), k


@settings(max_examples=100, deadline=None)
@given(prof=_toric_profiles)
def test_a_profile_mirrored_in_the_diagonal_has_the_same_spectrum(prof):
    """Reflection. The swap (x, y) -> (y, x) maps the region onto the mirrored
    one, and a path with edges (p, -q) onto the mirrored path with edges
    (q, -p) in reverse order. An edge's length, the max of dx y - dy x over
    the region, is the same for (p, -q) on the region as for (q, -p) on its
    mirror, and the swap maps enclosed lattice points to enclosed lattice
    points, so lengths and counts, and hence every c_k, are kept."""
    mirrored = validate_profile([(y, x) for x, y in reversed(prof.vertices)])
    assert ToricSpectrum(mirrored).values(25) == ToricSpectrum(prof).values(25)


_small_domains = st.one_of(
    st.builds(Ball, st.sampled_from([F(1), F(3, 2), F(2)])),
    st.builds(Ellipsoid, st.sampled_from([F(1), F(2), F(5, 3)]),
              st.sampled_from([F(1), F(3), F(7, 4)])),
    _toric_profiles)


def _brute_union(parts, k):
    """Best partition of k by exhaustion; ties go to the reversed partition that
    is largest, which is the one the union convolution carries."""
    lists = [p.entries(k) for p in parts]
    split = max((s for s in product(range(k + 1), repeat=len(parts)) if sum(s) == k),
                key=lambda s: (sum(l[ki][0] for l, ki in zip(lists, s)), s[::-1]))
    value = sum(l[ki][0] for l, ki in zip(lists, split))
    return value, {"partition": list(split), "parts": [l[ki][1] for l, ki in zip(lists, split)]}


@settings(max_examples=25, deadline=None)
@given(toric=_toric_profiles, others=st.lists(_small_domains, min_size=0, max_size=2),
       k_max=st.integers(0, 6), data=st.data())
def test_union_matches_brute_force_partitions(toric, others, k_max, data):
    domains = data.draw(st.permutations([toric] + others))
    parts = [spectrum_for(d) for d in domains]
    entries = UnionSpectrum(parts).entries(k_max)
    assert entries == [_brute_union(parts, k) for k in range(k_max + 1)]


def test_union_ties_in_every_stage_follow_the_brute_force_rule():
    # the three parts tie at every budget, so both convolution stages meet ties
    parts = [BallSpectrum(Ball(F(1))), BallSpectrum(Ball(F(1))),
             EllipsoidSpectrum(Ellipsoid(F(1), F(1)))]
    entries = UnionSpectrum(parts).entries(12)
    assert entries == [_brute_union(parts, k) for k in range(13)]
    assert entries[12][1]["partition"] == [3, 3, 6]


def test_one_part_union_gives_each_budget_to_its_part():
    ball = BallSpectrum(Ball(F(1)))
    entries = UnionSpectrum([ball]).entries(5)
    assert [wit["partition"] for _val, wit in entries] == [[k] for k in range(6)]
    assert [val for val, _wit in entries] == ball.values(5)


@settings(max_examples=100, deadline=None)
@given(domain=st.one_of(st.builds(Ellipsoid, _axis, _axis), st.builds(Ball, _axis),
                        convex_profiles(),
                        st.lists(_small_domains, min_size=2, max_size=3)
                        .map(lambda ps: DisjointUnion(tuple(ps)))))
def test_spectra_are_sublinear(domain):
    """Sublinearity: c_{k+l} <= c_k + c_l. For finite A, B in Z^2, listing A + B
    in lex order gives |A + B| >= |A| + |B| - 1. On a profile, join the edge
    multisets of the witnesses of c_k and c_l: lengths add, and the joined
    path encloses the Minkowski sum of the two enclosed point sets, at least
    (k + 1) + (l + 1) - 1 points. On an ellipsoid (a ball is E(a, a)) the
    pairs (m, n) of action <= c_k and those <= c_l sum to pairs of action
    <= c_k + c_l, again at least k + l + 1 of them. A union's best split of
    k + l is a sum of a split of k and a split of l, part by part."""
    values = spectrum_for(domain).values(40)
    for k in range(21):
        for l in range(k, 41 - k):
            assert values[k + l] <= values[k] + values[l], (k, l)


# the laws of the disjoint union hold on values; on ties the partitions follow the part order
_union_parts = st.lists(_small_domains, min_size=2, max_size=3).map(
    lambda ds: [spectrum_for(d) for d in ds])


@settings(max_examples=30, deadline=None)
@given(parts=_union_parts)
def test_union_values_do_not_depend_on_the_order_of_the_parts(parts):
    """Commutativity. c_k(X_1 + ... + X_m) is the max over k_1 + ... + k_m = k of
    the sum of the c_{k_i}(X_i) (Hutchings, arXiv:2201.03143); permuting the parts
    permutes the partitions and the terms of each sum, so the max is the same."""
    values = UnionSpectrum(parts).values(40)
    for order in permutations(parts):
        assert UnionSpectrum(list(order)).values(40) == values, order


@settings(max_examples=30, deadline=None)
@given(parts=_union_parts)
def test_grouping_the_parts_of_a_union_keeps_its_values(parts):
    """Associativity. A partition of k over all the parts is a partition j + (k - j)
    between a group and the rest followed by a partition of j within the group, so the
    max over all partitions is the max over j of the group's c_j plus the rest's."""
    values = UnionSpectrum(parts).values(40)
    assert UnionSpectrum([UnionSpectrum(parts[:2]), *parts[2:]]).values(40) == values
    assert UnionSpectrum([parts[0], UnionSpectrum(parts[1:])]).values(40) == values


@settings(max_examples=30, deadline=None)
@given(parts=_union_parts)
def test_a_union_is_at_least_every_split_between_a_part_and_the_rest(parts):
    """Disjoint union: c_k(X + R) >= c_j(X) + c_{k-j}(R) for every j, with R the
    union of the other parts. A partition of j over X and one of k - j over R
    together partition k over all the parts, and c_k is the max over those."""
    values = UnionSpectrum(parts).values(40)
    for i, part in enumerate(parts):
        own = part.values(40)
        others = UnionSpectrum(parts[:i] + parts[i + 1:]).values(40)
        for k in range(41):
            assert all(values[k] >= own[j] + others[k - j] for j in range(k + 1)), (i, k)


@settings(max_examples=25, deadline=None)
@given(domain=st.one_of(_small_domains,
                        st.lists(_small_domains, min_size=1, max_size=3)
                        .map(lambda ps: DisjointUnion(tuple(ps)))),
       k1=st.integers(0, 7), k2=st.integers(0, 7))
def test_extending_a_prefix_matches_a_fresh_sweep(domain, k1, k2):
    spec = spectrum_for(domain)
    first = spec.entries(k1)
    assert spec.entries(k2) == spectrum_for(domain).entries(k2)
    assert spec.entries(k1) == first


_prefix_domains = st.one_of(
    st.tuples(st.builds(Ellipsoid, _axis, _axis), st.integers(0, 60)),
    st.tuples(st.builds(Ball, _axis), st.integers(0, 60)),
    st.tuples(_toric_profiles, st.integers(0, 8)),
    st.tuples(st.lists(_small_domains, min_size=2, max_size=3)
              .map(lambda ps: DisjointUnion(tuple(ps))), st.integers(0, 8)))


@settings(max_examples=60, deadline=None)
@given(sized=_prefix_domains, data=st.data())
def test_entries_are_the_integer_prefix_over_its_denominator(sized, data):
    domain, k_max = sized
    fresh = spectrum_for(domain)
    entries = fresh.entries(k_max)
    den, nums, witnesses = fresh._scaled_prefix(k_max)
    assert [v for v, _w in entries] == [F(n, den) for n in nums]
    # equal values share one Fraction
    assert all((x is y) == (x == y) for (x, _), (y, _) in zip(entries, entries[1:]))
    extended = spectrum_for(domain)
    extended.entries(data.draw(st.integers(0, k_max)))
    assert extended.entries(k_max) == entries
    assert extended._scaled_prefix(k_max) == (den, nums, witnesses)


@settings(max_examples=60, deadline=None)
@given(sized=_prefix_domains,
       r=st.one_of(st.sampled_from([F(2), F(1, 3), F(7, 5)]),
                   st.fractions(F(1, 9), F(9), max_denominator=9)))
@example(sized=(square(), 12), r=F(7, 5))
def test_every_provider_is_conformal(sized, r):
    # the dilate's spectrum, computed afresh, is r c_k with the same witnesses:
    # ties compare the same after scaling, so they break the same way
    domain, k_max = sized
    entries = spectrum_for(domain).entries(k_max)
    assert spectrum_for(dilate(domain, r)).entries(k_max) == \
        [(r * value, witness) for value, witness in entries]


def _swept_count(domain, cutoff):
    """Entries <= cutoff, counted on a sweep long enough to pass the cutoff."""
    spec, k = spectrum_for(domain), 1
    while spec.entries(k)[-1][0] <= cutoff:
        k *= 2
    return sum(v <= cutoff for v in spec.values(k))


_counted_domains = st.one_of(
    st.tuples(st.builds(Ellipsoid, st.builds(F, st.integers(1, 12), st.integers(1, 4)),
                        st.builds(F, st.one_of(st.integers(1, 12), st.integers(1, 3 * 10**6)),
                                  st.one_of(st.integers(1, 4), st.integers(10**6 - 3, 10**6)))),
              st.just(200)),
    st.tuples(st.builds(Ball, st.sampled_from([F(1), F(3, 2), F(7, 5)])), st.just(200)),
    st.tuples(_toric_profiles, st.just(12)),
    st.tuples(st.lists(_small_domains, min_size=2, max_size=3)
              .map(lambda ps: DisjointUnion(tuple(ps))), st.just(12)))


@settings(max_examples=60, deadline=None)
@given(sized=_counted_domains, data=st.data())
def test_count_le_counts_the_swept_values(sized, data):
    domain, k_top = sized
    spec = spectrum_for(domain)
    value = spec.value(data.draw(st.integers(0, k_top)))
    # the offset scales with the domain, so a small axis does not stretch the sweep
    cutoff = data.draw(st.sampled_from([value, value - F(1, 10**9), value + spec.value(1) / 3,
                                        -value - 1]))
    assert spectrum_for(domain).count_le(cutoff) == _swept_count(domain, cutoff)


@pytest.mark.parametrize("spec", [EllipsoidSpectrum(Ellipsoid(F(2), F(3))),
                                  EllipsoidSpectrum(Ellipsoid(F(1), F(89, 55))),
                                  EllipsoidSpectrum(Ellipsoid(F(7, 3), F(1000003, 10**6))),
                                  BallSpectrum(Ball(F(3, 2)))],
                         ids=["2-3", "golden", "near-tie", "ball"])
def test_random_access_values_match_the_sorted_listing(spec):
    listed = spectrum_for(spec.domain()).values(3000)
    assert [spec.value(k) for k in range(3001)] == listed
    far = spec.value(10**15)  # the least value with more than 10^15 entries up to it
    assert spec.count_le(far) > 10**15 >= spec.count_le(far - F(1, 10**9))
    assert spec._prefix == (1, (), ())  # the store is still empty after random access
    with pytest.raises(ValidationError):
        spec.value(-1)


@pytest.mark.parametrize("spec_type, domain", [(EllipsoidSpectrum, Ellipsoid(F(2), F(3))),
                                               (EllipsoidSpectrum, Ellipsoid(F(1), F(89, 55))),
                                               (BallSpectrum, Ball(F(3, 2)))],
                         ids=["2-3", "golden", "ball"])
@pytest.mark.parametrize("k", [0, 1, 300])
def test_the_level_only_bounds_the_ellipsoid_listing(monkeypatch, spec_type, domain, k):
    expected = spec_type(domain).entries(k)
    true_level = spectra._nk_scaled
    monkeypatch.setattr(spectra, "_nk_scaled", lambda an, bn, j: true_level(an, bn, j) - 1)
    with pytest.raises(AssertionError, match="pairs"):
        spec_type(domain).entries(k)
    monkeypatch.setattr(spectra, "_nk_scaled", lambda an, bn, j: 2 * true_level(an, bn, j))
    assert spec_type(domain).entries(k) == expected


@pytest.mark.parametrize("den, nums, witnesses, message",
                         [(1, [1, 2, 3], [None] * 3, r"from c_0 = 0"),
                          (1, [0, 2, 1], [None] * 3, r"not nondecreasing at k=2"),
                          (1, [0, 1], [None] * 2, r"hold k \+ 1 entries"),
                          (1, [0, 1, 2], [None] * 2, r"hold k \+ 1 entries"),
                          (7, [0, 5, 4], [None] * 3, r"not nondecreasing at k=2")],
                         ids=["nonzero-c0", "decreasing", "short", "witness-count",
                              "decreasing-over-den"])
def test_entry_refuses_a_bad_provider_prefix(den, nums, witnesses, message):
    class _Listed(Spectrum):
        kind = "listed"

        def _extend(self, k_max):
            return den, nums, witnesses

    spec = _Listed()
    with pytest.raises(AssertionError, match=message):
        spec.entry(2)
    assert spec._prefix == (1, (), ())  # a refused prefix leaves the store as it was


def test_zero_entries_carry_the_empty_witnesses():
    parts = (Ellipsoid(F(2), F(3)), Ball(F(3, 2)), square())
    empty = [{"m": 0, "n": 0}, {"d": 0}, LatticePath(())]
    for domain, witness in zip(parts, empty):
        assert spectrum_for(domain).entry(0) == (0, witness)
    union = spectrum_for(DisjointUnion(parts))
    assert union.entry(0) == (0, {"partition": [0, 0, 0], "parts": empty})


def _holds_no_fraction(obj):
    if isinstance(obj, dict):
        return all(map(_holds_no_fraction, obj.values()))
    if isinstance(obj, (list, tuple)):
        return all(map(_holds_no_fraction, obj))
    return not isinstance(obj, F)


def _assert_integer_store(spec):
    den, nums, witnesses = spec._prefix
    assert type(den) is int and den >= 1
    assert type(nums) is list and all(type(n) is int for n in nums)
    assert len(witnesses) == len(nums) and _holds_no_fraction(witnesses)


_three_parts = (Ball(F(1)), Ellipsoid(F(2), F(3)),
                validate_profile([(F(0), F(2)), (F(1), F(1)), (F(3, 2), F(0))]))


def test_close_gap_consistency_keeps_an_integer_store(monkeypatch):
    scanned, true_scan = [], gaps._gap_scan

    def recording_scan(spec, cutoffs):
        scanned.append(spec)
        return true_scan(spec, cutoffs)

    monkeypatch.setattr(gaps, "_gap_scan", recording_scan)
    close_gap_consistency(F(3, 2), F(267, 110), [F(5), F(40), F(180)])
    assert len(scanned) == 1 and len(scanned[0]._prefix[1]) > 4000
    _assert_integer_store(scanned[0])


def test_union_extension_keeps_integer_stores():
    union = spectrum_for(DisjointUnion(_three_parts))
    union.entries(20)
    for spec in (union, *union._parts):
        assert len(spec._prefix[1]) == 21
        _assert_integer_store(spec)


def _cutoffs_between_entries(values, den):
    """One cutoff strictly inside each rise c_k < c_{k+1}, over a prime denominator q
    coprime to den, so that cutoff * den is never an integer."""
    for lo, hi in zip(values, values[1:]):
        if lo < hi:
            q = next(q for q in (7, 11, 13, 101, 1009, 10007)
                     if den % q and floor(lo * q) + 1 < hi * q and (floor(lo * q) + 1) % q)
            yield F(floor(lo * q) + 1, q)


@pytest.mark.parametrize("parts", [_three_parts, (Ellipsoid(F(1), F(89, 55)), Ball(F(3, 2)))],
                         ids=["ball-ellipsoid-triangle", "golden-ball"])
def test_union_count_le_between_entries_and_below_zero(parts):
    domain = DisjointUnion(parts)
    probe = spectrum_for(domain)
    values, den = probe.values(30), probe._prefix[0]
    cutoffs = list(_cutoffs_between_entries(values, den))
    assert len(cutoffs) > 10
    for cutoff in cutoffs + [F(-1), F(-1, 7), F(-10**9, 3)]:
        assert gcd(cutoff.denominator, den) == 1
        # a fresh spectrum, so that count_le grows its store from empty
        assert spectrum_for(domain).count_le(cutoff) == _swept_count(domain, cutoff), cutoff


@pytest.mark.parametrize("domain", [Ellipsoid(F(1), F(89, 55)), Ellipsoid(F(2), F(3)),
                                    Ball(F(3, 2))], ids=["golden", "2-3", "ball"])
def test_ellipsoid_value_matches_a_filled_store(domain):
    spec = spectrum_for(domain)
    entries = spec.entries(600)
    assert [spec.value(k) for k in range(601)] == [v for v, _w in entries]
    assert spec.entries(600) == entries and len(spec._prefix[1]) == 601
