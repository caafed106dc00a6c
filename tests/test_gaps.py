"""Spectral gaps, one-sided approximants, the closing bound, asymptotic rows."""

import time
from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import given, settings, strategies as st

from toricspec import (
    Approximant,
    GapReport,
    Ball,
    ConsistencyError,
    DisjointUnion,
    Ellipsoid,
    EllipsoidSpectrum,
    PreconditionError,
    ValidationError,
    best_approx_above,
    best_approx_below,
    close_gap_consistency,
    ellipsoid_close,
    gap_asymptotics,
    nk_sequence,
    spectral_gap,
    spectrum_for,
    validate_profile,
)
from toricspec import gaps
from toricspec.gaps import _approximants, _close_scaled, _gap_scan, _gaps, ellipsoid_close_detail
from toricspec.rationals import _scaled

F = Fraction
GOLDEN = F(89, 55)


def brute_gap(a, b, cutoff):
    vals = [v for v, _w in nk_sequence(a, b, 4)]
    k_max = 4
    while vals[-1] <= cutoff:
        k_max *= 2
        vals = [v for v, _w in nk_sequence(a, b, k_max)]
    diffs = [vals[k + 1] - vals[k] for k in range(len(vals) - 1) if vals[k + 1] <= cutoff]
    return min(diffs) if diffs else None


class TestSpectralGap:
    def test_golden_ratio_ellipsoid(self):
        spec = EllipsoidSpectrum(Ellipsoid(F(1), GOLDEN))
        report = spectral_gap(spec, F(2))
        assert report.gap == F(21, 55)
        assert report.achieving_k == 2
        assert not report.is_infinite

    def test_infinite_below_first_entry(self):
        spec = EllipsoidSpectrum(Ellipsoid(F(1), F(1)))
        report = spectral_gap(spec, F(1, 4))
        assert report.gap is None and report.achieving_k is None
        assert report.is_infinite

    def test_tie_gives_zero(self):
        spec = EllipsoidSpectrum(Ellipsoid(F(2), F(3)))
        report = spectral_gap(spec, F(6))
        assert report.gap == 0 and report.achieving_k == 5

    def test_achieving_k_is_smallest(self):
        spec = EllipsoidSpectrum(Ellipsoid(F(2), F(3)))
        report = spectral_gap(spec, F(5))
        assert report.gap == 1 and report.achieving_k == 1

    def test_cutoff_at_first_entry(self):
        spec = EllipsoidSpectrum(Ellipsoid(F(2), F(3)))
        report = spectral_gap(spec, F(2))
        assert report.gap == 2 and report.achieving_k == 0

    def test_matches_brute_force(self, rng):
        for _ in range(15):
            a = F(rng.randint(1, 8), rng.randint(1, 3))
            b = F(rng.randint(1, 8), rng.randint(1, 3))
            cutoff = F(rng.randint(1, 30), rng.randint(1, 2))
            spec = EllipsoidSpectrum(Ellipsoid(a, b))
            assert spectral_gap(spec, cutoff).gap == brute_gap(a, b, cutoff)


def oracle_below(a, b, cutoff):
    m_cap = floor(cutoff / a)
    best = None
    for m in range(1, m_cap + 1):
        n = floor(m * a / b)
        if best is None or F(n, m) > F(best[1], best[0]):
            best = (m, n)
    return F(best[1], best[0])


def oracle_above(a, b, cutoff):
    n_cap = floor(cutoff / b)
    best = None
    for n in range(1, n_cap + 1):
        m = floor(n * b / a)
        if best is None or F(m, n) > F(best[0], best[1]):
            best = (m, n)
    return F(best[0], best[1])


class TestApproximants:
    def test_golden_hand_values(self):
        below = best_approx_below(F(1), GOLDEN, F(10))
        assert (below.m, below.n) == (5, 3)
        above = best_approx_above(F(1), GOLDEN, F(10))
        assert (above.m, above.n) == (8, 5)

    def test_exact_ratio_within_cap(self):
        below = best_approx_below(F(2), F(3), F(6))
        above = best_approx_above(F(2), F(3), F(6))
        assert (below.m, below.n) == (3, 2)
        assert (above.m, above.n) == (3, 2)

    def test_zero_numerator_canonicalized(self):
        below = best_approx_below(F(3), F(100), F(100))
        assert (below.m, below.n) == (1, 0)
        above = best_approx_above(F(3), F(100), F(100))
        assert (above.m, above.n) == (33, 1)
        assert ellipsoid_close(F(3), F(100), F(100)) == 1

    def test_matches_exhaustive_search(self, rng):
        for _ in range(40):
            a = F(rng.randint(1, 20), rng.randint(1, 30))
            b = F(rng.randint(1, 20), rng.randint(1, 30))
            cutoff = max(a, b) + F(rng.randint(0, 40), rng.randint(1, 4))
            if floor(cutoff / a) > 2000 or floor(cutoff / b) > 2000:
                continue
            below = best_approx_below(a, b, cutoff)
            assert gcd(below.m, below.n) == 1 and a * below.m <= cutoff
            assert F(below.n, below.m) == oracle_below(a, b, cutoff)
            above = best_approx_above(a, b, cutoff)
            assert gcd(above.m, above.n) == 1 and b * above.n <= cutoff
            assert F(above.m, above.n) == oracle_above(a, b, cutoff)

    def test_large_denominator_stays_fast(self):
        # mediant batching: a Fibonacci-like target with a huge cap
        a, b = F(1), F(10 ** 18 + 7, 10 ** 18)
        below = best_approx_below(a, b, F(10 ** 15))
        assert gcd(below.m, below.n) == 1
        assert F(below.n, below.m) <= a / b

    def test_cutoff_precondition(self):
        with pytest.raises(PreconditionError):
            best_approx_below(F(1), GOLDEN, F(1))
        with pytest.raises(PreconditionError):
            ellipsoid_close(F(1), GOLDEN, F(3, 2))

    def test_approximant_validation(self):
        with pytest.raises(ValidationError):
            Approximant("left", 1, 1)
        with pytest.raises(ValidationError):
            Approximant("below", 0, 1)
        with pytest.raises(ValidationError):
            Approximant("above", 1, 0)


class TestClosingBound:
    def test_golden_value(self):
        assert ellipsoid_close(F(1), GOLDEN, F(10)) == F(1, 11)

    def test_exact_ratio_closes_to_zero(self):
        assert ellipsoid_close(F(2), F(3), F(6)) == 0

    def test_close_never_exceeds_gap(self):
        rows = close_gap_consistency(F(1), GOLDEN, [F(2), F(3), F(5), F(10)])
        for row in rows:
            assert row["gap"] is not None
            assert row["margin"] >= 0
            assert row["close"] <= row["gap"]

    def test_a_close_past_the_gap_raises_consistency_error(self, monkeypatch):
        real = gaps.ellipsoid_close
        monkeypatch.setattr(gaps, "ellipsoid_close", lambda a, b, cutoff: real(a, b, cutoff) + 1)
        with pytest.raises(ConsistencyError) as exc:
            close_gap_consistency(F(1), GOLDEN, [F(10)])
        assert str(exc.value) == "close 12/11 exceeds gap 1/11 at cutoff 10 for axes (1, 89/55)"

    def test_close_equals_gap_on_golden_grid(self):
        spec = EllipsoidSpectrum(Ellipsoid(F(1), GOLDEN))
        for i in range(12):
            cutoff = GOLDEN + F(i, 3)
            assert ellipsoid_close(F(1), GOLDEN, cutoff) == spectral_gap(spec, cutoff).gap

    def test_scaling_identities(self):
        for r in (F(2), F(5, 3)):
            assert ellipsoid_close(r * 1, r * GOLDEN, r * 10) == r * ellipsoid_close(
                F(1), GOLDEN, F(10))
            spec = EllipsoidSpectrum(Ellipsoid(F(1), GOLDEN))
            scaled = EllipsoidSpectrum(Ellipsoid(r, r * GOLDEN))
            assert spectral_gap(scaled, r * 2).gap == r * spectral_gap(spec, F(2)).gap


class TestAsymptoticRows:
    def test_round_ball_rows(self):
        spec = EllipsoidSpectrum(Ellipsoid(F(1), F(1)))
        rows = gap_asymptotics(spec, [F(1, 4), F(1, 2), F(1), F(2)])
        assert [r["infinite"] for r in rows] == [True, True, False, False]
        assert [r["gap"] for r in rows] == [None, None, 0, 0]
        assert all(r["suffix_sup"] == 0 for r in rows)

    def test_suffix_sup_is_right_to_left_running_max(self):
        spec = EllipsoidSpectrum(Ellipsoid(F(1), GOLDEN))
        cutoffs = [F(2), F(4), F(8), F(16)]
        rows = gap_asymptotics(spec, cutoffs)
        for i, row in enumerate(rows):
            tail = [r["scaled"] for r in rows[i:] if r["scaled"] is not None]
            assert row["suffix_sup"] == max(tail)
            assert row["scaled"] == row["cutoff"] * row["gap"]


def _entrywise_gap(spectrum, cutoff):
    """(gap, achieving_k) from single-entry reads, the smallest k on ties."""
    best = best_k = None
    k = 0
    while spectrum.value(k + 1) <= cutoff:
        diff = spectrum.value(k + 1) - spectrum.value(k)
        if best is None or diff < best:
            best, best_k = diff, k
        k += 1
    return best, best_k


_gap_domains = st.one_of(
    st.builds(Ellipsoid, st.sampled_from([F(1), F(3, 2), F(2), GOLDEN]),
              st.sampled_from([F(1), F(5, 3), F(3)])),
    st.builds(Ball, st.sampled_from([F(1), F(3, 2)])),
    st.just(validate_profile([(0, 3), (1, 2), (2, 0)])),
    st.just(DisjointUnion((Ball(F(1)), validate_profile([(0, 2), (1, 1), (2, 0)])))))


@settings(max_examples=30, deadline=None)
@given(domain=_gap_domains, cutoff=st.builds(F, st.integers(0, 12), st.integers(1, 3)))
def test_batched_gap_scan_matches_entrywise_scan(domain, cutoff):
    report = spectral_gap(spectrum_for(domain), cutoff)
    assert (report.gap, report.achieving_k) == _entrywise_gap(spectrum_for(domain), cutoff)


def _best_frac_le(x, max_den):
    """Largest fraction <= x with denominator at most max_den, reduced: the
    library's former walk, one side at a time, kept as the two-walk oracle.

    Mediant walk between 0/1 and 1/0 with run-length batching. For x = p/q
    it keeps the remainders el = p ld - q ln >= 0 and er = q rn - p rd > 0:
    the mediant is <= x iff el >= er, and t steps take t er from el or t el
    from er.
    """
    el, er = x.numerator, x.denominator  # the remainders at the fences 0/1 and 1/0
    if er <= max_den:
        return el, er
    ln, ld, rn, rd = 0, 1, 1, 0
    while ld + rd <= max_den:
        if el >= er:
            t = el // er
            if rd:
                t = min(t, (max_den - ld) // rd)
            ln, ld, el = ln + t * rn, ld + t * rd, el - t * er
        else:
            t = (er - 1) // el
            rn, rd, er = rn + t * ln, rd + t * ld, er - t * el
    return ln, ld


def _fraction_walk(x, max_den):
    """The mediant walk as it was written over Fractions, kept as the oracle."""
    if x.denominator <= max_den:
        return x.numerator, x.denominator
    ln, ld = 0, 1
    rn, rd = 1, 0
    while ld + rd <= max_den:
        if Fraction(ln + rn, ld + rd) <= x:
            t = floor((x * ld - ln) / (rn - x * rd))
            if rd:
                t = min(t, (max_den - ld) // rd)
            ln, ld = ln + t * rn, ld + t * rd
        else:
            t = ceil((rn - x * rd) / (x * ld - ln)) - 1
            rn, rd = rn + t * ln, rd + t * ld
    return ln, ld


@st.composite
def _walk_inputs(draw):
    digits = st.one_of(st.integers(1, 100), st.integers(1, 10**60))
    x = F(draw(digits), draw(digits))
    q = x.denominator
    cap = draw(st.one_of(st.just(1), st.integers(1, 10**70), st.integers(1, 1000),
                         st.integers(max(1, q - 3), q + 3)))
    return x, cap


@settings(max_examples=400, deadline=None)
@given(_walk_inputs())
def test_integer_walk_matches_fraction_walk(inputs):
    x, cap = inputs
    assert _best_frac_le(x, cap) == _fraction_walk(x, cap)


def test_integer_walk_matches_search_over_denominators():
    for p in range(1, 31):
        for q in range(1, 31):
            for cap in range(1, 36):
                # the largest floor(p m / q) / m over m <= cap; the first m reached is reduced
                bn, bm = 0, 1
                for m in range(1, cap + 1):
                    n = p * m // q
                    if n * bm > bn * m:
                        bn, bm = n, m
                assert _best_frac_le(F(p, q), cap) == (bn, bm), (p, q, cap)


def _two_walks(p, q, n1, n2):
    """Both approximants of p/q from two one-sided oracle walks."""
    n_lo, m_lo = _best_frac_le(F(p, q), n1)
    m_hi, n_hi = _best_frac_le(F(q, p), n2)
    return (n_lo, m_lo), (n_hi, m_hi)


@st.composite
def _approximant_inputs(draw):
    """p/q in lowest terms (small, up to 10^30, Fibonacci F(n + 1)/F(n) or a
    320-digit ratio in (1, 2), either way round) and a cutoff l with one of
    the caps floor(l/a), floor(l/b) at 1, q - 1, q, q + 1, p - 1, p or p + 1."""
    kind = draw(st.sampled_from(["small", "wide", "fibonacci", "digits"]))
    if kind == "small":
        x = F(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    elif kind == "wide":
        x = F(draw(st.integers(1, 10**30)), draw(st.integers(1, 10**30)))
    elif kind == "fibonacci":
        n = draw(st.integers(1, 1510))
        x = F(_fib(n + 1), _fib(n))
    else:
        q = draw(st.integers(10**319, 10**320 // 2))
        x = F(draw(st.integers(q + 1, 2 * q - 1)), q)
    p, q = (x.numerator, x.denominator) if draw(st.booleans()) else (x.denominator, x.numerator)
    g = draw(st.integers(1, 6))
    a, b = g * p, g * q
    cap = draw(st.sampled_from([1, q - 1, q, q + 1, p - 1, p, p + 1]))
    axis = draw(st.sampled_from([a, b]))
    cutoff = max(a, b, cap * axis + draw(st.integers(0, axis - 1)))
    return p, q, cutoff // a, cutoff // b


@settings(max_examples=400, deadline=None)
@given(_approximant_inputs())
def test_one_walk_matches_two_oracle_walks(inputs):
    assert _approximants(*inputs) == _two_walks(*inputs)


def test_one_walk_matches_search_over_both_caps():
    for p in range(1, 31):
        for q in range(1, 31):
            if gcd(p, q) > 1:
                continue
            # below[c]: the largest floor(p m / q) / m over m <= c, first m reached;
            # above[c]: the least n / floor(n q / p) over n <= c (1/0 first), first n reached
            below, above = [None], [None]
            bn, bm, an, am = 0, 1, 1, 0
            for c in range(1, 36):
                n = p * c // q
                if n * bm > bn * c:
                    bn, bm = n, c
                m = c * q // p
                if c * am < an * m:
                    an, am = c, m
                below.append((bn, bm))
                above.append((an, am))
            # every pair of caps (floor(l/p), floor(l/q)) up to 35 first shows at a multiple of p or q
            for cutoff in sorted({k * p for k in range(1, 36)} | {k * q for k in range(1, 36)}):
                n1, n2 = cutoff // p, cutoff // q
                if cutoff >= max(p, q) and max(n1, n2) <= 35:
                    assert _approximants(p, q, n1, n2) == (below[n1], above[n2]), (p, q, cutoff)


def _fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_huge_fibonacci_close_is_fast():
    ratio = F(_fib(1501), _fib(1500))
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        close, below, above = ellipsoid_close_detail(1, ratio, 10**300)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.040
    assert ellipsoid_close(1, ratio, 10**300) == close
    assert (below.m, below.n) == (_fib(1437), _fib(1436))
    assert (above.m, above.n) == (_fib(1436), _fib(1435))


@st.composite
def _gap_axes(draw):
    """Axes a, a r with r = p/q, q up to 10^6 and r within [1/20, 20], so a
    cutoff at max(a, b) stays within a few hundred entries."""
    a = draw(st.sampled_from([F(1), F(3, 2), F(2, 7)]))
    q = draw(st.integers(1, 10**6))
    return a, a * F(draw(st.integers(q // 20 + 1, 20 * q)), q)


_sized_gap_domains = st.one_of(
    st.tuples(_gap_axes().map(lambda ab: Ellipsoid(*ab)), st.just(80)),
    st.tuples(st.builds(Ball, st.sampled_from([F(1), F(3, 2), F(7, 5)])), st.just(80)),
    st.tuples(st.sampled_from([validate_profile([(0, 3), (1, 2), (2, 0)]),
                               validate_profile([(0, 1), (1, 1), (1, 0)])]), st.just(15)),
    st.tuples(st.just(DisjointUnion((Ball(F(1)), validate_profile([(0, 2), (1, 1), (2, 0)])))),
              st.just(20)))


def _cutoffs(draw, spectrum, k_top, size):
    """Spectrum values (ties at the cutoff), midpoints between values, and
    cutoffs below c_1, drawn from the first k_top entries."""
    c1 = spectrum.value(1)
    kinds = st.one_of(
        st.integers(1, k_top).map(spectrum.value),
        st.integers(0, k_top).map(lambda k: (spectrum.value(k) + spectrum.value(k + 1)) / 2),
        st.sampled_from([F(0), c1 / 2, c1 - F(1, 10**9), -c1]))
    return draw(st.lists(kinds, min_size=size, max_size=size + 5))


@settings(max_examples=60, deadline=None)
@given(sized=_sized_gap_domains, data=st.data())
def test_gap_scan_matches_entrywise_scan_at_drawn_cutoffs(sized, data):
    domain, k_top = sized
    entrywise = spectrum_for(domain)
    for cutoff in _cutoffs(data.draw, spectrum_for(domain), k_top, 1):
        report = spectral_gap(spectrum_for(domain), cutoff)
        assert report.cutoff == cutoff
        assert (report.gap, report.achieving_k) == _entrywise_gap(entrywise, cutoff)


@settings(max_examples=30, deadline=None)
@given(sized=_sized_gap_domains, data=st.data())
def test_asymptotic_rows_match_per_cutoff_gaps(sized, data):
    domain, k_top = sized
    grid = _cutoffs(data.draw, spectrum_for(domain), k_top, 4)
    grid = data.draw(st.permutations(grid + grid[:2]))  # unsorted, with repeats
    rows = gap_asymptotics(spectrum_for(domain), grid)
    assert [r["cutoff"] for r in rows] == grid
    per_cutoff = spectrum_for(domain)
    for i, (row, cutoff) in enumerate(zip(rows, grid)):
        report = spectral_gap(per_cutoff, cutoff)
        assert (row["gap"], row["infinite"]) == (report.gap, report.is_infinite)
        assert row["scaled"] == (None if report.gap is None else cutoff * report.gap)
        tail = [r["scaled"] for r in rows[i:] if r["scaled"] is not None]
        assert row["suffix_sup"] == (max(tail) if tail else None)


@settings(max_examples=30, deadline=None)
@given(axes=_gap_axes(), data=st.data())
def test_consistency_rows_match_per_cutoff_close_and_gap(axes, data):
    a, b = axes
    spectrum = EllipsoidSpectrum(Ellipsoid(a, b))
    grid = [max(a, b, c) for c in _cutoffs(data.draw, spectrum, 80, 4)]
    grid = data.draw(st.permutations(grid + grid[-2:]))
    rows = close_gap_consistency(a, b, grid)
    assert [r["cutoff"] for r in rows] == grid
    per_cutoff = EllipsoidSpectrum(Ellipsoid(a, b))
    for row, cutoff in zip(rows, grid):
        gap = spectral_gap(per_cutoff, cutoff).gap
        close = ellipsoid_close(a, b, cutoff)
        assert (row["close"], row["gap"]) == (close, gap)
        assert row["margin"] == (None if gap is None else gap - close)


@settings(max_examples=40, deadline=None)
@given(a=st.sampled_from([F(1), F(3, 2), F(2, 7)]), p=st.integers(1, 40), q=st.integers(1, 20),
       data=st.data())
def test_close_equals_gap_at_every_cutoff_from_the_larger_axis(a, p, q, data):
    # For L >= max(a, b) the least gap between distinct values <= L is the
    # closing bound (best one-sided approximants, three-distance setting), so
    # the margin is exactly 0. Cutoffs run from max(a, b) to 40 max(a, b):
    # spectrum values a m + b n (ties) and points on a grid of step max/97.
    b = a * F(p, q)
    top = max(a, b)
    grid = [top]
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()):
            m = data.draw(st.integers(0, floor(40 * top / a)))
            n = data.draw(st.integers(0, floor((40 * top - a * m) / b)))
            grid.append(max(top, a * m + b * n))
        else:
            grid.append(top * F(data.draw(st.integers(97, 40 * 97)), 97))
    rows = close_gap_consistency(a, b, grid)
    assert [row["margin"] for row in rows] == [0] * len(grid), (a, b, grid)


def test_empty_grids_give_no_rows():
    assert gap_asymptotics(EllipsoidSpectrum(Ellipsoid(F(1), GOLDEN)), []) == []
    assert close_gap_consistency(F(1), GOLDEN, []) == []


@pytest.mark.parametrize("call, error, text", [
    (lambda: gap_asymptotics(EllipsoidSpectrum(Ellipsoid(F(1), GOLDEN)), [F(5), F(2), 1.5, "x"]),
     ValidationError, "cutoff must be exact; floats are rejected: 1.5"),
    (lambda: gap_asymptotics(EllipsoidSpectrum(Ellipsoid(F(1), GOLDEN)), [F(5), "x", 1.5]),
     ValidationError, "cutoff must be rational: 'x'"),
    (lambda: close_gap_consistency(F(1), GOLDEN, [F(5), F(3), F(1), "x"]),
     PreconditionError, "cutoff 1 is below max(a, b) = 89/55; no approximant exists"),
    (lambda: close_gap_consistency(F(1), GOLDEN, [F(5), 0.5, F(1)]),
     ValidationError, "cutoff must be exact; floats are rejected: 0.5"),
    (lambda: close_gap_consistency(F(1), GOLDEN, [F(5), None]),
     ValidationError, "cutoff must be rational: None"),
])
def test_first_bad_cutoff_in_a_grid_is_reported(call, error, text):
    # texts recorded from the per-cutoff implementation
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == text


@st.composite
def _closed_form_spectra(draw):
    """Ellipsoids with small axis ratios p/q (early ties) or q up to 10^6, and
    balls, each with cutoffs in all three regimes: below the shorter axis,
    between the axes, and up to 12 max(a, b), spectrum values among them."""
    a = draw(st.sampled_from([F(1), F(3, 2), F(2, 7)]))
    kind = draw(st.sampled_from(["tie", "wide", "ball"]))
    if kind == "tie":
        b = a * F(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    elif kind == "wide":
        q = draw(st.integers(1, 10**6))
        b = a * F(draw(st.integers(q // 8 + 1, 8 * q)), q)
    else:
        b = a
    lo, hi = min(a, b), max(a, b)
    grid = [lo, hi, lo - F(1, 10**9), hi - F(1, 10**9)]
    for _ in range(draw(st.integers(1, 5))):
        regime = draw(st.sampled_from(["below", "between", "above", "value"]))
        if regime == "below":
            grid.append(lo * F(draw(st.integers(-97, 96)), 97))
        elif regime == "between":
            grid.append(lo + (hi - lo) * F(draw(st.integers(0, 96)), 97))
        elif regime == "above":
            grid.append(hi * F(draw(st.integers(97, 12 * 97)), 97))
        else:
            m = draw(st.integers(0, floor(12 * hi / a)))
            grid.append(a * m + b * draw(st.integers(0, floor((12 * hi - a * m) / b))))
    spectrum = (lambda: Ball(a)) if kind == "ball" else (lambda: Ellipsoid(a, b))
    return spectrum, draw(st.permutations(grid))


@settings(max_examples=150, deadline=None)
@given(_closed_form_spectra())
def test_closed_form_gaps_match_the_gap_scan(case):
    domain, grid = case
    closed = _gaps(spectrum_for(domain()), grid)
    assert closed == _gap_scan(spectrum_for(domain()), grid)
    assert closed == [spectral_gap(spectrum_for(domain()), cutoff) for cutoff in grid]


def test_closed_form_gaps_at_huge_cutoffs():
    cutoff = F(10**400)
    for domain, k in [(Ellipsoid(F(1), F(1)), 1), (Ball(F(1)), 1), (Ellipsoid(F(2), F(3)), 5),
                      (Ellipsoid(F(1), GOLDEN), 2519), (Ellipsoid(F(2, 7), F(3, 7)), 5)]:
        assert spectral_gap(spectrum_for(domain), cutoff) == GapReport(cutoff, F(0), k)
    # the gap is then the closing bound, found at its first pair
    a, b = F(1), F(_fib(2001), _fib(2000))  # F(2000) > 10^400: no tie below the cutoff
    report = spectral_gap(EllipsoidSpectrum(Ellipsoid(a, b)), cutoff)
    assert report.gap == ellipsoid_close(a, b, cutoff) > 0
    assert report.achieving_k > 10**100


def _fraction_close(a, b, cutoff):
    """The closing bound as it was written over Fractions, kept as the oracle."""
    n_lo, m_lo = _best_frac_le(a / b, floor(cutoff / a))
    m_hi, n_hi = _best_frac_le(b / a, floor(cutoff / b))
    m_lo, n_hi = m_lo if n_lo else 1, n_hi if m_hi else 1
    return min(a * m_lo - b * n_lo, b * n_hi - a * m_hi), (m_lo, n_lo), (m_hi, n_hi)


@st.composite
def _close_inputs(draw):
    """Axes a, a r, either way round, with r small, p/q for q up to 10^6,
    F(n + 1)/F(n) for n near 1500, or a 320-digit ratio in (1, 2), and a
    cutoff from max(a, b) up to about 10^300."""
    a = draw(st.sampled_from([F(1), F(3, 2), F(2, 7), GOLDEN]))
    kind = draw(st.sampled_from(["small", "wide", "fibonacci", "digits"]))
    if kind == "small":
        r = F(draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    elif kind == "wide":
        q = draw(st.integers(1, 10**6))
        r = F(draw(st.integers(q // 8 + 1, 8 * q)), q)
    elif kind == "fibonacci":
        n = draw(st.integers(1490, 1510))
        r = F(_fib(n + 1), _fib(n))
    else:
        q = draw(st.integers(10**319, 10**320 // 2))
        r = F(draw(st.integers(q + 1, 2 * q - 1)), q)
    a, b = (a, a * r) if draw(st.booleans()) else (a * r, a)
    extra = F(draw(st.integers(0, 10 ** draw(st.integers(0, 300)))), draw(st.integers(1, 1000)))
    return a, b, max(a, b) + extra


@settings(max_examples=300, deadline=None)
@given(_close_inputs())
def test_integer_close_matches_fraction_close(inputs):
    a, b, cutoff = inputs
    an, bn, ln, d = _scaled(a, b, cutoff)
    g, below, above = _close_scaled(an, bn, ln)
    assert (F(g, d), below, above) == _fraction_close(a, b, cutoff)
    close, below_approx, above_approx = ellipsoid_close_detail(a, b, cutoff)
    assert (close, (below_approx.m, below_approx.n), (above_approx.m, above_approx.n)) == \
        (F(g, d), below, above)


def test_closed_form_gaps_build_no_approximant(monkeypatch):
    def refuse(*args):
        raise AssertionError("the closed-form gap built an Approximant")
    calls = []
    walk = gaps._approximants

    def counted(*args):
        calls.append(args)
        return walk(*args)
    monkeypatch.setattr(gaps, "Approximant", refuse)
    monkeypatch.setattr(gaps, "_approximants", counted)
    grid = [F(1, 2), F(1), F(3, 2), F(8, 5), GOLDEN, F(2), F(50), F(10**30)]
    for domain, top in [(Ellipsoid(F(1), GOLDEN), GOLDEN), (Ball(F(3, 2)), F(3, 2))]:
        walks = sum(cutoff >= top for cutoff in grid)  # one walk per closed-form cutoff
        calls.clear()
        reports = [spectral_gap(spectrum_for(domain), cutoff) for cutoff in grid]
        assert len(calls) == walks
        calls.clear()
        rows = gap_asymptotics(spectrum_for(domain), grid)
        assert len(calls) == walks
        assert [row["gap"] for row in rows] == [report.gap for report in reports]
