"""Spectral gaps, one-sided approximants, the closing bound, asymptotic rows."""

from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import given, settings, strategies as st

from toricspec import (
    Approximant,
    Ball,
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
