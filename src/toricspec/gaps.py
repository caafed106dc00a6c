"""Minimum spectral gaps and the ellipsoid quantitative closing bound.

The gap of a spectrum below an action cutoff L is the least difference of
consecutive entries whose upper member still fits under L; it is infinite
when even the first positive entry exceeds L. For ellipsoids the closing
bound has a closed form in two one-sided best rational approximations of
the axis ratio, found by a mediant walk whose batched steps are Euclid
divisions on the fence remainders, so large denominators cost logarithmic
time.

Ellipsoid and ball gaps (a ball is E(a, a)) are answered in closed form,
in O(log) integer steps per cutoff: for L >= max(a, b) the least gap is
the closing bound (three-distance setting: Sós, 1958; Khinchin on best
approximations), and the first pair realizing it is read off the
solutions of a x + b y = gap. Every other spectrum, and the second route
for ellipsoids and balls, is one integer scan over the entries up to the
largest cutoff, which answers a whole grid of cutoffs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import floor, gcd, lcm
from typing import Optional, Sequence

from .errors import ConsistencyError, PreconditionError, ValidationError
from .rationals import _exact_rat, _positive_axes, _scaled
from .spectra import EllipsoidSpectrum, Spectrum, _count_scaled
from .domains import Ellipsoid


@dataclass(frozen=True)
class GapReport:
    cutoff: Fraction
    gap: Optional[Fraction]  # None encodes +infinity
    achieving_k: Optional[int]

    @property
    def is_infinite(self) -> bool:
        return self.gap is None


def spectral_gap(spectrum: Spectrum, cutoff: Fraction) -> GapReport:
    """Least c_{k+1} - c_k over all k with c_{k+1} <= cutoff.

    Ties in the spectrum give gap 0. achieving_k is the smallest k
    realizing the minimum. Infinite when c_1 > cutoff.
    """
    return _gaps(spectrum, [_exact_rat(cutoff, "cutoff")])[0]


def _gaps(spectrum: Spectrum, cutoffs: Sequence[Fraction]) -> list[GapReport]:
    """One GapReport per exact cutoff: in closed form for ellipsoids and
    balls, from _gap_scan for every other spectrum."""
    if not isinstance(spectrum, EllipsoidSpectrum):
        return _gap_scan(spectrum, cutoffs)
    an, bn, d = spectrum._an, spectrum._bn, spectrum._d
    reports = []
    for cutoff in cutoffs:
        found = _ellipsoid_gap(an, bn, floor(cutoff * d))
        gap, k = (None, None) if found is None else (Fraction(found[0], d), found[1])
        reports.append(GapReport(cutoff, gap, k))
    return reports


def _ellipsoid_gap(an: int, bn: int, ln: int) -> Optional[tuple[int, int]]:
    """(gap, achieving k) of E(an, bn) below the cutoff ln, all in scaled
    integers, or None when the gap is infinite.

    For ln >= max(an, bn) the gap g is the closing bound. If g = 0 the first
    tie is the least common multiple of the axes. Otherwise the pairs of
    entries g apart are (m, n), (m + x, n + y) with an x + bn y = g; the
    solutions are (x + t q, y - t p), where p, q are the axes over their
    gcd, from the approximant that attains g. The lower entry is at least
    v(t) = an max(0, -x) + bn max(0, -y), which is nonincreasing in t while
    x < 0 and nondecreasing once x >= 0, so the first pair is at the sign
    change of x.
    """
    lo, hi = sorted((an, bn))
    if ln < lo:
        return None
    if ln < hi:
        return lo, 0  # multiples of the shorter axis only
    g, below, above = _close(Fraction(an), Fraction(bn), Fraction(ln))
    if g == 0:
        return 0, _count_scaled(an, bn, lcm(an, bn) - 1)
    x, y = (below.m, -below.n) if an * below.m - bn * below.n == g else (-above.m, above.n)
    p, q = an // gcd(an, bn), bn // gcd(an, bn)
    t = -(x // q)  # the least t with x + t q >= 0
    v = min(an * max(0, -x - s * q) + bn * max(0, s * p - y) for s in (t - 1, t))
    if v + g > ln:
        raise AssertionError(f"no pair {g} apart below {ln} for axes ({an}, {bn})")
    return int(g), _count_scaled(an, bn, v) - 1


def _gap_scan(spectrum: Spectrum, cutoffs: Sequence[Fraction]) -> list[GapReport]:
    """One GapReport per exact cutoff, in order, from one scan at the largest.

    The spectrum is extended once, to the count_le(top) entries up to the
    top cutoff. Its values are scaled once to integers s_k over a common
    denominator d; a running first argmin of s_{k+1} - s_k is read at the
    number of s_k <= floor(cutoff d).
    """
    if not cutoffs:
        return []
    *s, d = _scaled(*spectrum.values(max(spectrum.count_le(max(cutoffs)) - 1, 0)))
    diffs = [y - x for x, y in zip(s, s[1:])]
    # first[n]: the achieving k when exactly c_0..c_{n-1} fit under a cutoff
    first = [None, None, *accumulate(range(len(diffs)), lambda i, k: k if diffs[k] < diffs[i] else i)]
    ks = [first[bisect_right(s, floor(cutoff * d))] for cutoff in cutoffs]
    return [GapReport(c, None if k is None else Fraction(diffs[k], d), k) for c, k in zip(cutoffs, ks)]


@dataclass(frozen=True)
class Approximant:
    """One-sided best rational approximation n/m or m/n under a denominator cap."""

    side: str  # "below" or "above"
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.side not in ("below", "above"):
            raise ValidationError("side must be 'below' or 'above'")
        if self.side == "below" and (self.m < 1 or self.n < 0):
            raise ValidationError("below approximant needs m >= 1, n >= 0")
        if self.side == "above" and (self.n < 1 or self.m < 0):
            raise ValidationError("above approximant needs n >= 1, m >= 0")


def _best_frac_le(x: Fraction, max_den: int) -> tuple[int, int]:
    """Largest fraction <= x with denominator at most max_den, reduced.

    Mediant walk between 0/1 and 1/0 with run-length batching: any
    fraction strictly between the walk's fences has denominator beyond
    both, so once the fence denominators exceed the cap the lower fence
    is the answer. For x = p/q it keeps the remainders el = p ld - q ln >= 0
    and er = q rn - p rd > 0: the mediant is <= x iff el >= er, and t steps
    take t er from el or t el from er, Euclid's algorithm in plain integers.
    """
    if x <= 0:
        raise ValidationError("target must be positive")
    if max_den < 1:
        raise ValidationError("denominator cap must be at least 1")
    el, er = x.numerator, x.denominator  # the remainders at the fences 0/1 and 1/0
    if er <= max_den:
        return el, er
    ln, ld, rn, rd = 0, 1, 1, 0
    while ld + rd <= max_den:
        if el >= er:
            # batch steps toward the target from below
            t = el // er
            if rd:
                t = min(t, (max_den - ld) // rd)
            ln, ld, el = ln + t * rn, ld + t * rd, el - t * er
        else:
            # batch steps tightening the upper fence
            t = (er - 1) // el
            rn, rd, er = rn + t * ln, rd + t * ld, er - t * el
    return ln, ld


def best_approx_below(a: Fraction, b: Fraction, cutoff: Fraction) -> Approximant:
    """Coprime (m, n), m >= 1, maximizing n/m subject to n/m <= a/b, a m <= cutoff."""
    return _approx_below(*_check_close_inputs(a, b, cutoff))


def best_approx_above(a: Fraction, b: Fraction, cutoff: Fraction) -> Approximant:
    """Coprime (m, n), n >= 1, maximizing m/n subject to m/n <= b/a, b n <= cutoff."""
    return _approx_above(*_check_close_inputs(a, b, cutoff))


# The private helpers below take inputs already passed through _check_close_inputs.

def _approx_below(a: Fraction, b: Fraction, cutoff: Fraction) -> Approximant:
    n, m = _best_frac_le(a / b, floor(cutoff / a))
    # every 0/m is the same approximation; keep the canonical 0/1
    return Approximant("below", m if n else 1, n)


def _approx_above(a: Fraction, b: Fraction, cutoff: Fraction) -> Approximant:
    m, n = _best_frac_le(b / a, floor(cutoff / b))
    return Approximant("above", m, n if m else 1)


def _check_close_inputs(a, b, cutoff) -> tuple[Fraction, Fraction, Fraction]:
    a, b = _positive_axes(a, b)
    return a, b, _check_cutoff(a, b, cutoff)


def _check_cutoff(a: Fraction, b: Fraction, cutoff) -> Fraction:
    cutoff = _exact_rat(cutoff, "cutoff")
    if cutoff < max(a, b):
        raise PreconditionError(
            f"cutoff {cutoff} is below max(a, b) = {max(a, b)}; no approximant exists")
    return cutoff


def ellipsoid_close(a: Fraction, b: Fraction, cutoff: Fraction) -> Fraction:
    """Closing bound min(a m- - b n-, b n+ - a m+) from the two approximants."""
    return _close(*_check_close_inputs(a, b, cutoff))[0]


def ellipsoid_close_detail(a: Fraction, b: Fraction,
                           cutoff: Fraction) -> tuple[Fraction, Approximant, Approximant]:
    """The closing bound with the below and above approximants it comes from."""
    return _close(*_check_close_inputs(a, b, cutoff))


def _close(a: Fraction, b: Fraction, cutoff: Fraction) -> tuple[Fraction, Approximant, Approximant]:
    below = _approx_below(a, b, cutoff)
    above = _approx_above(a, b, cutoff)
    d_below = a * below.m - b * below.n
    d_above = b * above.n - a * above.m
    if d_below < 0 or d_above < 0:
        raise AssertionError("approximant on the wrong side of the ratio")
    return min(d_below, d_above), below, above


def close_gap_consistency(a: Fraction, b: Fraction,
                          cutoffs: Sequence[Fraction]) -> list[dict]:
    """Check close <= gap at each cutoff; raise with a counterexample otherwise.

    Returns rows (cutoff, close, gap, margin). An infinite gap satisfies
    the inequality vacuously and is reported with gap None.
    """
    a, b = _positive_axes(a, b)
    cutoffs = [_check_cutoff(a, b, cutoff) for cutoff in cutoffs]
    rows = []
    for report in _gap_scan(EllipsoidSpectrum(Ellipsoid(a, b)), cutoffs):
        cutoff, close = report.cutoff, _close(a, b, report.cutoff)[0]
        if report.gap is not None and close > report.gap:
            raise ConsistencyError(
                f"close {close} exceeds gap {report.gap} at cutoff {cutoff} "
                f"for axes ({a}, {b})")
        margin = None if report.gap is None else report.gap - close
        rows.append({"cutoff": cutoff, "close": close,
                     "gap": report.gap, "margin": margin})
    return rows


def gap_asymptotics(spectrum: Spectrum, cutoffs: Sequence[Fraction]) -> list[dict]:
    """Rows (cutoff, gap, cutoff * gap, suffix supremum of cutoff * gap).

    Infinite gaps are flagged and excluded from the suprema; the suffix
    supremum is over the given grid only, and no claim is made about any
    limit beyond it.
    """
    base = []
    for report in _gaps(spectrum, [_exact_rat(cutoff, "cutoff") for cutoff in cutoffs]):
        cutoff = report.cutoff
        scaled = None if report.gap is None else cutoff * report.gap
        base.append({"cutoff": cutoff, "gap": report.gap, "scaled": scaled,
                     "infinite": report.is_infinite})
    sup: Optional[Fraction] = None
    for row in reversed(base):
        if row["scaled"] is not None and (sup is None or row["scaled"] > sup):
            sup = row["scaled"]
        row["suffix_sup"] = sup
    return base
