"""Minimum spectral gaps and the ellipsoid quantitative closing bound.

The gap of a spectrum below an action cutoff L is the least difference of
consecutive entries whose upper member still fits under L; it is infinite
when even the first positive entry exceeds L. The closing bound of E(a, b)
at L >= max(a, b) comes from the two one-sided best rational approximations
of the axis ratio. One core, _close_scaled, finds them in integers over a
common denominator by one mediant walk toward a/b whose batched steps are
Euclid divisions, so large denominators cost logarithmic time. The walk
toward b/a is the same walk with its fences swapped (the continued
fraction of b/a is that of a/b shifted by one term), so the lower fence
gives one approximant and the upper fence the other;
ellipsoid_close_detail is the core's only Fraction edge.

Ellipsoid and ball gaps (a ball is E(a, a)) call the same core: for
L >= max(a, b) the least gap is the closing bound (three-distance setting:
Sós, 1958; Khinchin on best approximations), and the first pair realizing
it is read off the solutions of a x + b y = gap. Every other spectrum, and
the second route for ellipsoids and balls, is one integer scan over the
entries up to the largest cutoff, which answers a whole grid of cutoffs.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import PreconditionError, ValidationError
from .rationals import _Frozen, _exact_rat, _floor_times, _positive_axes, _scaled, _shown
from .spectra import EllipsoidSpectrum, Spectrum, _count_scaled
from .domains import Ellipsoid


class GapReport(_Frozen):
    __slots__ = _fields = ("cutoff", "gap", "achieving_k")

    def __init__(self, cutoff: Fraction, gap: Optional[Fraction], achieving_k: Optional[int]) -> None:
        self._set("cutoff", cutoff)
        self._set("gap", gap)  # None encodes +infinity
        self._set("achieving_k", achieving_k)

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
        found = _ellipsoid_gap(an, bn, _floor_times(cutoff, d))
        gap, k = (None, None) if found is None else (Fraction(found[0], d), found[1])
        reports.append(GapReport(cutoff, gap, k))
    return reports


def _ellipsoid_gap(an: int, bn: int, ln: int) -> Optional[tuple[int, int]]:
    """(gap, achieving k) of E(an, bn) below the cutoff ln, all in scaled
    integers, or None when the gap is infinite.

    For ln >= max(an, bn) the gap g is the closing bound from _close_scaled,
    with no Fraction made. If g = 0 the first tie is the least common
    multiple of the axes. Otherwise the pairs of entries g apart are (m, n),
    (m + x, n + y) with an x + bn y = g; the solutions are (x + t q, y - t p),
    where p, q are the axes over their gcd, from the approximant that attains
    g. The lower entry is at least v(t) = an max(0, -x) + bn max(0, -y), which
    is nonincreasing in t while x < 0 and nondecreasing once x >= 0, so the
    first pair is at the sign change of x.
    """
    lo, hi = sorted((an, bn))
    if ln < lo:
        return None
    if ln < hi:
        return lo, 0  # multiples of the shorter axis only
    g, (m_lo, n_lo), (m_hi, n_hi) = _close_scaled(an, bn, ln)
    if g == 0:
        return 0, _count_scaled(an, bn, lcm(an, bn) - 1)
    x, y = (m_lo, -n_lo) if an * m_lo - bn * n_lo == g else (-m_hi, n_hi)
    p, q = an // gcd(an, bn), bn // gcd(an, bn)
    t = -(x // q)  # the least t with x + t q >= 0
    v = min(an * max(0, -x - s * q) + bn * max(0, s * p - y) for s in (t - 1, t))
    if v + g > ln:
        raise AssertionError(f"no pair {g} apart below {ln} for axes ({an}, {bn})")
    return g, _count_scaled(an, bn, v) - 1


def _gap_scan(spectrum: Spectrum, cutoffs: Sequence[Fraction]) -> list[GapReport]:
    """One GapReport per exact cutoff, in order, from one scan at the largest.

    The spectrum's store is extended once, to the count_le(top) entries up
    to the top cutoff, and read as it is: numerators s_k over the store's
    denominator d; no Fraction is made and no witness built. A running first
    argmin of s_{k+1} - s_k is read at the number of s_k <= floor(cutoff d).
    """
    if not cutoffs:
        return []
    d, s = spectrum._scaled_prefix(max(spectrum.count_le(max(cutoffs)) - 1, 0))
    diffs = [y - x for x, y in zip(s, s[1:])]
    # first[n]: the achieving k when exactly c_0..c_{n-1} fit under a cutoff
    first = [None, None, *accumulate(range(len(diffs)), lambda i, k: k if diffs[k] < diffs[i] else i)]
    ks = [first[bisect_right(s, _floor_times(cutoff, d))] for cutoff in cutoffs]
    return [GapReport(c, None if k is None else Fraction(diffs[k], d), k) for c, k in zip(cutoffs, ks)]


class Approximant(_Frozen):
    """One-sided best rational approximation n/m or m/n under a denominator cap."""

    __slots__ = _fields = ("side", "m", "n")

    def __init__(self, side: str, m: int, n: int) -> None:  # side is "below" or "above"
        if side not in ("below", "above"):
            raise ValidationError("side must be 'below' or 'above'")
        if side == "below" and (m < 1 or n < 0):
            raise ValidationError("below approximant needs m >= 1, n >= 0")
        if side == "above" and (n < 1 or m < 0):
            raise ValidationError("above approximant needs n >= 1, m >= 0")
        self._set("side", side)
        self._set("m", m)
        self._set("n", n)


def _approximants(p: int, q: int, n1: int, n2: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """((n-, m-), (n+, m+)): the largest fraction n-/m- <= p/q with m- <= n1
    and the least n+/m+ >= p/q with n+ <= n2, both reduced, for p/q in lowest
    terms and caps n1 = floor(l/a), n2 = floor(l/b) with a/b = p/q.

    One mediant walk between the fences 0/1 and 1/0 finds both: the upper
    one is the walk toward q/p with its fences swapped. The walk keeps the
    remainders el = p ld - q ln >= 0 and er = q rn - p rd > 0: the mediant is
    <= p/q iff el >= er, and t steps take t er from el or t el from er,
    Euclid's algorithm in plain integers. The first batch that would pass
    its fence's cap stops there and ends the walk. Every later mediant n/m
    then has a m > l or b n > l; as b n > a m above p/q and a m >= b n below
    it, none fits under the other cap either, so the other fence is final.
    A mediant equals p/q only at m = q > n1, past the walk's end.
    """
    if q <= n1:  # a q = b p <= l: both caps admit p/q itself
        return (p, q), (p, q)
    ln, ld, rn, rd, el, er = 0, 1, 1, 0, p, q
    while True:
        if el >= er:  # batch steps toward p/q from below
            t = el // er
            if ld + t * rd > n1:
                t = (n1 - ld) // rd
                return (ln + t * rn, ld + t * rd), (rn, rd)
            ln, ld, el = ln + t * rn, ld + t * rd, el - t * er
        else:  # batch steps tightening the upper fence
            t = (er - 1) // el
            if rn + t * ln > n2:
                t = (n2 - rn) // ln
                return (ln, ld), (rn + t * ln, rd + t * ld)
            rn, rd, er = rn + t * ln, rd + t * ld, er - t * el


def _close_scaled(an: int, bn: int, ln: int) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(g, (m-, n-), (m+, n+)) for E(an, bn) at ln >= max(an, bn), in integers:
    n-/m- and m+/n+ are the best approximations <= an/bn and <= bn/an under
    an m- <= ln and bn n+ <= ln, and g = min(an m- - bn n-, bn n+ - an m+).
    Both come from one walk toward an/bn; m+/n+ <= bn/an is n+/m+ >= an/bn.
    The walk returns reduced fractions, so a zero numerator comes as 0/1."""
    e = gcd(an, bn)
    (n_lo, m_lo), (n_hi, m_hi) = _approximants(an // e, bn // e, ln // an, ln // bn)
    d_below, d_above = an * m_lo - bn * n_lo, bn * n_hi - an * m_hi
    if d_below < 0 or d_above < 0:
        raise AssertionError("approximant on the wrong side of the ratio")
    return min(d_below, d_above), (m_lo, n_lo), (m_hi, n_hi)


def _check_cutoff(a: Fraction, b: Fraction, cutoff) -> Fraction:
    cutoff = _exact_rat(cutoff, "cutoff")
    if cutoff < max(a, b):
        raise PreconditionError(f"cutoff {_shown(cutoff, str)} is below max(a, b) = "
                                f"{_shown(max(a, b), str)}; no approximant exists")
    return cutoff


def ellipsoid_close_detail(a: Fraction, b: Fraction,
                           cutoff: Fraction) -> tuple[Fraction, Approximant, Approximant]:
    """The closing bound with the below and above approximants it comes from."""
    a, b = _positive_axes(a, b)
    an, bn, ln, d = _scaled(a, b, _check_cutoff(a, b, cutoff))
    g, (m_lo, n_lo), (m_hi, n_hi) = _close_scaled(an, bn, ln)
    return Fraction(g, d), Approximant("below", m_lo, n_lo), Approximant("above", m_hi, n_hi)


def ellipsoid_close(a: Fraction, b: Fraction, cutoff: Fraction) -> Fraction:
    """Closing bound min(a m- - b n-, b n+ - a m+) from the two approximants."""
    return ellipsoid_close_detail(a, b, cutoff)[0]


def best_approx_below(a: Fraction, b: Fraction, cutoff: Fraction) -> Approximant:
    """Coprime (m, n), m >= 1, maximizing n/m subject to n/m <= a/b, a m <= cutoff."""
    return ellipsoid_close_detail(a, b, cutoff)[1]


def best_approx_above(a: Fraction, b: Fraction, cutoff: Fraction) -> Approximant:
    """Coprime (m, n), n >= 1, maximizing m/n subject to m/n <= b/a, b n <= cutoff."""
    return ellipsoid_close_detail(a, b, cutoff)[2]


def close_gap_consistency(a: Fraction, b: Fraction,
                          cutoffs: Sequence[Fraction]) -> list[dict]:
    """Check close <= gap at each cutoff, the closing bound against the gap scan.

    Returns rows (cutoff, close, gap, margin). An infinite gap satisfies
    the inequality vacuously and is reported with gap None. A close past the
    gap is a broken route, not bad input: AssertionError names it.
    """
    a, b = _positive_axes(a, b)
    cutoffs = [_check_cutoff(a, b, cutoff) for cutoff in cutoffs]
    rows = []
    for report in _gap_scan(EllipsoidSpectrum(Ellipsoid(a, b)), cutoffs):
        cutoff, close = report.cutoff, ellipsoid_close(a, b, report.cutoff)
        if report.gap is not None and close > report.gap:
            raise AssertionError(
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
