"""Spectral invariants of toric-type domains, with witnesses.

Every capacity value comes with a witness that reproduces it: a monomial
exponent pair for ellipsoids, the defining integer for balls, a lattice path
for polygonal profiles, and a partition plus sub-witnesses for disjoint unions.
A provider lists a prefix of values in integers (one denominator and the
numerators) that the base class checks and stores; witnesses are built from the
store when one is first read, and values become Fractions only at the edge.
One integer core on the scaled axes A, B answers every ellipsoid question:
one floor sum counts entries, its inversion (a bisection between the count's
area bounds, O(log(A + B)) floor sums) gives single values and the level that
bounds a sweep, and a sweep sorts the plain int actions v = A m + B n under that
level; a run of ties at v lists m = m0, m0 + B / gcd(A, B), ..., so a witness
follows from its value and its rank in the run. A ball is E(a, a) on that core,
its witness d = v / A, with the closed form ball_capacity as its second route.
Profiles have two routes as well (one path scan per sweep in ToricSpectrum,
its budget falling to c_{k_max}, and the fixed-budget per-k scan
toric_capacity_detail); tests hold each pair to exact agreement.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm
from operator import le
from typing import Optional, Sequence

from .domains import (
    Ball,
    DisjointUnion,
    Domain,
    Ellipsoid,
    ToricProfile,
    _edge_cost,
    contact_volume,
)
from .errors import ValidationError
from .paths import Edge, LatticePath, _scan_paths, _slope_key
from .rationals import (_Frozen, _chain_sum, _exact_int, _exact_rat, _floor_chain, _floor_times,
                        _fractions, _positive_axes, _scaled, _shown)


def nk_sequence(a: Fraction, b: Fraction, k_max: int) -> list[tuple[Fraction, tuple[int, int]]]:
    """First k_max + 1 values of the sorted multiset {a m + b n : m, n >= 0}.

    Returned with witnesses (m, n); ties are emitted in lexicographic
    (m, n) order. Entry k is the k-th spectral invariant of E(a, b).
    """
    a, b = _positive_axes(a, b)
    k_max = _exact_int(k_max, "k_max")
    return [(val, (wit["m"], wit["n"]))
            for val, wit in EllipsoidSpectrum(Ellipsoid(a, b)).entries(k_max)]


def count_action_pairs(a: Fraction, b: Fraction, limit: Fraction) -> int:
    """Number of pairs (m, n) of nonnegative integers with a m + b n <= limit.

    Counted over integers scaled to the common denominator by one floor sum,
    in O(log) steps.
    """
    a, b = _positive_axes(a, b)
    an, bn, ln, _d = _scaled(a, b, _exact_rat(limit, "limit"))
    return _count_scaled(an, bn, ln)


def nk_via_lattice(a: Fraction, b: Fraction, k: int) -> Fraction:
    """Entry k of the ellipsoid sequence by counting inversion.

    The k-th value is the least level L with at least k + 1 pairs of
    action <= L; the sorted listing takes L only as the bound of its
    enumeration, so its values do not rest on this count. The pair count
    only steps up at action values, so bisecting over integer levels (in
    units of the axes' common denominator) lands on one; between the area
    bounds of the count that takes O(log(A + B)) floor sums on scaled axes
    A, B. k = 0 returns 0 by that same convention (the empty pair has action 0).
    """
    a, b = _positive_axes(a, b)
    k = _exact_int(k)
    an, bn, d = _scaled(a, b)
    return Fraction(_nk_scaled(an, bn, k), d)


def _nk_scaled(an: int, bn: int, k: int) -> int:
    """The least integer level L with at least k + 1 pairs of action <= L, in O(log(an + bn))
    pair counts on one Euclid chain: the pair count lies between the area bounds
    L^2 / 2 an bn and (L + an + bn)^2 / 2 an bn, so r - an - bn <= L <= r for
    r = ceil(sqrt(2 an bn (k + 1)))."""
    r = isqrt(2 * an * bn * (k + 1) - 1) + 1
    lo, hi = max(0, r - an - bn), min(r, k * min(an, bn))  # the multiples 0..k of the shorter axis fit
    chain = _floor_chain(bn, an)
    while lo < hi:
        mid = (lo + hi) // 2
        if _chain_count(chain, an, mid) >= k + 1:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _count_scaled(an: int, bn: int, ln: int) -> int:
    """Pairs (m, n) >= 0 with an m + bn n <= ln, for an, bn >= 1: one floor sum."""
    return _chain_count(_floor_chain(bn, an), an, ln)


def _chain_count(chain: list[tuple[int, int, int]], an: int, ln: int) -> int:
    """_count_scaled(an, bn, ln) on the Euclid chain of (bn, an), which callers that
    count many levels on one axis pair build once."""
    # row m = top - i holds (an i + ln - an top) // bn + 1
    if ln < 0:
        return 0
    top = ln // an
    return top + 1 + _chain_sum(chain, top + 1, ln - an * top)


def ball_capacity(a: Fraction, k: int) -> tuple[Fraction, dict]:
    """Closed form for the ball: value d a, where d is the unique
    nonnegative integer with d^2 + d <= 2k <= d^2 + 3d."""
    a = _exact_rat(a, "ball parameter")
    if a.numerator <= 0:
        raise ValidationError("ball parameter must be positive")
    k = _exact_int(k)
    d = (isqrt(8 * k + 1) - 1) // 2
    if not (d * d + d <= 2 * k <= d * d + 3 * d):
        raise AssertionError(f"defining inequalities failed for k={k}, d={d}")
    return d * a, {"d": d}


class ToricCapacityResult(_Frozen):
    """Outcome of one profile minimization, both minima recorded.

    value, min_over_exact and min_over_at_least always hold one value:
    toric_capacity_detail raises AssertionError when the two minima differ.
    """

    __slots__ = _fields = ("value", "witness", "min_over_at_least", "min_over_exact",
                           "witness_at_least", "enumeration_bound", "paths_scanned")

    def __init__(self, value: Fraction, witness: LatticePath, min_over_at_least: Fraction,
                 min_over_exact: Fraction, witness_at_least: LatticePath,
                 enumeration_bound: Fraction, paths_scanned: int) -> None:
        for name, field in zip(self._fields, (value, witness, min_over_at_least, min_over_exact,
                                              witness_at_least, enumeration_bound, paths_scanned)):
            self._set(name, field)


def _greedy_bound(profile: ToricProfile, k: int) -> int:
    """Length of a greedy feasible path for k, which bounds c_k above, as an
    integer over the profile's vertex denominator.

    The hull of {(x, y) >= 0 : b x + a y <= N_k(a, b)}, a and b the
    intercepts, encloses at least k + 1 points; its boundary is the path."""
    verts, _den = profile.scaled_vertices
    an, bn = verts[-1][0], verts[0][1]
    ln = _nk_scaled(an, bn, k)
    xmax = ln // bn
    pts = [(x, (ln - bn * x) // an) for x in range(xmax + 1)]
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) >= (y1 - y0) * (p[0] - x0):
                hull.pop()
            else:
                break
        hull.append(p)
    if hull[-1][1] > 0:
        hull.append((hull[-1][0], 0))
    return sum(_edge_cost(verts, x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(hull, hull[1:]))


def _scan_table(profile: ToricProfile, bound: int) -> list[tuple[int, int, int]]:
    """Directions (p, q, unit cost) in slope order for an inclusive path scan
    at the scaled budget `bound`. Costs are integers over the vertex
    denominator; (p, -q) costs at least max(q A, p B) for the scaled
    intercepts A, B, which bounds q and p, and each p stops at its first
    primitive q whose cost is past the bound."""
    verts, _den = profile.scaled_vertices
    dirs = []
    for p in range(bound // verts[0][1] + 1):
        for q in range(bound // verts[-1][0] + 1):
            if gcd(p, q) == 1:  # gcd(0, 0) == 0 drops the zero vector too
                if (w := _edge_cost(verts, p, -q)) > bound:
                    break  # the cost does not fall as q grows, so no later q fits
                dirs.append((p, q, w))
    dirs.sort(key=_slope_key)
    return dirs


def toric_capacity_detail(profile: ToricProfile, k: int) -> ToricCapacityResult:
    """Minimal path length with at least k + 1 enclosed lattice points.

    Runs one inclusive branch-and-bound enumeration below a greedy
    feasible bound, tracking the minimum over paths enclosing at least
    k + 1 points and separately over paths enclosing exactly k + 1. The
    two minima must coincide (corners of any minimizer can be rounded
    without changing the length budget); their equality is asserted and
    both are reported. Each minimum keeps (length, tuple(stack)), the
    scan's snapshot, and its LatticePath is built once, at return.
    """
    if not isinstance(profile, ToricProfile):
        raise ValidationError("toric_capacity_detail needs a ToricProfile")
    k = _exact_int(k)
    bound = _greedy_bound(profile, k)
    need = k + 1
    stack: list[Edge] = []
    best_ge: Optional[tuple[int, tuple[Edge, ...]]] = None  # (length, stack snapshot)
    best_eq: Optional[tuple[int, tuple[Edge, ...]]] = None
    scanned = 0
    for ln, count in _scan_paths(_scan_table(profile, bound), bound, stack):
        scanned += 1
        if count >= need and (best_ge is None or ln < best_ge[0]):
            best_ge = (ln, tuple(stack))
        if count == need and (best_eq is None or ln < best_eq[0]):
            best_eq = (ln, tuple(stack))
    if best_ge is None or best_eq is None:
        raise AssertionError("enumeration missed the greedy feasible path")
    den = profile.scaled_vertices[1]
    val_ge = Fraction(best_ge[0], den)
    val_eq = Fraction(best_eq[0], den)
    if val_ge != val_eq:
        raise AssertionError(
            f"corner rounding failed: min over >= is {val_ge}, min over == is {val_eq}")
    return ToricCapacityResult(val_eq, LatticePath._canonical(best_eq[1]), val_ge, val_eq,
                               LatticePath._canonical(best_ge[1]), Fraction(bound, den), scanned)


class Spectrum:
    """Nondecreasing sequence c_0 = 0 <= c_1 <= ... with witnesses, lazily extended.

    Each kind (ellipsoid, ball, toric, union) sets kind and defines domain() and two hooks:
    _extend(k_max) gives the values c_0..c_{k_max} as (den, nums), c_k = nums[k] / den, and
    _witnesses() the witnesses of the whole store. _scaled_prefix alone grows the store, once
    the prefix checks out (k_max + 1 entries, nums[0] = 0, never decreasing); entry() and
    entries() build the witnesses on first need. Value readers read (den, nums) alone.
    """

    _prefix: tuple[int, Sequence[int]] = (1, ())  # checked c_0..c_K
    _witness_store: Sequence[object] = ()  # witnesses of c_0..c_K; () until read, or once it grows

    def _scaled_prefix(self, k_max: int) -> tuple[int, Sequence[int]]:
        """(den, nums), c_k = nums[k] / den for k <= k_max, from the store, grown if short."""
        den, nums = self._prefix
        if _exact_int(k_max) >= len(nums):
            den, nums = self._extend(k_max)
            if len(nums) != k_max + 1 or nums[0] != 0:
                raise AssertionError(f"a prefix up to k={k_max} must hold k + 1 entries from c_0 = 0")
            if not all(map(le, nums, islice(nums, 1, None))):
                bad = next(j for j in range(1, k_max + 1) if nums[j] < nums[j - 1])
                raise AssertionError(f"spectrum not nondecreasing at k={bad}")
            self._prefix, self._witness_store = (den, nums), ()
        return den, nums[: k_max + 1]

    def _witnessed(self) -> Sequence[object]:
        if not self._witness_store:
            witnesses, count = self._witnesses(), len(self._prefix[1])
            if len(witnesses) != count:
                raise AssertionError(f"one witness per entry: {len(witnesses)} for {count} entries")
            self._witness_store = witnesses
        return self._witness_store

    def entry(self, k: int) -> tuple[Fraction, object]:
        den, nums = self._scaled_prefix(k)
        return Fraction(nums[k], den), self._witnessed()[k]

    def value(self, k: int) -> Fraction:
        den, nums = self._scaled_prefix(k)
        return Fraction(nums[k], den)

    def entries(self, k_max: int) -> list[tuple[Fraction, object]]:
        den, nums = self._scaled_prefix(k_max)
        return list(zip(_fractions(nums, den), self._witnessed()))

    def values(self, k_max: int) -> list[Fraction]:
        den, nums = self._scaled_prefix(k_max)
        return list(_fractions(nums, den))

    def count_le(self, cutoff: Fraction) -> int:
        """Number of entries c_k <= cutoff, c_0 included.

        By default the store grows in batches of about k / 8 entries until a
        numerator exceeds floor(cutoff * den) (O(log k) provider passes).
        """
        cutoff = _exact_rat(cutoff, "cutoff")
        j = 1
        while (prefix := self._scaled_prefix(j))[1][j] <= _floor_times(cutoff, prefix[0]):
            j += 1 + j // 8
        den, nums = prefix
        return bisect_right(nums, _floor_times(cutoff, den))


class EllipsoidSpectrum(Spectrum):
    """Sums of the two generators' multiples, listed under the inverted level."""

    kind = "ellipsoid"

    def __init__(self, ellipsoid: Ellipsoid) -> None:
        if not isinstance(ellipsoid, Ellipsoid):
            raise ValidationError("EllipsoidSpectrum needs an Ellipsoid")
        self._ellipsoid = ellipsoid
        self._an, self._bn, self._d = _scaled(ellipsoid.a, ellipsoid.b)

    def value(self, k: int) -> Fraction:
        """c_k by counting inversion, in O(log) floor sums; the store is neither read nor grown."""
        return Fraction(_nk_scaled(self._an, self._bn, _exact_int(k)), self._d)

    def count_le(self, cutoff: Fraction) -> int:
        return _count_scaled(self._an, self._bn, _floor_times(_exact_rat(cutoff, "cutoff"), self._d))

    def _extend(self, k_max: int) -> tuple[int, list[int]]:
        # The actions v = an m + bn n <= the level of c_{k_max}, one range per m. The level
        # only bounds the listing: too few pairs under it (<= k_max) are refused.
        an, bn, d = self._an, self._bn, self._d
        level = _nk_scaled(an, bn, k_max)
        nums: list[int] = []
        for m in range(level // an + 1):
            nums.extend(range(an * m, level + 1, bn))
        if len(nums) <= k_max:
            raise AssertionError(f"level {Fraction(level, d)} holds only {len(nums)} pairs, k={k_max}")
        nums.sort()
        del nums[k_max + 1:]
        return d, nums

    def _witnesses(self) -> list[object]:
        # A run of ties at action v lists m = m0, m0 + q, ... (g = gcd(an, bn), q = bn / g),
        # m0 = (v / g)(an / g)^-1 mod q the least m with an m = v mod bn, and n = (v - an m) / bn.
        an, bn = self._an, self._bn
        g = gcd(an, bn)
        q = bn // g
        inverse = pow(an // g, -1, q)
        witnesses, last = [], None
        for v in self._prefix[1]:
            m = m + q if v == last else v // g * inverse % q
            last = v
            witnesses.append({"m": m, "n": (v - an * m) // bn})
        return witnesses

    def domain(self) -> Domain:
        return self._ellipsoid


class BallSpectrum(EllipsoidSpectrum):
    """The ellipsoid listing on E(a, a); an entry's witness is its d = m + n."""

    kind = "ball"

    def __init__(self, ball: Ball) -> None:
        if not isinstance(ball, Ball):
            raise ValidationError("BallSpectrum needs a Ball")
        self._ball = ball
        super().__init__(Ellipsoid(ball.a, ball.a))

    def _witnesses(self) -> list[object]:
        an = self._an  # on E(a, a) the action is an d
        return [{"d": v // an} for v in self._prefix[1]]

    def domain(self) -> Domain:
        return self._ball


class ToricSpectrum(Spectrum):
    kind = "toric"

    def __init__(self, profile: ToricProfile) -> None:
        if not isinstance(profile, ToricProfile):
            raise ValidationError("ToricSpectrum needs a ToricProfile")
        self._profile = profile

    def _extend(self, k_max: int) -> tuple[int, list[int]]:
        """Every c_k up to k_max from one inclusive scan whose budget falls to c_{k_max}.

        The budget starts at the shorter of the greedy path and the polydisk
        bound, the best rectangle path of width m and height k_max // (m + 1),
        and falls to each shorter path with k_max + 1 points or more, so it
        ends at c_{k_max} >= c_k. The scan meets paths in an order that does
        not depend on the budget, so the first minimal path per exact count
        is the witness the per-k route toric_capacity_detail returns. The
        minimum over "at least k + 1" is a suffix minimum over the counts; it
        must equal the minimum over "exactly k + 1" (corner rounding).
        """
        verts, den = self._profile.scaled_vertices
        bound = min(_greedy_bound(self._profile, k_max),
                    *(m * verts[0][1] + k_max // (m + 1) * verts[-1][0] for m in range(k_max + 1)))
        over = k_max + 1  # one bucket for every path enclosing more than k_max + 1 points
        lens = [bound + 1] * (over + 1)  # least scaled length per bucket, or past the bound
        paths: list[Optional[tuple[Edge, ...]]] = [None] * (over + 1)  # stack snapshots
        stack: list[Edge] = []
        for ln, count in _scan_paths(_scan_table(self._profile, bound), bound, stack, over):
            i = min(count, over + 1) - 1
            if ln < lens[i]:
                lens[i], paths[i] = ln, tuple(stack)
        if min(lens[k_max:]) > bound:
            raise AssertionError("enumeration missed the feasible start path")
        at_least = lens[over]
        for k in range(k_max, -1, -1):
            at_least = min(at_least, lens[k])
            if lens[k] != at_least:
                raise AssertionError(
                    f"corner rounding failed at k={k}: min over >= is {Fraction(at_least, den)}, "
                    f"min over == is {Fraction(lens[k], den)}")
        self._paths = paths[:over]  # the stack snapshots that _witnesses makes paths
        return den, lens[:over]

    def _witnesses(self) -> list[LatticePath]:
        return [LatticePath._canonical(path) for path in self._paths]

    def count_le(self, cutoff: Fraction) -> int:
        """The most lattice points a path of length <= cutoff encloses.

        c_k <= cutoff exactly when some such path encloses at least k + 1
        points, so one inclusive scan at the cutoff counts the entries.
        """
        cutoff = _exact_rat(cutoff, "cutoff")
        if cutoff < 0:
            return 0
        bound = _floor_times(cutoff, self._profile.scaled_vertices[1])
        return max(count for _ln, count in _scan_paths(_scan_table(self._profile, bound), bound, []))

    def domain(self) -> Domain:
        return self._profile


class UnionSpectrum(Spectrum):
    """c_k(X_1 + ... + X_m) = max over k_1 + ... + k_m = k of the sum of the
    c_{k_i}(X_i) (Hutchings, arXiv:2201.03143): one max-plus convolution on the parts'
    integer prefixes, rescaled to the lcm of their denominators. Each budget tries only
    the plateau starts t of the running union dp (t = 0 or dp[t] > dp[t - 1]): where
    dp[t] == dp[t - 1], t - 1 does as well, as the next part never decreases. That is
    O(m K V) work, V <= K + 1 the running union's distinct values. The table carries
    each budget's partition; ties go to the smallest budget for the earlier parts."""

    kind = "union"

    def __init__(self, parts: Sequence[Spectrum]) -> None:
        if not parts:
            raise ValidationError("union needs at least one part spectrum")
        if others := [part for part in parts if not isinstance(part, Spectrum)]:
            raise ValidationError(f"a union part must be a Spectrum, got {_shown(others[0])}")
        self._parts = list(parts)

    def _extend(self, k_max: int) -> tuple[int, list[int]]:
        prefixes = [p._scaled_prefix(k_max) for p in self._parts]
        # dp[j]: the best total of the parts so far at budget j; splits[j]: its partition
        d = lcm(*(den for den, _nums in prefixes))
        dp, splits = [0], [[]]  # before any part, only budget 0 is spent
        for den, nums in prefixes:
            vals = [v * (d // den) for v in nums]
            starts = [(t, v) for t, v in enumerate(dp) if not t or v > dp[t - 1]]
            nxt, nxt_splits = [], []
            for j in range(k_max + 1):
                best = -1
                for t, v in starts:
                    if t > j:
                        break
                    if (total := v + vals[j - t]) > best:  # the smallest t on ties
                        best, arg = total, t
                nxt.append(best)
                nxt_splits.append(splits[arg] + [j - arg])
            dp, splits = nxt, nxt_splits
        self._splits = splits
        return d, dp

    def _witnesses(self) -> list[dict]:
        parts = [p._witnessed() for p in self._parts]  # the DP grew each part's store this far
        return [{"partition": ks, "parts": [w[ki] for w, ki in zip(parts, ks)]} for ks in self._splits]

    def domain(self) -> Domain:
        return DisjointUnion(tuple(p.domain() for p in self._parts))


def union_capacity(parts: Sequence[Spectrum], k: int) -> tuple[Fraction, dict]:
    """Largest sum of part values over partitions k_1 + ... + k_m = k."""
    return UnionSpectrum(parts).entry(k)


def spectrum_for(domain: Domain) -> Spectrum:
    if isinstance(domain, Ellipsoid):
        return EllipsoidSpectrum(domain)
    if isinstance(domain, Ball):
        return BallSpectrum(domain)
    if isinstance(domain, ToricProfile):
        return ToricSpectrum(domain)
    if isinstance(domain, DisjointUnion):
        return UnionSpectrum([spectrum_for(p) for p in domain.parts])
    raise ValidationError(f"not a domain: {_shown(domain)}")


def weyl_report(spectrum: Spectrum, ks: Sequence[int]) -> list[dict]:
    """Diagnostic rows (k, c_k, c_k^2 / k, deviation from twice the contact volume).

    The asymptotic slope of c_k^2 / k is twice the contact volume; rows
    report the exact finite-k deviation and claim nothing about limits.
    """
    volume = contact_volume(spectrum.domain())
    rows = []
    for k in ks:
        c = spectrum.value(_exact_int(k, least=1))
        ratio = c * c / k
        rows.append({"k": k, "value": c, "ratio": ratio,
                     "deviation": ratio - 2 * volume})
    return rows
