"""Convex integral lattice paths and enclosed lattice-point counts.

A path starts on the nonnegative y-axis, ends on the nonnegative x-axis,
and consists of integer-vector edges whose slopes strictly decrease from
left to right (horizontal first, vertical last), compared by integer
cross-multiplication. With the two axis segments it bounds a convex
region whose lattice points are what the capacity minimizations count.

Three counting routes are provided: a direct column scan, Pick's theorem,
and the running count of the path scan, which adds integer unit costs over
one denominator (a toric profile's vertex denominator). Tests hold the
three to agreement on random paths and on every scanned path. The scan's
only bound is its length budget, as every unit cost is positive; a sweep
lets it fall to the shortest path met that encloses enough points.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate
from math import gcd
from typing import Callable, Iterator, Sequence

from .errors import ValidationError
from .rationals import _Frozen, _exact_rat, _plain_ints, _scaled, _shown

# ((dx, dy), multiplicity): dx >= 0, dy <= 0, gcd(dx, -dy) == 1, multiplicity >= 1
Edge = tuple[tuple[int, int], int]


def _slope_cmp(u: Sequence, v: Sequence) -> int:
    """Negative when direction u = (p, q, ...), the edge (p, -q), comes before v
    on a convex chain: slopes strictly decrease, 0 > -1/2 > ... > -inf, so q / p
    increases, vertical last. Cross-multiplication, with no division: exact on
    the ints of a path and the Fractions of a profile alike."""
    return u[1] * v[0] - v[1] * u[0]


_slope_key = cmp_to_key(_slope_cmp)  # the one sort key of that order


class LatticePath(_Frozen):
    """Canonical convex path: primitive directions, merged, slope-sorted."""

    __slots__ = _fields = ("edges",)

    def __init__(self, edges: tuple[Edge, ...]) -> None:
        # the full checks of a public, copied or unpickled path; a scan checks its
        # table's chain here once and builds its paths with _canonical. The slope
        # test is _slope_cmp((p, q), (dx, -dy)) >= 0 on the previous direction,
        # from (1, -1), a direction before every other (q / p = -1)
        p, q = 1, -1
        for (dx, dy), mult in edges:
            if not (type(dx) is type(dy) is type(mult) is int):
                _plain_ints((dx, dy, mult), "edge data")
            if dx < 0 or dy > 0 or gcd(dx, dy) != 1:  # gcd(0, 0) == 0 takes the zero vector
                if dx < 0 or dy > 0 or not (dx or dy):
                    raise ValidationError(
                        f"direction {_shown((dx, dy), str)} must point weakly right and down")
                raise ValidationError(f"direction {_shown((dx, dy), str)} is not primitive")
            if mult < 1:
                raise ValidationError("multiplicities must be positive")
            if q * dx + dy * p >= 0:
                raise ValidationError("edge slopes must strictly decrease")
            p, q = dx, -dy
        self._set("edges", edges)

    @classmethod
    def _canonical(cls, edges: tuple[Edge, ...]) -> "LatticePath":
        """A path from edges canonical by construction, with no checks: a scan's
        snapshot, a subsequence of its checked table, or a one-edge probe of a
        primitive direction. Copy and pickle still rebuild through __init__."""
        path = object.__new__(cls)
        path._set("edges", edges)
        return path

    @property
    def x_extent(self) -> int:
        """End abscissa a: the path runs from (0, y_extent) to (x_extent, 0)."""
        return sum(m * dx for (dx, _dy), m in self.edges)

    @property
    def y_extent(self) -> int:
        return sum(-m * dy for (_dx, dy), m in self.edges)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _d, m in self.edges)

    def vertices(self) -> list[tuple[int, int]]:
        """Corner chain from (0, y_extent) to (x_extent, 0)."""
        x, y = 0, self.y_extent
        out = [(x, y)]
        for (dx, dy), m in self.edges:
            x += m * dx
            y += m * dy
            out.append((x, y))
        return out

    def to_jsonable(self) -> dict:
        return {"edges": [{"dir": [dx, dy], "mult": m} for (dx, dy), m in self.edges]}


def _chain_twice_area(vertices: Sequence[tuple]) -> int | Fraction:
    """Twice the area between a vertex chain from the y-axis to the x-axis and
    the axes, by the shoelace formula; the closing edges via the origin add 0."""
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])))


def lattice_count_direct(path: LatticePath) -> int:
    """Lattice points in the enclosed region, boundary included, by column scan.

    The empty path encloses just the origin, so its count is 1.
    """
    total = path.y_extent + 1
    verts = path.vertices()
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        if x1 == x0:
            continue
        for x in range(x0 + 1, x1 + 1):
            # exact floor of the boundary height over column x
            h = y0 + ((x - x0) * (y1 - y0)) // (x1 - x0)
            total += h + 1
    return total


def lattice_count_pick(path: LatticePath) -> int:
    """Same count via Pick's theorem: area + boundary/2 + 1.

    The identity holds for degenerate paths too: an axis segment of n
    units bounds area 0 with boundary 2n, and the empty path encloses 1.
    """
    twice = _chain_twice_area(path.vertices())
    boundary = path.x_extent + path.y_extent + path.total_multiplicity
    if (twice + boundary) % 2 != 0:
        raise AssertionError(f"parity violated for {path!r}")
    return (twice + boundary) // 2 + 1


def _scan_paths(
    dirs: Sequence[tuple[int, int, int]],
    bound: int,
    stack: list[Edge],
    need: int | None = None,
) -> Iterator[tuple[int, int]]:
    """Depth-first walk over all paths of scaled length <= bound.

    dirs: (p, q, unit_cost) sorted by decreasing slope of (p, -q); every
    unit_cost is positive and <= bound, so the budget alone ends the walk.
    Given `need`, once a path enclosing at least `need` points is yielded,
    the budget falls to its length (ties stay in). The order does not
    depend on the budget, so every path of the fixed walk up to the final
    budget still comes, in the same order.
    Yields (length, count) once per path, parents before children, where
    count is the number of enclosed lattice points: a unit of (p, -q)
    leaving abscissa a raises the whole chain before it by q and adds its
    own columns, q*a + (p+1)(q+1)/2 points in all (an integer, as gcd(p, q)
    is 1). `stack` holds the live path's edges ((p, -q), mult), so
    tuple(stack) is its LatticePath's edges; an entry is replaced, never
    changed, so a tuple snapshot stays valid after the walk moves on, and
    the consumer must take one to keep a path. Both toric scans in spectra
    keep such snapshots and build a LatticePath only for what they return.

    Every path is a subsequence of the table, in table order, with
    multiplicities >= 1, so it is canonical exactly when the table's one-unit
    chain is: that chain goes through the checked LatticePath constructor
    once, before the first yield (a ValidationError for a non-primitive,
    repeated or out-of-order direction), and the consumers build the paths
    they keep with LatticePath._canonical, unchecked.

    One flat loop, no recursion: `frames` holds, for each stack entry, its
    direction's index and the (length, abscissa, count) before it. A path
    first extends by the next direction that fits its budget, then its last
    edge gains a unit, then that edge leaves and its parent tries the next
    direction: slopes decrease, then multiplicities go up. `least[j]` is the
    cheapest cost among directions j.. (bound + 1 past the last), so a dead
    end, where none of them fits the room left, is found in one comparison
    rather than a walk over the rest of the table.
    """
    LatticePath(tuple([((p, -q), 1) for p, q, _w in dirs]))
    table = [(w, q, (p + 1) * (q + 1) // 2, p, (p, -q)) for p, q, w in dirs]
    costs = [w for _p, _q, w in dirs]
    n = len(table)
    least = [*accumulate(reversed(costs), min, initial=bound + 1)][::-1]
    frames: list[tuple[int, int, int, int]] = []
    j, ln, a, count = 0, 0, 0, 1
    yield ln, count
    if need is not None and count >= need:
        bound = ln
    while True:
        room = bound - ln
        if least[j] > room:  # a dead end: no direction from j on fits
            j = n
        else:  # some direction fits, so the skip stops before n
            while costs[j] > room:
                j += 1
        if j < n:  # a new last edge: one unit of direction j
            frames.append((j, ln, a, count))
            w, q, half, p, d = table[j]
            stack.append((d, 1))
        elif frames:  # no direction left: the last edge gains a unit, or leaves
            j = frames[-1][0]
            w, q, half, p, d = table[j]
            if w > room:
                j, ln, a, count = frames.pop()
                stack.pop()
                j += 1
                continue
            stack[-1] = (d, stack[-1][1] + 1)
        else:
            return
        ln += w
        count += q * a + half
        a += p
        yield ln, count
        if need is not None and count >= need:
            bound = ln
        j += 1


def direction_table(
    max_length: Fraction,
    rho: Fraction,
    omega_length: Callable[[LatticePath], Fraction],
    inclusive: bool,
) -> tuple[list[tuple[int, int, int]], int, int]:
    """Admissible primitive directions with scaled unit costs, in slope order.

    Returns (dirs, scaled bound, denominator): the bound and every unit cost
    are numerators over that common denominator, so a scanned length ln is
    the exact value Fraction(ln, denominator). Direction (p, -q) is kept
    when a single unit of it fits the length budget; rho must satisfy
    omega_length >= rho * (x_extent + y_extent), so only p + q <=
    max_length / rho can fit: one omega_length call per such primitive
    (p, q), O((max_length / rho)**2) calls, each cost compared as integers.
    """
    rho = _exact_rat(rho, "rho")
    if rho <= 0:
        raise ValidationError("rho must be positive")
    reach, (mn, md) = int(max_length / rho), max_length.as_integer_ratio()
    raw: list[tuple[int, int, Fraction]] = []
    for p in range(reach + 1):
        for q in range(reach + 1 - p):
            if gcd(p, q) != 1:  # gcd(0, 0) == 0 drops the zero vector too
                continue
            w = omega_length(LatticePath._canonical((((p, -q), 1),)))
            w = w if type(w) is Fraction else _exact_rat(w, "unit edge length")
            if w.numerator <= 0:
                raise ValidationError(f"unit edge ({p}, {-q}) has nonpositive length {_shown(w, str)}")
            lhs, rhs = w.numerator * md, mn * w.denominator  # w, max_length in lowest terms
            if lhs < rhs or (inclusive and lhs == rhs):
                raw.append((p, q, w))
    raw.sort(key=_slope_key)
    bound, *costs, den = _scaled(max_length, *(w for _p, _q, w in raw))
    return [(p, q, cost) for (p, q, _w), cost in zip(raw, costs)], bound, den


def enumerate_paths(
    max_length: Fraction,
    rho: Fraction,
    omega_length: Callable[[LatticePath], Fraction],
    *,
    inclusive: bool = False,
) -> Iterator[LatticePath]:
    """Stream every path whose omega_length is below max_length.

    `omega_length` must be additive over the edge multiset (true for any
    dual-norm length). `rho` is a positive lower bound with omega_length >=
    rho * (x_extent + y_extent): each primitive (p, q) with p + q <=
    max_length / rho is measured once on its one-edge path, O((max_length /
    rho)**2) calls, and the unit costs, the budget and the partial sums
    that prune the walk (its only bound) are compared as integers.

    Order is deterministic: a path precedes its extensions, extensions are
    tried by decreasing slope, then by ascending multiplicity. The empty
    path comes first. With inclusive=True the budget test is <= instead
    of <; max_length <= 0 yields nothing in either mode.
    """
    max_length = _exact_rat(max_length, "max_length")
    if max_length <= 0:
        return
    dirs, bound, _den = direction_table(max_length, rho, omega_length, inclusive)
    if not inclusive:
        bound -= 1  # integer budgets make strict < equivalent to <= bound-1
    stack: list[Edge] = []
    for _state in _scan_paths(dirs, bound, stack):
        yield LatticePath._canonical(tuple(stack))
