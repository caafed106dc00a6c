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
only bound is its length budget, as every unit cost is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ValidationError
from .rationals import _exact_rat, _plain_ints, _scaled, _shown

# ((dx, dy), multiplicity): dx >= 0, dy <= 0, gcd(dx, -dy) == 1, multiplicity >= 1
Edge = tuple[tuple[int, int], int]


def _slope_cmp(u: Sequence, v: Sequence) -> int:
    """Negative when direction u = (p, q, ...), the edge (p, -q), comes before v
    on a convex chain: slopes strictly decrease, 0 > -1/2 > ... > -inf, so q / p
    increases, vertical last. Cross-multiplication, with no division: exact on
    the ints of a path and the Fractions of a profile alike."""
    return u[1] * v[0] - v[1] * u[0]


_slope_key = cmp_to_key(_slope_cmp)  # the one sort key of that order


@dataclass(frozen=True)
class LatticePath:
    """Canonical convex path: primitive directions, merged, slope-sorted."""

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        last = (1, -1)  # a direction before every other: q / p = -1
        for (dx, dy), mult in self.edges:
            if not (type(dx) is type(dy) is type(mult) is int):  # inline: paths are built per scan
                _plain_ints((dx, dy, mult), "edge data")
            if dx < 0 or dy > 0 or (dx == 0 and dy == 0):
                raise ValidationError(
                    f"direction {_shown((dx, dy), str)} must point weakly right and down")
            if gcd(dx, -dy) != 1:
                raise ValidationError(f"direction {_shown((dx, dy), str)} is not primitive")
            if mult < 1:
                raise ValidationError("multiplicities must be positive")
            if _slope_cmp(last, cur := (dx, -dy)) >= 0:
                raise ValidationError("edge slopes must strictly decrease; use from_edges to canonicalize")
            last = cur

    @classmethod
    def empty(cls) -> "LatticePath":
        return cls(())

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[tuple[int, int], int]]) -> "LatticePath":
        """Build a canonical path from raw edges.

        Non-primitive directions are reduced into their multiplicity,
        duplicate directions merged, zero multiplicities dropped, and the
        result sorted by decreasing slope.
        """
        merged: dict[tuple[int, int], int] = {}
        for (dx, dy), mult in edges:
            _plain_ints((dx, dy, mult), "edge data")
            if mult == 0:
                continue
            if mult < 0:
                raise ValidationError("multiplicities must be nonnegative")
            if dx < 0 or dy > 0 or (dx == 0 and dy == 0):
                raise ValidationError(
                    f"direction {_shown((dx, dy), str)} must point weakly right and down")
            g = gcd(dx, -dy)
            d = (dx // g, dy // g)
            merged[d] = merged.get(d, 0) + g * mult
        ordered = sorted(merged.items(), key=lambda item: _slope_key((item[0][0], -item[0][1])))
        return cls(tuple(ordered))

    @classmethod
    def from_vertex_chain(cls, vertices: Sequence[tuple[int, int]]) -> "LatticePath":
        """Path whose vertices are the given chain from the y-axis endpoint."""
        return cls.from_edges(((x1 - x0, y1 - y0), 1)
                              for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]))

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

    @property
    def is_empty(self) -> bool:
        return not self.edges

    @property
    def degenerate(self) -> bool:
        """True when the enclosed region has zero area (axis segment or empty)."""
        return self.x_extent == 0 or self.y_extent == 0

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

    @classmethod
    def from_jsonable(cls, obj: object) -> "LatticePath":
        if not isinstance(obj, dict) or "edges" not in obj or not isinstance(obj["edges"], list):
            raise ValidationError("path JSON must be an object with an 'edges' list")
        edges = []
        for item in obj["edges"]:
            try:
                (dx, dy), m = (item["dir"][0], item["dir"][1]), item["mult"]
            except (TypeError, KeyError, IndexError) as exc:
                raise ValidationError(f"bad path edge: {_shown(item)}") from exc
            edges.append(((dx, dy), m))
        return cls.from_edges(edges)


def _chain_twice_area(vertices: Sequence[tuple]) -> int | Fraction:
    """Twice the area between a vertex chain from the y-axis to the x-axis and
    the axes, by the shoelace formula; the closing edges via the origin add 0."""
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])))


def _twice_area(path: LatticePath) -> int:
    return _chain_twice_area(path.vertices())


def enclosed_area(path: LatticePath) -> Fraction:
    """Area bounded by the path and the two axes."""
    return Fraction(_twice_area(path), 2)


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
    twice = _twice_area(path)
    boundary = path.x_extent + path.y_extent + path.total_multiplicity
    if (twice + boundary) % 2 != 0:
        raise AssertionError(f"parity violated for {path!r}")
    return (twice + boundary) // 2 + 1


def _scan_paths(
    dirs: Sequence[tuple[int, int, int]],
    bound: int,
    stack: list[list[int]],
) -> Iterator[tuple[int, int]]:
    """Depth-first walk over all paths of scaled length <= bound.

    dirs: (p, q, unit_cost) sorted by decreasing slope of (p, -q); every
    unit_cost is positive and <= bound, so the budget alone ends the walk;
    a frame holds the length, the end abscissa a and the count. Yields
    (length, count) once per path, parents before children, where count
    is the number of enclosed lattice points: a unit of (p, -q) leaving
    abscissa a raises the whole chain before it by q and adds its own
    columns, q*a + (p+1)(q+1)/2 points in all (an integer, as gcd(p, q)
    is 1). `stack` holds the live edge list as [p, q, mult] entries and
    must be copied by the consumer if kept.
    """
    n = len(dirs)

    def walk(j0: int, ln: int, a: int, count: int):
        yield ln, count
        for j in range(j0, n):
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

    yield from walk(0, 0, 0, 1)


def _stack_path(stack: Sequence[Sequence[int]]) -> LatticePath:
    """The path held by a _scan_paths stack of [p, q, mult] entries."""
    return LatticePath(tuple(((p, -q), m) for p, q, m in stack))


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
    max_length / rho can fit and no other direction is measured.
    """
    rho = _exact_rat(rho, "rho")
    if rho <= 0:
        raise ValidationError("rho must be positive")
    reach = int(max_length / rho)
    raw: list[tuple[int, int, Fraction]] = []
    for p in range(reach + 1):
        for q in range(reach + 1 - p):
            if gcd(p, q) != 1:  # gcd(0, 0) == 0 drops the zero vector too
                continue
            w = _exact_rat(omega_length(LatticePath((((p, -q), 1),))), "unit edge length")
            if w <= 0:
                raise ValidationError(f"unit edge ({p}, {-q}) has nonpositive length {_shown(w, str)}")
            if w < max_length or (inclusive and w == max_length):
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
    dual-norm length); per-direction unit costs are measured on one-edge
    paths, and partial sums against the budget, the walk's only bound,
    prune it. `rho` is a positive lower bound with omega_length >= rho *
    (x_extent + y_extent), which limits the candidate directions to
    p + q <= max_length / rho.

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
    stack: list[list[int]] = []
    for _state in _scan_paths(dirs, bound, stack):
        yield _stack_path(stack)
