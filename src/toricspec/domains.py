"""Domain descriptions: ellipsoids, balls, polygonal profiles, disjoint unions.

A toric domain is described by the boundary profile of its moment region:
a convex chain from (0, b) on the y-axis to (a, 0) on the x-axis. The
four-fold symmetrization of the region induces a dual norm on covectors,
||v|| = max(|v1| x + |v2| y) over the profile's vertices, all that later
modules need. Path unit costs and lengths are integers over the profile's
vertex denominator; the tests keep a Fraction form of ||v|| as their second route.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

from .errors import ValidationError, _open_text
from .paths import LatticePath, _chain_twice_area, _slope_cmp
from .rationals import _Frozen, _exact_rat, _scaled, _shown, parse_rat, to_string


class Ellipsoid(_Frozen):
    __slots__ = _fields = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction) -> None:
        if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
            raise ValidationError("ellipsoid axes must be Fractions")
        if a.numerator <= 0 or b.numerator <= 0:
            raise ValidationError("ellipsoid axes must be positive")
        self._set("a", a)
        self._set("b", b)

    def to_jsonable(self) -> dict:
        return {"type": "ellipsoid", "a": to_string(self.a), "b": to_string(self.b)}


class Ball(_Frozen):
    """Round ball, the ellipsoid E(a, a); its spectrum witnesses carry the defining integer d."""

    __slots__ = _fields = ("a",)

    def __init__(self, a: Fraction) -> None:
        if not isinstance(a, Fraction):
            raise ValidationError("ball radius parameter must be a Fraction")
        if a.numerator <= 0:
            raise ValidationError("ball radius parameter must be positive")
        self._set("a", a)

    def to_jsonable(self) -> dict:
        return {"type": "ball", "a": to_string(self.a)}


class ToricProfile(_Frozen):
    """Validated convex chain from (0, b) to (a, 0); vertices are exact pairs."""

    __slots__ = ("vertices", "scaled_vertices")  # scaled_vertices is no field: ==, hash skip it
    _fields = ("vertices",)

    def __init__(self, vertices: tuple[tuple[Fraction, Fraction], ...]) -> None:
        if len(vertices) < 2:
            raise ValidationError("profile needs at least two vertices")
        for x, y in vertices:
            if not (isinstance(x, Fraction) and isinstance(y, Fraction)):
                raise ValidationError("profile vertices must be Fraction pairs")
        (x0, y0), (xn, yn) = vertices[0], vertices[-1]
        if x0 != 0 or y0 <= 0:
            raise ValidationError("profile must start at (0, b) with b > 0")
        if yn != 0 or xn <= 0:
            raise ValidationError("profile must end at (a, 0) with a > 0")
        for x, y in vertices[1:-1]:
            if x <= 0 or y <= 0:
                raise ValidationError("interior profile vertices must be strictly positive")
        last = (1, -1)  # LatticePath's rule: a direction before every other
        for (ax, ay), (bx, by) in zip(vertices, vertices[1:]):
            dx, dy = bx - ax, by - ay
            if dx < 0 or dy > 0 or (dx == 0 and dy == 0):
                raise ValidationError("profile edges must point weakly right and down")
            if _slope_cmp(last, cur := (dx, -dy)) >= 0:
                raise ValidationError("vertical edge allowed only as the final edge" if last[0] == 0
                                      else "profile slopes must strictly decrease")
            last = cur
        self._set("vertices", vertices)
        # (the vertices as integer pairs over their least common denominator D, D)
        *flat, den = _scaled(*(c for vertex in vertices for c in vertex))
        self._set("scaled_vertices", (tuple(zip(flat[::2], flat[1::2])), den))

    def to_jsonable(self) -> dict:
        return {
            "type": "toric",
            "vertices": [[to_string(x), to_string(y)] for x, y in self.vertices],
        }


_NESTED_UNION = "nested unions are not supported; flatten the parts"


class DisjointUnion(_Frozen):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[Domain, ...]) -> None:
        if not parts:
            raise ValidationError("union needs at least one part")
        for p in parts:
            if isinstance(p, DisjointUnion):
                raise ValidationError(_NESTED_UNION)
        self._set("parts", parts)

    def to_jsonable(self) -> dict:
        return {"type": "union", "parts": [p.to_jsonable() for p in self.parts]}


Domain = Union[Ellipsoid, Ball, ToricProfile, DisjointUnion]


def validate_profile(vertices) -> ToricProfile:
    """Normalize and validate a raw vertex list.

    Coordinates are coerced to Fractions, repeated vertices and interior
    vertices that lie between their two neighbours on one line are merged
    silently (a chain that turns back through a vertex keeps it, so
    ToricProfile refuses it), and ToricProfile checks the chain (two
    vertices or more, start on the positive y-axis, end on the positive
    x-axis, interior vertices strictly inside, slopes strictly decreasing).
    """
    try:
        pts = [(_exact_rat(x, "profile vertex"), _exact_rat(y, "profile vertex"))
               for x, y in vertices]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"profile vertices must be rational pairs: {_shown(vertices)}") from exc
    merged = pts[:1]
    for p in pts[1:]:
        if p == merged[-1]:
            continue
        if len(merged) >= 2:
            (x0, y0), (x1, y1) = merged[-2], merged[-1]
            if ((x1 - x0) * (p[1] - y0) == (p[0] - x0) * (y1 - y0)
                    and (x1 - x0) * (p[0] - x1) + (y1 - y0) * (p[1] - y1) > 0):
                merged.pop()
        merged.append(p)
    return ToricProfile(tuple(merged))


def triangle_profile(a: Fraction, b: Fraction) -> ToricProfile:
    """Profile of the triangle with intercepts a on x and b on y."""
    return validate_profile([(0, b), (a, 0)])


def _edge_cost(verts: tuple[tuple[int, int], ...], dx: int, dy: int) -> int:
    """Scaled cost of the edge vector (dx, dy) over scaled vertices (X, Y): the
    dual norm of its rotate (-dy, dx), max(dx Y - dy X), for dx >= 0 >= dy."""
    return max([dx * y - dy * x for x, y in verts])


def omega_length(profile: ToricProfile, path: LatticePath) -> Fraction:
    """Length of a path: each edge contributes the dual norm of its rotate.

    An edge (p, -q) of multiplicity m adds m ||(q, p)||, summed as
    integers over the profile's vertex denominator; additive over edges.
    """
    verts, den = profile.scaled_vertices
    return Fraction(sum(m * _edge_cost(verts, dx, dy) for (dx, dy), m in path.edges), den)


def norm_floor(profile: ToricProfile) -> Fraction:
    """The largest rho with ||v|| >= rho * (|v1| + |v2|) for every covector v.

    By symmetry and scaling the best rho is the minimum over t in [0, 1] of
    max over the region of t x + (1 - t) y. The region is convex and compact
    and the form is linear in t, so by the minimax theorem this equals the
    maximum over the region of min(x, y): the point (s, s) where the profile
    crosses the diagonal. That crossing lies on the first edge (x0, y0) ->
    (x1, y1) with y1 <= x1, as the profile starts above the diagonal at
    (0, b); it is never below the older bound min(a, b) / 2.
    """
    verts = profile.vertices
    i = next(i for i, (x, y) in enumerate(verts) if y <= x)
    (x0, y0), (x1, y1) = verts[i - 1], verts[i]
    return (x0 * (y1 - y0) - y0 * (x1 - x0)) / ((y1 - y0) - (x1 - x0))


def profile_area(profile: ToricProfile) -> Fraction:
    """Area of the moment region bounded by the profile and the axes."""
    return Fraction(_chain_twice_area(profile.vertices), 2)


def contact_volume(domain: Domain) -> Fraction:
    """Volume of the boundary contact form: ab for E(a, b), twice the
    moment-region area for a profile, additive over unions."""
    if isinstance(domain, Ellipsoid):
        return domain.a * domain.b
    if isinstance(domain, Ball):
        return domain.a * domain.a
    if isinstance(domain, ToricProfile):
        return 2 * profile_area(domain)
    if isinstance(domain, DisjointUnion):
        return sum((contact_volume(p) for p in domain.parts), Fraction(0))
    raise ValidationError(f"not a domain: {_shown(domain)}")


def domain_from_jsonable(obj: object) -> Domain:
    """Parse the JSON object form of a domain. Inverse of to_jsonable."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError("domain JSON must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "ellipsoid":
        _require_keys(obj, {"type", "a", "b"}, "domain JSON")
        return Ellipsoid(parse_rat(obj["a"]), parse_rat(obj["b"]))
    if kind == "ball":
        _require_keys(obj, {"type", "a"}, "domain JSON")
        return Ball(parse_rat(obj["a"]))
    if kind == "toric":
        _require_keys(obj, {"type", "vertices"}, "domain JSON")
        verts = obj["vertices"]
        if not isinstance(verts, list):
            raise ValidationError("toric 'vertices' must be a list")
        pairs = []
        for item in verts:
            if not isinstance(item, list) or len(item) != 2:
                raise ValidationError(f"profile vertex must be a two-element list: {_shown(item)}")
            pairs.append((parse_rat(item[0]), parse_rat(item[1])))
        return validate_profile(pairs)
    if kind == "union":
        _require_keys(obj, {"type", "parts"}, "domain JSON")
        if not isinstance(obj["parts"], list) or not obj["parts"]:
            raise ValidationError("union 'parts' must be a nonempty list")
        parts = []
        for p in obj["parts"]:
            if isinstance(p, dict) and p.get("type") == "union":  # refused before it recurses
                raise ValidationError(_NESTED_UNION)
            parts.append(domain_from_jsonable(p))
        return DisjointUnion(tuple(parts))
    raise ValidationError(f"unknown domain type: {_shown(kind)}")


def read_json(path: str, what: str) -> object:
    """Parse a JSON file; bad JSON, bad UTF-8 or nesting past the recursion limit
    is a "malformed {what}" error."""
    with _open_text(path, "r") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError: also an int past the digit limit
            raise ValidationError(f"malformed {what}: {exc}") from exc


def load_domain(path: str) -> Domain:
    return domain_from_jsonable(read_json(path, f"domain JSON in {path}"))


def _require_keys(obj: dict, allowed: set, what: str) -> None:
    """Refuse a missing or unknown field of a JSON object; what names the document."""
    extra = set(obj) - allowed
    missing = allowed - set(obj)
    if missing:
        raise ValidationError(f"{what} missing fields: {sorted(missing)}")
    if extra:
        raise ValidationError(f"{what} has unknown fields: {_shown(sorted(extra))}")
