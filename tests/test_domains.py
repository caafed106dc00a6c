"""Domain validation, the dual norm, lengths, volumes, JSON forms."""

import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from toricspec import (
    Ball,
    DisjointUnion,
    Ellipsoid,
    ToricProfile,
    ValidationError,
    contact_volume,
    domain_from_jsonable,
    load_domain,
    norm_floor,
    omega_length,
    profile_area,
    triangle_profile,
    validate_profile,
)
from test_paths import convex_profiles, dual_norm, random_path, slope_sorted_path, square

F = Fraction

# inputs that turn back through a collinear vertex: merging it gave the triangle
# (0, 2)-(2, 0) and the unit square
TURNING_BACK = [[(0, 2), (3, -1), (1, 1), (2, 0)], [(0, 1), (1, 1), (0, 1), (1, 1), (1, 0)]]


def dilate(domain, r):
    # the domain r X, built per kind
    if isinstance(domain, Ellipsoid):
        return Ellipsoid(r * domain.a, r * domain.b)
    if isinstance(domain, Ball):
        return Ball(r * domain.a)
    if isinstance(domain, DisjointUnion):
        return DisjointUnion(tuple(dilate(part, r) for part in domain.parts))
    return ToricProfile(tuple((r * x, r * y) for x, y in domain.vertices))


def chain_position(chain, point):
    # i + t for a point at t in [0, 1] along the edge from vertex i to vertex i + 1;
    # None for a point off the chain
    for i, ((x0, y0), (x1, y1)) in enumerate(zip(chain, chain[1:])):
        dx, dy, px, py = x1 - x0, y1 - y0, point[0] - x0, point[1] - y0
        if dx * py == dy * px and 0 <= (t := (px * dx + py * dy) / (dx * dx + dy * dy)) <= 1:
            return i + t
    return None


class TestValidateProfile:
    def test_coerces_ints_and_strings(self):
        p = validate_profile([(0, 3), ("2", "0")])
        assert p.vertices == ((F(0), F(3)), (F(2), F(0)))

    def test_merges_collinear_chain(self):
        p = validate_profile([(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)])
        assert p.vertices == ((F(0), F(4)), (F(4), F(0)))

    def test_merges_duplicates(self):
        p = validate_profile([(0, 2), (0, 2), (1, F(3, 2)), (1, F(3, 2)), (2, 0)])
        assert p.vertices == ((F(0), F(2)), (F(1), F(3, 2)), (F(2), F(0)))

    def test_merges_forward_collinear_and_repeated_vertices(self):
        p = validate_profile([(0, 3), (1, 3), (1, 3), (2, 3), (3, 2), (3, 2), (4, 1), (5, 0)])
        assert p.vertices == ((F(0), F(3)), (F(2), F(3)), (F(5), F(0)))

    @pytest.mark.parametrize("verts", TURNING_BACK, ids=["triangle", "square"])
    def test_refuses_a_chain_that_turns_back(self, verts):
        with pytest.raises(ValidationError,
                           match="^interior profile vertices must be strictly positive$"):
            validate_profile(verts)

    @settings(max_examples=200, deadline=None)
    @given(prof=convex_profiles(),
           steps=st.lists(st.lists(st.sampled_from(
               [F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(3, 2)]), max_size=3), min_size=4, max_size=4))
    @example(prof=validate_profile([(0, 2), (2, 0)]), steps=[[F(3, 2)]] * 4)
    def test_an_accepted_chain_holds_every_input_vertex_in_order(self, prof, steps):
        # each edge (at most four) gets up to three more points t along it: repeated ends,
        # points between the ends, and points past them, which turn the chain back
        verts = [prof.vertices[0]]
        for ((x0, y0), (x1, y1)), ts in zip(zip(prof.vertices, prof.vertices[1:]), steps):
            verts += [(x0 + t * (x1 - x0), y0 + t * (y1 - y0)) for t in ts] + [(x1, y1)]
        try:
            chain = validate_profile(verts).vertices
        except ValidationError:
            return
        positions = [chain_position(chain, v) for v in verts]
        assert None not in positions and positions == sorted(positions), (verts, chain)

    def test_keeps_true_corners(self):
        p = validate_profile([(0, 2), (2, 2), (2, 0)])
        assert len(p.vertices) == 3

    @pytest.mark.parametrize("verts", [
        [(0, 1)],
        [(0, 1), (0, 1)],
        [(1, 2), (2, 0)],
        [(0, 2), (2, 1)],
        [(0, 1), (1, 2), (2, 0)],
        [(0, 2), (1, 1), (3, 0)],
        [(0, 2), (1, 0), (2, 0)],
        [(0, 3), (1, 3), (1, 1), (2, 0)],
        [(0, -1), (1, 0)],
        [(0, 1), (-1, 0)],
    ])
    def test_rejects_bad_chains(self, verts):
        with pytest.raises(ValidationError):
            validate_profile(verts)

    @pytest.mark.parametrize("verts", [[], [(0, 1)], [(0, 1), (0, 1)]])
    def test_too_few_vertices_are_refused_by_the_profile(self, verts):
        with pytest.raises(ValidationError, match="^profile needs at least two vertices$"):
            validate_profile(verts)

    def test_rejects_floats(self):
        with pytest.raises(ValidationError):
            validate_profile([(0.5, 1), (1, 0)])
        with pytest.raises(ValidationError):
            validate_profile([(0, 1), (1.0, 0)])

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            validate_profile([(0, "x"), (1, 0)])
        with pytest.raises(ValidationError):
            validate_profile("nope")

    @settings(max_examples=300, deadline=None)
    @given(b=st.sampled_from([F(1), F(2), F(3)]), a=st.sampled_from([F(1), F(2), F(3)]),
           interior=st.lists(st.tuples(*[st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(3)])] * 2),
                             max_size=4),
           monotone=st.booleans())
    def test_edge_check_matches_the_fraction_slopes(self, b, a, interior, monotone):
        # the Fraction-slope check that the integer cross-multiplication replaced,
        # with its three messages; the small coordinate set makes ties and
        # vertical edges common, and monotone chains reach the slope checks
        if monotone:
            interior = sorted(interior, key=lambda v: (v[0], -v[1]))
        verts = ((F(0), b), *interior, (a, F(0)))
        expected = None
        prev_slope, prev_vertical = None, False
        for (ax, ay), (bx, by) in zip(verts, verts[1:]):
            dx, dy = bx - ax, by - ay
            if dx < 0 or dy > 0 or (dx == 0 and dy == 0):
                expected = "profile edges must point weakly right and down"
            elif prev_vertical:
                expected = "vertical edge allowed only as the final edge"
            elif dx == 0:
                prev_vertical = True
                continue
            elif prev_slope is not None and F(dy, dx) >= prev_slope:
                expected = "profile slopes must strictly decrease"
            if expected:
                break
            prev_slope = F(dy, dx)
        try:
            ToricProfile(verts)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == expected

    def test_vertical_final_edge_allowed(self):
        p = validate_profile([(0, 2), (1, 2), (1, 0)])
        assert p.vertices[-1][0] == 1 and p.vertices[0][1] == 2

    def test_intercepts(self):
        p = triangle_profile(F(5, 2), F(7))
        assert p.vertices[-1][0] == F(5, 2) and p.vertices[0][1] == 7


class TestDualNorm:
    def test_triangle_values(self):
        t = triangle_profile(F(2), F(3))
        assert dual_norm(t, (F(1), F(0))) == 2
        assert dual_norm(t, (F(0), F(1))) == 3
        assert dual_norm(t, (F(1), F(1))) == 3
        assert dual_norm(t, (F(-1), F(1))) == 3

    def test_square_values(self):
        s = square()
        assert dual_norm(s, (F(1), F(1))) == 2
        assert dual_norm(s, (F(1), F(0))) == 1

    def test_norm_floor_values(self):
        # where each profile crosses the diagonal
        assert norm_floor(triangle_profile(F(2), F(3))) == F(6, 5)
        assert norm_floor(square()) == 1
        assert norm_floor(validate_profile([(0, 2), (1, F(7, 4)), (2, 1), (F(5, 2), 0)])) == F(10, 7)
        assert norm_floor(triangle_profile(F(4), F(4))) == 2

    @settings(max_examples=80, deadline=None)
    @given(prof=convex_profiles())
    @example(prof=validate_profile([(0, 1), (2, 1), (3, 0)]))  # a horizontal first edge
    @example(prof=validate_profile([(0, 3), (1, 1), (1, 0)]))  # a vertical last edge
    @example(prof=triangle_profile(F(1, 2), F(7)))
    def test_norm_floor_is_the_least_ratio_over_the_breakpoints(self, prof):
        # on the segment from (1, 0) to (0, 1), where |v1| + |v2| is 1, the dual norm
        # is a maximum of linear forms: convex and piecewise linear, so its least
        # value is at an end or at a kink, the normal (-dy, dx) of a profile edge
        # (dx, dy); the ratio does not change along a ray, and its minimum is the best rho
        verts = prof.vertices
        normals = [(y0 - y1, x1 - x0) for (x0, y0), (x1, y1) in zip(verts, verts[1:])]
        least = min(dual_norm(prof, v) / (v[0] + v[1]) for v in [(F(1), F(0)), (F(0), F(1)), *normals])
        assert norm_floor(prof) == least
        assert norm_floor(prof) >= min(prof.vertices[-1][0], prof.vertices[0][1]) / 2

    def test_norm_axioms_on_random_vectors(self, rng):
        profiles = [
            triangle_profile(F(2), F(3)),
            square(),
            validate_profile([(0, 3), (1, 2), (2, 0)]),
        ]
        for prof in profiles:
            rho = norm_floor(prof)
            for _ in range(200):
                u = (F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
                v = (F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
                nu, nv = dual_norm(prof, u), dual_norm(prof, v)
                assert nu == dual_norm(prof, (-u[0], u[1])) == dual_norm(prof, (u[0], -u[1]))
                assert dual_norm(prof, (u[0] + v[0], u[1] + v[1])) <= nu + nv
                t = F(rng.randint(0, 5))
                assert dual_norm(prof, (t * u[0], t * u[1])) == t * nu
                assert nu >= rho * (abs(u[0]) + abs(u[1]))

    def test_length_additive_over_edge_union(self, rng):
        prof = validate_profile([(0, 3), (1, 2), (2, 0)])
        for _ in range(50):
            p1, p2 = random_path(rng), random_path(rng)
            merged = slope_sorted_path((Counter(dict(p1.edges)) + Counter(dict(p2.edges))).items())
            assert omega_length(prof, merged) == omega_length(prof, p1) + omega_length(prof, p2)

    def test_triangle_length_equals_vertex_support(self, rng):
        # on a triangle profile the path length is the best corner value
        a, b = F(2), F(3)
        prof = triangle_profile(a, b)
        for _ in range(50):
            p = random_path(rng)
            want = max(b * x + a * y for x, y in p.vertices())
            assert omega_length(prof, p) == want


class TestVolumesAndScaling:
    def test_contact_volume(self):
        assert contact_volume(Ellipsoid(F(2), F(3))) == 6
        assert contact_volume(Ball(F(2))) == 4
        assert contact_volume(square()) == 2
        assert contact_volume(triangle_profile(F(2), F(3))) == 6
        u = DisjointUnion((Ball(F(1)), Ellipsoid(F(2), F(3))))
        assert contact_volume(u) == 7

    def test_profile_area(self):
        assert profile_area(triangle_profile(F(2), F(3))) == 3
        assert profile_area(square(F(2))) == 4
        assert profile_area(validate_profile([(0, 2), (1, 2), (1, 0)])) == 2

    def test_volume_scales_quadratically(self):
        for dom in (Ellipsoid(F(2), F(3)), square(),
                    DisjointUnion((Ball(F(1)), Ball(F(2))))):
            assert contact_volume(dilate(dom, F(5, 3))) == F(25, 9) * contact_volume(dom)


class TestJsonForms:
    def test_round_trips(self):
        domains = [
            Ellipsoid(F(89, 55), F(1)),
            Ball(F(7, 2)),
            validate_profile([(0, 3), (1, 2), (2, 0)]),
            DisjointUnion((Ball(F(1)), Ellipsoid(F(2), F(3)))),
        ]
        for d in domains:
            blob = json.dumps(d.to_jsonable())
            assert domain_from_jsonable(json.loads(blob)) == d

    @pytest.mark.parametrize("obj", [
        "ellipsoid",
        {},
        {"type": "torus"},
        {"type": "ellipsoid", "a": "1"},
        {"type": "ellipsoid", "a": "1", "b": "2", "c": "3"},
        {"type": "ellipsoid", "a": "1", "b": "0"},
        {"type": "ball", "a": 2},
        {"type": "toric", "vertices": "nope"},
        {"type": "toric", "vertices": [["0", "1"], ["1"]]},
        {"type": "union", "parts": []},
        {"type": "union", "parts": [{"type": "union", "parts": [{"type": "ball", "a": "1"}]}]},
    ])
    def test_rejects_malformed(self, obj):
        with pytest.raises(ValidationError):
            domain_from_jsonable(obj)

    def test_a_union_part_that_is_a_union_is_refused_before_it_is_read(self):
        obj = {"type": "ball", "a": "1"}
        for _ in range(3000):  # past the recursion limit, were each part read first
            obj = {"type": "union", "parts": [{"type": "ball", "a": "1"}, obj]}
        with pytest.raises(ValidationError, match="^nested unions are not supported; flatten the parts$"):
            domain_from_jsonable(obj)

    def test_nested_union_rejected_in_constructor(self):
        inner = DisjointUnion((Ball(F(1)),))
        with pytest.raises(ValidationError):
            DisjointUnion((inner,))

    def test_load_domain(self, tmp_path):
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(Ellipsoid(F(2), F(3)).to_jsonable()))
        assert load_domain(str(path)) == Ellipsoid(F(2), F(3))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError):
            load_domain(str(bad))
        with pytest.raises(OSError):
            load_domain(str(tmp_path / "absent.json"))
