"""The twelve immutable value classes: repr, equality, hashing, frozenness,
keyword construction and every validation message, pinned class by class."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from toricspec import (
    Approximant,
    Ball,
    DisjointUnion,
    Ellipsoid,
    GapReport,
    IndexScanReport,
    IndexScanRow,
    LatticePath,
    MissingCoverError,
    OrbitRecord,
    OrbitSet,
    ToricCapacityResult,
    ToricProfile,
    ValidationError,
    domains,
)

F = Fraction
PATH = LatticePath((((0, -1), 1),))
RECORD = OrbitRecord("g", 1, -1, abs, 2)
ROW = IndexScanRow(0, 1, F(1), 2, 1, 2)

# (class, positional fields, the same fields by keyword, today's repr)
CASES = [
    (Ellipsoid, (F(1), F(3, 2)), {"a": F(1), "b": F(3, 2)},
     "Ellipsoid(a=Fraction(1, 1), b=Fraction(3, 2))"),
    (Ball, (F(2),), {"a": F(2)}, "Ball(a=Fraction(2, 1))"),
    (ToricProfile, (((F(0), F(1)), (F(1), F(0))),), {"vertices": ((F(0), F(1)), (F(1), F(0)))},
     "ToricProfile(vertices=((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1))))"),
    (DisjointUnion, ((Ball(F(1)),),), {"parts": (Ball(F(1)),)},
     "DisjointUnion(parts=(Ball(a=Fraction(1, 1)),))"),
    (LatticePath, ((((0, -1), 1),),), {"edges": (((0, -1), 1),)},
     "LatticePath(edges=(((0, -1), 1),))"),
    (ToricCapacityResult, (F(1), PATH, F(1), F(2), PATH, F(3), 4),
     {"value": F(1), "witness": PATH, "min_over_at_least": F(1), "min_over_exact": F(2),
      "witness_at_least": PATH, "enumeration_bound": F(3), "paths_scanned": 4},
     "ToricCapacityResult(value=Fraction(1, 1), witness=LatticePath(edges=(((0, -1), 1),)), "
     "min_over_at_least=Fraction(1, 1), min_over_exact=Fraction(2, 1), "
     "witness_at_least=LatticePath(edges=(((0, -1), 1),)), enumeration_bound=Fraction(3, 1), "
     "paths_scanned=4)"),
    (GapReport, (F(2), F(1, 2), 3), {"cutoff": F(2), "gap": F(1, 2), "achieving_k": 3},
     "GapReport(cutoff=Fraction(2, 1), gap=Fraction(1, 2), achieving_k=3)"),
    (GapReport, (F(1), None, None), {"cutoff": F(1), "gap": None, "achieving_k": None},
     "GapReport(cutoff=Fraction(1, 1), gap=None, achieving_k=None)"),
    (Approximant, ("below", 2, 1), {"side": "below", "m": 2, "n": 1},
     "Approximant(side='below', m=2, n=1)"),
    (OrbitRecord, ("g", 1, -1, abs, 2),
     {"label": "g", "chern": 1, "self_linking": -1, "cz_of_cover": abs, "multiplicity": 2},
     "OrbitRecord(label='g', chern=1, self_linking=-1, cz_of_cover=<built-in function abs>, "
     "multiplicity=2)"),
    (OrbitSet, ((RECORD,), ((0,),)), {"orbits": (RECORD,), "linking": ((0,),)},
     "OrbitSet(orbits=(OrbitRecord(label='g', chern=1, self_linking=-1, "
     "cz_of_cover=<built-in function abs>, multiplicity=2),), linking=((0,),))"),
    (IndexScanRow, (0, 1, F(1), 2, 1, 2),
     {"m1": 0, "m2": 1, "action": F(1), "index": 2, "rank": 1, "tangent_count": 2},
     "IndexScanRow(m1=0, m2=1, action=Fraction(1, 1), index=2, rank=1, tangent_count=2)"),
    (IndexScanReport, (F(1), F(2), 0, (ROW,)), {"a": F(1), "b": F(2), "m_max": 0, "rows": (ROW,)},
     "IndexScanReport(a=Fraction(1, 1), b=Fraction(2, 1), m_max=0, rows=(IndexScanRow(m1=0, "
     "m2=1, action=Fraction(1, 1), index=2, rank=1, tangent_count=2),))"),
]
IDS = [f"{cls.__name__}{i}" for i, (cls, *_rest) in enumerate(CASES)]

# one field changed: (class, positional fields), equal to no instance in CASES
CHANGED = {
    Ellipsoid: (F(1), F(2)),
    Ball: (F(3),),
    ToricProfile: (((F(0), F(2)), (F(1), F(0))),),
    DisjointUnion: ((Ball(F(2)),),),
    LatticePath: ((((1, 0), 1),),),
    ToricCapacityResult: (F(1), PATH, F(1), F(2), PATH, F(3), 5),
    GapReport: (F(2), F(1, 3), 3),
    Approximant: ("above", 2, 1),
    OrbitRecord: ("h", 1, -1, abs, 2),
    OrbitSet: ((OrbitRecord("h", 1, -1, abs, 2),), ((0,),)),
    IndexScanRow: (0, 1, F(1), 2, 1, 3),
    IndexScanReport: (F(1), F(3), 0, (ROW,)),
}


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_repr_is_pinned(cls, args, kwargs, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_keyword_construction_builds_the_same_value(cls, args, kwargs, text):
    value = cls(**kwargs)
    assert value == cls(*args) and repr(value) == text
    assert all(getattr(value, name) == field for name, field in kwargs.items())


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_equal_values_hash_alike_and_as_their_field_tuple(cls, args, kwargs, text):
    x, y = cls(*args), cls(*args)
    assert x is not y and x == y and not (x != y)
    assert hash(x) == hash(y) == hash(args)
    assert len({x, y}) == 1


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_a_changed_field_makes_an_unequal_value(cls, args, kwargs, text):
    x, other = cls(*args), cls(*CHANGED[cls])
    assert x != other and not (x == other)
    assert hash(other) == hash(CHANGED[cls])


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_a_value_equals_nothing_of_another_class(cls, args, kwargs, text):
    x = cls(*args)
    assert x.__eq__(args) is NotImplemented
    assert x != args and x != object() and x != None  # noqa: E711
    for other_cls, other_args, _kw, _text in CASES:
        if other_cls is not cls:
            assert x != other_cls(*other_args)


def test_an_ellipsoid_is_not_the_equal_ball():
    assert Ellipsoid(F(1), F(1)) != Ball(F(1))
    assert Ball(F(1)) != Ellipsoid(F(1), F(1))
    assert len({Ellipsoid(F(1), F(1)), Ball(F(1))}) == 2


def test_the_same_field_values_in_another_class_make_no_equal_value():
    vertices = ((F(0), F(1)), (F(1), F(0)))
    for x, y in [(GapReport("below", 2, 1), Approximant("below", 2, 1)),
                 (DisjointUnion(vertices), ToricProfile(vertices))]:
        assert hash(x) == hash(y)
        assert x != y and y != x and len({x, y}) == 2


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, kwargs, text):
    x = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.new_attribute = 1
    assert x == cls(*args) and repr(x) == text


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_copies_and_pickles_are_equal_values(cls, args, kwargs, text):
    x = cls(*args)
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and repr(twin) == text


def _profile(*vertices):
    return ToricProfile(tuple((F(x), F(y)) for x, y in vertices))


_REFUSED = [
    (lambda: Ellipsoid(1, 2), "ellipsoid axes must be Fractions"),
    (lambda: Ellipsoid(F(1), 2.0), "ellipsoid axes must be Fractions"),
    (lambda: Ellipsoid(F(0), F(1)), "ellipsoid axes must be positive"),
    (lambda: Ellipsoid(F(1), F(-1)), "ellipsoid axes must be positive"),
    (lambda: Ball(1), "ball radius parameter must be a Fraction"),
    (lambda: Ball(F(0)), "ball radius parameter must be positive"),
    (lambda: _profile((0, 1)), "profile needs at least two vertices"),
    (lambda: ToricProfile(((0, 1), (1, 0))), "profile vertices must be Fraction pairs"),
    (lambda: _profile((1, 1), (1, 0)), "profile must start at (0, b) with b > 0"),
    (lambda: _profile((0, 0), (1, 0)), "profile must start at (0, b) with b > 0"),
    (lambda: _profile((0, 1), (1, 1)), "profile must end at (a, 0) with a > 0"),
    (lambda: _profile((0, 1), (0, 0)), "profile must end at (a, 0) with a > 0"),
    (lambda: _profile((0, 2), (0, 1), (1, 0)), "interior profile vertices must be strictly positive"),
    (lambda: _profile((0, 1), (1, 2), (2, 0)), "profile edges must point weakly right and down"),
    (lambda: _profile((0, 1), (1, 1), (1, 1), (2, 0)),
     "profile edges must point weakly right and down"),
    (lambda: _profile((0, 2), (1, 2), (1, 1), (2, 0)), "vertical edge allowed only as the final edge"),
    (lambda: _profile((0, 2), (1, 1), (3, 0)), "profile slopes must strictly decrease"),
    (lambda: DisjointUnion(()), "union needs at least one part"),
    (lambda: DisjointUnion((DisjointUnion((Ball(F(1)),)),)),
     "nested unions are not supported; flatten the parts"),
    (lambda: LatticePath((((1, 0), True),)), "edge data must be ints, got bool True"),
    (lambda: LatticePath((((1, 1), 1),)), "direction (1, 1) must point weakly right and down"),
    (lambda: LatticePath((((2, 0), 1),)), "direction (2, 0) is not primitive"),
    (lambda: LatticePath((((1, 0), 0),)), "multiplicities must be positive"),
    (lambda: LatticePath((((0, -1), 1), ((1, 0), 1))), "edge slopes must strictly decrease"),
    (lambda: Approximant("middle", 1, 1), "side must be 'below' or 'above'"),
    (lambda: Approximant("below", 0, 0), "below approximant needs m >= 1, n >= 0"),
    (lambda: Approximant("below", 1, -1), "below approximant needs m >= 1, n >= 0"),
    (lambda: Approximant("above", 0, 0), "above approximant needs n >= 1, m >= 0"),
    (lambda: Approximant("above", -1, 1), "above approximant needs n >= 1, m >= 0"),
    (lambda: OrbitRecord("g", 1, -1, abs, 0), "need an int orbit multiplicity >= 1, got int 0"),
    (lambda: OrbitRecord("g", 1, -1, abs, True),
     "need an int orbit multiplicity >= 1, got bool True"),
    (lambda: OrbitSet((RECORD, RECORD), ((0, 0), (0, 0))), "orbit labels must be distinct"),
    (lambda: OrbitSet((RECORD,), ((0,), (0,))), "linking matrix shape must match the orbit count"),
    (lambda: OrbitSet((RECORD,), ((0, 1),)), "linking matrix shape must match the orbit count"),
    (lambda: OrbitSet((RECORD, OrbitRecord("h", 1, -1, abs, 1)), ((0, 1), (2, 0))),
     "linking matrix must be symmetric"),
    # in place of a removed case: ids stay put
    (lambda: LatticePath((((1, -1), -1),)), "multiplicities must be positive"),
    # the orbit classes check their own integers: a float Chern number gave index 5.0, a
    # bool linking entry counted as 1, and an int row raised a bare TypeError
    (lambda: OrbitRecord("g", 2.5, -1, abs, 1),
     "orbit 'g': chern and self_linking must be ints, got float 2.5"),
    (lambda: OrbitRecord("g", F(1, 2), -1, abs, 1),
     "orbit 'g': chern and self_linking must be ints, got Fraction Fraction(1, 2)"),
    (lambda: OrbitRecord("g", True, -1, abs, 1),
     "orbit 'g': chern and self_linking must be ints, got bool True"),
    (lambda: OrbitRecord("g", 1, 2.5, abs, 1),
     "orbit 'g': chern and self_linking must be ints, got float 2.5"),
    (lambda: OrbitRecord("g", 1, F(1, 2), abs, 1),
     "orbit 'g': chern and self_linking must be ints, got Fraction Fraction(1, 2)"),
    (lambda: OrbitRecord("g", 1, True, abs, 1),
     "orbit 'g': chern and self_linking must be ints, got bool True"),
    (lambda: OrbitSet((RECORD, OrbitRecord("h", 1, -1, abs, 1)), ((0, True), (True, 0))),
     "linking entries must be ints, got bool True"),
    (lambda: OrbitSet((RECORD,), ((0.5,),)), "linking entries must be ints, got float 0.5"),
    (lambda: OrbitSet((RECORD,), (5,)), "linking rows must be tuples, got int 5"),
    # a list container left the set unhashable and unequal to its tuple-built twin
    (lambda: OrbitSet((RECORD,), [(0,)]), "linking must be a tuple, got list [(0,)]"),
    (lambda: OrbitSet([], ()), "orbits must be a tuple, got list []"),
    (lambda: OrbitSet((), []), "linking must be a tuple, got list []"),
    (lambda: OrbitRecord(None, 1, -1, abs, 1), "orbit labels must be strings, got NoneType None"),
    (lambda: OrbitRecord(1, 1, -1, abs, 1), "orbit labels must be strings, got int 1"),
]


@pytest.mark.parametrize("build, message", _REFUSED, ids=[f"refused{i}" for i in range(len(_REFUSED))])
def test_every_validation_message_is_pinned(build, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


def test_the_checks_accept_what_they_should():
    assert _profile((0, 2), (1, 2), (2, 1), (2, 0)).vertices[-1][0] == 2  # vertical last edge
    assert Approximant("below", 1, 0).n == 0 and Approximant("above", 0, 1).m == 0
    assert GapReport(F(1), None, None).is_infinite and not GapReport(F(1), F(0), 0).is_infinite
    assert OrbitSet((), ()).orbits == ()
    assert LatticePath(()).edges == ()


def test_orbit_record_methods_still_read_the_cover_callable():
    record = OrbitRecord("g", 1, -1, lambda j: 2 * j + 1, 3)
    assert record.cz_sum(2, 2) == 5 and record.cz_sum(1, 3) == 15
    with pytest.raises(MissingCoverError, match="^orbit 'g' has no index data for cover 4$"):
        OrbitRecord("g", 1, -1, {1: 1, 2: 3, 3: 5}.__getitem__, 3).cz_sum(1, 4)


def test_scaled_vertices_is_computed_once(monkeypatch):
    calls = []
    real = domains._scaled
    monkeypatch.setattr(domains, "_scaled", lambda *values: calls.append(values) or real(*values))
    profile = _profile((0, 2), (1, F(7, 4)), (2, 1), (F(5, 2), 0))
    first = profile.scaled_vertices
    assert profile.scaled_vertices is first
    assert first == (((0, 8), (4, 7), (8, 4), (10, 0)), 4)
    assert len(calls) == 1
    with pytest.raises(AttributeError):
        profile.scaled_vertices = first
    # the cached value takes no part in equality or hashing
    fresh = _profile((0, 2), (1, F(7, 4)), (2, 1), (F(5, 2), 0))
    assert fresh == profile and hash(fresh) == hash(profile)
