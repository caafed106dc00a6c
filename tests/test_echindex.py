"""Index formulas: closed form vs first principles, orbit set plumbing,
path bounds, the index-action scan."""

import re
import time
from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import given, settings, strategies as st

import toricspec.echindex as echindex
from toricspec import (
    LatticePath,
    MissingCoverError,
    OrbitRecord,
    OrbitSet,
    PreconditionError,
    ValidationError,
    count_action_pairs,
    ellipsoid_action,
    ellipsoid_index,
    ellipsoid_orbit_set,
    index_action_scan,
    lattice_count_pick,
    orbit_set_from_jsonable,
    path_index_bounds,
    star_shaped_index,
)
from test_paths import random_path
from test_spectra import pairs_below

F = Fraction


class TestClosedForm:
    def test_hand_values(self):
        assert ellipsoid_index(F(2), F(3), 0, 0) == 0
        assert ellipsoid_index(F(2), F(3), 1, 0) == 2
        assert ellipsoid_index(F(2), F(3), 0, 1) == 4
        assert ellipsoid_index(F(2), F(3), 1, 1) == 8

    def test_axis_swap_symmetry(self, rng):
        for _ in range(40):
            a = F(rng.randint(1, 9), rng.randint(1, 4))
            b = F(rng.randint(1, 9), rng.randint(1, 4))
            m1, m2 = rng.randint(0, 6), rng.randint(0, 6)
            assert ellipsoid_index(a, b, m1, m2) == ellipsoid_index(b, a, m2, m1)

    def test_always_even_and_zero_only_at_origin(self, rng):
        for m1 in range(4):
            for m2 in range(4):
                idx = ellipsoid_index(F(7, 5), F(3, 2), m1, m2)
                assert idx % 2 == 0
                assert (idx == 0) == (m1 == m2 == 0)

    def test_action(self):
        assert ellipsoid_action(F(2), F(3), 2, 1) == 7

    @pytest.mark.parametrize("a, b, m1, m2", [(F(-1), F(2), 3, 1), (0, 0, 5, 5), (F(2), F(0), 1, 0)])
    def test_action_refuses_nonpositive_axes(self, a, b, m1, m2):
        with pytest.raises(ValidationError, match="^axes must be positive$"):
            ellipsoid_action(a, b, m1, m2)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ellipsoid_index(F(0), F(1), 1, 1)
        with pytest.raises(ValidationError):
            ellipsoid_index(F(1), F(1), -1, 0)


def _whole(message):
    return "^" + re.escape(message) + "$"


class TestOrbitSets:
    def test_first_principles_match_closed_form(self, rng):
        for _ in range(40):
            a = F(rng.randint(1, 9), rng.randint(1, 4))
            b = F(rng.randint(1, 9), rng.randint(1, 4))
            m1, m2 = rng.randint(0, 5), rng.randint(0, 5)
            if m1 + m2 == 0:
                m1 = 1
            os_ = ellipsoid_orbit_set(a, b, m1, m2)
            assert star_shaped_index(os_) == ellipsoid_index(a, b, m1, m2)

    def test_zero_multiplicity_generator_is_omitted(self):
        os_ = ellipsoid_orbit_set(F(2), F(3), 0, 2)
        assert len(os_.orbits) == 1 and os_.orbits[0].label == "g2"
        assert star_shaped_index(os_) == ellipsoid_index(F(2), F(3), 0, 2)
        with pytest.raises(ValidationError):
            ellipsoid_orbit_set(F(2), F(3), 0, 0)

    def test_hyperbolic_hand_computation(self):
        # one orbit, multiplicity 2, chern 0, self-linking -1, cz(j) = 2j:
        # (4 + 2) * 0 + 4 * (-1) + (2 + 4) = 2
        orbit = OrbitRecord("h", 0, -1, (2, 4), 2)
        assert star_shaped_index(OrbitSet((orbit,), ((0,),))) == 2

    def test_pairwise_linking_counted_twice(self):
        o1 = OrbitRecord("x", 0, 0, (0,), 1)
        o2 = OrbitRecord("y", 0, 0, (0, 0, 0), 3)
        os_ = OrbitSet((o1, o2), ((0, 5), (5, 0)))
        assert star_shaped_index(os_) == 2 * 1 * 3 * 5

    def test_record_validation(self):
        with pytest.raises(ValidationError):
            OrbitRecord("z", 1, -1, (1,), 0)

    def test_set_validation(self):
        o = OrbitRecord("x", 1, -1, (1,), 1)
        o2 = OrbitRecord("x", 1, -1, (1,), 1)
        with pytest.raises(ValidationError):
            OrbitSet((o, o2), ((0, 0), (0, 0)))
        o3 = OrbitRecord("y", 1, -1, (1,), 1)
        with pytest.raises(ValidationError):
            OrbitSet((o, o3), ((0,),))
        with pytest.raises(ValidationError):
            OrbitSet((o, o3), ((0, 1), (2, 0)))

    def test_both_containers_must_be_tuples(self):
        # a list was kept as it was: hash() then raised TypeError, and the set
        # compared unequal to the same set built from tuples
        o = OrbitRecord("x", 1, -1, (1,), 1)
        built = OrbitSet((o,), ((0,),))
        assert built == OrbitSet((o,), ((0,),)) and hash(built) == hash(OrbitSet((o,), ((0,),)))
        with pytest.raises(ValidationError, match=r"^linking must be a tuple, got list \[\(0,\)\]$"):
            OrbitSet((o,), [(0,)])
        with pytest.raises(ValidationError, match="^orbits must be a tuple, got list "):
            OrbitSet([o], ((0,),))
        with pytest.raises(ValidationError, match="^orbits must be a tuple, got dict_keys "):
            OrbitSet({o: 0}.keys(), ((0,),))

    def test_missing_cover_surfaces(self):
        # a record holds an index for every cover its multiplicity needs, or is refused
        with pytest.raises(MissingCoverError, match=_whole("orbit 'b' has no index data for cover 2")):
            OrbitRecord("b", 1, -1, (1,), 2)
        with pytest.raises(MissingCoverError, match=_whole("orbit 'e' has no index data for cover 1")):
            OrbitRecord("e", 1, -1, (), 1)
        # entries past the multiplicity are kept and not summed
        longer = OrbitRecord("l", 0, 0, (1, 3, 5), 2)
        assert longer.cz_indices == (1, 3, 5)
        assert star_shaped_index(OrbitSet((longer,), ((0,),))) == 4

    @pytest.mark.parametrize("j", [0, -1, -2, 3])
    def test_a_cz_array_has_no_cover_below_one_or_past_its_end(self, j):
        # entry j - 1 is cover j, so a read record's covers run from 1 to the array's length:
        # a multiplicity below 1 or past the end is refused when the file is read
        def read(multiplicity):
            return orbit_set_from_jsonable({"orbits": [{"label": "g", "chern": 1, "self_linking": -1,
                                                        "multiplicity": multiplicity, "cz": [1, 3]}],
                                            "linking": [[0]]}).orbits[0]
        assert read(2).cz_indices == (1, 3)
        if j > 0:
            error, message = MissingCoverError, "orbit 'g' has no index data for cover 3"
        else:
            error, message = ValidationError, f"need an int orbit multiplicity >= 1, got int {j}"
        with pytest.raises(error, match=_whole(message)):
            read(j)


class TestOrbitJson:
    def ellipsoid_mirror(self):
        return {
            "orbits": [
                {"label": "g1", "chern": 1, "self_linking": -1,
                 "multiplicity": 1, "cz": [1]},
                {"label": "g2", "chern": 1, "self_linking": -1,
                 "multiplicity": 1, "cz": [3]},
            ],
            "linking": [[0, 1], [1, 0]],
        }

    def test_mirror_reproduces_closed_form(self):
        os_ = orbit_set_from_jsonable(self.ellipsoid_mirror())
        assert star_shaped_index(os_) == ellipsoid_index(F(2), F(3), 1, 1) == 8

    def test_a_short_cz_array_fails_on_read(self):
        obj = self.ellipsoid_mirror()
        obj["orbits"][0]["multiplicity"] = 2
        with pytest.raises(MissingCoverError, match=_whole("orbit 'g1' has no index data for cover 2")):
            orbit_set_from_jsonable(obj)

    @pytest.mark.parametrize("mutate", [
        lambda o: o.pop("linking"),
        lambda o: o.__setitem__("orbits", []),
        lambda o: o.__setitem__("orbits", "nope"),
        lambda o: o["orbits"][0].pop("chern"),
        lambda o: o["orbits"][0].__setitem__("chern", "1"),
        lambda o: o["orbits"][0].__setitem__("cz", [1.5]),
        lambda o: o.__setitem__("linking", "nope"),
        lambda o: o.__setitem__("linking", [[0, "1"], [1, 0]]),
        lambda o: o.__setitem__("linking", [[0, 1]]),
        lambda o: o.__setitem__("linking", [[0, 2], [1, 0]]),
    ])
    def test_rejects_malformed(self, mutate):
        obj = self.ellipsoid_mirror()
        mutate(obj)
        with pytest.raises(ValidationError):
            orbit_set_from_jsonable(obj)

    @pytest.mark.parametrize("mutate, message", [
        (lambda o: o.__setitem__("typo", 3), "orbit JSON has unknown fields: ['typo']"),
        (lambda o: o.pop("orbits"), "orbit JSON missing fields: ['orbits']"),
        (lambda o: o["orbits"][1].__setitem__("typo", 3), "orbit record has unknown fields: ['typo']"),
        (lambda o: o["orbits"][1].pop("cz"), "orbit record missing fields: ['cz']"),
        (lambda o: o["orbits"][1].__setitem__("cz", "ab"),
         "orbit 'g2': cz array must be a list, got str 'ab'"),
        (lambda o: o["orbits"][1].__setitem__("cz", {"1": 3}),
         "orbit 'g2': cz array must be a list, got dict {'1': 3}"),
    ], ids=["object-unknown", "object-missing", "record-unknown", "record-missing", "cz-text",
            "cz-object"])
    def test_fields_follow_the_domain_json_rule(self, mutate, message):
        obj = self.ellipsoid_mirror()
        mutate(obj)
        with pytest.raises(ValidationError, match=_whole(message)):
            orbit_set_from_jsonable(obj)

    @pytest.mark.parametrize("label, shown", [
        (None, "NoneType None"), (1, "int 1"), (1.0, "float 1.0"), (["g"], "list ['g']"),
        (True, "bool True")])
    def test_a_label_must_be_a_json_string(self, label, shown):
        # str() once made null the orbit 'None', and 1 a duplicate of "1"
        obj = self.ellipsoid_mirror()
        obj["orbits"][0]["label"] = label
        with pytest.raises(ValidationError, match=f"^orbit labels must be strings, got {re.escape(shown)}$"):
            orbit_set_from_jsonable(obj)

    def test_labels_are_kept_as_written(self):
        obj = self.ellipsoid_mirror()
        obj["orbits"][0]["label"], obj["orbits"][1]["label"] = "1", "None"
        assert [o.label for o in orbit_set_from_jsonable(obj).orbits] == ["1", "None"]
        obj["orbits"][1]["label"] = "1"
        with pytest.raises(ValidationError, match="^orbit labels must be distinct$"):
            orbit_set_from_jsonable(obj)


class TestPathBounds:
    def test_hand_values(self):
        assert path_index_bounds(LatticePath(())) == (0, 0)
        tri = LatticePath((((1, -1), 1),))
        assert path_index_bounds(tri) == (3, 4)

    def test_upper_bound_counts_points(self, rng):
        for _ in range(100):
            p = random_path(rng)
            lower, upper = path_index_bounds(p)
            assert lower <= upper
            assert upper == 2 * (lattice_count_pick(p) - 1)


class TestIndexActionScan:
    def test_generic_integer_pair(self):
        report = index_action_scan(F(89), F(55), 8)
        assert len(report.rows) == 81
        first = report.rows[0]
        assert (first.m1, first.m2, first.action, first.index) == (0, 0, 0, 0)
        assert first.rank == 0 and first.tangent_count == 1
        for row in report.rows:
            assert row.index == 2 * row.rank == 2 * (row.tangent_count - 1)
            assert row.action == ellipsoid_action(F(89), F(55), row.m1, row.m2)

    def test_ratio_collision_detected(self):
        with pytest.raises(PreconditionError, match="ratio collision"):
            index_action_scan(F(1), F(1), 2)
        with pytest.raises(PreconditionError, match=r"2 \* b / a = 3"):
            index_action_scan(F(2), F(3), 3)

    def test_action_collision_detected(self):
        with pytest.raises(PreconditionError, match="action collision"):
            index_action_scan(F(3, 2), F(5, 2), 2)

    def test_validation(self):
        with pytest.raises(ValidationError):
            index_action_scan(F(-1), F(2), 1)
        with pytest.raises(ValidationError):
            index_action_scan(F(89), F(55), -1)


# The loop forms the floor-sum routes replaced, kept here as the oracle.

def _loop_index(a, b, m1, m2):
    s1 = sum(floor(j * a / b) for j in range(1, m1 + 1))
    s2 = sum(floor(j * b / a) for j in range(1, m2 + 1))
    return 2 * (m1 + m2 + m1 * m2 + s1 + s2)


def _loop_scan_preconditions(a, b, m_max):
    for j in range(1, m_max + 1):
        if (j * a / b).denominator == 1:
            raise PreconditionError(f"ratio collision: {j} * a / b = {j * a / b} is an integer")
        if (j * b / a).denominator == 1:
            raise PreconditionError(f"ratio collision: {j} * b / a = {j * b / a} is an integer")
    limit = (a + b) * m_max
    seen = {}
    m = 0
    while a * m <= limit:
        n = 0
        while a * m + b * n <= limit:
            v = a * m + b * n
            if v in seen:
                raise PreconditionError(
                    f"action collision: pairs {seen[v]} and ({m}, {n}) share action {v}")
            seen[v] = (m, n)
            n += 1
        m += 1


_small_axis = st.builds(F, st.integers(1, 30), st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(a=_small_axis, b=_small_axis, m1=st.integers(0, 40), m2=st.integers(0, 40))
def test_index_matches_loop_and_first_principles(a, b, m1, m2):
    idx = ellipsoid_index(a, b, m1, m2)
    assert idx == _loop_index(a, b, m1, m2)
    if m1 + m2 > 0:
        assert idx == star_shaped_index(ellipsoid_orbit_set(a, b, m1, m2))


def _digits_axis(digits):
    return st.builds(F, st.integers(10 ** (digits - 1), 10 ** digits - 1),
                     st.integers(10 ** (digits - 1), 10 ** digits - 1))


# small axes make j a / b an integer for some covers; 8- and 320-digit axes
# are the sizes the index-count and ellipsoid-gaps benchmarks draw
_bench_axis = st.one_of(_small_axis, _digits_axis(8), _digits_axis(320))


@settings(max_examples=60, deadline=None)
@given(a=_bench_axis, b=_bench_axis, m1=st.integers(0, 3000), m2=st.integers(0, 3000))
def test_integer_covers_match_the_fraction_route(a, b, m1, m2):
    if m1 + m2 == 0:
        m1 = 1
    os_ = ellipsoid_orbit_set(a, b, m1, m2)
    for orbit in os_.orbits:
        ratio = a / b if orbit.label == "g1" else b / a
        assert len(orbit.cz_indices) == orbit.multiplicity
        for j, cz in enumerate(orbit.cz_indices, 1):
            rot = j * ratio
            if rot.denominator == 1:
                assert cz == 2 * rot + 1
            else:
                # the Conley-Zehnder index of a nondegenerate elliptic orbit
                assert cz == floor(rot) + ceil(rot)
    expected = ellipsoid_index(a, b, m1, m2)

    def no_floor_sum(*args):
        raise AssertionError("star_shaped_index must not call floor_sum")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(echindex, "floor_sum", no_floor_sum)
        assert star_shaped_index(ellipsoid_orbit_set(a, b, m1, m2)) == expected


@settings(max_examples=300, deadline=None)
@given(a=_small_axis, b=_small_axis, m_max=st.integers(0, 14))
def test_scan_matches_loop_preconditions(a, b, m_max):
    try:
        _loop_scan_preconditions(a, b, m_max)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as caught:
            index_action_scan(a, b, m_max)
        assert type(caught.value) is PreconditionError
        assert str(caught.value) == str(exc)
        return
    report = index_action_scan(a, b, m_max)
    assert [(r.m1, r.m2) for r in report.rows] == [
        (m1, m2) for m1 in range(m_max + 1) for m2 in range(m_max + 1)]
    for r in report.rows:
        action = a * r.m1 + b * r.m2
        assert r.action == action and r.index == _loop_index(a, b, r.m1, r.m2)
        assert r.rank == pairs_below(a, b, action)
        assert r.tangent_count == count_action_pairs(a, b, action)


def test_large_multiplicities_match_the_loop_quickly():
    # the Fraction loop took about 10 s at this size; the integer loop is the oracle
    m = 10**6
    start = time.perf_counter()
    idx = ellipsoid_index(F(89), F(55), m, m)
    assert time.perf_counter() - start < 0.5
    s1 = sum(89 * j // 55 for j in range(1, m + 1))
    s2 = sum(55 * j // 89 for j in range(1, m + 1))
    assert idx == 2 * (m + m + m * m + s1 + s2) == 4236163611846


def test_index_is_twice_rank_at_large_multiplicities():
    # generic: a / b = 1000003 / 1000000 in lowest terms, so the first equal
    # actions, a * 1000000 = b * 1000003, lie far above every action here:
    # (m1, m2) is the one pair at its action, and the rank is the count less one
    a, b = F(1000003, 1000000), F(1)
    for m1, m2 in [(10**5, 0), (0, 10**5), (10**5, 10**5), (99_991, 3)]:
        action = ellipsoid_action(a, b, m1, m2)
        assert ellipsoid_index(a, b, m1, m2) == 2 * (count_action_pairs(a, b, action) - 1)


_coprime_pair = st.tuples(st.integers(1000, 2000), st.integers(1000, 2000)).filter(
    lambda pq: gcd(*pq) == 1)


@settings(max_examples=40, deadline=None)
@given(pq=_coprime_pair, m_max=st.integers(0, 14), swap=st.booleans())
def test_scan_matches_closed_form_and_counts_at_benchmark_sizes(pq, m_max, swap):
    # the index-count benchmark scans p / q against 1 with 10^3 <= p, q <= 2 * 10^3
    a, b = F(*pq), F(1)
    if swap:
        a, b = b, a
    report = index_action_scan(a, b, m_max)
    assert len(report.rows) == (m_max + 1) ** 2
    for r in report.rows:
        assert r.index == ellipsoid_index(a, b, r.m1, r.m2)
        assert r.rank == pairs_below(a, b, r.action)
        assert r.tangent_count == count_action_pairs(a, b, r.action)


def test_scan_index_calls_no_floor_sum(monkeypatch):
    expected = index_action_scan(F(1297, 1595), F(1), 14)

    def refuse(*args):
        raise AssertionError("the scan's index must come from its running sums")
    monkeypatch.setattr(echindex, "floor_sum", refuse)
    assert index_action_scan(F(1297, 1595), F(1), 14) == expected


@pytest.mark.parametrize("off_by, message", [
    (1, r"index 848 != 2 \* rank 425 at \(m1, m2\) = \(14, 14\)"),
    (0, r"index 848 != 2 \* \(tangent count - 1\) at \(14, 14\)"),
], ids=["rank", "tangent-count"])
def test_both_scan_identities_are_checked_on_the_last_row(monkeypatch, off_by, message):
    # a / b = 1297 / 1595 scales to the integer axes (1297, 1595), so the last row's
    # rank counts the pairs of scaled action <= 2892 * 14 - 1, its tangent count <= 2892 * 14
    count = echindex._count_scaled
    last = 2892 * 14

    def skewed(an, bn, ln):
        return count(an, bn, ln) + (ln == last - off_by)
    monkeypatch.setattr(echindex, "_count_scaled", skewed)
    with pytest.raises(AssertionError, match=message):
        index_action_scan(F(1297, 1595), F(1), 14)
