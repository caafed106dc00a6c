import copy
import decimal
import pickle
import time
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from toricspec import (
    Ball,
    BallSpectrum,
    DisjointUnion,
    Ellipsoid,
    EllipsoidSpectrum,
    LatticePath,
    OrbitRecord,
    PreconditionError,
    ToricSpectrum,
    ValidationError,
    approx_string,
    ball_capacity,
    best_approx_above,
    best_approx_below,
    close_gap_consistency,
    contact_volume,
    count_action_pairs,
    ellipsoid_action,
    ellipsoid_close,
    ellipsoid_index,
    ellipsoid_orbit_set,
    enumerate_paths,
    gap_asymptotics,
    index_action_scan,
    nk_sequence,
    nk_via_lattice,
    omega_length,
    orbit_set_from_jsonable,
    parse_rat,
    spectral_gap,
    spectrum_for,
    to_string,
    toric_capacity_detail,
    triangle_profile,
    union_capacity,
    validate_profile,
    weyl_report,
)
from toricspec.gaps import ellipsoid_close_detail
from toricspec.rationals import _exact_rat, _floor_times, _fractions, _ratio, floor_sum
from test_paths import square

F = Fraction


def _unit_square_length(path):
    return omega_length(square(), path)


def _orbit_json(linking=((0,),), **fields):
    orbit = {"label": "g", "chern": 1, "self_linking": -1, "multiplicity": 1, "cz": [1], **fields}
    return {"orbits": [orbit], "linking": [list(row) for row in linking]}


def _all_paths(*args):
    # enumerate_paths is a generator: its checks run once it is consumed
    return list(enumerate_paths(*args))


def test_parse_forms():
    assert parse_rat("2/3") == Fraction(2, 3)
    assert parse_rat("7") == Fraction(7)
    assert parse_rat("1.61") == Fraction(161, 100)
    assert parse_rat("-3/4") == Fraction(-3, 4)
    assert parse_rat(" 89/55 ") == Fraction(89, 55)


def test_parse_reduces_and_normalizes_sign():
    assert parse_rat("4/6") == Fraction(2, 3)
    v = parse_rat("-3/9")
    assert v.denominator > 0 and v == Fraction(-1, 3)


@pytest.mark.parametrize("bad", ["", "  ", "1/0", "abc", "1//2", "2 3", "3/-9"])
def test_parse_rejects(bad):
    with pytest.raises(ValidationError):
        parse_rat(bad)


def test_parse_rejects_non_string():
    with pytest.raises(ValidationError):
        parse_rat(None)


@pytest.mark.parametrize("text, part", [("1e4300", "numerator"), ("-1e4300", "numerator"),
                                        ("1e-4300", "denominator"), ("-3.5e-4300", "denominator"),
                                        ("1e30000000", "numerator"),
                                        ("-2.5E-30_000_000", "denominator")])
def test_parse_refuses_a_literal_past_the_digit_limit(text, part):
    # 10**4300 has 4301 digits, one past Python's default int-to-text limit;
    # a long exponent is refused before 10**e is built
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=f"{part} of more than 4300 digits"):
        parse_rat(text)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("text, value", [("0e30000000", 0), (" -0.00E-30000000 ", 0),
                                         ("1/2e30000000", None), ("1e30000000x", None),
                                         ("1.2.3e30000000", None)])
def test_a_long_exponent_is_screened_before_it_is_raised(text, value):
    # a zero mantissa stays 0 and a malformed literal stays malformed
    start = time.perf_counter()
    if value is None:
        with pytest.raises(ValidationError, match="not a rational literal"):
            parse_rat(text)
    else:
        assert parse_rat(text) == value
    assert time.perf_counter() - start < 5


@settings(max_examples=150, deadline=None)
@given(text=st.from_regex(r"\A ?[-+]?(\d{1,3}(_\d)?(\.\d{0,3})?|\.\d{1,3}|\d{1,3}/[1-9]\d{0,2})"
                          r"([eE][-+]?\d{1,4})? ?\Z"))
def test_short_literals_parse_as_fraction_does(text):
    # exponents up to 9999 reach past the screen's threshold (4300 plus the
    # length of the text), where the refusal must name the part Fraction's
    # own value would have too many digits in
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValidationError, match="not a rational literal"):
            parse_rat(text)
        return
    long_part = next((part for part, n in (("numerator", expected.numerator),
                                           ("denominator", expected.denominator))
                      if abs(n) >= 10 ** 4300), None) if expected else None
    if long_part:
        with pytest.raises(ValidationError, match=f"{long_part} of more than 4300 digits"):
            parse_rat(text)
    else:
        assert parse_rat(text) == expected


@pytest.mark.parametrize("text", ["1e4299", "-1e-4299", "9" * 4300, "1/" + "9" * 4300])
def test_parse_keeps_a_literal_at_the_digit_limit(text):
    assert parse_rat(to_string(parse_rat(text))) == parse_rat(text)


@pytest.mark.parametrize("text, reason", [
    ("1" * 5000, "more than 4300 digits in a row"),
    ("-7/" + "3" * 4301, "more than 4300 digits in a row"),
    ("1_" * 4400 + "1", "more than 4300 digits in a row"),
    ("1e" + "0" * 4400 + "1", "more than 4300 digits in a row"),
    ("1e4300" + " " * 5000, "numerator of more than 4300 digits"),
    ("x" * 5000, "not a rational literal"),
], ids=["integer", "denominator", "underscores", "exponent", "expanded", "garbage"])
def test_parse_messages_show_a_short_prefix_and_the_length(text, reason):
    with pytest.raises(ValidationError, match=reason) as info:
        parse_rat(text)
    assert f"... ({len(text)} characters)" in str(info.value) and len(str(info.value)) < 160


def test_parse_counts_digits_not_underscores():
    assert parse_rat("9_" * 4299 + "9") == 10 ** 4300 - 1


_BIG = 10 ** 5000  # past Python's default 4300-digit int-to-text limit


@pytest.mark.parametrize("call, error", [
    (lambda: ellipsoid_close(1, 2, Fraction(1, _BIG)), PreconditionError),
    (lambda: ellipsoid_close(Fraction(_BIG), 2, 1), PreconditionError),
    (lambda: spectrum_for(_BIG), ValidationError),
    (lambda: contact_volume(_BIG), ValidationError),
    (lambda: nk_sequence(1, 2, -_BIG), ValidationError),
    (lambda: weyl_report(BallSpectrum(Ball(Fraction(1))), [-_BIG]), ValidationError),
    (lambda: OrbitRecord("g", 1, -1, (1,), -_BIG), ValidationError),
    (lambda: orbit_set_from_jsonable(_orbit_json(cz=[Fraction(_BIG, 3)])), ValidationError),
    (lambda: LatticePath((((_BIG, 1), 1),)), ValidationError),
    (lambda: LatticePath((((2 * _BIG, -2), 1),)), ValidationError),
    (lambda: floor_sum(-_BIG, 1, 1, 1), ValidationError),
    (lambda: index_action_scan(Fraction(_BIG + 1, _BIG), 1, 10 ** 5001), PreconditionError),
], ids=["close-cutoff", "close-axis", "spectrum-for", "contact-volume", "nk-sequence", "weyl",
        "orbit-multiplicity", "cover-index", "direction", "path", "floor-sum",
        "index-scan"])
def test_a_value_past_the_digit_limit_is_refused_with_a_short_message(call, error):
    # writing such a value out raises Python's own ValueError; the message names it instead
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert "with over 4300 digits>" in str(info.value) and len(str(info.value)) < 110


def test_to_string_round_trips():
    for v in [Fraction(0), Fraction(7), Fraction(-7), Fraction(2, 3), Fraction(-89, 55)]:
        assert parse_rat(to_string(v)) == v
    assert to_string(Fraction(4)) == "4"
    assert to_string(Fraction(2, 3)) == "2/3"


def test_approx_is_12_significant_digits():
    assert approx_string(Fraction(2, 3)) == "0.666666666667"
    assert approx_string(Fraction(89, 55)) == "1.61818181818"
    assert approx_string(Fraction(2)) == "2"
    assert approx_string(Fraction(0)) == "0"


def test_approx_comes_from_exact_value():
    # a value a float would misrepresent: 10^17 + 1 over 10^17
    v = Fraction(10**17 + 1, 10**17)
    assert approx_string(v) == "1.00000000000"


def _approx_in_local_context(x):
    # the former route: divide in a copy of the caller's decimal context, at 12 places
    with decimal.localcontext() as ctx:
        ctx.prec = 12
        return str(decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator))


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**40, 10**40), st.integers(1, 10**40))
def test_approx_matches_the_local_context_route(n, d):
    x = Fraction(n, d)
    assert approx_string(x) == _approx_in_local_context(x)


@pytest.mark.parametrize("x, text", [
    (Fraction(2, 3), "0.666666666667"),
    (Fraction(-2, 3), "-0.666666666667"),
    (Fraction(10**13 - 1), "1.00000000000E+13"),
    (Fraction(2, 3 * 10**10), "6.66666666667E-11"),
])
def test_approx_ignores_the_callers_decimal_context(x, text):
    assert approx_string(x) == _approx_in_local_context(x) == text
    with decimal.localcontext() as ctx:
        ctx.rounding = decimal.ROUND_DOWN
        assert approx_string(x) == text
        assert _approx_in_local_context(x) != text  # the former route rounded down here
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.traps[decimal.Inexact] = 3, True
        assert approx_string(x) == text


@pytest.mark.parametrize("call, args", [
    (nk_sequence, (0.1, 1, 3)),
    (nk_sequence, (1, 1.5, 3)),
    (nk_via_lattice, (0.5, F(2), 4)),
    (nk_via_lattice, (F(1), 2.0, 4)),
    (count_action_pairs, (1.5, F(1), F(3))),
    (count_action_pairs, (F(1), F(3, 2), 3.0)),
    (ball_capacity, (1.5, 3)),
    (best_approx_below, (1.0, F(89, 55), F(100))),
    (best_approx_below, (F(1), F(89, 55), 100.0)),
    (best_approx_above, (F(1), 1.618, F(100))),
    (best_approx_above, (F(1), F(89, 55), 100.0)),
    (ellipsoid_close, (F(1), 1.618, F(100))),
    (ellipsoid_close, (F(1), F(89, 55), 100.0)),
    (ellipsoid_index, (0.7, F(1), 2, 3)),
    (ellipsoid_orbit_set, (F(2), 3.0, 1, 1)),
    (index_action_scan, (1.0007, F(1), 3)),
    (ellipsoid_action, (F(2), 3.5, 1, 1)),
    (ToricSpectrum(square()).count_le, (2.5,)),  # in place of a removed case: ids stay put
    (close_gap_consistency, (F(1), F(89, 55), [F(10), 20.0])),
    (spectral_gap, (EllipsoidSpectrum(Ellipsoid(F(2), F(3))), 10.0)),
    (gap_asymptotics, (EllipsoidSpectrum(Ellipsoid(F(2), F(3))), [F(5), 10.0])),
    (triangle_profile, (1.5, F(2))),  # in place of a removed case: ids stay put
    # appended last so the generated ids of the earlier cases stay stable
    (ellipsoid_close_detail, (F(1), F(89, 55), 100.0)),
    (weyl_report, (BallSpectrum(Ball(F(1))), [5, 2.5])),  # in place of a removed case: ids stay put
    (weyl_report, (BallSpectrum(Ball(F(1))), [5.0])),
    (validate_profile, ([(0, 0.1), (1, 0)],)),
    (_all_paths, (2.5, F(1, 2), _unit_square_length)),
    (_all_paths, (F(5), 0.5, _unit_square_length)),
    (toric_capacity_detail, (square(), 2.5)),
    (ToricSpectrum(square()).entry, (2.5,)),
    (EllipsoidSpectrum(Ellipsoid(F(2), F(3))).value, (2.5,)),
    (ball_capacity, (F(1), 2.5)),
    (nk_via_lattice, (F(1), F(2), 2.5)),
    (nk_sequence, (F(1), F(2), 2.5)),
    (_all_paths, (F(3), F(1, 2), lambda p: 1.5)),
    (ellipsoid_index, (F(2), F(3), 2.5, 1)),
    (ellipsoid_index, (F(2), F(3), 1, 2.0)),
    (ellipsoid_action, (F(2), F(3), 1.5, 1)),
    (ellipsoid_orbit_set, (F(2), F(3), 1.5, 0)),
    (index_action_scan, (F(1000, 1001), F(1), 2.5)),
    (OrbitRecord, ("g", 1, -1, (1,), 1.0)),
    # in place of removed cases: ids stay put
    (BallSpectrum(Ball(F(1))).count_le, (0.1,)),
    (union_capacity, ([BallSpectrum(Ball(F(1)))], 2.5)),
    (LatticePath, ((((1.0, 0), 1),),)),
    (LatticePath, ((((1, 0), 2.0),),)),
    (LatticePath, ((((1, -1.5), 1),),)),
    (LatticePath, ((((1, -1.0), 1),),)),
])
def test_library_entry_points_refuse_floats(call, args):
    with pytest.raises(ValidationError, match="float"):
        call(*args)


@pytest.mark.parametrize("call, args", [
    (toric_capacity_detail, (square(), True)),
    (ball_capacity, (F(1), True)),
    (ellipsoid_index, (F(2), F(3), True, 1)),
    (ellipsoid_action, (F(2), F(3), 1, True)),
    (ellipsoid_orbit_set, (F(2), F(3), True, 0)),
    (index_action_scan, (F(1000, 1001), F(1), True)),
    (OrbitRecord, ("g", 1, -1, (1,), True)),
    (LatticePath, ((((1, 0), True),),)),
    # in place of removed cases: ids stay put
    (LatticePath, ((((True, 0), 1),),)),
    (LatticePath, ((((1, 0), 1), ((1, -1), True)),)),
    (orbit_set_from_jsonable, (_orbit_json(multiplicity=True),)),
    (orbit_set_from_jsonable, (_orbit_json(cz=[True]),)),
    (orbit_set_from_jsonable, (_orbit_json(linking=[[False]]),)),
    # a bool axis, limit, cutoff, parameter or intercept
    (count_action_pairs, (True, 2, 5)),
    (count_action_pairs, (F(1), F(2), False)),
    (nk_via_lattice, (F(1), True, 3)),
    (ellipsoid_index, (True, F(3), 2, 1)),
    (ellipsoid_action, (F(2), True, 1, 1)),
    (ball_capacity, (True, 3)),
    (weyl_report, (BallSpectrum(Ball(F(1))), [4, True])),  # in place of a removed case: ids stay put
    (spectral_gap, (EllipsoidSpectrum(Ellipsoid(F(2), F(3))), True)),
    (EllipsoidSpectrum(Ellipsoid(F(2), F(3))).count_le, (True,)),
    (triangle_profile, (True, F(2))),  # in place of a removed case: ids stay put
])
def test_spectrum_indices_refuse_bools(call, args):
    # bool is a subclass of int, so a bare k < 0 check took True as k = 1
    with pytest.raises(ValidationError, match="bool"):
        call(*args)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 60), m=st.integers(1, 40),
       a=st.integers(-200, 200), b=st.integers(-200, 200))
def test_floor_sum_matches_brute_force(n, m, a, b):
    # a and b range past m in both directions, so the reduction steps run
    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_floor_sum_edges():
    assert floor_sum(0, 7, 100, 100) == 0
    assert floor_sum(1, 7, 100, 100) == 100 // 7
    assert floor_sum(5, 1, 3, 2) == sum(3 * i + 2 for i in range(5))
    # a long sum against the plain loop
    assert floor_sum(10**5, 55, 89, 13) == sum((89 * i + 13) // 55 for i in range(10**5))


@pytest.mark.parametrize("n, m", [(-1, 3), (2, 0), (2, -5)])
def test_floor_sum_rejects_bad_ranges(n, m):
    with pytest.raises(ValidationError, match="floor_sum"):
        floor_sum(n, m, 1, 1)


class _FractionSubclass(Fraction):
    pass


def test_exact_rat_returns_a_plain_fraction_as_it_is():
    x = F(89, 55)
    assert _exact_rat(x, "axis") is x
    for given_value in (_FractionSubclass(89, 55), "89/55"):
        out = _exact_rat(given_value, "axis")
        assert type(out) is Fraction and out == x
    assert type(_exact_rat(3, "axis")) is Fraction


_rats = st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40))
_positive_rats = st.builds(F, st.one_of(st.integers(1, 60), st.integers(1, 10**30)),
                           st.one_of(st.integers(1, 60), st.integers(1, 10**30)))


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(_rats, st.builds(F, st.integers(-50, 50), st.integers(1, 12))),
       d=st.one_of(st.integers(1, 60), st.integers(1, 10**40)))
def test_floor_times_is_the_floor_of_the_product(x, d):
    assert _floor_times(x, d) == floor(x * d)


@settings(max_examples=300, deadline=None)
@given(a=_positive_rats, b=_positive_rats)
def test_ratio_is_the_reduced_quotient(a, b):
    assert _ratio(a, b) == (a / b).as_integer_ratio()


_listing_ints = st.one_of(st.integers(0, 50), st.integers(0, 10**12), st.integers(10**319, 10**320))


@st.composite
def _listings(draw):
    """A nondecreasing numerator list from 0, with ties, and a denominator >= 1 that shares a
    factor with some numerators; den = 1 and 320-digit ints come up."""
    common = draw(st.one_of(st.just(1), _listing_ints.filter(bool)))
    den = common * draw(st.one_of(st.just(1), _listing_ints.filter(bool)))
    drawn = draw(st.lists(st.tuples(_listing_ints, st.booleans(), st.integers(1, 3)), max_size=25))
    return sorted([0, *(v * common if shared else v for v, shared, times in drawn
                        for _ in range(times))]), den


@settings(max_examples=300, deadline=None)
@given(_listings())
def test_listing_fractions_are_the_constructors(listing):
    # _fractions sets Fraction's slots itself; if CPython ever changes that layout, this fails
    nums, den = listing
    made = list(_fractions(nums, den))
    assert len(made) == len(nums)
    others = (F(0), F(1), F(-2, 3), F(nums[-1] + 1, den))
    for i, (v, x) in enumerate(zip(nums, made)):
        y = F(v, den)
        assert type(x) is Fraction
        assert (x == y, x.numerator, x.denominator) == (True, y.numerator, y.denominator)
        assert (hash(x), repr(x), str(x)) == (hash(y), repr(y), str(y))
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(twin) is Fraction and twin == y and repr(twin) == repr(y)
        assert {y: i}[x] == i
        for z in (*others, y):
            assert (x < z, x <= z, x > z, x >= z, x == z, z == x) == (y < z, y <= z, y > z, y >= z,
                                                                    y == z, z == y)
            assert (x + z, x - z, x * z, z - x, x // 1, x % 1) == (y + z, y - z, y * z, z - y,
                                                                  y // 1, y % 1)
            if z:
                assert (x / z, x ** 2) == (y / z, y ** 2)
        if i:
            assert (x is made[i - 1]) == (v == nums[i - 1])


def _three_parts():
    return spectrum_for(DisjointUnion((Ball(F(1)), Ellipsoid(F(2), F(3)),
                                       validate_profile([(0, 2), (1, F(3, 2)), (2, 0)]))))


@pytest.mark.parametrize("make, k_max", [
    (lambda: EllipsoidSpectrum(Ellipsoid(F(3, 5), F(267, 275))), 40),
    (lambda: EllipsoidSpectrum(Ellipsoid(F(3, 5), F(267, 275))), 1200),
    (lambda: EllipsoidSpectrum(Ellipsoid(F(1), F(3, 2))), 60),
    (lambda: BallSpectrum(Ball(F(2, 3))), 50),
    (lambda: ToricSpectrum(square()), 30),
    (lambda: ToricSpectrum(validate_profile([(0, 2), (1, F(7, 4)), (2, 1), (F(5, 2), 0)])), 20),
    (_three_parts, 45),
], ids=["ellipsoid", "ellipsoid-1200", "ellipsoid-ties", "ball", "square", "toric", "union"])
def test_listings_agree_with_single_entries(make, k_max):
    spectrum = make()
    listing = spectrum.entries(k_max)
    assert make().values(k_max) == spectrum.values(k_max) == [v for v, _w in listing]
    for k, (value, witness) in enumerate(listing):
        assert type(value) is Fraction and (value, witness) == spectrum.entry(k)
        if k and value == listing[k - 1][0]:
            assert value is listing[k - 1][0]


_SPEC23 = EllipsoidSpectrum(Ellipsoid(F(2), F(3)))


# every message written out by hand, as the edge gave it before its fast paths
@pytest.mark.parametrize("call, args, error, message", [
    (count_action_pairs, (1.5, F(1), F(3)), ValidationError, "axis must be exact; floats are rejected: 1.5"),
    (count_action_pairs, (F(1), "x", F(3)), ValidationError, "axis must be rational: 'x'"),
    (count_action_pairs, (F(1), F(1), None), ValidationError, "limit must be rational: None"),
    (count_action_pairs, (F(0), F(1), F(3)), ValidationError, "axes must be positive"),
    (nk_via_lattice, (F(1), F(-1, 2), 3), ValidationError, "axes must be positive"),
    (nk_via_lattice, (F(1), F(2), -1), ValidationError, "need an int k >= 0, got int -1"),
    (Ellipsoid, (F(0), F(1)), ValidationError, "ellipsoid axes must be positive"),
    (Ellipsoid, (F(1), F(-1)), ValidationError, "ellipsoid axes must be positive"),
    (Ellipsoid, (1, F(1)), ValidationError, "ellipsoid axes must be Fractions"),
    (Ball, (F(0),), ValidationError, "ball radius parameter must be positive"),
    (ball_capacity, (F(-1, 3), 2), ValidationError, "ball parameter must be positive"),
    (ball_capacity, (0, 2), ValidationError, "ball parameter must be positive"),
    (spectral_gap, (_SPEC23, 10.0), ValidationError, "cutoff must be exact; floats are rejected: 10.0"),
    (_SPEC23.count_le, ("1/0",), ValidationError, "cutoff must be rational: '1/0'"),
    (ellipsoid_index, (F(2), F(0), 1, 1), ValidationError, "axes must be positive"),
    (ellipsoid_index, (F(2), F(3), -1, 1), ValidationError, "need an int m1 >= 0, got int -1"),
    (ellipsoid_orbit_set, (F(2), F(3), 0, 0), ValidationError,
     "need multiplicities m1, m2 not both zero"),
    (index_action_scan, (F(2), F(1), 3), PreconditionError,
     "ratio collision: 1 * a / b = 2 is an integer"),
    (index_action_scan, (F(1), F(3), 5), PreconditionError,
     "ratio collision: 1 * b / a = 3 is an integer"),
    (index_action_scan, (F(7, 5), F(1), 4), PreconditionError,
     "action collision: pairs (0, 7) and (5, 0) share action 7"),
])
def test_edge_refusal_messages_are_unchanged(call, args, error, message):
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error and str(info.value) == message
