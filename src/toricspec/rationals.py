"""Exact rational scalars and their text forms.

Every quantity in this package is an exact rational; floats appear only in
advisory display columns. The scalar type Rat is the standard Fraction,
which already guarantees canonical reduced form with positive denominator.
"""

from __future__ import annotations

from collections.abc import Iterable
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm

from .errors import ValidationError

Rat = Fraction

APPROX_DIGITS = 12


def parse_rat(text: str) -> Fraction:
    """Parse "p/q", a decimal string, or a plain integer into a Fraction.

    >>> parse_rat("89/55")
    Fraction(89, 55)
    >>> parse_rat("1.61")
    Fraction(161, 100)
    """
    if not isinstance(text, str) or not text.strip():
        raise ValidationError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational literal: {text!r}") from exc


def _exact_rat(x: object, what: str) -> Fraction:
    """Coerce an exact input (Fraction, int, or rational literal) to a Fraction.

    Floats are refused: binary rounding would silently poison exact results.
    """
    if isinstance(x, float):
        raise ValidationError(f"{what} must be exact; floats are rejected: {x!r}")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{what} must be rational: {x!r}") from exc


def _exact_int(k: object, what: str = "k", least: int = 0) -> int:
    """Check an index such as a spectrum's k: an int (bools refused) >= least."""
    if isinstance(k, bool) or not isinstance(k, int) or k < least:
        raise ValidationError(f"need an int {what} >= {least}, got {type(k).__name__} {k!r}")
    return k


def _plain_ints(values: Iterable[object], what: str) -> None:
    """Refuse anything but plain ints: a bool is an int and would pass as 0 or 1."""
    for v in values:
        if type(v) is not int:
            raise ValidationError(f"{what} must be ints, got {type(v).__name__} {v!r}")


def _positive_axes(a: object, b: object) -> tuple[Fraction, Fraction]:
    """Exact ellipsoid axes (a, b), both positive."""
    a, b = _exact_rat(a, "axis"), _exact_rat(b, "axis")
    if a <= 0 or b <= 0:
        raise ValidationError("axes must be positive")
    return a, b


def _scaled(*values: Fraction) -> tuple[int, ...]:
    """The values' numerators over their least common denominator d, then d.

    Lets hot loops compare and add exact rationals as plain integers.
    """
    d = lcm(*(v.denominator for v in values))
    return (*(v.numerator * (d // v.denominator) for v in values), d)


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a i + b) / m) over 0 <= i < n, for n >= 0, m >= 1 and any
    integers a, b, in O(log m) Euclid-style steps: reduce a and b modulo m,
    then count the lattice points under the line from the other axis."""
    if n < 0 or m < 1:
        raise ValidationError(f"floor_sum needs n >= 0 and m >= 1, got n={n}, m={m}")
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def rat_cmp(x: Fraction, y: Fraction) -> int:
    """Three-way comparison: -1, 0, or 1."""
    if x < y:
        return -1
    return 1 if x > y else 0


def to_string(x: Fraction) -> str:
    """Canonical exact text: "p/q" when q > 1, otherwise plain "p".

    Round-trips through parse_rat.
    """
    return str(x)


def approx_string(x: Fraction, digits: int = APPROX_DIGITS) -> str:
    """Decimal rendering rounded to `digits` significant digits.

    Always computed from the exact value, never from a prior approximation.
    """
    if digits < 1:
        raise ValidationError("digits must be positive")
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return str(d)
