"""Exact rational scalars and their text forms.

Every quantity in this package is an exact rational; floats appear only in
advisory display columns. The scalar type is the standard Fraction; _fractions
reduces a listing's values by gcd itself, and tests hold them to the constructor.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from decimal import Context
from fractions import Fraction
from math import gcd, lcm

from .errors import ValidationError

APPROX_DIGITS = 12


class _Frozen:
    """Frozen-dataclass behaviour: __init__ sets _fields once via _set; ==, hash, repr use them."""

    __slots__ = ()
    _set = object.__setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__


def parse_rat(text: str) -> Fraction:
    """Parse "p/q", a decimal string, or a plain integer into a Fraction.

    A literal with a run of digits, a numerator or a denominator longer than
    Python writes an int with (the int-to-text limit) is refused, so every
    parsed value can be written back.

    >>> parse_rat("89/55")
    Fraction(89, 55)
    >>> parse_rat("1.61")
    Fraction(161, 100)
    """
    shown = _shown(text)
    if not isinstance(text, str) or not text.strip():
        raise ValidationError(f"not a rational literal: {shown}")
    limit = _int_text_limit()
    runs = re.findall(r"\d+", text.replace("_", "")) if 0 < limit < len(text) else ()
    if max(map(len, runs), default=0) > limit:
        raise ValidationError(f"rational literal {shown} has more than {limit} digits in a row")
    # Fraction builds 10**|e|; each exponent past limit + len(text) gives a nonzero mantissa
    # a numerator (e > 0) or denominator of more than limit digits, so the first stands in
    exp = re.search(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z", text) if limit else None
    if exp and int(exp[1]) > (reach := limit + len(text)):
        text = f"{text[:exp.start(1)]}{reach + 1}"
    try:
        x = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational literal: {shown}") from exc
    for part, n in (("numerator", x.numerator), ("denominator", x.denominator)):
        # n < 8**limit < 10**limit is decided by the bit length alone
        if limit and n.bit_length() > 3 * limit and abs(n) >= 10 ** limit:
            raise ValidationError(f"rational literal {shown} has a {part} of more than "
                                  f"{limit} digits, which cannot be written back as text")
    return x


def _shown(value: object, form: Callable[[object], str] = repr) -> str:
    """How a message echoes an outside value: form(value) when the value's text
    (a string itself, anything else form(value)) has at most 32 characters,
    otherwise the first 24 characters of that text and its length; a value
    with an int past the int-to-text digit limit is named by its type."""
    try:
        text = value if isinstance(value, str) else form(value)
    except ValueError:
        return f"<{type(value).__name__} with over {_int_text_limit()} digits>"
    return form(value) if len(text) <= 32 else f"{text[:24]!r}... ({len(text)} characters)"


def _int_text_limit() -> int:
    """The most digits Python writes an int with (sys.set_int_max_str_digits); 0 is no limit."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _exact_rat(x: object, what: str) -> Fraction:
    """Coerce an exact input (Fraction, int, or rational literal) to a Fraction.

    A plain Fraction comes back as it is. Floats are refused: binary rounding
    would silently poison exact results; so are bools, which would pass as 0 or 1.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise ValidationError(f"{what} must be exact; floats are rejected: {x!r}")
    if isinstance(x, bool):
        raise ValidationError(f"{what} must be rational, got bool {x!r}")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{what} must be rational: {_shown(x)}") from exc


def _exact_int(k: object, what: str = "k", least: int = 0) -> int:
    """Check an index such as a spectrum's k: an int (bools refused) >= least."""
    if isinstance(k, bool) or not isinstance(k, int) or k < least:
        raise ValidationError(f"need an int {what} >= {least}, got {type(k).__name__} {_shown(k)}")
    return k


def _plain_ints(values: Sequence[object], what: str) -> None:
    """Refuse anything but plain ints: a bool is an int and would pass as 0 or 1.

    The types are counted in one C-level pass; only a refusal walks the values,
    to name the first offender."""
    if list(map(type, values)).count(int) == len(values):
        return
    for v in values:
        if type(v) is not int:
            raise ValidationError(f"{what} must be ints, got {type(v).__name__} {_shown(v)}")


def _positive_axes(a: object, b: object) -> tuple[Fraction, Fraction]:
    """Exact ellipsoid axes (a, b), both positive."""
    a, b = _exact_rat(a, "axis"), _exact_rat(b, "axis")
    if a.numerator <= 0 or b.numerator <= 0:
        raise ValidationError("axes must be positive")
    return a, b


def _floor_times(x: Fraction, d: int) -> int:
    """floor(x d) for an integer d, in one integer division."""
    return x.numerator * d // x.denominator


def _ratio(a: Fraction, b: Fraction) -> tuple[int, int]:
    """Lowest-terms p, q of a / b for a, b > 0: cancel the numerators' and denominators' gcds."""
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    g, h = gcd(an, bn), gcd(ad, bd)
    return an // g * (bd // h), bn // g * (ad // h)


def _scaled(*values: Fraction) -> tuple[int, ...]:
    """The values' numerators over their least common denominator d, then d.

    Lets hot loops compare and add exact rationals as plain integers.
    """
    d = lcm(*[v.denominator for v in values])
    return (*[v.numerator * (d // v.denominator) for v in values], d)


def _fractions(nums: Iterable[int], den: int) -> Iterator[Fraction]:
    """Each v / den (den >= 1) as a reduced Fraction, equal neighbours (ties) sharing one, built
    as CPython's Fraction._from_coprime_ints builds results: gcd, then a bare instance's slots."""
    last, new = None, object.__new__
    for v in nums:
        if v != last:
            g, last, x = gcd(v, den), v, new(Fraction)
            x._numerator, x._denominator = v // g, den // g
        yield x


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a i + b) / m) over 0 <= i < n, for n >= 0, m >= 1 and any
    integers a, b, in O(log m) Euclid-style steps: the Euclid chain of (m, a),
    evaluated at (n, b). Callers that take many sums on one (m, a) build the
    chain once with _floor_chain and evaluate it with _chain_sum."""
    return _chain_sum(_floor_chain(m, a), n, b)


def _floor_chain(m: int, a: int) -> list[tuple[int, int, int]]:
    """The Euclid chain of (m, a), m >= 1: one (m, a // m, a % m) link per step of
    floor_sum, where each step's (m, a) is the last step's (a % m, m); the last
    link has a % m = 0. It depends on neither n nor b."""
    if m < 1:
        raise ValidationError(f"floor_sum needs m >= 1, got m={_shown(m, str)}")
    chain = []
    while m:
        qa = a // m
        a, m = m, a - qa * m
        chain.append((a, qa, m))
    return chain


def _chain_sum(chain: list[tuple[int, int, int]], n: int, b: int) -> int:
    """floor_sum(n, m, a, b) on the chain of (m, a), for n >= 0: at each link reduce
    b modulo m, then count the lattice points under the line from the other axis."""
    if n < 0:
        raise ValidationError(f"floor_sum needs n >= 0, got n={_shown(n, str)}")
    total = 0
    for m, qa, a in chain:
        if not 0 <= b < m:
            qb, b = divmod(b, m)
            total += qb * n
        total += qa * (n * (n - 1) // 2)
        y_max = a * n + b
        if y_max < m:  # always so at the last link, where a = 0
            return total
        n = y_max // m
        b = y_max - n * m


def to_string(x: Fraction) -> str:
    """Canonical exact text: "p/q" when q > 1, otherwise plain "p".

    Round-trips through parse_rat.
    """
    return str(x)


def approx_string(x: Fraction) -> str:
    """Decimal rendering rounded to APPROX_DIGITS significant digits.

    Always computed from the exact value, never from a prior approximation.
    """
    # a context of its own: the caller's thread-wide decimal context plays no part
    return str(Context(prec=APPROX_DIGITS).divide(x.numerator, x.denominator))
