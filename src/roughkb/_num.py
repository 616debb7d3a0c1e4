"""Exact rational arithmetic helpers.

All credibility computations run on :class:`fractions.Fraction`; floats
never enter the pipeline.  Two distinct rounding rules exist on purpose:

* :func:`publish2` quantizes an intermediate to two decimals with halves
  rounded up.  The two-decimal compatibility mode feeds these published
  values into later stages, which is what makes hand-checked worked
  figures reproduce digit for digit.
* :func:`render` produces decimal strings for files and terminals using
  round-half-even, and never feeds back into arithmetic.

The kernels work on the integer numerator and denominator of a value
rather than through Fraction operators, each of which normalizes its
result with a gcd and dispatches on the operand types.  ``publish2(x)``
is ``floor((200*num + den) / (2*den)) / 100``, ``render`` takes
``divmod(|num| * 10**places, den)`` and settles a tie by comparing twice
the remainder with ``den``, ``clamp01`` compares the numerator with 0 and
with the denominator, and :func:`fsum` adds over one running lcm
denominator and builds a single Fraction at the end.  Every result is
the same exact rational the operator form gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Union

Rational = Union[Fraction, int]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce a number or numeric string to an exact Fraction.

    Floats are routed through their shortest decimal repr, so ``0.1``
    becomes exactly 1/10 rather than the binary neighbour.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def fsum(values: Iterable[Rational]) -> Fraction:
    """Exact sum of rationals, with one Fraction built at the end."""
    num, den = 0, 1
    for value in values:
        n, d = value.as_integer_ratio()
        if d == den:
            num += n
        else:
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    return Fraction(num, den)


def publish2(x: Rational) -> Fraction:
    """Quantize a nonnegative rational to 2 decimal places, half up."""
    num, den = x.as_integer_ratio()
    return Fraction((200 * num + den) // (2 * den), 100)


def clamp01(x: Rational) -> Rational:
    num, den = x.as_integer_ratio()
    if num < 0:
        return ZERO
    if num > den:
        return ONE
    return x


def render(x: Rational, places: int) -> str:
    """Format an exact rational with a fixed number of decimals.

    Uses banker's rounding on the exact value, so the output is
    independent of any binary float representation.
    """
    if not isinstance(x, (Fraction, int)):
        x = Fraction(x)
    num, den = x.as_integer_ratio()
    whole, rest = divmod(abs(num) * 10 ** places, den)
    if 2 * rest > den or (2 * rest == den and whole % 2 == 1):
        whole += 1
    sign = "-" if num < 0 else ""
    digits = str(whole).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return "%s%s.%s" % (sign, digits[:-places], digits[-places:])
