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
the remainder with ``den``, and :func:`fsum` adds over one running lcm
denominator and builds a single Fraction at the end.  The kernels of
``propagation`` take integer records rather than Fractions: each
(label, disease) entry, and each piece of direct evidence, is turned
once into ``(vd, cf numerator, cf denominator, truth record)``, the
truth record being the triple's three numerators over one common
denominator.  ``_level2`` and ``_cf_multi`` put a node's carrier
credibilities on one denominator and compute the truth value, the gate
test, each weighted term and the clamped, published result on those
integers; ``_step`` merges direct evidence with that result on one
denominator too; ``_mean_triple`` sums the truth records over one
denominator.  Each result is a record's cf, in lowest terms or over 100
in the two-decimal mode.  The kernels take the lcm of the records'
denominators only when they differ; above level 2 of a two-decimal
build (whose derived records keep the denominator 100) they add the
numerators as they are.  No kernel builds a Fraction: ``derive`` keeps
a value table for the call, keyed by records, so each distinct triple
and each distinct entry of a disease, with its cf, is built once (a
value over 100 takes the shared hundredths).  Every result is the same
exact rational the operator form gives, and the entry is built by
``DecisionEntry._checked``, which assigns the values without validating
them again.

:func:`parse_rational` is the one parser of number tokens read from
files and the command line, and :func:`frac` sends every string through
it too.  :func:`parse_int` is the one parser of their integer tokens.
Both read ASCII digits only.  :class:`Converted` converts each distinct
key once: ``load_kb`` keeps its token tables in it, and the ``w=``
renderer of ``kbio`` its item texts.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, isfinite
from typing import Iterable, Union

from . import errors

Rational = Union[Fraction, int]

ZERO = Fraction(0)
ONE = Fraction(1)

# An integer, a ratio of integers or a decimal, in ASCII digits.  No
# exponent, for which Fraction would build 10**exponent before any range
# check could refuse the value.
_RATIONAL_RE = re.compile(r"([-+]?)([0-9]*)(?:/([0-9]+)|\.([0-9]*))?\Z")
_INT_RE = re.compile(r"[-+]?[0-9]+\Z")
# The widest Decimal exponent taken: a number token's digits stop at the
# interpreter's default int-string limit, 4300 digits, and Fraction
# builds 10**|exponent| from a Decimal.
_DECIMAL_EXPONENT_LIMIT = 4300


def parse_rational(token: str) -> Fraction:
    """Parse a number token of a file or the command line exactly.

    Accepts ``N``, ``N/D`` and decimals such as ``0.25`` or ``.5`` (what
    the serializer writes, and what users type), and builds the Fraction
    from integers.  Raises ValueError for anything else, exponent
    notation included, and ZeroDivisionError for a zero denominator;
    callers turn both into their typed error.
    """
    match = _RATIONAL_RE.match(token)
    if match is None:
        raise ValueError("not a plain number: %r" % (token,))
    sign, whole, den, decimals = match.groups()
    if den is not None:
        return Fraction(int(sign + whole), int(den))
    if decimals is None:
        return Fraction(int(sign + whole))
    # int() refuses "", ".", "-" and more digits than the interpreter's limit
    return Fraction(int(sign + whole + decimals), 10 ** len(decimals))


def parse_int(token: str) -> int:
    """Parse an integer token of a file or the command line.

    Accepts ASCII digits with an optional sign, such as ``2``, ``+2`` or
    ``02``.  ``int()`` alone would also read ``1_0`` as 10, non-ASCII
    digits such as ``\u0662`` as 2, and surrounding blanks.  Raises
    ValueError for anything else; callers turn it into their typed error.
    """
    if _INT_RE.match(token) is None:
        raise ValueError("not a plain integer: %r" % (token,))
    return int(token)


def frac(value) -> Fraction:
    """Coerce a number or numeric string to an exact Fraction.

    Floats are routed through their shortest decimal repr, so ``0.1``
    becomes exactly 1/10 rather than the binary neighbour.  A string
    goes through :func:`parse_rational` (surrounding blanks aside), so
    exponent notation is refused before any ``10**exponent`` is built;
    a string it refuses, any value ``Fraction`` refuses (a nan or
    infinite float or Decimal, None, a non-number) and a Decimal whose
    exponent passes ``_DECIMAL_EXPONENT_LIMIT`` raise ``errors.OutOfRange``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not isfinite(value):
            raise errors.OutOfRange("not a finite number: %r" % (value,))
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return parse_rational(value.strip())
        except (ValueError, ZeroDivisionError):
            raise errors.OutOfRange("not a plain number: %r" % (value,))
    if (isinstance(value, Decimal) and value.is_finite()
            and abs(value.as_tuple().exponent) > _DECIMAL_EXPONENT_LIMIT):
        raise errors.OutOfRange("exponent too wide: %r" % (value,))
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise errors.OutOfRange("not a finite number: %r" % (value,))


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


class Converted(dict):
    """Key to its value, each distinct key converted once.  A key the
    converter refuses raises and is not kept."""

    __slots__ = ("convert",)

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value
