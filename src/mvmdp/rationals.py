"""Exact rational arithmetic backend.

Everything numeric in this package is an exact rational. `Rat` is gmpy2's mpq
when available (about an order of magnitude faster) and fractions.Fraction
otherwise; the two interoperate and agree on normalization, ordering, equality
and hashing, so either backend yields identical results.

`rat` is the one door for a caller's number: this module alone decides what
an exact number is. Text must match RATIONAL_TEXT, an optional sign, digits
and an optional /digits, before any integer is built; floats and bools are
refused.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

try:
    from gmpy2 import mpq as Rat

    BACKEND = "gmpy2.mpq"
except ImportError:  # gmpy2 is an optional extra (pip install mvmdp[gmpy2])
    Rat = Fraction
    BACKEND = "fractions.Fraction"

ZERO = Rat(0)
ONE = Rat(1)

RATIONAL_TEXT = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def is_integer(value) -> bool:
    """True for an int that is not a bool (JSON true reads as bool)."""
    return isinstance(value, int) and not isinstance(value, bool)


def rat(value, den=None):
    """Coerce to Rat: ints, Rat/Fraction, [num, den] integer pairs, and
    'p' or 'p/q' text (RATIONAL_TEXT; anything else raises ValueError).
    Floats and bools raise TypeError, a zero denominator ZeroDivisionError.
    rat(value, den) is rat(value) / rat(den)."""
    if den is not None:
        return rat(value) / rat(den)
    if type(value) is Rat:
        return value
    if isinstance(value, str):
        if not RATIONAL_TEXT.match(value):
            raise ValueError(f"not an exact rational like 3, -2 or 7/4: {value!r}")
        num, _, den = value.partition("/")
        if den and not int(den):
            raise ZeroDivisionError(f"denominator zero: {value!r}")
        return Rat(int(num), int(den or 1))
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing {value!r}; pass an exact rational")
    if isinstance(value, (list, tuple)):
        if len(value) != 2 or not all(map(is_integer, value)):
            raise ValueError(f"rational pair must be two integers, got {value!r}")
        return Rat(value[0]) / Rat(value[1])
    return Rat(value)


def rat_str(value) -> str:
    """Render as 'p' or 'p/q'."""
    value = rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def float_twin(value) -> float | None:
    """The float nearest value, or None where |value| is beyond the float
    range (about 1.8e308): the CLI's float rendering of an exact answer."""
    try:
        twin = float(value)
    except OverflowError:  # Fraction raises; a backend may round to inf
        return None
    return None if math.isinf(twin) else twin


def rat_pair(value) -> list:
    """[numerator, denominator] with positive denominator, for JSON."""
    value = rat(value)
    return [int(value.numerator), int(value.denominator)]


def rationalize_float(x: float):
    """Nearest rational with denominator at most 10^6 (continued-fraction
    truncation). Only a float or an int: text goes through rat."""
    return Rat(Fraction.from_float(x).limit_denominator(10**6))
