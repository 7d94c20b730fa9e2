"""Exact rational arithmetic backend.

Everything numeric in this package is an exact rational. `Rat` is gmpy2's mpq
when available (about an order of magnitude faster) and fractions.Fraction
otherwise; the two interoperate and agree on normalization, ordering, equality
and hashing, so either backend yields identical results.
"""

from __future__ import annotations

import math
from fractions import Fraction

try:
    from gmpy2 import mpq as Rat

    BACKEND = "gmpy2.mpq"
except ImportError:  # gmpy2 is an optional extra (pip install mvmdp[gmpy2])
    Rat = Fraction
    BACKEND = "fractions.Fraction"

ZERO = Rat(0)
ONE = Rat(1)


def is_integer(value) -> bool:
    """True for an int that is not a bool (JSON true reads as bool)."""
    return isinstance(value, int) and not isinstance(value, bool)


def rat(value, den=None):
    """Coerce to Rat. Accepts ints, Rat/Fraction, 'p/q' strings, [num, den] pairs."""
    if den is not None:
        return Rat(value) / Rat(den)
    if isinstance(value, (list, tuple)):
        if len(value) != 2 or not all(map(is_integer, value)):
            raise ValueError(f"rational pair must be two integers, got {value!r}")
        return Rat(value[0]) / Rat(value[1])
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing {value!r}; pass an exact rational")
    if isinstance(value, str):
        return Rat(Fraction(value.strip()))
    return Rat(value)


def rat_str(value) -> str:
    """Render as 'p' or 'p/q'."""
    value = Rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rat_pair(value) -> list:
    """[numerator, denominator] with positive denominator, for JSON."""
    value = Rat(value)
    return [int(value.numerator), int(value.denominator)]


def floor_multiple(value, step):
    """Largest integer multiple of step that is <= value (step > 0)."""
    step = Rat(step)
    if step <= 0:
        raise ValueError("step must be positive")
    return Rat(math.floor(Rat(value) / step)) * step


def rationalize_float(x: float):
    """Nearest rational with denominator at most 10^6 (continued-fraction
    truncation)."""
    return Rat(Fraction(x).limit_denominator(10**6))
