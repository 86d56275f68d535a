"""Exact rational time values and their renderings.

All time quantities that enter interval membership tests (word stamps,
operator bounds, guard constants, the step quantum) are kept as
``fractions.Fraction``; the acceptance product counts its clocks in integer
ticks of an exact rational unit (``frac_gcd``).  Floats only appear in
geometry and integration.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


def as_fraction(x) -> Fraction:
    """Coerce ``x`` to an exact Fraction.

    Strings accept both decimal ("0.2") and ratio ("1/5") notation.
    Floats are read as the decimal literal they print as, so 0.2 becomes
    exactly 1/5 rather than the binary float nearest to it.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    if isinstance(x, float):
        if math.isinf(x) or math.isnan(x):
            raise ValueError(f"cannot represent {x!r} as a rational")
        return Fraction(str(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


def frac_gcd(values) -> Fraction:
    """Largest rational of which every value is a whole multiple (0 for none)."""
    values = [as_fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    nums = (v.numerator * (den // v.denominator) for v in values)
    return Fraction(math.gcd(*nums), den)


def frac_str(q: Fraction) -> str:
    """Render as num/den (always with the explicit denominator)."""
    return f"{q.numerator}/{q.denominator}"


def decimal_str(q: Fraction) -> str:
    """Exact decimal rendering; falls back to num/den when non-terminating."""
    num, den = q.numerator, q.denominator
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return frac_str(q)
    shift = max(twos, fives)
    scaled = abs(num) * 10**shift // den
    digits = str(scaled).rjust(shift + 1, "0")
    sign = "-" if num < 0 else ""
    if shift == 0:
        return sign + digits
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"

