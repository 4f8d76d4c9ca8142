"""Exact rational numbers and binomial coefficients.

Every verdict-bearing comparison in this package is carried out on
``fractions.Fraction`` values (arbitrary-precision, always canonical:
positive denominator, gcd(|num|, den) = 1).  No floating point is used
anywhere on a pass/fail path; several audited inequalities are met with
exact equality and would be corrupted by rounding.

Serialization convention: ``"num/den"`` with the sign on the numerator and
the denominator omitted when it equals 1 (``"3"``, ``"-1/2"``).  This is
exactly ``str(Fraction)``, so reports diff bit-for-bit.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InputError

# The "num/den" grammar: ASCII digits only, the sign on the numerator.
_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def binomial(n: int, r: int) -> int:
    """Binomial coefficient n!/(r!(n-r)!) for r <= n, and 0 for r > n."""
    if n < 0 or r < 0:
        raise InputError(f"binomial arguments must be nonnegative, got ({n}, {r})")
    return math.comb(n, r)


def format_rational(value: Fraction | int) -> str:
    """Render a rational as "num/den" (denominator omitted when 1)."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse the "num/den" format, ``-?[0-9]+(/[0-9]+)?``, back into a Fraction.

    Whitespace, a plus sign, underscores, decimals, exponents and non-ASCII
    digits, all of which ``Fraction`` would accept, are input errors.
    """
    if not _LITERAL.fullmatch(text):
        raise InputError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except (ZeroDivisionError, ValueError) as exc:  # a zero denominator, too many digits
        raise InputError(f"not a rational literal: {text!r}") from exc
