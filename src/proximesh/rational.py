"""Exact rational coordinate helpers.

All geometry in this package runs on ``fractions.Fraction``. These helpers
parse user-facing coordinate strings exactly, render them canonically, and
rescale point tuples to plain integers so that sign-of-determinant
predicates can run on int arithmetic instead of Fraction arithmetic.
`geometry.orient2d` and `geometry.incircle` rescale their points on every
call; a `mesh.SiteSet` rescales its sites once, by the same rule, to one
shared scale where that stays narrow, and its predicates run with the
same integer kernels.
"""

from __future__ import annotations

import math
from fractions import Fraction


# Bounds on a number's text, checked before Fraction() builds 10**e for
# its exponent e, which takes seconds for e in the millions. MAX_DIGITS
# is CPython's int-to-text limit, so each number a writer emits reads
# back.
MAX_DIGITS = 4300
MAX_EXPONENT = 1000


class ParseError(ValueError):
    """A coordinate or file field could not be parsed exactly."""


def parse_rational(text: str) -> Fraction:
    """Parse a decimal or fraction string into an exact Fraction.

    Accepts "1.25", "-3", "7/3", "2.5e-3". Floats are never involved, so
    the value is exactly the written one. Each integer in the text has
    at most MAX_DIGITS digits, and an exponent is within +-MAX_EXPONENT.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a rational as a string, got "
                         f"{type(text).__name__}")
    mantissa, _, exponent = text.lower().partition("e")
    if len(text) > MAX_DIGITS and any(
        sum(map(str.isdecimal, part)) > MAX_DIGITS
        for part in (*mantissa.split("/"), exponent)
    ):
        raise ParseError(f"a number has more than {MAX_DIGITS} digits")
    try:
        power = abs(int(exponent or 0))
    except ValueError:
        power = 0  # Not an exponent; Fraction() rejects the text below.
    if power > MAX_EXPONENT:
        raise ParseError(f"exponent magnitude exceeds {MAX_EXPONENT}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not an exact rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical string for a Fraction: "p/q", or "p" when integral."""
    return str(value)


def scaled_ints(*coords: Fraction) -> list[int]:
    """Rescale rationals by the lcm of their denominators.

    The common positive factor preserves the sign of any homogeneous
    polynomial in the coordinates' differences, which is all the exact
    predicates need.
    """
    lcm = math.lcm(*(c.denominator for c in coords))
    return [c.numerator * (lcm // c.denominator) for c in coords]
