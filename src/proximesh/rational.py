"""Exact rational coordinate helpers.

All geometry in this package runs on ``fractions.Fraction``. These helpers
parse user-facing coordinate strings exactly, render them canonically, and
rescale points to plain integers so that sign-of-determinant predicates
can run on int arithmetic instead of Fraction arithmetic.
`geometry.orient2d` and `geometry.incircle` rescale their points on every
call (`scaled_ints`). A `Lattice` rescales a whole point set once, to one
shared scale where that stays narrow: `mesh.SiteSet` does so for its
sites, `geometry.Polygon` for its vertices, and `geometry.clip_halfplane`
and `geometry.convex_hull` for their points, and their predicates run
with the same integer kernels by point index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional


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


class Lattice:
    """Points scaled once to integer coordinates.

    `lattice` holds point i as the integer pair (X, Y) of the point
    (X / scales[i], Y / scales[i]). All points share one scale, `scale`,
    the lcm of all their denominators, unless that lcm has more than
    4·b + 64 bits, b being the bit length of the widest point's own lcm;
    then `scale` is None and each point keeps the lcm of its own two
    denominators. `scaled` puts the points of one predicate on the lcm
    of their scales.
    """

    __slots__ = ("scale", "scales", "lattice")

    def __init__(self, points: Iterable) -> None:
        """Scale `points`, each with Fraction coordinates `x` and `y`."""
        points = tuple(points)
        own = [math.lcm(p.x.denominator, p.y.denominator) for p in points]
        # A predicate on four points pays at most for the lcm of their own
        # scales, about four times the widest. A shared scale within that,
        # and a machine word more, makes no predicate dearer than scaling
        # its points per call would; the lcm of many unrelated large
        # denominators would make every predicate pay for all of them.
        # The lcm is abandoned as soon as it passes that width.
        width = 4 * max(own, default=1).bit_length() + 64
        shared: Optional[int] = 1
        for w in own:
            shared = math.lcm(shared, w)
            if shared.bit_length() > width:
                shared = None
                break
        self.scale = shared
        self.scales = tuple(own) if shared is None else (shared,) * len(own)
        self.lattice = tuple(map(_on_scale, points, self.scales))

    def joined(self, p) -> Lattice:
        """These points and p after them. p keeps its own scale beside
        own scales; a shared scale widens to its lcm with p's own, so
        that a predicate on p and two points pays at most for its three
        points and the shared scale."""
        w = math.lcm(p.x.denominator, p.y.denominator)
        out = Lattice.__new__(Lattice)
        if self.scale is None:
            out.scale = None
            out.scales = (*self.scales, w)
            out.lattice = (*self.lattice, _on_scale(p, w))
            return out
        s = out.scale = math.lcm(self.scale, w)
        out.scales = (s,) * (len(self.scales) + 1)
        m = s // self.scale
        lattice = self.lattice if m == 1 else (
            (x * m, y * m) for x, y in self.lattice
        )
        out.lattice = (*lattice, _on_scale(p, s))
        return out

    def scaled(self, *idx: int) -> tuple[int, list[int]]:
        """A common scale of the points idx, and their coordinates, x then
        y for each point in turn, as integers over it: the lcm of their
        own scales, as `scaled_ints` takes it per call."""
        lattice = self.lattice
        if self.scale is not None:
            return self.scale, [c for v in idx for c in lattice[v]]
        scales = [self.scales[v] for v in idx]
        s = math.lcm(*scales)
        shares = [s // w for w in scales]
        return s, [c * m for v, m in zip(idx, shares) for c in lattice[v]]


def _on_scale(p, w: int) -> tuple[int, int]:
    """The coordinates of p as integers over w, a multiple of their
    denominators."""
    return (p.x.numerator * (w // p.x.denominator),
            p.y.numerator * (w // p.y.denominator))


def scaled_ints(*coords: Fraction) -> list[int]:
    """Rescale rationals by the lcm of their denominators.

    The common positive factor preserves the sign of any homogeneous
    polynomial in the coordinates' differences, which is all the exact
    predicates need.
    """
    lcm = math.lcm(*(c.denominator for c in coords))
    return [c.numerator * (lcm // c.denominator) for c in coords]
