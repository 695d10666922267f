"""Exact planar primitives.

Points carry arbitrary-precision rational coordinates, every predicate
in this module decides its sign exactly, and no function here returns a
float. A `Polygon`, and the points of one `convex_hull` or
`clip_halfplane` call, are scaled once to a `rational.Lattice`, which
takes every sign on them by point index, segment tests included.
`orient2d` and `incircle` scale their points to integers per call and
run `rational`'s integer kernels; they serve callers outside the
library, which takes all its signs on lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .rational import Lattice, _incircle, _orient, scaled_ints

Coord = Union[Fraction, int, str]


class DegenerateInputError(ValueError):
    """Input that the operation's precondition rules out (collinear
    triple, too few distinct points, zero-area polygon)."""


@dataclass(frozen=True, slots=True)
class Point2:
    """A plane point with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __init__(self, x: Coord, y: Coord) -> None:
        try:
            object.__setattr__(self, "x", Fraction(x))
            object.__setattr__(self, "y", Fraction(y))
        except (ValueError, OverflowError) as exc:
            raise DegenerateInputError(
                f"coordinates must be finite rationals: ({x!r}, {y!r})"
            ) from exc

    def __repr__(self) -> str:
        return f"Point2({self.x}, {self.y})"


class Polygon(Lattice):
    """A simple polygon, normalized on construction.

    Normalization removes consecutive duplicates and collinear middle
    vertices, orients the ring counterclockwise, and rotates the
    lexicographically smallest vertex to the front so that equal point
    sets compare equal.

    The polygon is the `rational.Lattice` of its vertices, kept in ring
    order, and decides every sign by vertex index with the lattice's
    `orient`, `key`, `crossings` and `area2`.
    """

    __slots__ = ("vertices", "_convex")

    def __init__(self, vertices: Sequence[Point2]) -> None:
        verts = _dedupe_cyclic(list(vertices))
        super().__init__(verts)
        ring = list(range(len(verts)))
        turns = self._drop_collinear(ring)
        if len(ring) < 3:
            raise DegenerateInputError("polygon needs >= 3 effective vertices")
        # A ring that turns one way and once around bounds a convex
        # polygon, whose area has the sign of the turns. Any other ring,
        # a star among them, is not convex and sums its area.
        self._convex = (abs(sum(turns)) == len(ring)
                        and self.crossings(ring) == 2)
        area2 = turns[0] if self._convex else self.area2(ring)
        if area2 == 0:
            raise DegenerateInputError("polygon has zero area")
        if area2 < 0:
            ring.reverse()
        start = min(range(len(ring)), key=lambda k: self.key(ring[k]))
        ring = ring[start:] + ring[:start]
        self.vertices = self.points = tuple(verts[i] for i in ring)
        self.scales = tuple(self.scales[i] for i in ring)
        self.lattice = tuple(self.lattice[i] for i in ring)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Polygon({list(self.vertices)!r})"

    def area(self) -> Fraction:
        return self.area2(range(len(self.vertices))) / 2

    def contains(self, p: Point2) -> bool:
        """Closed-region membership; requires a convex polygon."""
        lattice = self.joined(p)
        n = len(self.vertices)
        return all(lattice.orient(i, (i + 1) % n, n) >= 0 for i in range(n))

    def _drop_collinear(self, ring: list[int]) -> list[int]:
        """Delete from the ring of vertex indices the first vertex whose
        neighbors are collinear with it, until none is; return the turns
        of the ring left."""
        while len(ring) >= 3:
            turns = []
            for i, v in enumerate(ring):
                nxt = ring[(i + 1) % len(ring)]
                turn = self.orient(ring[i - 1], v, nxt)
                if turn == 0:
                    del ring[i]
                    break
                turns.append(turn)
            else:
                return turns
        return []


def orient2d(a: Point2, b: Point2, c: Point2) -> int:
    """Sign of the turn a->b->c: +1 left, 0 collinear, -1 right. Exact."""
    return _orient(*scaled_ints(a.x, a.y, b.x, b.y, c.x, c.y))


def incircle(a: Point2, b: Point2, c: Point2, d: Point2) -> int:
    """Sign of the in-circumcircle test for d against triangle (a, b, c).

    +1 when d is strictly inside the circumcircle of a counterclockwise
    (a, b, c); 0 when cocircular; -1 outside. Flipping the triangle's
    orientation negates the result. Exact.
    """
    coords = scaled_ints(a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y)
    if _orient(*coords[:6]) == 0:
        raise DegenerateInputError("incircle needs a non-collinear triangle")
    return _incircle(*coords)


def circumcenter(a: Point2, b: Point2, c: Point2) -> Point2:
    """Exact circumcenter of a non-collinear triple."""
    d = 2 * ((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x))
    if d == 0:
        raise DegenerateInputError("circumcenter of collinear points")
    a2 = a.x * a.x + a.y * a.y
    b2 = b.x * b.x + b.y * b.y
    c2 = c.x * c.x + c.y * c.y
    ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d
    uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d
    return Point2(ux, uy)


def convex_hull(points: Iterable[Point2]) -> Polygon:
    """Counterclockwise strict convex hull (collinear boundary points
    excluded), by a monotone chain on the points' lattice."""
    pts = list(set(points))
    if len(pts) < 3:
        raise DegenerateInputError("convex hull needs >= 3 distinct points")
    lattice = Lattice(pts)

    def half(seq: list[int]) -> list[int]:
        chain: list[int] = []
        for p in seq:
            while (len(chain) >= 2
                   and lattice.orient(chain[-2], chain[-1], p) <= 0):
                chain.pop()
            chain.append(p)
        return chain

    order = sorted(range(len(pts)), key=lattice.key)
    lower = half(order)
    upper = half(order[::-1])
    ring = lower[:-1] + upper[:-1]
    if len(ring) < 3:
        raise DegenerateInputError("all points collinear")
    return Polygon([pts[i] for i in ring])


def is_convex_polygon(poly: Polygon) -> bool:
    """True when the normalized ring turns left at every vertex and
    winds once."""
    return poly._convex


def clip_halfplane(verts: list[Point2], a: Point2, b: Point2) -> list[Point2]:
    """Clip a convex ring to the closed half-plane left of directed line ab.

    The ring and the line are scaled once to a `rational.Lattice`. Each
    vertex's side is the lattice's orientation of a, b and the vertex,
    and the point where an edge crosses the line is built from its two
    ends' determinants on one scale, with one division per coordinate.
    """
    n = len(verts)
    lattice = Lattice((*verts, a, b))
    signs = [lattice.orient(n, n + 1, i) for i in range(n)]
    out: list[Point2] = []
    for i in range(n):
        j = (i + 1) % n
        si, sj = signs[i], signs[j]
        if si >= 0:
            out.append(verts[i])
        if si * sj < 0:
            fi, fj = _line_sides(lattice, n, i, j)
            s, (xi, yi, xj, yj) = lattice.scaled(i, j)
            den = s * (fi - fj)
            out.append(Point2(Fraction(xj * fi - xi * fj, den),
                              Fraction(yj * fi - yi * fj, den)))
    return out


def _line_sides(lattice: Lattice, n: int, *idx: int) -> list[int]:
    """For each point of idx, the determinant (b - a) x (p - a) against
    the line through points a = n and b = n + 1, all over one common
    scale: two of them give the crossing point's share of the way."""
    _, (ax, ay, bx, by, *coords) = lattice.scaled(n, n + 1, *idx)
    dx, dy = bx - ax, by - ay
    return [
        dx * (coords[k + 1] - ay) - dy * (coords[k] - ax)
        for k in range(0, len(coords), 2)
    ]


def _dedupe_cyclic(verts: list[Point2]) -> list[Point2]:
    out: list[Point2] = []
    for v in verts:
        if not out or out[-1] != v:
            out.append(v)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out
