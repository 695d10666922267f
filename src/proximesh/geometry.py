"""Exact planar primitives.

Points carry arbitrary-precision rational coordinates, every predicate
in this module decides its sign exactly, and no function here returns a
float. A `Polygon`, and the points of one `convex_hull` call, are scaled
once to a `rational.Lattice`, which takes every sign on them by point
index, segment tests included. A polygon given its vertices as corners,
homogeneous integer triples (X, Y, W), takes its signs on those.
`clip_halfplane` cuts a ring of corners, each with the integer line of
its edge, by a line: each crossing is the cross product of two lines, so
corners do not widen from clip to clip, and no Fraction is made. `Rect`,
the Voronoi clip box, gives the first such ring.
`Polygon.contains`, `Rect.place` (behind the box's containment tests)
and `circumcenter` work in integers; the last makes a Fraction only of
each of its two coordinates.
`orient2d` and `incircle` scale their points to integers per call and
run `rational`'s integer kernels; they serve callers outside the
library, which takes all its signs on lattices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .rational import (Lattice, _cross, _incircle, _on_scale, _orient,
                       _orient_w, scaled_ints)

Coord = Union[Fraction, int, str]
# The point (X/W, Y/W) as the integers (X, Y, W), W > 0.
Corner = tuple[int, int, int]
# The line a·X + b·Y + c·W = 0 as the integers (a, b, c); its positive
# side is where a·X + b·Y + c·W > 0.
Line = tuple[int, int, int]


class DegenerateInputError(ValueError):
    """Input that the operation's precondition rules out (collinear
    triple, too few distinct points, zero-area polygon)."""


@dataclass(frozen=True, slots=True)
class Point2:
    """A plane point with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __init__(self, x: Coord, y: Coord) -> None:
        # A Fraction is kept as given; anything else is parsed.
        if type(x) is not Fraction or type(y) is not Fraction:
            try:
                x, y = Fraction(x), Fraction(y)
            except (ValueError, OverflowError) as exc:
                raise DegenerateInputError(
                    f"coordinates must be finite rationals: ({x!r}, {y!r})"
                ) from exc
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __eq__(self, other: object) -> bool:
        # Fractions in lowest terms are equal when their parts are.
        if type(other) is not Point2:
            return NotImplemented
        x, y, u, v = self.x, self.y, other.x, other.y
        return (x.numerator == u.numerator and y.numerator == v.numerator
                and x.denominator == u.denominator
                and y.denominator == v.denominator)

    def __repr__(self) -> str:
        return f"Point2({self.x}, {self.y})"


class Polygon(Lattice):
    """A simple polygon, normalized on construction.

    Normalization removes consecutive duplicates and collinear middle
    vertices, orients the ring counterclockwise, and rotates the
    lexicographically smallest vertex to the front so that equal point
    sets compare equal.

    The polygon is the `rational.Lattice` of its vertices, kept in ring
    order, and decides every sign and order by vertex index with the
    lattice's `orient`, `compare`, `crossings` and `area2`. Given
    `corners`, vertex i's integer triple (X, Y, W) as corner i, the
    lattice holds each vertex on its own W, and no lcm is taken.
    """

    __slots__ = ("vertices", "_convex")

    def __init__(
        self,
        vertices: Sequence[Point2],
        corners: Optional[Sequence[Corner]] = None,
    ) -> None:
        super().__init__(vertices, corners)
        ring = self._dedupe_cyclic()
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
        start = 0
        for k, v in enumerate(ring):
            u = ring[start]
            if (self.compare(v, u, 0) or self.compare(v, u, 1)) > 0:
                start = k
        ring = ring[start:] + ring[:start]
        self.vertices = self.points = tuple(self.points[i] for i in ring)
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
        """Closed-region membership; requires a convex polygon. Each edge
        takes `_orient_w` on its ends' (X, Y, scale) and p's own (X, Y, W)."""
        w = math.lcm(p.x.denominator, p.y.denominator)
        px, py = _on_scale(p, w)
        ends = [(*v, s) for v, s in zip(self.lattice, self.scales)]
        return all(_orient_w(*u, *v, px, py, w) >= 0
                   for u, v in zip(ends, ends[1:] + ends[:1]))

    def _dedupe_cyclic(self) -> list[int]:
        """The vertex indices without consecutive repeats, the last not
        repeating the first."""
        def same(i: int, j: int) -> bool:
            return not (self.compare(i, j, 0) or self.compare(i, j, 1))

        ring: list[int] = []
        for i in range(len(self.points)):
            if not ring or not same(ring[-1], i):
                ring.append(i)
        while len(ring) > 1 and same(ring[0], ring[-1]):
            ring.pop()
        return ring

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


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned rectangle used as the Voronoi clip box."""

    xmin: Fraction
    ymin: Fraction
    xmax: Fraction
    ymax: Fraction

    def corners(self) -> list[Point2]:
        return [
            Point2(self.xmin, self.ymin),
            Point2(self.xmax, self.ymin),
            Point2(self.xmax, self.ymax),
            Point2(self.xmin, self.ymax),
        ]

    def contains(self, p: Point2) -> bool:
        return self.place(p) >= 0

    def strictly_contains(self, p: Point2) -> bool:
        return self.place(p) > 0

    def on_boundary(self, p: Point2) -> bool:
        return self.place(p) == 0

    def place(self, p: Point2) -> int:
        """+1 when p is strictly inside, 0 on the boundary, -1 outside;
        each coordinate is compared with the box's by integer
        cross-multiplication of numerators and denominators."""
        inside = 1
        for v, lo, hi in ((p.x, self.xmin, self.xmax),
                          (p.y, self.ymin, self.ymax)):
            n, d = v.numerator, v.denominator
            above = n * lo.denominator - lo.numerator * d
            below = hi.numerator * d - n * hi.denominator
            if above < 0 or below < 0:
                return -1
            if not (above and below):
                inside = 0
        return inside

    def ring(self) -> list[tuple[Corner, Line]]:
        """The corners counterclockwise from (xmin, ymin), on one scale,
        each with the line of its edge to the next: the ring that
        `clip_halfplane` cuts."""
        box = self.xmin, self.ymin, self.xmax, self.ymax
        s = math.lcm(*(v.denominator for v in box))
        x0, y0, x1, y1 = (v.numerator * (s // v.denominator) for v in box)
        c = [(x0, y0, s), (x1, y0, s), (x1, y1, s), (x0, y1, s)]
        return [(u, _cross(u, v)) for u, v in zip(c, c[1:] + c[:1])]


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
    """Exact circumcenter of a non-collinear triple, by the
    absolute-coordinate formula on the points over the lcm s of their
    denominators: two integer numerators over d·s."""
    coords = a.x, a.y, b.x, b.y, c.x, c.y
    s = math.lcm(*(v.denominator for v in coords))
    ax, ay, bx, by, cx, cy = (v.numerator * (s // v.denominator)
                              for v in coords)
    d = 2 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    if d == 0:
        raise DegenerateInputError("circumcenter of collinear points")
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)
    uy = a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)
    return Point2(Fraction(ux, d * s), Fraction(uy, d * s))


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


def clip_halfplane(
    ring: list[tuple[Corner, Line]], line: Line
) -> list[tuple[Corner, Line]]:
    """Clip a convex ring to the closed positive side of `line`.

    Each entry of the ring is a corner and the line of its edge to the
    next corner. A corner's side is the sign of its dot product with
    `line`. Where an edge crosses `line`, the new corner is the cross
    product of the two lines, its W made positive, so corners are never
    wider than a product of two lines. Each corner kept or made carries
    the line of its edge in the clipped ring: `line` itself from the
    corner where the ring leaves the half-plane, even a corner on
    `line`, else the line of the edge it starts.
    """
    a, b, c = line
    sides = [a * x + b * y + c * w for (x, y, w), _ in ring]
    out: list[tuple[Corner, Line]] = []
    for i, (corner, edge) in enumerate(ring):
        si, sj = sides[i], sides[(i + 1) % len(ring)]
        if si >= 0:
            out.append((corner, line if si == 0 > sj else edge))
        if si > 0 > sj or si < 0 < sj:
            x, y, w = _cross(edge, line)
            if w < 0:
                x, y, w = -x, -y, -w
            out.append(((x, y, w), line if si > 0 else edge))
    return out

