"""Exact planar primitives.

Points carry arbitrary-precision rational coordinates, every predicate
in this module decides its sign exactly, and no function here returns a
float. The points of one `convex_hull` call are scaled once to a
`rational.Lattice`, which takes every sign on them by point index. A
`Polygon` keeps each vertex as a corner, a homogeneous integer triple
(X, Y, W), in its public `corners`: the one given, else the vertex in
lowest terms. It builds the integer line of each edge once and takes
every sign of its normalization, and of `contains`, from those lines. A
polygon built from corners alone makes its `Point2` vertices only when a
caller reads them. `clip_halfplane` cuts a ring of corners, each with
the integer line of its edge, by a line: each crossing is the cross
product of two lines, so corners do not widen from clip to clip, and no
Fraction is made. `Rect`, the Voronoi clip box, gives the first such
ring, each corner in lowest terms, made from the bounds' integers, and
each side's line built once from its bound. `Rect.place`, the
library's one clip-box test, takes the least sign of a corner on those
lines; `Polygon.contains` takes a corner too. `circumcenter` works in
integers, making a Fraction only of each of its two coordinates.
`orient2d` and `incircle` scale their points to integers per call and
run `rational`'s integer kernels; they serve callers outside the
library, which takes all its signs on lattices and lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .rational import (Lattice, _corner, _cross, _incircle, _lowest, _orient,
                       scaled_ints)

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

    def __hash__(self) -> int:
        # The parts `__eq__` compares, without `Fraction.__hash__`'s
        # modular inverse.
        x, y = self.x, self.y
        return hash((x.numerator, x.denominator, y.numerator, y.denominator))

    def __repr__(self) -> str:
        return f"Point2({self.x}, {self.y})"


class Polygon:
    """A simple polygon, normalized on construction.

    Normalization removes consecutive duplicates and collinear middle
    vertices, orients the ring counterclockwise, and rotates the
    lexicographically smallest vertex to the front so that equal point
    sets compare equal.

    Each vertex is a row, the integer triple (X, Y, W), W > 0, of the
    point (X/W, Y/W): vertex i's `corners[i]` when given, else its own
    coordinates in lowest terms. `vertices` may be None when `corners`
    are given. The normalized ring's rows are the read-only `corners`;
    its `vertices` are the given points, or, without them, the points of
    its corners, made on first read. Equality, hashing and `repr` go by
    `vertices`. Each edge is its integer line (a, b, c), the `_cross` of
    its ends' rows, built once in `__init__` and kept for the normalized
    ring. Every sign comes from those lines:

    - an edge between two equal points is a line with a = b = 0;
    - the turn at a vertex is the line into it at the next vertex, the
      determinant of the three rows (`_orient_w`, regrouped);
    - an edge points right when (b or -a) > 0, b and -a having the
      signs of its dx and dy. A ring that turns one way is convex when
      its edges change between right and left twice (Fenchel), and then
      its least vertex is the one whose edge out points right and whose
      edge in does not;
    - `contains` tests a corner (X, Y, W), W > 0, against each line.

    Deleting a collinear vertex rebuilds only the line across it and the
    turns at its two neighbors. A ring that is not convex takes the sign
    of its area from its rows and starts at its least (x, y) vertex.
    """

    __slots__ = ("_corners", "_vertices", "_lines", "_convex")

    def __init__(
        self,
        vertices: Optional[Sequence[Point2]],
        corners: Optional[Sequence[Corner]] = None,
    ) -> None:
        points = None if vertices is None else tuple(vertices)
        rows = list(map(_corner, points) if corners is None else corners)
        lines = list(map(_cross, rows, rows[1:] + rows[:1]))
        # A line with a = b = 0 joins two equal points. The later one
        # goes, and the earlier keeps the next nonzero line, a positive
        # multiple of the line of its own edge. Of a run of repeats that
        # closes the ring onto vertex 0, vertex 0 stays, first, with the
        # line of the run's first vertex.
        ring = [k for k in range(len(rows))
                if lines[k - 1][0] or lines[k - 1][1]]
        if len(ring) < len(rows):
            lines = [l for l in lines if l[0] or l[1]]
            if ring and ring[0]:
                ring = [0] + ring[:-1]
            rows = [rows[k] for k in ring]
        turns = [a * x + b * y + c * w for (a, b, c), (x, y, w)
                 in zip(lines[-1:] + lines[:-1], rows[1:] + rows[:1])]
        # Drop the first collinear vertex until none is left.
        while len(ring) >= 3 and 0 in turns:
            i = turns.index(0)
            del ring[i], rows[i], lines[i], turns[i]
            m = len(ring)
            h, j = (i - 1) % m, i % m
            a, b, c = lines[h] = _cross(rows[h], rows[j])
            x, y, w = rows[(j + 1) % m]
            turns[j] = a * x + b * y + c * w
            a, b, c = lines[h - 1]
            x, y, w = rows[j]
            turns[h] = a * x + b * y + c * w
        if len(ring) < 3:
            raise DegenerateInputError("polygon needs >= 3 effective vertices")
        # A ring that turns one way and once around bounds a convex
        # polygon, whose area has the sign of the turns: its edges cross
        # between rightward and leftward twice (Fenchel). Any other ring,
        # a star among them, is not convex and sums its area.
        left = sum(t > 0 for t in turns)
        right = [(b or -a) > 0 for a, b, _ in lines]
        crossings = sum(u != v
                        for u, v in zip(right, right[-1:] + right[:-1]))
        self._convex = left in (0, len(ring)) and crossings == 2
        area2 = turns[0] if self._convex else _area2(rows)
        if area2 == 0:
            raise DegenerateInputError("polygon has zero area")
        if area2 < 0:
            ring.reverse()
            rows.reverse()
            lines = [(-a, -b, -c) for a, b, c in lines[-2::-1] + lines[-1:]]
            right = [(b or -a) > 0 for a, b, _ in lines]
        if self._convex:
            # The least vertex: its edge out points right, its edge in
            # does not.
            start = next(k for k, r in enumerate(right)
                         if r and not right[k - 1])
        else:
            start = min(range(len(ring)), key=lambda k: (
                Fraction(rows[k][0], rows[k][2]),
                Fraction(rows[k][1], rows[k][2])))
        self._corners = tuple(rows[start:] + rows[:start])
        self._lines = tuple(lines[start:] + lines[:start])
        self._vertices = None if points is None else tuple(
            points[k] for k in ring[start:] + ring[:start])

    @property
    def corners(self) -> tuple[Corner, ...]:
        """The normalized ring's corners (X, Y, W), W > 0."""
        return self._corners

    @property
    def vertices(self) -> tuple[Point2, ...]:
        """The normalized ring's vertices: the given points, else the
        points of its corners, made on first read."""
        if self._vertices is None:
            self._vertices = tuple(map(_point, self._corners))
        return self._vertices

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Polygon({list(self.vertices)!r})"

    def area(self) -> Fraction:
        return _area2(self._corners) / 2

    def contains(self, corner: Corner) -> bool:
        """Closed-region membership of a convex polygon: the point of the
        corner (X, Y, W), W > 0, in lowest terms or not, is on the
        positive side of, or on, each edge's line. A polygon that is not
        convex raises DegenerateInputError."""
        if not self._convex:
            raise DegenerateInputError("contains needs a convex polygon")
        x, y, w = corner
        return all(a * x + b * y + c * w >= 0 for a, b, c in self._lines)


def _point(corner: Corner) -> Point2:
    x, y, w = corner
    return Point2(Fraction(x, w), Fraction(y, w))


def _area2(rows: Sequence[Corner]) -> Fraction:
    """Twice the signed area of the ring of rows (X, Y, W): the sum over
    its edges of the cross product of their ends' points (X/W, Y/W)."""
    return sum((Fraction(x * v - u * y, w * z) for (x, y, w), (u, v, z)
                in zip(rows, rows[1:] + rows[:1])), Fraction(0))


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned rectangle used as the Voronoi clip box. Its side
    along the bound n/d is the line (0, d, -n) of y = n/d, or (d, 0, -n)
    of x = n/d, signed positive inside, built once for `place` and
    `ring`."""

    xmin: Fraction
    ymin: Fraction
    xmax: Fraction
    ymax: Fraction
    _lines: tuple[Line, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        xmin, ymin, xmax, ymax = self.xmin, self.ymin, self.xmax, self.ymax
        object.__setattr__(self, "_lines", (
            (0, ymin.denominator, -ymin.numerator),
            (-xmax.denominator, 0, xmax.numerator),
            (0, -ymax.denominator, ymax.numerator),
            (xmin.denominator, 0, -xmin.numerator),
        ))

    def corners(self) -> list[Point2]:
        return [
            Point2(self.xmin, self.ymin),
            Point2(self.xmax, self.ymin),
            Point2(self.xmax, self.ymax),
            Point2(self.xmin, self.ymax),
        ]

    def place(self, corner: Corner) -> int:
        """+1 when the point of the corner (X, Y, W), W > 0, is strictly
        inside the box, 0 on its boundary, -1 outside: the sign of the
        least of its dot products with the four side lines."""
        x, y, w = corner
        # Each side's line has one zero coefficient.
        (_, b0, c0), (a1, _, c1), (_, b2, c2), (a3, _, c3) = self._lines
        least = min(b0 * y + c0 * w, a1 * x + c1 * w, b2 * y + c2 * w,
                    a3 * x + c3 * w)
        return (least > 0) - (least < 0)

    def ring(self) -> list[tuple[Corner, Line]]:
        """The corners counterclockwise from (xmin, ymin), each in lowest
        terms, made from its two bounds' integers, with the line of its
        edge to the next: the ring that `clip_halfplane` cuts."""
        x0, y0, x1, y1 = self.xmin, self.ymin, self.xmax, self.ymax
        return [
            (_lowest((x.numerator * y.denominator, y.numerator * x.denominator,
                      x.denominator * y.denominator)), line)
            for x, y, line in zip((x0, x1, x1, x0), (y0, y0, y1, y1),
                                  self._lines)
        ]


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
    excluded), by a monotone chain along its lattice's (x, y) order."""
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

    order = lattice.ordered()
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

