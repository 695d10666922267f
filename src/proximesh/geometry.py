"""Exact planar primitives.

Points carry arbitrary-precision rational coordinates, every predicate
in this module decides its sign exactly, and no function here returns a
float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .rational import scaled_ints

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


@dataclass(frozen=True, slots=True)
class Segment:
    """A straight segment with distinct endpoints."""

    a: Point2
    b: Point2

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise DegenerateInputError(f"segment endpoints coincide: {self.a}")


class Polygon:
    """A simple polygon, normalized on construction.

    Normalization removes consecutive duplicates and collinear middle
    vertices, orients the ring counterclockwise, and rotates the
    lexicographically smallest vertex to the front so that equal point
    sets compare equal.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[Point2]) -> None:
        verts = _dedupe_cyclic(list(vertices))
        verts = _drop_collinear_cyclic(verts)
        if len(verts) < 3:
            raise DegenerateInputError("polygon needs >= 3 effective vertices")
        area2 = _ring_area2(verts)
        if area2 == 0:
            raise DegenerateInputError("polygon has zero area")
        if area2 < 0:
            verts.reverse()
        start = min(range(len(verts)), key=lambda i: (verts[i].x, verts[i].y))
        self.vertices = tuple(verts[start:] + verts[:start])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Polygon({list(self.vertices)!r})"

    def area(self) -> Fraction:
        return _ring_area2(self.vertices) / 2

    def edges(self) -> Iterable[tuple[Point2, Point2]]:
        verts = self.vertices
        for i, a in enumerate(verts):
            yield a, verts[(i + 1) % len(verts)]

    def contains(self, p: Point2) -> bool:
        """Closed-region membership; requires a convex polygon."""
        return all(orient2d(a, b, p) >= 0 for a, b in self.edges())

    def on_boundary(self, p: Point2) -> bool:
        for a, b in self.edges():
            if orient2d(a, b, p) == 0 and _between_inclusive(a, b, p):
                return True
        return False


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


# The integer kernels behind every orientation and incircle sign. They
# take the coordinates already scaled to one integer lattice: per call in
# `orient2d`/`incircle`, and by `mesh.SiteSet.scaled` for sites.


def _orient(ax: int, ay: int, bx: int, by: int, cx: int, cy: int) -> int:
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def _incircle(
    ax: int, ay: int, bx: int, by: int, cx: int, cy: int, dx: int, dy: int
) -> int:
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = (
        alift * (bdx * cdy - cdx * bdy)
        + blift * (cdx * ady - adx * cdy)
        + clift * (adx * bdy - bdx * ady)
    )
    return (det > 0) - (det < 0)


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


def squared_distance(p: Point2, q: Point2) -> Fraction:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def point_in_segment_interior(p: Point2, s: Segment) -> bool:
    """True when p lies on s strictly between the endpoints."""
    if orient2d(s.a, s.b, p) != 0:
        return False
    return _between_strict(s.a, s.b, p)


def segments_share_interior_point(s1: Segment, s2: Segment) -> bool:
    """True when some point is interior to both segments.

    Transversal crossings and collinear overlaps of positive length
    qualify; contact at an endpoint of either segment does not.
    """
    o1 = orient2d(s1.a, s1.b, s2.a)
    o2 = orient2d(s1.a, s1.b, s2.b)
    o3 = orient2d(s2.a, s2.b, s1.a)
    o4 = orient2d(s2.a, s2.b, s1.b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    if o1 == 0 and o2 == 0:
        # Same supporting line: positive-length overlap of the open spans.
        key = _span_key(s1.a, s1.b)
        lo1, hi1 = sorted((key(s1.a), key(s1.b)))
        lo2, hi2 = sorted((key(s2.a), key(s2.b)))
        return max(lo1, lo2) < min(hi1, hi2)
    return False


def convex_hull(points: Iterable[Point2]) -> Polygon:
    """Counterclockwise strict convex hull (collinear boundary points
    excluded)."""
    pts = sorted(set(points), key=lambda p: (p.x, p.y))
    if len(pts) < 3:
        raise DegenerateInputError("convex hull needs >= 3 distinct points")

    def half(seq: list[Point2]) -> list[Point2]:
        chain: list[Point2] = []
        for p in seq:
            while len(chain) >= 2 and orient2d(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    ring = lower[:-1] + upper[:-1]
    if len(ring) < 3:
        raise DegenerateInputError("all points collinear")
    return Polygon(ring)


def is_convex_polygon(poly: Polygon) -> bool:
    """True when every turn along the normalized ring is a left turn."""
    verts = poly.vertices
    n = len(verts)
    return all(
        orient2d(verts[i], verts[(i + 1) % n], verts[(i + 2) % n]) > 0
        for i in range(n)
    )


def clip_halfplane(verts: list[Point2], a: Point2, b: Point2) -> list[Point2]:
    """Clip a convex ring to the closed half-plane left of directed line ab.

    Vertices are classified by the integer orientation predicate; the
    exact rational side values are only evaluated at the at most two
    edges that cross the line.
    """
    if not verts:
        return []
    out: list[Point2] = []
    signs = [orient2d(a, b, v) for v in verts]
    n = len(verts)
    for i in range(n):
        j = (i + 1) % n
        vi, vj = verts[i], verts[j]
        si, sj = signs[i], signs[j]
        if si >= 0:
            out.append(vi)
        if si * sj < 0:
            fi = _line_side(a, b, vi)
            fj = _line_side(a, b, vj)
            t = fi / (fi - fj)
            out.append(
                Point2(vi.x + (vj.x - vi.x) * t, vi.y + (vj.y - vi.y) * t)
            )
    return out


def _line_side(a: Point2, b: Point2, p: Point2) -> Fraction:
    return (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)


def _span_key(a: Point2, b: Point2):
    # Dominant-axis coordinate; exact ordering along the segment's line.
    if a.x != b.x:
        return lambda p: p.x
    return lambda p: p.y


def _between_strict(a: Point2, b: Point2, p: Point2) -> bool:
    key = _span_key(a, b)
    lo, hi = sorted((key(a), key(b)))
    return lo < key(p) < hi


def _between_inclusive(a: Point2, b: Point2, p: Point2) -> bool:
    key = _span_key(a, b)
    lo, hi = sorted((key(a), key(b)))
    return lo <= key(p) <= hi


def _dedupe_cyclic(verts: list[Point2]) -> list[Point2]:
    out: list[Point2] = []
    for v in verts:
        if not out or out[-1] != v:
            out.append(v)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _drop_collinear_cyclic(verts: list[Point2]) -> list[Point2]:
    changed = True
    while changed and len(verts) >= 3:
        changed = False
        n = len(verts)
        for i in range(n):
            prev = verts[(i - 1) % n]
            nxt = verts[(i + 1) % n]
            if orient2d(prev, verts[i], nxt) == 0:
                del verts[i]
                changed = True
                break
    return verts


def _ring_area2(verts: Sequence[Point2]) -> Fraction:
    total = Fraction(0)
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total
