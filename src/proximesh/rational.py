"""Exact rational coordinates and the integer predicates on them.

Points in this package carry exact ``fractions.Fraction`` coordinates.
These helpers parse user-facing coordinate strings exactly, render them
canonically, and rescale points to plain integers, on which every
sign-of-determinant predicate runs. The integer kernels live here:
`_orient` and `_incircle` on points over one scale, `_orient_w` on
homogeneous points (X, Y, W), and `_cross`, the line through two such
points or the point where two lines meet; `_corner` puts one point in
lowest terms as such a triple, and `_lowest` puts a triple in lowest
terms.
`geometry.orient2d` and `geometry.incircle` rescale their points on every
call (`scaled_ints`); no library module calls them. A `Lattice` rescales
a whole point set once, to one shared scale where that stays narrow, and
is the one place that knows which: its `orient`, `incircle`, `compare`,
`order`, `between`, `overlap` and `crossings` decide by point index, and
`center` and `bisector` build a circumcenter and a bisector in integers.
On own scales, `orient` takes the homogeneous determinant over each
point's (X, Y, W), which needs no common scale, and `compare` weighs each
coordinate by the other point's scale on either rule. The disk queries
take their center as a corner (X, Y, W) and weigh squared distances to
it by the points' scales, by one integer formula on either rule: `slab`
bisects the lattice's (x, y) order, sorted once, for the points in a
circle's x-range, and `nearer` keeps those nearer than a given point.
`mesh.SiteSet` is a lattice of its sites, `geometry.convex_hull` builds
one for its points and walks that order, and a mesh's derived clip box
builds one for its circumcenters' corners; `extremes` makes the bounds
from the lattice, so such a lattice needs no points.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Optional, Sequence


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

    `lattice` holds point i of `points` as the integer pair (X, Y) of the
    point (X / scales[i], Y / scales[i]). All points share one scale,
    `scale`, the lcm of all their denominators, unless that lcm has more
    than 4·b + 64 bits, b being the bit length of the widest point's own
    lcm; then `scale` is None and each point keeps the lcm of its own two
    denominators. Points given as corners, integer triples (X, Y, W) with
    W > 0, keep W as their own scale, whatever its factors. `orient` on
    own scales takes the sign of the homogeneous determinant over
    (X, Y, W); `scaled` puts the points of one predicate on the lcm of
    their scales. Every sign taken by point index runs here, so no
    caller asks which of the two rules holds.
    """

    __slots__ = ("points", "scale", "scales", "lattice", "_ordered")

    def __init__(
        self,
        points: Iterable = (),
        corners: Optional[Sequence[tuple[int, int, int]]] = None,
    ) -> None:
        """Scale `points`, each with Fraction coordinates `x` and `y`;
        or, given `corners`, the points' integer triples, hold each point
        on its own W, and keep `points`, if any, as given."""
        points = self.points = tuple(points)
        self._ordered = None
        if corners is not None:
            self.scale = None
            self.lattice = tuple((x, y) for x, y, _ in corners)
            self.scales = tuple(w for _, _, w in corners)
            return
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

    # The two hot predicates read a shared scale's lattice directly.

    def orient(self, i: int, j: int, k: int) -> int:
        """`geometry.orient2d` of the points i, j, k."""
        lattice = self.lattice
        if self.scale is None:
            w = self.scales
            return _orient_w(*lattice[i], w[i], *lattice[j], w[j],
                             *lattice[k], w[k])
        return _orient(*lattice[i], *lattice[j], *lattice[k])

    def incircle(self, i: int, j: int, k: int, d: int) -> int:
        """`geometry.incircle` of point d against the non-collinear points
        i, j, k."""
        if self.scale is None:
            return _incircle(*self.scaled(i, j, k, d)[1])
        lattice = self.lattice
        return _incircle(*lattice[i], *lattice[j], *lattice[k], *lattice[d])

    def center(self, i: int, j: int, k: int) -> tuple[int, int, int]:
        """The circumcenter of the non-collinear points i, j, k as an
        unreduced corner (X, Y, W), W > 0: the point (X/W, Y/W)."""
        s, (ax, ay, bx, by, cx, cy) = self.scaled(i, j, k)
        bx, by, cx, cy = bx - ax, by - ay, cx - ax, cy - ay
        d = 2 * (bx * cy - by * cx)
        b2 = bx * bx + by * by
        c2 = cx * cx + cy * cy
        x, y = ax * d + cy * b2 - by * c2, ay * d + bx * c2 - cx * b2
        return (x, y, d * s) if d > 0 else (-x, -y, -d * s)

    def bisector(self, i: int, j: int) -> tuple[int, int, int]:
        """The perpendicular bisector of points i and j as a line
        (a, b, c), positive on point i's side: 2s(Q - P)·x = |Q|² - |P|²
        for P and Q, the points over their common scale s."""
        s, (px, py, qx, qy) = self.scaled(i, j)
        return (2 * s * (px - qx), 2 * s * (py - qy),
                qx * qx + qy * qy - px * px - py * py)

    def compare(self, i: int, j: int, axis: int) -> int:
        """The sign of coordinate `axis` (0 for x, 1 for y) of point j
        less that of point i, in integers: each point's over the other's
        scale."""
        a = self.lattice[i][axis] * self.scales[j]
        b = self.lattice[j][axis] * self.scales[i]
        return (b > a) - (b < a)

    def order(self, i: int, j: int) -> int:
        """The sign of point j less point i in the (x, y) order: by
        `compare` on x, then on y."""
        return self.compare(i, j, 0) or self.compare(i, j, 1)

    def extremes(self, axis: int) -> tuple[Fraction, Fraction]:
        """The least and the greatest coordinate `axis` of the points,
        found by `compare` and made from the lattice."""
        lo = hi = 0
        for k in range(1, len(self.lattice)):
            if self.compare(k, lo, axis) > 0:
                lo = k
            elif self.compare(hi, k, axis) > 0:
                hi = k
        lattice, w = self.lattice, self.scales
        return (Fraction(lattice[lo][axis], w[lo]),
                Fraction(lattice[hi][axis], w[hi]))

    def between(self, i: int, j: int, k: int) -> bool:
        """Point k lies on segment ij strictly between its ends. On one
        line, the (x, y) `order` is the order along it."""
        return (not self.orient(i, j, k)
                and self.order(i, k) * self.order(k, j) > 0)

    def overlap(self, i: int, j: int, k: int, l: int) -> bool:
        """Segments ij and kl share an interior point: they cross, or they
        overlap on one line for a positive length. Contact at an end of
        either does not count."""
        o1, o2 = self.orient(i, j, k), self.orient(i, j, l)
        if o1 or o2:
            return (o1 * o2 < 0
                    and self.orient(k, l, i) * self.orient(k, l, j) < 0)
        # On one line: both segments have positive length, and, with kl
        # run the way ij runs, each starts before the other ends.
        s, t = self.order(i, j), self.order(k, l)
        if s != t:
            k, l = l, k
        return s * t != 0 and self.order(i, l) == self.order(k, j) == s

    def crossings(self, ring: Sequence[int]) -> int:
        """How often the directions of the closed ring's edges cross
        between the upper and lower half-planes. A ring that turns one
        way at every vertex makes one full turn, and so bounds a convex
        polygon, exactly when this is 2 (Fenchel)."""
        ring = list(ring)
        upper = [
            (self.compare(i, j, 1) or self.compare(i, j, 0)) > 0
            for i, j in zip(ring, ring[1:] + ring[:1])
        ]
        return sum(u != upper[k - 1] for k, u in enumerate(upper))

    def ordered(self) -> list[int]:
        """The point indices in the (x, y) `order`, sorted once."""
        if self._ordered is None:
            self._ordered = sorted(range(len(self.lattice)), key=cmp_to_key(
                lambda i, j: self.order(j, i)))
        return self._ordered

    def slab(self, center: tuple[int, int, int], i: int) -> list[int]:
        """The points, in `ordered`, in the closed x-range of the circle
        through point i about the corner `center`, (X, Y, q), q > 0. Point
        k lies d_k = X_k·q - X·W_k over W_k·q right of the center, and
        outside the range, left if d_k < 0 or else right, when
        d_k²·W_i² > n_i·W_k² (`_distances`). Two bisections find it."""
        x, _, q = center
        lattice, w = self.lattice, self.scales
        (ni,), a, b = self._distances(center, (i,)), q * w[i], x * w[i]

        def side(k: int) -> int:
            wk = w[k]
            dw = lattice[k][0] * a - b * wk  # d_k·W_i
            return (dw > 0) - (dw < 0) if dw * dw > ni * wk * wk else 0

        order = self.ordered()
        lo = bisect_left(order, 0, key=side)
        return order[lo:bisect_right(order, 0, lo, key=side)]

    def nearer(self, center: tuple[int, int, int], i: int) -> list[int]:
        """The points of the `slab` strictly nearer to the corner
        `center` than point i: those with n_k·W_i² < n_i·W_k²
        (`_distances`)."""
        w, slab = self.scales, self.slab(center, i)
        (ni, *ns), wi2 = self._distances(center, [i, *slab]), w[i] * w[i]
        return [k for k, nk in zip(slab, ns) if nk * wi2 < ni * w[k] * w[k]]

    def _distances(self, center: tuple[int, int, int],
                   points: Sequence[int]) -> list[int]:
        """n_k for each point k: k lies √n_k / (W_k·q) from the corner
        (X, Y, q), n_k = (X_k·q - X·W_k)² + (Y_k·q - Y·W_k)²."""
        x, y, q = center
        lattice, w = self.lattice, self.scales
        return [(lattice[k][0] * q - x * w[k]) ** 2
                + (lattice[k][1] * q - y * w[k]) ** 2 for k in points]


def _on_scale(p, w: int) -> tuple[int, int]:
    """The coordinates of p as integers over w, a multiple of their
    denominators."""
    return (p.x.numerator * (w // p.x.denominator),
            p.y.numerator * (w // p.y.denominator))


def _corner(p) -> tuple[int, int, int]:
    """The point p as the integers (X, Y, W), W > 0, in lowest terms: W is
    the lcm of its two denominators."""
    w = math.lcm(p.x.denominator, p.y.denominator)
    return (*_on_scale(p, w), w)


def _lowest(corner: tuple[int, int, int]) -> tuple[int, int, int]:
    """The corner (X, Y, W), W > 0, in lowest terms: over gcd(X, Y, W).
    That triple is unique for each point, and equals `_corner`'s."""
    g = math.gcd(*corner)
    if g == 1:
        return corner
    x, y, w = corner
    return x // g, y // g, w // g


# The integer kernels behind every orientation and incircle sign. `_orient`
# and `_incircle` take the coordinates already scaled to one integer
# lattice: per call in `geometry.orient2d`/`incircle`, and once per point
# set by a `Lattice`. `_orient_w` takes each point over its own W.


def _orient(ax: int, ay: int, bx: int, by: int, cx: int, cy: int) -> int:
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def _orient_w(
    ax: int, ay: int, aw: int, bx: int, by: int, bw: int,
    cx: int, cy: int, cw: int,
) -> int:
    """The orientation of the points (X/W, Y/W), W > 0: the sign of the
    determinant of their rows (X, Y, W), each row that of
    (X/W, Y/W, 1) scaled by its positive W (Fortune and Van Wyk 1996)."""
    det = (ax * (by * cw - cy * bw) - ay * (bx * cw - cx * bw)
           + aw * (bx * cy - cx * by))
    return (det > 0) - (det < 0)


def _cross(u: tuple[int, int, int],
           v: tuple[int, int, int]) -> tuple[int, int, int]:
    """The cross product of two integer triples: the line (a, b, c),
    a·X + b·Y + c·W = 0, through two points (X, Y, W), or the point where
    two such lines meet. The line through u then v takes, at a point p,
    the determinant of the rows u, v and p: positive left of u to v."""
    (a, b, c), (d, e, f) = u, v
    return b * f - c * e, c * d - a * f, a * e - b * d


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


def scaled_ints(*coords: Fraction) -> list[int]:
    """Rescale rationals by the lcm of their denominators.

    The common positive factor preserves the sign of any homogeneous
    polynomial in the coordinates' differences, which is all the exact
    predicates need.
    """
    lcm = math.lcm(*(c.denominator for c in coords))
    return [c.numerator * (lcm // c.denominator) for c in coords]
