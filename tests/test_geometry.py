import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    circumcenter_by_equations,
    fraction_clip_halfplane,
    fraction_polygon,
    lattice_contains,
    lattice_polygon,
    segment_contains,
    segments_overlap,
    squared_distance,
)
from test_mesh import _on_unit_circle, own_denominator_sites
from proximesh.geometry import (
    DegenerateInputError,
    Point2,
    Polygon,
    Rect,
    circumcenter,
    clip_halfplane,
    convex_hull,
    incircle,
    is_convex_polygon,
    orient2d,
)
from proximesh.harness import generate_sites, mesh_for_trial
from proximesh.mesh import SiteSet, triangulate
from proximesh.rational import Lattice, _cross

P = Point2

coords = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=64
)
points = st.builds(P, coords, coords)
# 53-bit dyadic coordinates, as `harness.generate_sites` draws them.
dyadic = st.builds(Fraction, st.integers(-2**53, 2**53), st.just(2**53))
dyadic_points = st.builds(P, dyadic, dyadic)
# Three points, each coordinate over its own 20-digit denominator.
own_triples = st.builds(own_denominator_sites, st.integers(0, 2**32),
                        st.just(3), st.just(20))


class TestOrient2d:
    def test_left_turn(self):
        assert orient2d(P(0, 0), P(1, 0), P(0, 1)) == 1

    def test_collinear(self):
        assert orient2d(P(0, 0), P(1, 1), P(2, 2)) == 0

    def test_right_turn(self):
        assert orient2d(P(0, 0), P(0, 1), P(1, 0)) == -1

    @given(points, points, points)
    def test_antisymmetry_and_cycles(self, a, b, c):
        assert orient2d(a, b, c) == -orient2d(a, c, b)
        assert orient2d(a, b, c) == orient2d(b, c, a) == orient2d(c, a, b)


class TestIncircle:
    def test_cocircular(self):
        assert incircle(P(0, 0), P(1, 0), P(0, 1), P(1, 1)) == 0

    def test_center_inside(self):
        assert incircle(P(0, 0), P(1, 0), P(0, 1), P("0.5", "0.5")) == 1

    def test_far_outside(self):
        assert incircle(P(0, 0), P(1, 0), P(0, 1), P(5, 5)) == -1

    def test_collinear_triangle_rejected(self):
        with pytest.raises(DegenerateInputError):
            incircle(P(0, 0), P(1, 1), P(2, 2), P(0, 1))

    @given(points, points, points, points)
    def test_cyclic_and_flip(self, a, b, c, d):
        if orient2d(a, b, c) == 0:
            return
        s = incircle(a, b, c, d)
        assert s == incircle(b, c, a, d) == incircle(c, a, b, d)
        assert s == -incircle(a, c, b, d)


class TestCircumcenter:
    def test_right_triangle(self):
        assert circumcenter(P(0, 0), P(2, 0), P(0, 2)) == P(1, 1)

    def test_symmetric(self):
        assert circumcenter(P(0, 0), P(1, 0), P(0, 1)) == P("0.5", "0.5")

    def test_hand_solved(self):
        # From |u-a|^2 = |u-b|^2 = |u-c|^2: x = 2, then 4 + y^2 = (y-3)^2.
        assert circumcenter(P(0, 0), P(4, 0), P(2, 3)) == P(2, Fraction(5, 6))

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateInputError):
            circumcenter(P(0, 0), P(1, 1), P(2, 2))

    @staticmethod
    def _assert_matches_equations(a, b, c):
        expected = circumcenter_by_equations(a, b, c)
        if expected is None:
            with pytest.raises(DegenerateInputError):
                circumcenter(a, b, c)
        else:
            u = circumcenter(a, b, c)
            assert (u.x, u.y) == expected

    @settings(max_examples=200, deadline=None)
    @given(dyadic_points, dyadic_points, dyadic_points)
    def test_matches_equations_on_dyadic_points(self, a, b, c):
        self._assert_matches_equations(a, b, c)

    @settings(max_examples=100, deadline=None)
    @given(own_triples)
    def test_matches_equations_on_own_denominators(self, triple):
        self._assert_matches_equations(*triple)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.tuples(dyadic_points, dyadic_points),
                     own_triples.map(lambda t: t[:2])),
           st.fractions(max_denominator=10**20))
    def test_collinear_triples_rejected(self, ends, t):
        # c on line ab, or a, b and c one point when a == b.
        a, b = ends
        c = P(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        with pytest.raises(DegenerateInputError):
            circumcenter(a, b, c)

    @given(points, points, points)
    def test_equidistant(self, a, b, c):
        if orient2d(a, b, c) == 0:
            return
        u = circumcenter(a, b, c)
        assert (
            squared_distance(u, a)
            == squared_distance(u, b)
            == squared_distance(u, c)
        )


def _lattice(*pts):
    return Lattice([P(x, y) for x, y in pts])


class TestSegmentPredicates:
    """`Lattice.between` and `Lattice.overlap`, by point index."""

    def test_midpoint_interior(self):
        assert _lattice((0, 0), (2, 0), (1, 0)).between(0, 1, 2)

    def test_endpoint_excluded(self):
        assert not _lattice((0, 0), (2, 0), (0, 0)).between(0, 1, 2)

    def test_off_line(self):
        assert not _lattice((0, 0), (2, 0), (1, 1)).between(0, 1, 2)

    def test_crossing(self):
        assert _lattice((0, 0), (2, 2), (0, 2), (2, 0)).overlap(0, 1, 2, 3)

    def test_shared_endpoint_only(self):
        assert not _lattice((0, 0), (1, 0), (1, 0), (2, 0)).overlap(0, 1, 2, 3)

    def test_collinear_overlap(self):
        assert _lattice((0, 0), (2, 0), (1, 0), (3, 0)).overlap(0, 1, 2, 3)

    def test_t_junction_endpoint_contact(self):
        # The contact point is an endpoint of the vertical segment, so it
        # is not interior to both.
        assert not _lattice((0, 0), (2, 0), (1, 0), (1, 2)).overlap(0, 1, 2, 3)

    def test_parallel_disjoint(self):
        assert not _lattice((0, 0), (2, 0), (0, 1), (2, 1)).overlap(0, 1, 2, 3)

    def test_zero_length_segment_inside(self):
        # A segment of zero length has no interior, even strictly inside
        # the other segment.
        lattice = _lattice((0, 0), (2, 0), (1, 0), (1, 0))
        assert not lattice.overlap(0, 1, 2, 3)
        assert not lattice.overlap(2, 3, 0, 1)

    @given(points, points, points, points)
    def test_symmetry(self, a, b, c, d):
        if a == b or c == d:
            return
        lattice = Lattice([a, b, c, d])
        assert lattice.overlap(0, 1, 2, 3) == lattice.overlap(2, 3, 0, 1)


class TestConvexHull:
    def test_interior_point_dropped(self):
        hull = convex_hull(
            [P(0, 0), P(1, 0), P(1, 1), P(0, 1), P("0.5", "0.5")]
        )
        assert hull == Polygon([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])

    def test_triangle(self):
        hull = convex_hull([P(0, 0), P(2, 0), P(1, 1)])
        assert hull == Polygon([P(0, 0), P(2, 0), P(1, 1)])

    def test_collinear_boundary_point_excluded(self):
        hull = convex_hull([P(0, 0), P(1, 0), P(2, 0), P(1, 1)])
        assert hull == Polygon([P(0, 0), P(2, 0), P(1, 1)])

    def test_too_few_points(self):
        with pytest.raises(DegenerateInputError):
            convex_hull([P(0, 0), P(1, 1)])

    def test_all_collinear(self):
        with pytest.raises(DegenerateInputError):
            convex_hull([P(0, 0), P(1, 1), P(2, 2), P(3, 3)])

    @given(st.lists(points, min_size=3, max_size=12))
    def test_idempotent(self, pts):
        try:
            hull = convex_hull(pts)
        except DegenerateInputError:
            return
        assert convex_hull(hull.vertices) == hull
        assert is_convex_polygon(hull)


class TestPolygon:
    def test_collinear_middle_removed(self):
        poly = Polygon([P(0, 0), P(1, 0), P(2, 0), P(2, 2), P(0, 2)])
        assert poly.vertices == (P(0, 0), P(2, 0), P(2, 2), P(0, 2))

    def test_clockwise_reversed(self):
        cw = Polygon([P(0, 0), P(0, 1), P(1, 1), P(1, 0)])
        ccw = Polygon([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
        assert cw == ccw
        assert cw.area() > 0

    def test_rotation_invariant_equality(self):
        a = Polygon([P(0, 0), P(1, 0), P(1, 1)])
        b = Polygon([P(1, 1), P(0, 0), P(1, 0)])
        assert a == b

    def test_zero_area_rejected(self):
        with pytest.raises(DegenerateInputError):
            Polygon([P(0, 0), P(1, 0), P(2, 0)])

    @pytest.mark.parametrize("ring", [
        [P(0, 0), P(2, 0), P(2, 2), P(0, 2)],
        [P(2, 2), P(2, 0), P(0, 0), P(0, 2)],
        [P(0, 2), P(1, 2), P(2, 2), P(2, 0), P(0, 0), P(0, 0)],
    ])
    def test_contains_is_closed_on_the_normalized_ring(self, ring):
        # Clockwise, rotated and redundant input: the edge lines are
        # those of the ring left after normalization.
        poly = Polygon(ring)
        for p in (P(1, 1), P(0, 1), P(1, 2), P(2, 2), P(0, 0)):
            assert poly.contains(_corner(p)), p
        for p in (P(3, 1), P(1, -1), P(-1, 1), P(1, 3), P(Fraction(5, 2), 2)):
            assert not poly.contains(_corner(p)), p

    def test_cached_lines_leave_equality_alone(self):
        ring = [P(0, 0), P(Fraction(1, 3), 0), P(0, Fraction(1, 5))]
        used, fresh = Polygon(ring), Polygon(ring)
        assert used.contains(_corner(P(Fraction(1, 9), Fraction(1, 20))))
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)

    def test_contains_refuses_a_polygon_that_is_not_convex(self):
        # The lines of the two edges at the L's notch each cut off one of
        # its interior points (1/2, 3/2) and (3/2, 1/2), so a test against
        # every edge line would put them outside.
        ell = Polygon([P(0, 0), P(2, 0), P(2, 1), P(1, 1), P(1, 2), P(0, 2)])
        assert not is_convex_polygon(ell)
        for p in (P(Fraction(1, 2), Fraction(3, 2)),
                  P(Fraction(3, 2), Fraction(1, 2)), P(5, 5)):
            with pytest.raises(DegenerateInputError):
                ell.contains(_corner(p))


class TestPoint2:
    def test_exact_decimal_strings(self):
        assert P("0.1", "0.3").x == Fraction(1, 10)

    # Few values, written as ints, Fractions and strings, so that equal
    # points are drawn often.
    _coord = st.sampled_from([0, 1, -1, Fraction(1, 3), Fraction(2, 6),
                              "1/3", "0.5", Fraction(1, 2), 2**53])

    @given(_coord, _coord, _coord, _coord)
    def test_equality_and_hash_are_the_coordinates(self, a, b, c, d):
        p, q = P(a, b), P(c, d)
        same = (Fraction(a), Fraction(b)) == (Fraction(c), Fraction(d))
        assert (p == q) is same
        assert (p != q) is not same
        if same:
            assert hash(p) == hash(q)

    def test_hash_of_unreduced_and_typed_input(self):
        # Equal points hash equal however their coordinates were written.
        points = [P(Fraction(2, 4), 1), P("1/2", "1"), P("0.5", Fraction(3, 3)),
                  P(Fraction(1, 2), 1)]
        assert len({hash(p) for p in points}) == 1
        assert len(set(points)) == 1
        assert P(Fraction(-2, 4), 1) not in set(points)

    def test_not_equal_to_a_tuple(self):
        assert (P(1, 2) == (1, 2)) is False
        assert P(1, 2) != (1, 2)
        assert P(1, 2).__eq__((1, 2)) is NotImplemented

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), "oops"):
            with pytest.raises(DegenerateInputError):
                P(bad, 0)


# Coordinates each over its own 20-digit denominator.
wide_coords = st.builds(Fraction, st.integers(-2 * 10**21, 2 * 10**21),
                        st.integers(10**19, 10**20 - 1))


class TestRect:
    @settings(max_examples=200)
    @given(st.data())
    def test_place_matches_fraction_comparisons(self, data):
        values = st.one_of(coords, wide_coords)
        xs = sorted(data.draw(st.lists(values, min_size=2, max_size=2,
                                       unique=True)))
        ys = sorted(data.draw(st.lists(values, min_size=2, max_size=2,
                                       unique=True)))
        box = Rect(xs[0], ys[0], xs[1], ys[1])
        # Coordinates on the box's own lines are drawn as often as others.
        x = data.draw(st.one_of(values, st.sampled_from(xs)))
        y = data.draw(st.one_of(values, st.sampled_from(ys)))
        p = P(x, y)
        inside = xs[0] < x < xs[1] and ys[0] < y < ys[1]
        closed = xs[0] <= x <= xs[1] and ys[0] <= y <= ys[1]
        # The point in lowest terms, over the product of its two
        # denominators, and over k times that.
        k = data.draw(st.integers(2, 10**6))
        unreduced = tuple(k * v for v in _corner(p))
        for corner in (_lowest(p), _corner(p), unreduced):
            assert box.place(corner) == (1 if inside else 0 if closed else -1)
        assert (box.place(unreduced) > 0) == inside

    @pytest.mark.parametrize("point, placed", [
        (P(Fraction(1, 3), Fraction(1, 2)), 1),
        (P(0, Fraction(1, 2)), 0),
        (P(Fraction(2, 3), Fraction(3, 4)), 0),
        (P(Fraction(2, 3), Fraction(1, 5)), 0),
        (P(Fraction(-1, 7), Fraction(1, 2)), -1),
        (P(Fraction(1, 3), Fraction(4, 5)), -1),
        (P(1, 1), -1),
    ])
    def test_place_on_own_denominators(self, point, placed):
        box = Rect(Fraction(0), Fraction(1, 5), Fraction(2, 3), Fraction(3, 4))
        assert box.place(_lowest(point)) == placed


class TestIsConvexPolygon:
    def test_square(self):
        assert is_convex_polygon(Polygon([P(0, 0), P(1, 0), P(1, 1), P(0, 1)]))

    def test_arrowhead(self):
        # orient2d flips sign at the notch vertex (1, 0.25).
        arrow = Polygon([P(0, 0), P(2, 0), P(1, "0.25"), P(1, 1)])
        assert not is_convex_polygon(arrow)

    def test_triangle(self):
        assert is_convex_polygon(Polygon([P(0, 0), P(2, 0), P(1, 1)]))


def _corner(p: Point2) -> tuple[int, int, int]:
    return (p.x.numerator * p.y.denominator,
            p.y.numerator * p.x.denominator,
            p.x.denominator * p.y.denominator)


def _edges(verts) -> list:
    """The `clip_halfplane` ring of points: each corner with the line
    through it and the next."""
    c = [_corner(v) for v in verts]
    return [(u, _cross(u, v)) for u, v in zip(c, c[1:] + c[:1])]


def _points(ring) -> list[Point2]:
    return [P(Fraction(x, w), Fraction(y, w)) for (x, y, w), _ in ring]


def _clip(verts, a: Point2, b: Point2) -> list[Point2]:
    """`clip_halfplane` of the ring of points to the closed half-plane
    left of directed line ab."""
    return _points(clip_halfplane(_edges(verts), _cross(_corner(a),
                                                        _corner(b))))


def _intersect(p1: Polygon, p2: Polygon) -> list[Point2]:
    """The ring of p1 clipped to the left of every edge of p2, each clip
    cutting the ring the last one left, with the lines it carries."""
    ring = _edges(p1.vertices)
    q = [_corner(v) for v in p2.vertices]
    for a, b in zip(q, q[1:] + q[:1]):
        ring = clip_halfplane(ring, _cross(a, b))
    return _points(ring)


class TestIntersectConvex:
    """Convex intersection by `clip_halfplane`, the step that cuts every
    Voronoi cell out of its clip box."""

    def test_shifted_squares(self):
        a = Polygon([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
        b = Polygon([P("0.5", 0), P("1.5", 0), P("1.5", 1), P("0.5", 1)])
        got = Polygon(_intersect(a, b))
        assert got == Polygon([P("0.5", 0), P(1, 0), P(1, 1), P("0.5", 1)])

    def test_disjoint(self):
        a = Polygon([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
        b = Polygon([P(5, 5), P(6, 5), P(6, 6), P(5, 6)])
        assert _intersect(a, b) == []

    def test_square_and_triangle(self):
        # Half-plane clipping by hand: the triangle loses its corners at
        # x=2 and y=2, leaving the unit square (1,1)-(2,2).
        square = Polygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
        tri = Polygon([P(1, 1), P(3, 1), P(1, 3)])
        got = Polygon(_intersect(square, tri))
        assert got == Polygon([P(1, 1), P(2, 1), P(2, 2), P(1, 2)])

    def test_touching_edge_is_empty(self):
        # The closed half-planes keep the shared edge x=1 and nothing
        # else: a ring of zero area, which is no Polygon.
        a = Polygon([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
        b = Polygon([P(1, 0), P(2, 0), P(2, 1), P(1, 1)])
        got = _intersect(a, b)
        assert got and {v.x for v in got} == {1}
        with pytest.raises(DegenerateInputError):
            Polygon(got)

    @settings(max_examples=60)
    @given(
        st.lists(points, min_size=3, max_size=8),
        st.lists(points, min_size=3, max_size=8),
    )
    def test_intersection_of_convex_is_convex(self, pts1, pts2):
        # Executable form of the convex-intersection lemma.
        try:
            a, b = convex_hull(pts1), convex_hull(pts2)
            got = Polygon(_intersect(a, b))
        except DegenerateInputError:
            return  # Degenerate operands, or no positive-area overlap.
        assert is_convex_polygon(got)
        assert all(a.contains(_corner(v)) and b.contains(_corner(v))
                   for v in got.vertices)


# Rings on both sides of the lattice rule. Integer points times one unit
# share one scale; six or more points over unrelated 50-digit
# denominators keep their own. Points of one circle in angle order are
# convex rings.
def _by_angle(pts):
    return sorted(set(pts), key=lambda p: math.atan2(p.y, p.x))


_CIRCLE_65 = [P(x, y) for x in range(-8, 9) for y in range(-8, 9)
              if x * x + y * y == 65]
_units = st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(1, 2**53)])
_grid = st.lists(st.builds(P, st.integers(-6, 6), st.integers(-6, 6)),
                 min_size=3, max_size=8)
# Points over unrelated 20-digit denominators, too many for one scale
# even beside three points on lines through them.
_points20 = st.builds(own_denominator_sites, st.integers(0, 2**32),
                      st.integers(14, 16), st.just(20))
_q20 = st.builds(Fraction, st.integers(-10**20, 10**20),
                 st.integers(10**19, 10**20 - 1))
shared_rings = st.tuples(
    _units,
    st.one_of(_grid, st.lists(st.sampled_from(_CIRCLE_65), min_size=3,
                              max_size=16).map(_by_angle)),
).map(lambda u: [P(p.x * u[0], p.y * u[0]) for p in u[1]])
own_rings = st.builds(
    lambda seed, n, circle: (
        _by_angle([_on_unit_circle(6 * p.x - 3)
                   for p in own_denominator_sites(seed, n, 50)])
        if circle else own_denominator_sites(seed, n, 50)
    ),
    st.integers(0, 2**32), st.integers(6, 10), st.booleans(),
)


def _lines(base):
    """base, and for its first two consecutive pairs a, b two lines of
    four points each: 2a - b, a, the midpoint and b on line ab, then the
    same on the vertical from a to (a.x, b.y). Returns the points and
    each line's indices."""
    pts, lines = list(base), []
    for a, b in zip(base, base[1:3]):
        for v in (b, P(a.x, b.y)):
            lines.append(list(range(len(pts), len(pts) + 4)))
            pts += [P(2 * a.x - v.x, 2 * a.y - v.y), a,
                    P((a.x + v.x) / 2, (a.y + v.y) / 2), v]
    return pts, lines


shared_lines = st.tuples(_units, _grid).map(
    lambda u: _lines([P(p.x * u[0], p.y * u[0]) for p in u[1]]))
# Twelve points over 50-digit denominators outgrow the shared scale's
# width even beside the lines' doubled denominators.
own_lines = st.integers(0, 2**32).map(
    lambda seed: _lines(own_denominator_sites(seed, 12, 50)))


def _assert_segments_match(pts, lines, own_scales):
    """`between` and `overlap` on the lattice of pts decide what the
    cross and dot products of the oracles decide, for segments on each
    line against points and segments on it and on the next line."""
    lattice = Lattice(pts)
    assert (lattice.scale is None) == own_scales
    for g, h in zip(lines, lines[1:] + lines[:1]):
        for i, j in permutations(g, 2):
            a, b = pts[i], pts[j]
            for k in g + h:
                assert lattice.between(i, j, k) == segment_contains(
                    a, b, pts[k])
            for k, m in (*combinations(g, 2), *combinations(h, 2)):
                assert lattice.overlap(i, j, k, m) == segments_overlap(
                    a, b, pts[k], pts[m])


def _side(a, b, p):
    return (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)


def _assert_matches_fractions(ring, own_scales):
    """Polygon, its predicates and clip_halfplane equal the Fraction
    arithmetic of the oracles; `own_scales` says which side of the
    lattice's width rule the ring's points fall on."""
    try:
        vertices, area, convex = fraction_polygon(ring)
    except ValueError:
        with pytest.raises(DegenerateInputError):
            Polygon(ring)
        return
    poly = Polygon(ring)
    assert (Lattice(ring).scale is None) == own_scales
    assert poly.vertices == vertices
    assert poly.area() == area
    assert is_convex_polygon(poly) == convex
    edges = list(zip(vertices, vertices[1:] + vertices[:1]))
    mids = [P((a.x + b.x) / 2, (a.y + b.y) / 2) for a, b in edges]
    inner = P(sum(v.x for v in vertices) / len(vertices),
              sum(v.y for v in vertices) / len(vertices))
    probes = [*vertices, *mids, inner, P(inner.x + 100, inner.y)]
    if not convex:
        with pytest.raises(DegenerateInputError):
            poly.contains(_corner(inner))
        return
    for p in probes:
        assert poly.contains(_corner(p)) == all(_side(a, b, p) >= 0
                                                for a, b in edges)
    lines = [(vertices[0], mids[len(mids) // 2]), (inner, vertices[1]),
             (mids[1], inner), (vertices[-1], vertices[1])]
    for a, b in lines:
        if a != b:
            assert _clip(vertices, a, b) == (
                fraction_clip_halfplane(list(vertices), a, b)
            )


# Generated meshes of 4-30 dyadic sites, one over unrelated 20-digit
# denominators, and the 4x4 grid, whose cocircular fans repeat corners.
_PROBE_MESHES = {
    **{f"trial{seed}": (lambda seed=seed: mesh_for_trial(seed, 0))
       for seed in (1, 2, 3, 40000)},
    "own20": lambda: triangulate(SiteSet(own_denominator_sites(7, 12, 20))),
    "grid": lambda: triangulate(
        SiteSet([P(i, j) for j in range(4) for i in range(4)])),
}


@pytest.mark.parametrize("name", list(_PROBE_MESHES))
def test_cell_contains_matches_fraction_sides(name):
    # Cells are built on their corners, so `contains` tests the probe's
    # own (X, Y, W) against each edge's line, the `_cross` of its ends'
    # corners on their own W; the Fraction side of each edge decides it
    # here. Probes: every site, circumcenter, cell vertex and cell-edge
    # midpoint.
    mesh = _PROBE_MESHES[name]()
    cells = [region.cell for region in mesh.voronoi]
    probes = [*mesh.sites, *mesh.circumcenters]
    for cell in cells:
        vertices = cell.vertices
        edges = list(zip(vertices, vertices[1:] + vertices[:1]))
        probes += [*vertices,
                   *(P((a.x + b.x) / 2, (a.y + b.y) / 2) for a, b in edges)]
    for cell in cells:
        vertices = cell.vertices
        edges = list(zip(vertices, vertices[1:] + vertices[:1]))
        inside = [p for p in probes if cell.contains(_corner(p))]
        assert inside == [
            p for p in probes if all(_side(a, b, p) >= 0 for a, b in edges)
        ]
        assert len(inside) > len(vertices)


class TestLatticeMatchesFractions:
    """`Polygon` and `clip_halfplane` on integer corners, and the segment
    tests on a lattice, decide what Fraction arithmetic decides, for
    point sets on both sides of the lattice's width rule."""

    @settings(max_examples=80, deadline=None)
    @given(shared_rings)
    def test_shared_scale_rings(self, ring):
        _assert_matches_fractions(ring, own_scales=False)

    @settings(max_examples=40, deadline=None)
    @given(own_rings)
    def test_own_scale_rings(self, ring):
        _assert_matches_fractions(ring, own_scales=True)

    @settings(max_examples=40, deadline=None)
    @given(shared_lines)
    def test_shared_scale_segments(self, lines):
        _assert_segments_match(*lines, own_scales=False)

    @settings(max_examples=20, deadline=None)
    @given(own_lines)
    def test_own_scale_segments(self, lines):
        _assert_segments_match(*lines, own_scales=True)

    @settings(max_examples=30, deadline=None)
    @given(_points20, st.lists(_q20, min_size=3, max_size=3))
    def test_own_scale_orient_matches_per_call(self, pts, ts):
        # Own scales take the homogeneous determinant over (X, Y, W);
        # `orient2d` puts each triple on the lcm of its denominators. A
        # point on the line of each of three pairs makes exactly
        # collinear triples.
        pairs = ((pts[0], pts[1]), (pts[1], pts[2]), (pts[2], pts[0]))
        pts = pts + [P(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
                     for (a, b), t in zip(pairs, ts)]
        lattice = Lattice(pts)
        assume(lattice.scale is None)
        signs = []
        for i, j, k in combinations(range(len(pts)), 3):
            signs.append(lattice.orient(i, j, k))
            assert signs[-1] == orient2d(pts[i], pts[j], pts[k])
        assert 0 in signs

    @pytest.mark.parametrize(
        "ring",
        [
            # Left turns only, yet twice around: clockwise area.
            [(3, 3), (2, 3), (1, -1), (2, 0), (-3, 3), (-2, 2)],
            # A pentagram: left turns only, twice around the center.
            [(0, 5), (-3, -4), (5, 2), (-5, 2), (3, -4)],
            # A bow tie: zero area.
            [(0, 0), (2, 2), (2, 0), (0, 2)],
            # A spike back along an edge.
            [(0, 0), (2, 0), (1, 0), (1, 1)],
        ],
        ids=["twice-around-clockwise", "pentagram", "bow-tie", "spike"],
    )
    def test_rings_not_convex(self, ring):
        _assert_matches_fractions([P(x, y) for x, y in ring], own_scales=False)


def _lowest(p: Point2) -> tuple[int, int, int]:
    """p's corner over the lcm of its two denominators."""
    w = math.lcm(p.x.denominator, p.y.denominator)
    return (p.x.numerator * (w // p.x.denominator),
            p.y.numerator * (w // p.y.denominator), w)


def _mid(a: Point2, b: Point2) -> Point2:
    return P((a.x + b.x) / 2, (a.y + b.y) / 2)


@st.composite
def degenerate_rings(draw):
    """A ring of `shared_rings` or `own_rings` with repeats, collinear
    middles, spikes out along an edge and back, and backtracks behind a
    vertex inserted; maybe reversed; rotated; maybe closed by repeats of
    its first point. With it, maybe, its corners: each point's own
    lowest-terms triple times its own positive factor."""
    ring = list(draw(st.one_of(shared_rings, own_rings)))
    for _ in range(draw(st.integers(0, 6))):
        k = draw(st.integers(0, len(ring) - 1))
        a, b = ring[k], ring[(k + 1) % len(ring)]
        ring[k + 1:k + 1] = draw(st.sampled_from([
            [a],
            [_mid(a, b)],
            [b, _mid(a, b)],
            [P(2 * a.x - b.x, 2 * a.y - b.y), a],
        ]))
    if draw(st.booleans()):
        ring.reverse()
    shift = draw(st.integers(0, len(ring) - 1))
    ring = ring[shift:] + ring[:shift]
    ring += [ring[0]] * draw(st.integers(0, 2))
    corners = None
    if draw(st.booleans()):
        factors = draw(st.lists(st.integers(1, 2**64), min_size=len(ring),
                                max_size=len(ring)))
        corners = [tuple(f * c for c in _lowest(p))
                   for p, f in zip(ring, factors)]
    return ring, corners


class TestNormalizationMatchesReference:
    """`Polygon` normalizes on its edge lines; `oracles.lattice_polygon`
    keeps the point-index normalization, with the lattice's `orient`,
    `compare` and `crossings`, that it replaced."""

    @staticmethod
    def _assert_matches(ring, corners):
        try:
            lattice, order, convex, area = lattice_polygon(ring, corners)
        except DegenerateInputError as exc:
            with pytest.raises(DegenerateInputError) as raised:
                Polygon(ring, corners)
            assert str(raised.value) == str(exc)
            return
        poly = Polygon(ring, corners)
        assert poly.vertices == tuple(lattice.points[i] for i in order)
        assert is_convex_polygon(poly) == convex
        assert poly.area() == area
        vertices = poly.vertices
        inner = P(sum(v.x for v in vertices) / len(vertices),
                  sum(v.y for v in vertices) / len(vertices))
        if not convex:
            with pytest.raises(DegenerateInputError):
                poly.contains(_corner(inner))
            return
        probes = [*ring, inner, P(inner.x + 100, inner.y),
                  *(_mid(a, b) for a, b in zip(vertices, vertices[1:])),
                  *(P(2 * v.x - inner.x, 2 * v.y - inner.y) for v in vertices)]
        for p in probes:
            assert (poly.contains(_corner(p))
                    == lattice_contains(lattice, order, p))

    @settings(max_examples=300, deadline=None)
    @given(degenerate_rings())
    def test_matches_lattice_normalization(self, case):
        self._assert_matches(*case)

    @pytest.mark.parametrize("corners", [False, True])
    @pytest.mark.parametrize("ring", [
        # Twice through its least point, closed by a repeat of it: the
        # start is the first of the two, so the repeat that goes must be
        # the closing one.
        [(0, 0), (2, -1), (2, 1), (0, 0), (1, 2), (1, 4), (0, 0)],
        [(0, 0), (0, 0), (1, 0), (1, 1), (0, 0), (0, 0)],
        [(1, 1), (1, 1), (1, 1)],
        [(0, 0), (1, 0), (0, 0), (1, 0)],
        # Spikes out and back along an edge and through a corner.
        [(0, 0), (2, 0), (3, 0), (1, 0), (1, 1), (0, 2), (0, -1), (0, 1)],
        # A convex ring with a repeat and a collinear run, a non-convex
        # arrowhead and a self-crossing pentagram.
        [(0, 0), (1, 0), (1, 0), (2, 0), (1, 1), (0, 0)],
        [(0, 0), (2, 0), (1, "0.25"), (1, 1)],
        [(0, 5), (-3, -4), (5, 2), (-5, 2), (3, -4)],
    ], ids=["figure-eight", "repeats", "one-point", "back-and-forth",
            "spikes", "convex", "arrowhead", "pentagram"])
    def test_examples(self, ring, corners):
        ring = [P(x, y) for x, y in ring]
        triples = ([tuple(k * c for c in _lowest(p))
                    for k, p in enumerate(ring, 1)] if corners else None)
        self._assert_matches(ring, triples)


def _box(data, values) -> Rect:
    xs = sorted(data.draw(st.lists(values, min_size=2, max_size=2,
                                   unique=True)))
    ys = sorted(data.draw(st.lists(values, min_size=2, max_size=2,
                                   unique=True)))
    return Rect(xs[0], ys[0], xs[1], ys[1])


def _shared_scale_ring(box: Rect) -> list:
    """The ring `Rect.ring` made before its corners were in lowest
    terms: every corner over the lcm of all four bounds' denominators,
    each side the `_cross` of its ends."""
    bounds = box.xmin, box.ymin, box.xmax, box.ymax
    s = math.lcm(*(v.denominator for v in bounds))
    x0, y0, x1, y1 = (v.numerator * (s // v.denominator) for v in bounds)
    c = [(x0, y0, s), (x1, y0, s), (x1, y1, s), (x0, y1, s)]
    return [(u, _cross(u, v)) for u, v in zip(c, c[1:] + c[:1])]


# Bounds over unrelated denominators, so that the corners' own lcms
# differ from the four bounds' lcm.
_bounds = st.fractions(min_value=Fraction(-20), max_value=Fraction(20),
                       max_denominator=10**6)


class TestRectRing:
    @settings(max_examples=100)
    @given(st.data())
    def test_corners_in_lowest_terms(self, data):
        box = _box(data, _bounds)
        ring = box.ring()
        assert [c for c, _ in ring] == [_lowest(p) for p in box.corners()]
        assert _points(ring) == box.corners()

    @settings(max_examples=100)
    @given(st.data())
    def test_lines_are_positive_inside_their_side(self, data):
        box = _box(data, _bounds)
        bounds = [box.xmin, box.ymin, box.xmax, box.ymax]
        # Coordinates on the bounds are drawn as often as others.
        x, y = (data.draw(st.one_of(_bounds, st.sampled_from(bounds)))
                for _ in range(2))
        corner = _lowest(P(x, y))
        # Bottom, right, top and left: the side each edge's line bounds.
        sides = [y - box.ymin, box.xmax - x, box.ymax - y, x - box.xmin]
        for (_, line), side in zip(box.ring(), sides):
            value = sum(u * v for u, v in zip(line, corner))
            assert (value > 0) == (side > 0) and (value == 0) == (side == 0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_clips_match_the_shared_scale_ring(self, data):
        # Lines at random, and lines through two of the box's corners
        # and the points between, which cut through corners exactly.
        box = _box(data, _bounds)
        corners = box.corners()
        on_box = corners + [_mid(a, b) for a, b in zip(corners, corners[1:])]
        through = st.tuples(st.sampled_from(on_box), points).map(
            lambda ab: _cross(_corner(ab[0]), _corner(ab[1])))
        small = st.integers(-30, 30)
        lines = data.draw(st.lists(st.one_of(
            st.tuples(small, small, st.integers(-600, 600)), through),
            max_size=6))
        ring, shared = box.ring(), _shared_scale_ring(box)
        for line in lines:
            ring = clip_halfplane(ring, line)
            shared = clip_halfplane(shared, line)
            assert _points(ring) == _points(shared)


def test_clipped_cell_corners_stay_narrow():
    # A clipped corner is the cross product of a box side and a bisector
    # or of two bisectors. With the sides in lowest terms it stays under
    # twice the widest circumcenter corner and a word more (263 bits
    # against 157 for these sites); the shared-scale ring's sides made
    # it about 980.
    mesh = triangulate(generate_sites(10000, 100)[0])
    mesh.circumcenters
    widest = max(abs(v).bit_length() for c in mesh._corners for v in c)
    cells = [region.cell for region in mesh.voronoi if region.clipped]
    assert cells
    bits = max(abs(v).bit_length() for cell in cells
               for row in cell.corners for v in row)
    assert bits < 2 * widest + 64
