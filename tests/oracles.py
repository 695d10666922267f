"""Independent brute-force oracles used only by the tests.

These deliberately avoid the construction paths they are used to check:
the triangulation oracles decide empty circumcircles through explicit
circumcenter equations rather than the incircle determinant and scan
every site instead of testing edges locally, the Voronoi oracle cuts
each cell by the bisectors of all other sites instead of only the
Delaunay neighbors and clips on Fraction arithmetic instead of integer
lattices, the convexity oracle samples points instead of comparing
traced areas, polygon convexity is decided by every edge's supporting
line instead of by turns and half-plane crossings, and the hull-boundary,
visibility and segment oracles find points on a segment, and segments
that overlap, by cross and dot products instead of orientation and
span tests. The shared-wall oracle finds each cell's edge on the
bisector by equal squared distances and overlaps the two, where the
library counts shared cell corners. The Delaunay-characterization
audit's two global routes, empty circle and dual vertex, test only the
sites of an x-slab; their references here take an incircle test and a
Fraction squared distance for every site. The subcomplex algebra is
kept here in the frozenset form that the library's bit masks replaced:
sets of vertex indices, edge pairs and triangle indices, checked on
construction, with closure and every relation rebuilt from them.
Polygon normalization is kept here in the form that the library's edge
lines replaced: by point index, with the lattice's `orient`, `compare`
and `crossings`, restarting its collinear pass after each deletion.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

from proximesh.complexes import MeshMismatchError, RelationReport
from proximesh.geometry import DegenerateInputError, Point2, Polygon
from proximesh.mesh import Edge, Mesh, VoronoiRegion
from proximesh.rational import Lattice, _orient_w


def _sub(p, q):
    return (p.x - q.x, p.y - q.y)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def circumcenter_by_equations(a, b, c):
    """Solve |u-a|^2 = |u-b|^2 = |u-c|^2 as a 2x2 linear system."""
    a1, b1 = 2 * (b.x - a.x), 2 * (b.y - a.y)
    c1 = b.x * b.x + b.y * b.y - a.x * a.x - a.y * a.y
    a2, b2 = 2 * (c.x - a.x), 2 * (c.y - a.y)
    c2 = c.x * c.x + c.y * c.y - a.x * a.x - a.y * a.y
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    return ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)


def brute_force_delaunay(points):
    """All triangles whose circumcircle holds no site strictly inside.

    With no four cocircular sites this is exactly the Delaunay triangle
    set. Returns frozensets of index triples.
    """
    out = set()
    for i, j, k in combinations(range(len(points)), 3):
        if _empty_circumcircle(points, i, j, k):
            out.add(frozenset((i, j, k)))
    return out


def _empty_circumcircle(points, i, j, k):
    """Points i, j, k have a circumcircle, and no point lies strictly
    inside it."""
    center = circumcenter_by_equations(points[i], points[j], points[k])
    if center is None:
        return False
    ux, uy = center
    dx, dy = points[i].x - ux, points[i].y - uy
    r2 = dx * dx + dy * dy
    for s, p in enumerate(points):
        if s in (i, j, k):
            continue
        dx, dy = p.x - ux, p.y - uy
        if dx * dx + dy * dy < r2:
            return False
    return True


def all_sites_empty_circle(t, sites):
    """No site lies strictly inside the circumcircle of the
    counterclockwise triangle t: one lattice incircle per site."""
    return all(
        sites.incircle(*t.indices, s) <= 0
        for s in range(len(sites))
        if s not in t.indices
    )


def all_sites_dual_vertex(center, t, sites):
    """No site other than t's is strictly nearer to `center` than t's
    first vertex, by Fraction squared distances to every site."""
    radius2 = squared_distance(center, sites[t.v0])
    return all(
        squared_distance(center, sites[s]) >= radius2
        for s in range(len(sites))
        if s not in t.indices
    )


def _separated(t, u):
    """Some edge line of one counterclockwise triangle has the whole
    other triangle on its closed outer side (separating axis test)."""
    for a, b in ((t, u), (u, t)):
        for e in range(3):
            p, q = a[e], a[(e + 1) % 3]
            if all(_cross(_sub(q, p), _sub(r, p)) <= 0 for r in b):
                return True
    return False


def is_delaunay_triangulation(points, triples):
    """Whether index triples are a Delaunay triangulation of the points,
    decided globally.

    Every triple must be a counterclockwise triangle, every point a
    vertex, the triangles pairwise interior-disjoint, and their areas
    must sum to the hull area; together these make the triangles tile
    the hull. Every circumcircle must then be empty of all points.
    """
    n = len(points)
    tris = []
    for triple in triples:
        if len(set(triple)) != 3 or not all(0 <= v < n for v in triple):
            return False
        a, b, c = (points[v] for v in triple)
        if _cross(_sub(b, a), _sub(c, a)) <= 0:
            return False
        tris.append((a, b, c))
    if {v for triple in triples for v in triple} != set(range(n)):
        return False
    for t, u in combinations(tris, 2):
        if not _separated(t, u):
            return False
    hull = [points[i] for i in _hull_indices(points)]
    hull_area2 = sum(
        _cross(_sub(hull[i], hull[0]), _sub(hull[i + 1], hull[0]))
        for i in range(1, len(hull) - 1)
    )
    if sum(_cross(_sub(b, a), _sub(c, a)) for a, b, c in tris) != hull_area2:
        return False
    return all(_empty_circumcircle(points, *triple) for triple in triples)


def all_sites_voronoi(sites, box):
    """Voronoi cells of all sites, each cut by the bisectors of every
    other site, nearest first.

    Once the remaining sites are more than twice as far as the cell
    reaches, the rest cannot cut and are skipped. The `clipped` flag
    follows the library rule: a hull site, or a cell touching the box.
    """
    on_hull = hull_boundary_test(sites)
    regions = []
    for i, p in enumerate(sites):
        order = sorted(
            (j for j in range(len(sites)) if j != i),
            key=lambda j: (squared_distance(p, sites[j]), j),
        )
        verts = box.corners()
        reach = max(squared_distance(p, v) for v in verts)
        for j in order:
            if squared_distance(p, sites[j]) > 4 * reach:
                break
            q = sites[j]
            mid = Point2((p.x + q.x) / 2, (p.y + q.y) / 2)
            along = Point2(mid.x - (q.y - p.y), mid.y + (q.x - p.x))
            verts = fraction_clip_halfplane(verts, mid, along)
            reach = max(squared_distance(p, v) for v in verts)
        cell = Polygon(verts)
        # The cell lies in the closed box, and touches it where a
        # vertex's coordinate equals one of the box's bounds.
        clipped = on_hull(p) or any(
            v.x in (box.xmin, box.xmax) or v.y in (box.ymin, box.ymax)
            for v in cell.vertices
        )
        regions.append(VoronoiRegion(site=i, cell=cell, clipped=clipped))
    return regions


def hull_boundary_test(points):
    """A test of whether a point lies on the boundary of the points'
    convex hull: on the line of a hull edge, at a dot product with the
    edge between 0 and its squared length."""
    hull = [points[i] for i in _hull_indices(points)]
    edges = [(a, _sub(b, a)) for a, b in zip(hull, hull[1:] + hull[:1])]

    def on_boundary(p):
        for a, d in edges:
            u = _sub(p, a)
            if _cross(d, u) == 0 and 0 <= _dot(u, d) <= _dot(d, d):
                return True
        return False

    return on_boundary


def fraction_clip_halfplane(verts, a, b):
    """A convex ring clipped to the closed half-plane left of directed
    line ab, with each side and crossing point in Fraction arithmetic."""
    d = _sub(b, a)
    sides = [_cross(d, _sub(v, a)) for v in verts]
    out = []
    for i, vi in enumerate(verts):
        j = (i + 1) % len(verts)
        vj, fi, fj = verts[j], sides[i], sides[j]
        if fi >= 0:
            out.append(vi)
        if fi > 0 > fj or fi < 0 < fj:
            t = fi / (fi - fj)
            out.append(Point2(vi.x + (vj.x - vi.x) * t,
                              vi.y + (vj.y - vi.y) * t))
    return out


def fraction_polygon(verts):
    """The vertices, area and convexity of `Polygon(verts)` in Fraction
    arithmetic: consecutive duplicates dropped, then, one at a time, the
    first vertex collinear with its neighbors; the ring turned
    counterclockwise by its shoelace area and started at its least
    (x, y). Raises ValueError where `Polygon` raises. The ring is convex
    when its vertices are distinct, it turns left at every vertex and
    every vertex lies on the closed left side of every edge's line."""
    ring = []
    for v in verts:
        if not ring or ring[-1] != v:
            ring.append(v)
    while len(ring) > 1 and ring[0] == ring[-1]:
        ring.pop()

    def turn(i):
        n = len(ring)
        return _cross(_sub(ring[i], ring[i - 1]),
                      _sub(ring[(i + 1) % n], ring[i]))

    while len(ring) >= 3:
        flat = next((i for i in range(len(ring)) if turn(i) == 0), None)
        if flat is None:
            break
        del ring[flat]
    if len(ring) < 3:
        raise ValueError("fewer than three effective vertices")
    area2 = sum(a.x * b.y - b.x * a.y for a, b in zip(ring, ring[1:] + ring[:1]))
    if area2 == 0:
        raise ValueError("zero area")
    if area2 < 0:
        ring.reverse()
    start = min(range(len(ring)), key=lambda i: (ring[i].x, ring[i].y))
    ring = ring[start:] + ring[:start]
    edges = list(zip(ring, ring[1:] + ring[:1]))
    convex = (
        len(set(ring)) == len(ring)
        and all(turn(i) > 0 for i in range(len(ring)))
        and all(_cross(_sub(b, a), _sub(v, a)) >= 0
                for a, b in edges for v in ring)
    )
    return tuple(ring), abs(area2) / 2, convex


def lattice_polygon(vertices, corners=None):
    """The normalization `Polygon` made by point index on the `Lattice`
    of its vertices before it read its edge lines, kept as their
    reference. Consecutive repeats are dropped by `compare`, and repeats
    of the first vertex popped off the end. The first vertex collinear
    with its neighbors by `orient` is deleted and the pass restarted,
    until none is. The ring is convex when its turns have one sign and
    the directions of its edges cross between the upper and lower
    half-planes twice (`crossings`). It is reversed when its area is
    negative and started at its first lexicographically least vertex by
    `compare`. Returns the lattice, the ring of point indices, its
    convexity and its area, or raises DegenerateInputError where
    `Polygon` raises."""
    lattice = Lattice(vertices, corners)

    def same(i, j):
        return not (lattice.compare(i, j, 0) or lattice.compare(i, j, 1))

    def shoelace(ring):
        # Twice the signed area, on the points' Fraction coordinates.
        pts = [lattice.points[i] for i in ring]
        return sum(a.x * b.y - b.x * a.y
                   for a, b in zip(pts, pts[1:] + pts[:1]))

    ring = []
    for i in range(len(lattice.points)):
        if not ring or not same(ring[-1], i):
            ring.append(i)
    while len(ring) > 1 and same(ring[0], ring[-1]):
        ring.pop()
    turns = []
    while len(ring) >= 3:
        turns = [lattice.orient(ring[i - 1], v, ring[(i + 1) % len(ring)])
                 for i, v in enumerate(ring)]
        if 0 not in turns:
            break
        del ring[turns.index(0)]
    if len(ring) < 3:
        raise DegenerateInputError("polygon needs >= 3 effective vertices")
    convex = (abs(sum(turns)) == len(ring)
              and lattice.crossings(ring) == 2)
    area2 = turns[0] if convex else shoelace(ring)
    if area2 == 0:
        raise DegenerateInputError("polygon has zero area")
    if area2 < 0:
        ring.reverse()
    start = 0
    for k, v in enumerate(ring):
        u = ring[start]
        if (lattice.compare(v, u, 0) or lattice.compare(v, u, 1)) > 0:
            start = k
    ring = ring[start:] + ring[:start]
    return lattice, ring, convex, Fraction(shoelace(ring)) / 2


def lattice_contains(lattice, ring, p):
    """p on the closed left side of every edge of the convex ring of
    point indices: `_orient_w` of each edge's ends, on their own
    (X, Y, scale), and p on the lcm of its denominators."""
    w = math.lcm(p.x.denominator, p.y.denominator)
    q = (p.x.numerator * (w // p.x.denominator),
         p.y.numerator * (w // p.y.denominator), w)
    ends = [(*lattice.lattice[i], lattice.scales[i]) for i in ring]
    return all(_orient_w(*u, *v, *q) >= 0
               for u, v in zip(ends, ends[1:] + ends[:1]))


def squared_distance(p, q):
    """|p - q|^2 in Fraction arithmetic."""
    dx, dy = _sub(p, q)
    return dx * dx + dy * dy


def segment_contains(a, b, p):
    """Point p lies on segment ab strictly between its ends: on its line,
    at a dot product with b - a strictly between 0 and |b - a|^2."""
    d, u = _sub(b, a), _sub(p, a)
    return _cross(d, u) == 0 and 0 < _dot(u, d) < _dot(d, d)


def segments_overlap(a, b, c, d):
    """Segments ab and cd share a point interior to both. Off one line,
    the ends of each lie strictly on both sides of the other's line; on
    one line, the dot products of c and d with b - a leave an open span
    inside (0, |b - a|^2)."""
    e, f = _sub(b, a), _sub(d, c)
    sc, sd = _cross(e, _sub(c, a)), _cross(e, _sub(d, a))
    if sc or sd:
        return sc * sd < 0 and _cross(f, _sub(a, c)) * _cross(f, _sub(b, c)) < 0
    tc, td = _dot(_sub(c, a), e), _dot(_sub(d, a), e)
    return max(0, min(tc, td)) < min(_dot(e, e), max(tc, td))


def bisector_wall_overlap(p, q, mesh):
    """The clipped cells of sites p and q share a boundary segment of
    positive length: each cell has an edge with both ends on the p-q
    bisector, and the two edges overlap. A corner is on the bisector
    when its Fraction squared distances to p and q are equal."""
    a, b = mesh.sites[p], mesh.sites[q]
    walls = []
    for site in (p, q):
        ring = mesh.voronoi[site].cell.vertices
        on = [squared_distance(v, a) == squared_distance(v, b) for v in ring]
        k = next((k for k in range(len(ring)) if on[k - 1] and on[k]), None)
        if k is None:
            return False
        walls += [ring[k - 1], ring[k]]
    return segments_overlap(*walls)


def point_set_wall(p, q, mesh):
    """The cells of sites p and q share two corners, found by
    intersecting the sets of their `Point2` vertices: Fractions in lowest
    terms, whatever integer triples the cells keep."""
    a, b = (set(mesh.voronoi[s].cell.vertices) for s in (p, q))
    return len(a & b) >= 2


def collinear_visible(p, q, sites):
    """True when no third site lies strictly between points p and q."""
    return not any(segment_contains(p, q, s) for s in sites)


def edge_set(triangles):
    """Undirected edge pairs of an iterable of index triples."""
    edges = set()
    for tri in triangles:
        seq = sorted(tri)
        edges.update(
            {(seq[0], seq[1]), (seq[0], seq[2]), (seq[1], seq[2])}
        )
    return edges


def point_in_triangle(p, a, b, c):
    """Closed membership via orientation signs (any vertex order)."""
    d1 = _cross(_sub(b, a), _sub(p, a))
    d2 = _cross(_sub(c, b), _sub(p, b))
    d3 = _cross(_sub(a, c), _sub(p, c))
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def _hull_indices(points):
    """Monotone chain, indices of hull vertices, counterclockwise."""
    order = sorted(range(len(points)), key=lambda i: (points[i].x, points[i].y))

    def chain(idxs):
        out = []
        for i in idxs:
            while len(out) >= 2 and _cross(
                _sub(points[out[-1]], points[out[-2]]),
                _sub(points[i], points[out[-2]]),
            ) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(order[::-1])
    return lower[:-1] + upper[:-1]


def sampling_convexity_oracle(mesh, triangle_indices, grid=8):
    """Convexity of a triangle union by point sampling.

    Collects candidate points (a grid over the vertex hull, midpoints of
    all vertex pairs, and wedge points converging on each vertex between
    its incident region edges, which catch thin reflex pockets); the
    union is judged non-convex when some candidate inside the hull of
    the union's vertices fails to lie in any triangle.
    """
    tris = [mesh.triangles[t] for t in triangle_indices]
    verts = sorted({v for t in tris for v in t.indices})
    pts = {v: mesh.site_set[v] for v in verts}
    hull_idx = _hull_indices([pts[v] for v in verts])
    hull_pts = [pts[verts[i]] for i in hull_idx]
    neighbors = {v: set() for v in verts}
    for t in tris:
        for a, b in ((t.v0, t.v1), (t.v1, t.v2), (t.v2, t.v0)):
            neighbors[a].add(b)
            neighbors[b].add(a)

    def in_hull(p):
        n = len(hull_pts)
        return all(
            _cross(
                _sub(hull_pts[(i + 1) % n], hull_pts[i]),
                _sub(p, hull_pts[i]),
            )
            >= 0
            for i in range(n)
        )

    def in_union(p):
        return any(
            point_in_triangle(p, *(mesh.site_set[v] for v in t.indices))
            for t in tris
        )

    class _P:
        __slots__ = ("x", "y")

        def __init__(self, x, y):
            self.x, self.y = x, y

    candidates = []
    xs = [p.x for p in pts.values()]
    ys = [p.y for p in pts.values()]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    for i in range(grid + 1):
        for j in range(grid + 1):
            candidates.append(
                _P(
                    xmin + (xmax - xmin) * Fraction(i, grid),
                    ymin + (ymax - ymin) * Fraction(j, grid),
                )
            )
    for a, b in combinations(pts.values(), 2):
        candidates.append(_P((a.x + b.x) / 2, (a.y + b.y) / 2))
    for v in verts:
        p = pts[v]
        for a, b in combinations(sorted(neighbors[v]), 2):
            pa, pb = pts[a], pts[b]
            for k in (8, 64):
                candidates.append(
                    _P(
                        p.x + (pa.x - p.x + pb.x - p.x) / k,
                        p.y + (pa.y - p.y + pb.y - p.y) / k,
                    )
                )
    return all(in_union(p) for p in candidates if in_hull(p))


# Subcomplexes as frozensets of simplices: the relation algebra as it was
# written before `proximesh.complexes` moved to bit masks, kept unchanged
# as the reference that the masks are compared against.


@dataclass(frozen=True, slots=True)
class SubComplex:
    """An immutable selection of mesh simplices."""

    mesh: Mesh
    vertices: frozenset[int]
    edges: frozenset[Edge]
    triangles: frozenset[int]

    def __post_init__(self) -> None:
        n = len(self.mesh.site_set)
        for v in self.vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex index out of range: {v}")
        for e in self.edges:
            if e not in self.mesh.edge_triangles:
                raise ValueError(f"not a mesh edge: {e}")
        for t in self.triangles:
            if not 0 <= t < len(self.mesh.triangles):
                raise ValueError(f"triangle index out of range: {t}")

    @classmethod
    def empty(cls, mesh: Mesh) -> "SubComplex":
        return cls(mesh, frozenset(), frozenset(), frozenset())

    @classmethod
    def of(
        cls,
        mesh: Mesh,
        vertices: Iterable[int] = (),
        edges: Iterable[tuple[int, int]] = (),
        triangles: Iterable[int] = (),
    ) -> "SubComplex":
        norm_edges = frozenset(
            (i, j) if i < j else (j, i) for i, j in edges
        )
        return cls(mesh, frozenset(vertices), norm_edges, frozenset(triangles))

    @classmethod
    def of_triangles(cls, mesh: Mesh, triangles: Iterable[int]) -> "SubComplex":
        return cls.of(mesh, triangles=triangles)

    def is_empty(self) -> bool:
        return not (self.vertices or self.edges or self.triangles)

    def union(self, other: "SubComplex") -> "SubComplex":
        _require_same_mesh(self, other)
        return SubComplex(
            self.mesh,
            self.vertices | other.vertices,
            self.edges | other.edges,
            self.triangles | other.triangles,
        )

    def intersection(self, other: "SubComplex") -> "SubComplex":
        _require_same_mesh(self, other)
        return SubComplex(
            self.mesh,
            self.vertices & other.vertices,
            self.edges & other.edges,
            self.triangles & other.triangles,
        )

    def issubset(self, other: "SubComplex") -> bool:
        _require_same_mesh(self, other)
        return (
            self.vertices <= other.vertices
            and self.edges <= other.edges
            and self.triangles <= other.triangles
        )

    def describe(self) -> str:
        return (
            f"v={sorted(self.vertices)} e={sorted(self.edges)} "
            f"t={sorted(self.triangles)}"
        )


def closure(a: SubComplex) -> SubComplex:
    """The subcomplex plus every face of its members; idempotent."""
    verts = set(a.vertices)
    edges = set(a.edges)
    for e in a.edges:
        verts.update(e)
    for t_idx in a.triangles:
        verts.update(a.mesh.triangles[t_idx].indices)
        edges.update(a.mesh.triangle_edges[t_idx])
    return SubComplex(
        a.mesh, frozenset(verts), frozenset(edges), frozenset(a.triangles)
    )


def boundary(a: SubComplex) -> SubComplex:
    """Simplices of the closure on the frontier of the triangle union.

    Lower-dimensional pieces (edges on no included triangle, stray
    vertices) have no planar interior and belong to the boundary whole.
    """
    cl = closure(a)
    counts = _edge_triangle_counts(cl)
    bdy_edges = frozenset(e for e, c in counts.items() if c != 2)
    bdy_verts = frozenset(
        v for v in cl.vertices if not _has_full_fan(cl, v)
    )
    return SubComplex(a.mesh, bdy_verts, bdy_edges, frozenset())


def interior(a: SubComplex) -> SubComplex:
    """Closure minus boundary, with lower-dimensional pieces keeping
    their relative interiors (an edge without its endpoints, a bare
    point)."""
    cl = closure(a)
    counts = _edge_triangle_counts(cl)
    int_edges = frozenset(e for e, c in counts.items() if c != 1)
    edge_verts = {v for e in cl.edges for v in e}
    int_verts = frozenset(
        v
        for v in cl.vertices
        if _has_full_fan(cl, v) or v not in edge_verts
    )
    return SubComplex(a.mesh, int_verts, int_edges, cl.triangles)


def near(a: SubComplex, b: SubComplex) -> RelationReport:
    """Closures intersect in at least one simplex."""
    shared = _shared_simplex(*_closures(a, b))
    return RelationReport(
        relation="near",
        verdict=shared is not None,
        witness=shared,
    )


def far(a: SubComplex, b: SubComplex) -> RelationReport:
    """Closures are disjoint; the negation of near."""
    shared = _shared_simplex(*_closures(a, b))
    return RelationReport(
        relation="far",
        verdict=shared is None,
        counterexample=shared,
    )


def strongly_near(a: SubComplex, b: SubComplex) -> RelationReport:
    """Closures share at least one full edge."""
    shared = _shared_edge(*_closures(a, b))
    return RelationReport(
        relation="strongly_near",
        verdict=shared is not None,
        witness=shared,
    )


def visible(a: SubComplex, b: SubComplex) -> RelationReport:
    """Closures share at least one vertex."""
    shared = _shared_vertex(*_closures(a, b))
    return RelationReport(
        relation="visible",
        verdict=shared is not None,
        witness=shared,
    )


def invisible(a: SubComplex, b: SubComplex) -> RelationReport:
    """No shared vertex between the closures; the negation of visible."""
    shared = _shared_vertex(*_closures(a, b))
    return RelationReport(
        relation="invisible",
        verdict=shared is None,
        counterexample=shared,
    )


def strongly_visible(a: SubComplex, b: SubComplex) -> RelationReport:
    """Closures share an edge, or one nonempty operand's closure is
    contained in the other's."""
    cl_a, cl_b = _closures(a, b)
    shared = _shared_edge(cl_a, cl_b)
    if shared is not None:
        verdict = True
        witness: Optional[tuple] = shared
    elif not cl_a.is_empty() and cl_a.issubset(cl_b):
        verdict, witness = True, ("containment", "first within second")
    elif not cl_b.is_empty() and cl_b.issubset(cl_a):
        verdict, witness = True, ("containment", "second within first")
    else:
        verdict, witness = False, None
    return RelationReport(
        relation="strongly_visible",
        verdict=verdict,
        witness=witness,
    )


def strongly_invisible(a: SubComplex, b: SubComplex) -> RelationReport:
    """Every single-triangle subset of b is invisible from a.

    Closure monotonicity extends the verdict to every triangle subset of
    b; an empty or triangle-free b passes vacuously.
    """
    _require_same_mesh(a, b)
    seen_from_a = closure(a).vertices
    for t in sorted(b.triangles):
        # A lone triangle's closure has exactly its three vertices.
        if not seen_from_a.isdisjoint(b.mesh.triangles[t].indices):
            return RelationReport(
                relation="strongly_invisible",
                verdict=False,
                counterexample=("triangle", t),
            )
    return RelationReport(
        relation="strongly_invisible",
        verdict=True,
        witness=("all_triangle_subsets_invisible", len(b.triangles)),
    )


def strongly_far(
    a: SubComplex,
    c: SubComplex,
    witness_b: Optional[SubComplex] = None,
) -> RelationReport:
    """a is far from some witness set whose closure's interior swallows c.

    With an explicit witness the verdict is exact. Without one, candidate
    witnesses are grown as triangle neighborhoods around c of adjacency
    radius 1, 2, 3; the bounded search can miss witnesses, so a false
    verdict without a witness is conservative.
    """
    _require_same_mesh(a, c)
    if a.is_empty() or c.is_empty():
        return RelationReport(
            relation="strongly_far",
            verdict=False,
            note="operands must be nonempty",
        )
    cl_a, cl_c = closure(a), closure(c)
    if witness_b is not None:
        ok = _witnesses_strongly_far(cl_a, cl_c, witness_b)
        return RelationReport(
            relation="strongly_far",
            verdict=ok,
            witness=("witness_set", witness_b.describe()) if ok else None,
            note="explicit witness",
        )
    mesh = a.mesh
    seed = _incident_triangles(cl_c)
    frontier = set(seed)
    for radius in (1, 2, 3):
        candidate = SubComplex.of_triangles(mesh, frontier)
        if _witnesses_strongly_far(cl_a, cl_c, candidate):
            return RelationReport(
                relation="strongly_far",
                verdict=True,
                witness=("witness_set", candidate.describe()),
                note=f"witness found at adjacency radius {radius}",
            )
        frontier |= {u for t in frontier for u in mesh.triangle_neighbors[t]}
    return RelationReport(
        relation="strongly_far",
        verdict=False,
        note="bounded witness search exhausted (radius 3)",
    )


def _require_same_mesh(a: SubComplex, b: SubComplex) -> None:
    if a.mesh is not b.mesh:
        raise MeshMismatchError("operands belong to different meshes")


def _edge_triangle_counts(cl: SubComplex) -> dict[Edge, int]:
    counts = {e: 0 for e in cl.edges}
    for t_idx in cl.triangles:
        for e in cl.mesh.triangle_edges[t_idx]:
            counts[e] += 1
    return counts


def _has_full_fan(cl: SubComplex, v: int) -> bool:
    """The vertex's complete mesh fan is present and it is off the hull,
    so the triangle union covers a whole neighborhood of it."""
    mesh = cl.mesh
    if mesh.is_hull_site(v):
        return False
    fan = mesh.vertex_triangles[v]
    return bool(fan) and all(t in cl.triangles for t in fan)


def _closures(a: SubComplex, b: SubComplex) -> tuple[SubComplex, SubComplex]:
    _require_same_mesh(a, b)
    return closure(a), closure(b)


def _shared_vertex(cl_a: SubComplex, cl_b: SubComplex) -> Optional[tuple]:
    shared = cl_a.vertices & cl_b.vertices
    if shared:
        return ("vertex", min(shared))
    return None


def _shared_edge(cl_a: SubComplex, cl_b: SubComplex) -> Optional[tuple]:
    shared = cl_a.edges & cl_b.edges
    if shared:
        return ("edge", min(shared))
    return None


def _shared_simplex(cl_a: SubComplex, cl_b: SubComplex) -> Optional[tuple]:
    """A simplex common to both closures, or None: on closures, always
    the lowest shared vertex, since a shared edge or triangle brings its
    vertices. The edge and triangle branches never answer; they keep
    `near` written as "any shared simplex", apart from `visible`'s
    shared vertex, so that `lemma31`'s agreement of the two is checked
    rather than true by construction."""
    shared_v = cl_a.vertices & cl_b.vertices
    if shared_v:
        return ("vertex", min(shared_v))
    shared_e = cl_a.edges & cl_b.edges
    if shared_e:
        return ("edge", min(shared_e))
    shared_t = cl_a.triangles & cl_b.triangles
    if shared_t:
        return ("triangle", min(shared_t))
    return None


def _witnesses_strongly_far(
    cl_a: SubComplex, cl_c: SubComplex, witness_b: SubComplex
) -> bool:
    """The witness is far from cl_a and its interior holds cl_c."""
    _require_same_mesh(cl_a, witness_b)
    if _shared_simplex(cl_a, closure(witness_b)) is not None:
        return False
    return cl_c.issubset(interior(witness_b))


def _incident_triangles(cl: SubComplex) -> set[int]:
    mesh = cl.mesh
    out: set[int] = set()
    for v in cl.vertices:
        out.update(mesh.vertex_triangles[v])
    out.update(cl.triangles)
    return out
