"""Delaunay triangulation and clipped Voronoi dual of a planar site set.

Triangulation is incremental Bowyer-Watson over exact rational
coordinates, inserting sites in input order. The hull edges carry ghost
triangles through one vertex at infinity instead of a finite outer
triangle, so every conflict test is an exact predicate and one pass
gives the Delaunay triangulation of any non-collinear site set. The
conflict test alone decides cocircular ties, by a symbolic perturbation
of the lifted sites: each cocircular Delaunay polygon is fanned from its
least site index; the triangles do not depend on insertion order.

Validation is local: once the triangles are proven to tile the convex
hull, an empty circumcircle across every interior edge implies a
Delaunay triangulation (the Delaunay lemma).

Voronoi cells are the Delaunay dual: each cell is the clip box cut by
the exact perpendicular-bisector half-planes toward the site's Delaunay
neighbors. They are built on first access, since only the `voronoi`
output, cell rendering and the Delaunay-characterization audit read
them. The tests keep an all-sites bisector construction as an
independent oracle for these cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .geometry import (
    Point2,
    Polygon,
    Segment,
    circumcenter,
    clip_halfplane,
    convex_hull,
    incircle,
    is_convex_polygon,
    orient2d,
    point_in_segment_interior,
    segments_share_interior_point,
)

DEFAULT_CLIP_MARGIN = Fraction(1, 10)

Edge = tuple[int, int]


class MeshError(ValueError):
    """A site set or triangulation violates the mesh contracts."""


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
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax

    def strictly_contains(self, p: Point2) -> bool:
        return self.xmin < p.x < self.xmax and self.ymin < p.y < self.ymax

    def on_boundary(self, p: Point2) -> bool:
        return self.contains(p) and not self.strictly_contains(p)


class SiteSet:
    """An indexed set of at least three distinct, non-collinear sites.

    `clip_margin` is the share of the sites' extent that a mesh's clip
    box adds on every side; the box bounds the otherwise unbounded hull
    cells of the Voronoi diagram.
    """

    __slots__ = ("sites", "clip_margin")

    def __init__(
        self,
        sites: Sequence[Point2],
        clip_margin: Fraction = DEFAULT_CLIP_MARGIN,
    ) -> None:
        sites = tuple(sites)
        if len(sites) < 3:
            raise MeshError(f"need at least 3 sites, got {len(sites)}")
        seen: dict[Point2, int] = {}
        for i, p in enumerate(sites):
            if p in seen:
                raise MeshError(
                    f"duplicate sites at indices {seen[p]} and {i}: "
                    f"({p.x}, {p.y})"
                )
            seen[p] = i
        a, b = sites[0], sites[1]
        if all(orient2d(a, b, p) == 0 for p in sites[2:]):
            raise MeshError("all sites are collinear")
        if clip_margin <= 0:
            raise MeshError("clip margin must be positive")
        self.sites = sites
        self.clip_margin = Fraction(clip_margin)

    def __len__(self) -> int:
        return len(self.sites)

    def __getitem__(self, i: int) -> Point2:
        return self.sites[i]


@dataclass(frozen=True, slots=True)
class Triangle:
    """Counterclockwise triangle of site indices, smallest index first."""

    v0: int
    v1: int
    v2: int

    @property
    def indices(self) -> tuple[int, int, int]:
        return (self.v0, self.v1, self.v2)

    def edges(self) -> tuple[Edge, Edge, Edge]:
        i, j, k = self.indices
        return (_edge(i, j), _edge(j, k), _edge(k, i))

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.indices


@dataclass(frozen=True, slots=True)
class VoronoiRegion:
    """Closed Voronoi cell of one site, clipped to the mesh clip box."""

    site: int
    cell: Polygon
    clipped: bool


def make_triangle(i: int, j: int, k: int, sites: SiteSet) -> Triangle:
    """Normalize an index triple to a counterclockwise Triangle."""
    if len({i, j, k}) != 3:
        raise MeshError(f"triangle indices not distinct: {(i, j, k)}")
    o = orient2d(sites[i], sites[j], sites[k])
    if o == 0:
        raise MeshError(f"degenerate triangle {(i, j, k)}: collinear sites")
    if o < 0:
        j, k = k, j
    ring = (i, j, k)
    shift = ring.index(min(ring))
    return Triangle(*(ring[shift:] + ring[:shift]))


class Mesh:
    """Immutable triangulation of a site set plus its Voronoi dual.

    Adjacency queries and the relation algebra in `complexes` work off
    the index maps built here; nothing mutates a Mesh after construction
    except the cache of its Voronoi cells, filled on first access.
    """

    __slots__ = (
        "site_set",
        "triangles",
        "edge_triangles",
        "vertex_triangles",
        "triangle_neighbors",
        "hull",
        "clip_box",
        "_hull_sites",
        "_voronoi",
    )

    def __init__(
        self,
        site_set: SiteSet,
        triangles: Sequence[Triangle],
        clip_box: Optional[Rect] = None,
    ) -> None:
        self.site_set = site_set
        self.triangles = tuple(triangles)
        edge_map: dict[Edge, list[int]] = {}
        vertex_map: dict[int, list[int]] = {i: [] for i in range(len(site_set))}
        for t_idx, tri in enumerate(self.triangles):
            for e in tri.edges():
                edge_map.setdefault(e, []).append(t_idx)
            for v in tri.indices:
                vertex_map[v].append(t_idx)
        self.edge_triangles = {e: tuple(ts) for e, ts in sorted(edge_map.items())}
        self.vertex_triangles = {v: tuple(ts) for v, ts in vertex_map.items()}
        self.hull = convex_hull(site_set.sites)
        self._validate()
        # Edge-neighbors of each triangle, across its edges in the order
        # (v0v1, v1v2, v2v0).
        self.triangle_neighbors = tuple(
            tuple(u for e in tri.edges() for u in edge_map[e] if u != t)
            for t, tri in enumerate(self.triangles)
        )
        # On a proven tiling of the hull, the one-triangle edges are
        # exactly the hull boundary, collinear hull sites included.
        self._hull_sites = frozenset(
            v
            for e, ts in self.edge_triangles.items()
            if len(ts) == 1
            for v in e
        )
        self.clip_box = clip_box if clip_box is not None else self._derive_clip_box()
        self._voronoi: Optional[tuple[VoronoiRegion, ...]] = None

    @property
    def voronoi(self) -> tuple[VoronoiRegion, ...]:
        """Voronoi cells indexed by site, built on first access."""
        if self._voronoi is None:
            # The module-level `voronoi` function, not this property.
            self._voronoi = tuple(voronoi(self))
        return self._voronoi

    def _derive_clip_box(self) -> Rect:
        """Clip box: the sites' extent widened to cover every triangle
        circumcenter, plus the margin on each side.

        Covering the circumcenters keeps all Voronoi vertices strictly
        inside the box, so every true shared cell boundary, including the
        outward rays of hull cells, retains positive length after
        clipping. Without this, shared-segment edge detection would
        depend on how far the fixed-margin box happens to reach.
        """
        sites = self.site_set.sites
        xs = [p.x for p in sites]
        ys = [p.y for p in sites]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        mx = (xmax - xmin) * self.site_set.clip_margin
        my = (ymax - ymin) * self.site_set.clip_margin
        for tri in self.triangles:
            u = circumcenter(*self.triangle_points(tri))
            xmin = min(xmin, u.x)
            xmax = max(xmax, u.x)
            ymin = min(ymin, u.y)
            ymax = max(ymax, u.y)
        return Rect(xmin - mx, ymin - my, xmax + mx, ymax + my)

    @property
    def sites(self) -> tuple[Point2, ...]:
        return self.site_set.sites

    @property
    def edges(self) -> Iterable[Edge]:
        return self.edge_triangles.keys()

    def site(self, i: int) -> Point2:
        return self.site_set[i]

    def is_hull_site(self, i: int) -> bool:
        """True when the site lies on the convex hull boundary (vertex or
        on a hull edge); exactly these sites own unbounded cells."""
        return i in self._hull_sites

    def triangle_points(self, t: Triangle) -> tuple[Point2, Point2, Point2]:
        return tuple(self.site_set[v] for v in t.indices)

    def _validate(self) -> None:
        """Check that the triangles are a Delaunay triangulation of the
        sites.

        The checks before the incircle tests prove that the triangles
        tile the convex hull. Each triangle is counterclockwise and each
        directed edge is used once, so the triangle boundaries cancel on
        every two-triangle edge; the one-triangle edges all lie on the
        hull boundary, so the triangles cover the hull a whole number of
        times, and the area check makes that number one. On such a
        tiling, an empty circumcircle across every interior edge implies
        that every circumcircle is empty (the Delaunay lemma), so one
        incircle test per interior edge replaces a scan over all sites.
        """
        if not self.triangles:
            raise MeshError("mesh has no triangles")
        sites = self.site_set
        used = {v for t in self.triangles for v in t.indices}
        if used != set(range(len(sites))):
            missing = sorted(set(range(len(sites))) - used)
            raise MeshError(f"sites missing from triangulation: {missing}")
        directed: set[Edge] = set()
        for tri in self.triangles:
            i, j, k = tri.indices
            for e in ((i, j), (j, k), (k, i)):
                if e in directed:
                    raise MeshError(f"directed edge {e} used by two triangles")
                directed.add(e)
        for e, ts in self.edge_triangles.items():
            if len(ts) > 2:
                raise MeshError(f"edge {e} shared by {len(ts)} triangles")
        # Euler relation for a triangulated disk, outer face excluded.
        v = len(sites)
        e = len(self.edge_triangles)
        f = len(self.triangles)
        if v - e + f != 1:
            raise MeshError(f"Euler relation violated: V-E+F = {v - e + f}")
        area2 = Fraction(0)
        for tri in self.triangles:
            a, b, c = self.triangle_points(tri)
            tri_area2 = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
            if tri_area2 <= 0:
                raise MeshError(f"triangle {tri.indices} is not counterclockwise")
            area2 += tri_area2
        if area2 != self.hull.area() * 2:
            raise MeshError("triangle union does not cover the site hull")
        for e, ts in self.edge_triangles.items():
            if len(ts) == 1:
                # Sites lie in the hull, so a midpoint on its boundary
                # puts the whole edge on one hull edge.
                a, b = sites[e[0]], sites[e[1]]
                mid = Point2((a.x + b.x) / 2, (a.y + b.y) / 2)
                if not self.hull.on_boundary(mid):
                    raise MeshError(f"edge {e} bounds one triangle but is "
                                    "not on the convex hull")
                continue
            t1, t2 = (self.triangles[t] for t in ts)
            d = next(v for v in t2.indices if v not in e)
            if incircle(*self.triangle_points(t1), sites[d]) > 0:
                raise MeshError(f"edge {e} is not locally Delaunay: site {d} "
                                f"is inside the circumcircle of {t1.indices}")


def is_delaunay_triangle(t: Triangle, sites: SiteSet) -> bool:
    """True when no site lies strictly inside the triangle's circumcircle."""
    a, b, c = (sites[v] for v in t.indices)
    return all(
        incircle(a, b, c, sites[s]) <= 0
        for s in range(len(sites))
        if s not in t.indices
    )


def triangles_sharing_edge(mesh: Mesh, p: int, q: int) -> tuple[int, ...]:
    """Indices of the 0-2 mesh triangles incident to undirected edge pq."""
    if p == q:
        raise MeshError("edge endpoints must differ")
    return mesh.edge_triangles.get(_edge(p, q), ())


def triangulate(site_set: SiteSet) -> Mesh:
    """Delaunay triangulation of the sites, triangles sorted by indices.

    Each cocircular Delaunay polygon is fanned from its least site
    index; the triangles do not depend on insertion order.
    """
    tris = _bowyer_watson(site_set)
    return Mesh(site_set, sorted(tris, key=lambda t: t.indices))


def voronoi(mesh: Mesh) -> list[VoronoiRegion]:
    """Voronoi cells of all mesh sites, clipped to the mesh clip box.

    Each cell is the clip box intersected with the closed bisector
    half-planes toward the site's Delaunay neighbors. On a Delaunay
    triangulation that is the same cell as the one cut by all other
    sites, at one clip per incident edge.
    """
    sites = mesh.sites
    box = mesh.clip_box
    neighbors: list[list[int]] = [[] for _ in sites]
    for i, j in mesh.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    regions: list[VoronoiRegion] = []
    for i, p in enumerate(sites):
        verts = box.corners()
        for j in neighbors[i]:
            q = sites[j]
            mid = Point2((p.x + q.x) / 2, (p.y + q.y) / 2)
            along = Point2(mid.x - (q.y - p.y), mid.y + (q.x - p.x))
            verts = clip_halfplane(verts, mid, along)
        cell = Polygon(verts)
        if not is_convex_polygon(cell):
            raise MeshError(f"voronoi cell of site {i} is not convex")
        if not cell.contains(p):
            raise MeshError(f"voronoi cell of site {i} excludes its site")
        clipped = mesh.is_hull_site(i) or any(
            box.on_boundary(v) for v in cell.vertices
        )
        regions.append(VoronoiRegion(site=i, cell=cell, clipped=clipped))
    return regions


def is_delaunay_edge(p: int, q: int, mesh: Mesh) -> bool:
    """True when the clipped cells of p and q share a boundary segment of
    positive length (meeting at a single point does not count).

    Each cell lies on its own site's side of the p-q bisector, so it
    meets that line in at most one of its edges; the cells share a wall
    exactly when those two edges overlap.
    """
    if p == q:
        raise MeshError("edge endpoints must differ")
    sites = mesh.site_set
    if not (0 <= p < len(sites) and 0 <= q < len(sites)):
        raise MeshError(f"site index out of range: {(p, q)}")
    a, b = sites[p], sites[q]
    mid = Point2((a.x + b.x) / 2, (a.y + b.y) / 2)
    along = Point2(mid.x - (b.y - a.y), mid.y + (b.x - a.x))
    walls = []
    for site in (p, q):
        wall = next(
            (
                Segment(u, v)
                for u, v in mesh.voronoi[site].cell.edges()
                if orient2d(mid, along, u) == 0 and orient2d(mid, along, v) == 0
            ),
            None,
        )
        if wall is None:
            return False
        walls.append(wall)
    return segments_share_interior_point(*walls)


def _edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


def _bowyer_watson(site_set: SiteSet) -> list[Triangle]:
    """Incremental Bowyer-Watson with one ghost vertex at infinity.

    Each hull edge i->j, directed with the hull on its right, carries a
    ghost triangle (i, j, ghost). Its circumcircle degenerates to the
    open half-plane left of i->j plus the open segment ij, so a site
    outside the current hull, or on a hull edge, finds its cavity with
    exact predicates alone.
    """
    sites = site_set.sites
    ghost = len(sites)
    k = next(k for k in range(2, ghost) if orient2d(*sites[:2], sites[k]))
    i, j = (0, 1) if orient2d(*sites[:2], sites[k]) > 0 else (1, 0)
    active = {(i, j, k), (j, i, ghost), (k, j, ghost), (i, k, ghost)}
    for idx in range(2, ghost):
        if idx == k:
            continue
        bad = [t for t in active if _in_conflict(t, idx, sites)]
        directed: set[Edge] = set()
        for a, b, c in bad:
            directed.update(((a, b), (b, c), (c, a)))
        active.difference_update(bad)
        for a, b in directed:
            if (b, a) in directed:
                continue
            # Rotate new ghost triangles so that the ghost stays last.
            if a == ghost:
                active.add((b, idx, ghost))
            elif b == ghost:
                active.add((idx, a, ghost))
            else:
                active.add((a, b, idx))
    return [make_triangle(*t, site_set) for t in active if t[2] != ghost]


def _in_conflict(
    t: tuple[int, int, int], idx: int, sites: Sequence[Point2]
) -> bool:
    """Whether site idx lies inside the circumcircle of the
    counterclockwise triangle t; for a ghost triangle (third index
    len(sites)), in the open half-plane beyond its hull edge or on the
    open edge.

    A tie on the circle lowers each site i's lift by ε^(i+1), so the
    least index m of t and idx decides: idx is inside if idx < m, else
    if it lies strictly right of t's edge a->b opposite m, where the
    lowered m tilts the lifted plane up. (idx is never on line ab,
    which meets the circle only at a and b.) So each cocircular Delaunay
    polygon is fanned from its least site index; the triangles do not
    depend on insertion order.
    """
    i, j, k = t
    p = sites[idx]
    if k < len(sites):
        side = incircle(sites[i], sites[j], sites[k], p)
        if side:
            return side > 0
        m = min(t)
        a, b = (j, k) if m == i else (k, i) if m == j else (i, j)
        return idx < m or orient2d(sites[a], sites[b], p) < 0
    side = orient2d(sites[i], sites[j], p)
    return side > 0 or (
        side == 0 and point_in_segment_interior(p, Segment(sites[i], sites[j]))
    )
