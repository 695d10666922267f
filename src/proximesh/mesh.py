"""Delaunay triangulation and clipped Voronoi dual of a planar site set.

A `SiteSet` is the `rational.Lattice` of its sites: every orientation,
incircle and circumcenter on sites runs on their integer coordinates, by
site index. An orientation or incircle sign may come from the lattice's
double copies of those integers instead, only where Shewchuk's error
bound certifies it, so every sign is the exact one. `is_delaunay_triangle` tests the empty circle only on the
sites of the lattice's `slab` about the circumcenter, taken as the
corner `center` builds, those whose x lies within the circle's x-range.

Triangulation is incremental Bowyer-Watson, inserting sites in input
order. The hull edges carry ghost triangles through one vertex at
infinity instead of a finite outer triangle, so every conflict test is
an exact predicate and one pass gives the Delaunay triangulation of any
non-collinear site set. Each site is located by a visibility walk from
the last triangle created, across the edges that have it on their far
side, and its cavity grows across edges from the triangle found. The
conflict test alone decides cocircular ties, by a symbolic perturbation
of the lifted sites: each cocircular Delaunay polygon is fanned from its
least site index; the triangles do not depend on insertion order.

A `Mesh` derives each table from its triangles once, for every module
to read: the ones validation needs (each triangle's edges, the triangles
on each edge and at each site) on construction, every other one as a
cached property on first access. One walk along a site-to-site map
traces the hull cycle, each interior site's fan and a region's frontier.

Validation is linear: triangles whose one-triangle edges form one
convex cycle tile the sites' hull, and then an empty circumcircle across
every interior edge implies a Delaunay triangulation (Delaunay lemma).

Voronoi cells are the Delaunay dual, built on corners, the integer
triples (X, Y, W) of `geometry.Corner`. Each triangle's circumcenter is
computed once per mesh as a corner in lowest terms, which is unique for
each point, for the clip box and the cells alike. An interior site's
cell is the ring of its fan's circumcenter corners when `Rect.place`
puts them all strictly inside the clip box; hull sites, and sites whose
fan reaches the box, get the box's ring, its corners in lowest terms,
cut by the integer bisector lines toward their Delaunay neighbors, each
line built once per edge, and each corner kept is put in lowest terms.
So each cell is a `Polygon` of corners alone, and two cells share a
corner exactly when they share the integer triple. No library path makes
a `Point2` of a corner: the public `circumcenters` and a cell's
`vertices` are made when a caller reads them. Only the `voronoi` output,
rendering and the Delaunay-characterization audit read the derived clip
box and the cells. The tests keep an all-sites bisector construction as
an independent oracle for these cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .geometry import (Corner, Line, Point2, Polygon, Rect, _point,
                       clip_halfplane, is_convex_polygon)
from .rational import Lattice, _lowest

DEFAULT_CLIP_MARGIN = Fraction(1, 10)

Edge = tuple[int, int]


class MeshError(ValueError):
    """A site set or triangulation violates the mesh contracts."""


class SiteSet(Lattice):
    """An indexed set of at least three distinct, non-collinear sites.

    `clip_margin` is the share of the sites' extent that a mesh's clip
    box adds on every side; the box bounds the otherwise unbounded hull
    cells of the Voronoi diagram.

    A site set is the `rational.Lattice` of its sites: its `orient`,
    `incircle` and `crossings` decide by site index, `center` and
    `bisector` build corners and lines, and `slab` and `nearer` take corners.
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
        super().__init__(sites)
        # A point's lattice row and scale are unique to it on either rule.
        seen: dict[tuple[tuple[int, int], int], int] = {}
        for i, key in enumerate(zip(self.lattice, self.scales)):
            j = seen.setdefault(key, i)
            if j != i:
                p = sites[i]
                raise MeshError(f"duplicate sites at indices {j} and {i}: "
                                f"({p.x}, {p.y})")
        if all(self.orient(0, 1, k) == 0 for k in range(2, len(sites))):
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


def check_indices(indices: Iterable, n: int, kind: str = "site") -> None:
    """MeshError unless each index is a plain int in [0, n): True and 1.0
    would read as index 1, and -1 as the last."""
    for i in indices:
        if type(i) is not int:
            raise MeshError(f"{kind} index is not an int: {i!r}")
        if not 0 <= i < n:
            raise MeshError(f"{kind} index out of range: {i}")


def make_triangle(i: int, j: int, k: int, sites: SiteSet) -> Triangle:
    """Normalize an index triple to a counterclockwise Triangle."""
    check_indices((i, j, k), len(sites))
    if len({i, j, k}) != 3:
        raise MeshError(f"triangle indices not distinct: {(i, j, k)}")
    o = sites.orient(i, j, k)
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
    the index maps built here. Validation needs each triangle's edges,
    the triangles on each edge and at each site, so `__init__` builds
    those; every other table is a cached property, built on first access
    and kept: each triangle's neighbors, its circumcenter (as a corner and,
    for a caller that reads them, as a `Point2`), the derived clip box,
    the Voronoi cells and their corner sets. `complexes` keeps its
    bit-mask tables in `_masks`.
    """

    def __init__(
        self,
        site_set: SiteSet,
        triangles: Sequence[Triangle],
        clip_box: Optional[Rect] = None,
    ) -> None:
        if clip_box is not None:
            # Cells read the box only on first access: check it now.
            for i, (xy, w) in enumerate(zip(site_set.lattice,
                                            site_set.scales)):
                if clip_box.place((*xy, w)) < 0:
                    raise MeshError(f"clip_box does not contain site {i}")
            self.clip_box = clip_box  # Shadows the derived box.
        self.site_set = site_set
        self.triangles = tuple(triangles)
        check_indices([v for t in self.triangles for v in t.indices],
                    len(site_set))
        self.triangle_edges = tuple(t.edges() for t in self.triangles)
        edge_map: dict[Edge, list[int]] = {}
        vertex_map: dict[int, list[int]] = {i: [] for i in range(len(site_set))}
        for t_idx, tri in enumerate(self.triangles):
            for e in self.triangle_edges[t_idx]:
                edge_map.setdefault(e, []).append(t_idx)
            for v in tri.indices:
                vertex_map[v].append(t_idx)
        self.edge_triangles = {e: tuple(ts) for e, ts in sorted(edge_map.items())}
        self.vertex_triangles = {v: tuple(ts) for v, ts in vertex_map.items()}
        self._hull_sites = frozenset(self._validate())
        self._masks = None

    @cached_property
    def triangle_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Edge-neighbors of each triangle, in the order of its edges;
        hull edges add none, so positions do not map to edges."""
        return tuple(
            tuple(u for e in edges for u in self.edge_triangles[e] if u != t)
            for t, edges in enumerate(self.triangle_edges)
        )

    @cached_property
    def _corners(self) -> tuple[Corner, ...]:
        """Circumcenter of each triangle as a corner in lowest terms, by
        triangle index; the derived clip box and the cells share them."""
        center = self.site_set.center
        return tuple(_lowest(center(*t.indices)) for t in self.triangles)

    @cached_property
    def circumcenters(self) -> tuple[Point2, ...]:
        """Circumcenter of each triangle, by triangle index, made from its
        corner; no library path reads them."""
        return tuple(map(_point, self._corners))

    @cached_property
    def centers_inside(self) -> tuple[bool, ...]:
        """Whether each triangle's circumcenter lies strictly inside the
        clip box, by `Rect.place` on its corner, by triangle index; the
        cells and the mesh writer share it."""
        box = self.clip_box
        return tuple(box.place(c) > 0 for c in self._corners)

    @cached_property
    def voronoi(self) -> tuple[VoronoiRegion, ...]:
        """Voronoi cells indexed by site."""
        # The module-level `voronoi` function, not this property.
        return tuple(voronoi(self))

    @cached_property
    def _vertex_sets(self) -> tuple[frozenset[Corner], ...]:
        """The set of corners, each in lowest terms, of each Voronoi cell,
        by site."""
        return tuple(frozenset(region.cell.corners) for region in self.voronoi)

    @cached_property
    def clip_box(self) -> Rect:
        """The clip box given to the mesh, else the one derived from the
        sites' extent widened to cover every triangle circumcenter, plus
        the margin on each side.

        Covering the circumcenters keeps all Voronoi vertices strictly
        inside the box, so every true shared cell boundary, including the
        outward rays of hull cells, retains positive length after
        clipping. Without this, shared-segment edge detection would
        depend on how far the fixed-margin box happens to reach.
        """
        sites = self.site_set
        centers = Lattice(corners=self._corners)
        ends = []
        for axis in (0, 1):
            (a, b), (c, d) = sites.extremes(axis), centers.extremes(axis)
            pad = (b - a) * sites.clip_margin
            ends += [min(a, c) - pad, max(b, d) + pad]
        x0, x1, y0, y1 = ends
        return Rect(x0, y0, x1, y1)

    @property
    def sites(self) -> tuple[Point2, ...]:
        return self.site_set.sites

    @property
    def edges(self) -> Iterable[Edge]:
        return self.edge_triangles.keys()

    def is_hull_site(self, i: int) -> bool:
        """True when the site lies on the convex hull boundary (vertex or
        on a hull edge); exactly these sites own unbounded cells."""
        return i in self._hull_sites

    def triangle_points(self, t: Triangle) -> tuple[Point2, Point2, Point2]:
        return tuple(self.site_set[v] for v in t.indices)

    def _validate(self) -> list[int]:
        """Check that the triangles are a Delaunay triangulation of the
        sites; return the hull sites in counterclockwise order.

        The checks before the incircle tests prove, from the triangles
        alone, that they tile the convex hull. The triangles are
        counterclockwise and use each directed edge once, so they cover
        each point as often as the one-triangle edges wind around it.
        Those edges form one cycle of distinct sites that never turns
        right and turns once around: a convex polygon wound once, which
        the triangles tile, and which holds every site, so it is the
        hull. On such a tiling, an empty circumcircle across every
        interior edge implies that every circumcircle is empty (the
        Delaunay lemma).
        """
        if not self.triangles:
            raise MeshError("mesh has no triangles")
        sites = self.site_set
        missing = [v for v, ts in self.vertex_triangles.items() if not ts]
        if missing:
            raise MeshError(f"sites missing from triangulation: {missing}")
        directed: set[Edge] = set()
        for tri in self.triangles:
            i, j, k = tri.indices
            if sites.orient(i, j, k) <= 0:
                raise MeshError(f"triangle {tri.indices} is not counterclockwise")
            for e in ((i, j), (j, k), (k, i)):
                if e in directed:
                    raise MeshError(f"directed edge {e} used by two triangles")
                directed.add(e)
        # Euler relation for a triangulated disk, outer face excluded.
        v = len(sites)
        e = len(self.edge_triangles)
        f = len(self.triangles)
        if v - e + f != 1:
            raise MeshError(f"Euler relation violated: V-E+F = {v - e + f}")
        # 2E - 3F edges bound one triangle. Each site starts as many of them
        # as it ends, and the triangles' area leaves some; a walk from one
        # start meets them all only if they form one cycle of distinct sites.
        after = {i: j for i, j in directed if (j, i) not in directed}
        cycle = _trace_cycle(after)
        if len(cycle) != 2 * e - 3 * f:
            on = set(zip(cycle, cycle[1:] + cycle[:1]))
            i, j = min(d for d in directed - on if d[::-1] not in directed)
            raise MeshError(f"edge {_edge(i, j)} bounds one triangle but is "
                            "not on the convex hull")
        # It must never turn right and must turn once around (Fenchel).
        if sites.crossings(cycle) != 2 or any(
            sites.orient(cycle[k - 2], cycle[k - 1], u) < 0
            for k, u in enumerate(cycle)
        ):
            raise MeshError("triangle union does not cover the site hull")
        for e, ts in self.edge_triangles.items():
            if len(ts) == 2:
                t1, t2 = (self.triangles[t] for t in ts)
                d = next(v for v in t2.indices if v not in e)
                if sites.incircle(*t1.indices, d) > 0:
                    raise MeshError(f"edge {e} is not locally Delaunay: site "
                                    f"{d} is inside the circumcircle of "
                                    f"{t1.indices}")
        return cycle


def is_delaunay_triangle(t: Triangle, sites: SiteSet) -> bool:
    """True when no site lies strictly inside the triangle's circumcircle.

    Only a site in the circle's x-slab can, so the lattice `incircle`
    tests the sites of `SiteSet.slab` about the corner from
    `SiteSet.center`, on either scale rule. No mesh adjacency is read.
    """
    i, j, k = t.indices
    return all(
        sites.incircle(i, j, k, s) <= 0
        for s in sites.slab(sites.center(i, j, k), i)
        if s not in t.indices
    )


def triangulate(site_set: SiteSet) -> Mesh:
    """Delaunay triangulation of the sites, triangles sorted by indices.

    Each cocircular Delaunay polygon is fanned from its least site
    index; the triangles do not depend on insertion order.
    """
    tris = _bowyer_watson(site_set)
    return Mesh(site_set, sorted(tris, key=lambda t: t.indices))


def voronoi(mesh: Mesh) -> list[VoronoiRegion]:
    """Voronoi cells of all mesh sites, clipped to the mesh clip box.

    An interior site whose fan circumcenters all lie strictly inside the
    clip box, by `Rect.place` on their corners, has the ring of those
    circumcenters, in fan order, as its cell: the mesh's own corners;
    `Polygon` drops the coincident ones of cocircular fans. Every other
    cell is the box's ring, each corner in lowest terms, cut by the
    closed bisector half-planes toward the site's Delaunay neighbors, in
    integers, and each corner left is put in lowest terms; it is clipped
    when its site is on the hull or `place` finds a kept corner on the
    box. On a Delaunay triangulation both are the cell that all other
    sites cut. No cell makes a `Point2`.
    """
    sites = mesh.sites
    box = mesh.clip_box
    corners = mesh._corners
    box_ring = box.ring()
    inside = mesh.centers_inside
    neighbors: list[list[int]] = [[] for _ in sites]
    for i, j in mesh.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    # The bisector of an edge, kept negated for the far site's cell.
    bisectors: dict[Edge, Line] = {}
    regions: list[VoronoiRegion] = []
    site_set = mesh.site_set
    for i, (xy, w) in enumerate(zip(site_set.lattice, site_set.scales)):
        fan = None if mesh.is_hull_site(i) else _fan(mesh, i)
        ring = fan is not None and all(inside[t] for t in fan)
        if ring:
            cell = Polygon(None, [corners[t] for t in fan])
        else:
            edges = box_ring
            for j in neighbors[i]:
                line = bisectors.pop((i, j), None)
                if line is None:
                    line = mesh.site_set.bisector(i, j)
                    bisectors[j, i] = (-line[0], -line[1], -line[2])
                edges = clip_halfplane(edges, line)
            kept = [_lowest(c) for c, _ in edges]
            cell = Polygon(None, kept)
        if not is_convex_polygon(cell):
            raise MeshError(f"voronoi cell of site {i} is not convex")
        if not cell.contains((*xy, w)):
            raise MeshError(f"voronoi cell of site {i} excludes its site")
        # A ring lies strictly inside the box and belongs to an interior site.
        clipped = not ring and (
            mesh.is_hull_site(i) or any(box.place(c) == 0 for c in kept)
        )
        regions.append(VoronoiRegion(site=i, cell=cell, clipped=clipped))
    return regions


def _fan(mesh: Mesh, i: int) -> list[int]:
    """The triangles around interior site i, in counterclockwise order."""
    after: dict[int, int] = {}
    triangle: dict[int, int] = {}
    for t in mesh.vertex_triangles[i]:
        a, b, c = mesh.triangles[t].indices
        u, v = (b, c) if i == a else (c, a) if i == b else (a, b)
        after[u] = v
        triangle[u] = t
    return [triangle[u] for u in _trace_cycle(after)]


def _trace_cycle(after: dict[int, int]) -> list[int]:
    """The sites met walking the site-to-site map `after` from its least
    key, until the walk closes or has met `len(after)` sites."""
    cycle = [min(after)]
    while after[cycle[-1]] != cycle[0] and len(cycle) < len(after):
        cycle.append(after[cycle[-1]])
    return cycle


def is_delaunay_edge(p: int, q: int, mesh: Mesh) -> bool:
    """True when the clipped cells of p and q share a boundary segment of
    positive length, not just a point: when they share two corners.

    Let L be the p-q bisector. Both cells are clipped to the same box, so
    cell p and cell q meet L in the same set. Each lies on its own site's
    side of L, so a wall is one edge of both, with the same two exact
    ends. A shared corner lies on L, and a normalized convex ring has at
    most two corners on one line: one shared corner means the cells meet
    at a point (the cocircular case), and two span a wall. The two cells'
    sets of corners are intersected: each corner is an integer triple in
    lowest terms, unique for its point, so plain int tuples hash and
    compare. A mesh's first wall test builds the set of every cell, once,
    as `Mesh._vertex_sets`.
    """
    check_indices((p, q), len(mesh.site_set))
    if p == q:
        raise MeshError("edge endpoints must differ")
    vertex_sets = mesh._vertex_sets
    return len(vertex_sets[p] & vertex_sets[q]) >= 2


def _edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


def _bowyer_watson(site_set: SiteSet) -> list[Triangle]:
    """Incremental Bowyer-Watson with one ghost vertex at infinity.

    Each hull edge i->j, directed with the hull on its right, carries a
    ghost triangle (i, j, ghost). Its circumcircle degenerates to the
    open half-plane left of i->j plus the open segment ij, so a site
    outside the current hull, or on a hull edge, finds its cavity with
    exact predicates alone.

    The triangles, ghosts included, tile a sphere and are kept as one map
    from each directed edge to the vertex opposite it. Each site is
    located by a walk from the last real triangle created, and its
    cavity, which is connected, grows across edges from there.
    """
    ghost = len(site_set)
    orient = site_set.orient
    k = next(k for k in range(2, ghost) if orient(0, 1, k))
    i, j = (0, 1) if orient(0, 1, k) > 0 else (1, 0)
    opposite: dict[Edge, int] = {}
    for t in ((i, j, k), (j, i, ghost), (k, j, ghost), (i, k, ghost)):
        _link(opposite, t)
    last = (i, j, k)
    for idx in range(2, ghost):
        if idx == k:
            continue
        seed = _locate(site_set, opposite, last, idx)
        _unlink(opposite, seed)
        cavity = [seed]
        boundary: list[Edge] = []
        while cavity:
            a, b, c = cavity.pop()
            for u, v in ((a, b), (b, c), (c, a)):
                w = opposite.get((v, u))
                if w is None:
                    continue  # The triangle across is in the cavity.
                # The triangle across, rotated so that a ghost comes last.
                t = (
                    (u, w, v) if v == ghost
                    else (w, v, u) if u == ghost
                    else (v, u, w)
                )
                if _in_conflict(t, idx, site_set):
                    _unlink(opposite, t)
                    cavity.append(t)
                else:
                    boundary.append((u, v))
        for u, v in boundary:
            _link(opposite, (u, v, idx))
            if ghost not in (u, v):
                last = (u, v, idx)
    return [
        Triangle(a, b, c)
        for (a, b), c in opposite.items()
        if a < b < ghost and a < c < ghost
    ]


def _link(opposite: dict[Edge, int], t: tuple[int, int, int]) -> None:
    a, b, c = t
    opposite[a, b] = c
    opposite[b, c] = a
    opposite[c, a] = b


def _unlink(opposite: dict[Edge, int], t: tuple[int, int, int]) -> None:
    a, b, c = t
    del opposite[a, b], opposite[b, c], opposite[c, a]


def _locate(
    site_set: SiteSet,
    opposite: dict[Edge, int],
    start: tuple[int, int, int],
    idx: int,
) -> tuple[int, int, int]:
    """A triangle in conflict with site idx: the real triangle that holds
    it, or a ghost triangle whose hull edge has it strictly beyond.

    Visibility walk from the real triangle `start`: cross any edge that
    has the site strictly on its far side. On a Delaunay triangulation
    the walk never revisits a triangle (Edelsbrunner 1990), so it ends.
    """
    ghost = len(site_set)
    orient = site_set.orient
    a, b, c = start
    if orient(a, b, idx) < 0:
        a, b = b, a
        c = opposite[a, b]
    # The site is never strictly right of a->b, the edge just crossed.
    while c != ghost:
        if orient(b, c, idx) < 0:
            a, b = c, b
        elif orient(c, a, idx) < 0:
            a, b = a, c
        else:
            break
        c = opposite[a, b]
    return a, b, c


def _in_conflict(t: tuple[int, int, int], idx: int, site_set: SiteSet) -> bool:
    """Whether site idx lies inside the circumcircle of the
    counterclockwise triangle t; for a ghost triangle (third index
    len(site_set)), in the open half-plane beyond its hull edge or on the
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
    if k < len(site_set):
        side = site_set.incircle(i, j, k, idx)
        if side:
            return side > 0
        m = min(t)
        a, b = (j, k) if m == i else (k, i) if m == j else (i, j)
        return idx < m or site_set.orient(a, b, idx) < 0
    side = site_set.orient(i, j, idx)
    if side:
        return side > 0
    return site_set.between(i, j, idx)
