"""Triangulation regions, their convexity, and near-set topologies.

A region is a set of mesh triangles under one of two membership rules:
`pairwise-strong` requires every pair of triangles in the set to share
an edge, `edge-chain` only requires connectivity in the edge-adjacency
graph. The union polygon of a region is traced exactly from its
frontier edges; regions whose union has a hole or pinches at a vertex
are rejected by the tracer rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

from .complexes import (
    RelationReport,
    SubComplex,
    closure,
    near,
    visible,
)
from .geometry import (
    Polygon,
    circumcenter,
    is_convex_polygon,
)
from .mesh import Mesh, _trace_cycle, is_delaunay_edge, is_delaunay_triangle
from .rational import _corner

PAIRWISE_STRONG = "pairwise-strong"
EDGE_CHAIN = "edge-chain"
MODES = (PAIRWISE_STRONG, EDGE_CHAIN)


class RegionError(ValueError):
    """A triangle set violates the requested region mode."""


class RegionTraceError(RegionError):
    """The union of the region's triangles is not a simple disk (it has
    a hole or pinches at a vertex), so no boundary polygon exists."""


@dataclass(frozen=True, slots=True)
class Region:
    """A validated collection of mesh triangles."""

    mesh: Mesh
    triangles: frozenset[int]
    mode: str

    def subcomplex(self) -> SubComplex:
        return closure(SubComplex.of_triangles(self.mesh, self.triangles))


@dataclass(frozen=True, slots=True)
class RegionConvexityReport:
    is_convex: bool
    union_polygon: Polygon


@dataclass(frozen=True, slots=True)
class NeighborhoodMap:
    """For each family member, the indices of members near it."""

    family: tuple[SubComplex, ...]
    near_sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        for i, neighbors in enumerate(self.near_sets):
            for j in neighbors:
                if i not in self.near_sets[j]:
                    raise RegionError(
                        f"near-set symmetry broken between {i} and {j}"
                    )
            if not self.family[i].is_empty() and i not in neighbors:
                raise RegionError(f"nonempty member {i} not near itself")


def build_region(
    mesh: Mesh, triangles: Iterable[int], mode: str = PAIRWISE_STRONG
) -> Region:
    """Validate a triangle index set under the requested mode."""
    tris = frozenset(triangles)
    if not tris:
        raise RegionError("region needs at least one triangle")
    for t in tris:
        if type(t) is not int:
            raise RegionError(f"triangle index is not an int: {t!r}")
        if not 0 <= t < len(mesh.triangles):
            raise RegionError(f"triangle index out of range: {t}")
    if mode not in MODES:
        raise RegionError(f"unknown region mode: {mode!r}")
    if mode == PAIRWISE_STRONG:
        ordered = sorted(tris)
        for i, t1 in enumerate(ordered):
            for t2 in ordered[i + 1 :]:
                if t2 not in mesh.triangle_neighbors[t1]:
                    raise RegionError(
                        f"triangles {t1} and {t2} share no edge; not a "
                        "pairwise-strong region"
                    )
    else:
        if not _edge_connected(mesh, tris):
            raise RegionError(
                "triangle set is not connected in the edge-adjacency graph"
            )
    return Region(mesh=mesh, triangles=tris, mode=mode)


def region_union_polygon(region: Region) -> Polygon:
    """Exact union of the region's triangles, traced along frontier edges."""
    mesh = region.mesh
    boundary: dict[int, int] = {}
    for t in region.triangles:
        i, j, k = mesh.triangles[t].indices
        for a, b, e in zip((i, j, k), (j, k, i), mesh.triangle_edges[t]):
            incident = [
                x for x in mesh.edge_triangles[e] if x in region.triangles
            ]
            if len(incident) == 1:
                if a in boundary:
                    raise RegionTraceError(
                        f"union boundary pinches at vertex {a}"
                    )
                boundary[a] = b
    ring = _trace_cycle(boundary)
    if len(ring) != len(boundary):
        raise RegionTraceError("union of triangles has a hole")
    return Polygon([mesh.site_set[v] for v in ring])


def region_convexity(region: Region) -> RegionConvexityReport:
    """Exact convexity of the union. A traced union is a simple polygon,
    so it is convex exactly when its ring turns one way and once around."""
    union = region_union_polygon(region)
    return RegionConvexityReport(is_convex_polygon(union), union)


def regions_proximal(r1: Region, r2: Region) -> RelationReport:
    """Regions share at least one vertex (of their closures)."""
    if r1.mesh is not r2.mesh:
        raise RegionError("regions belong to different meshes")
    return replace(visible(r1.subcomplex(), r2.subcomplex()),
                   relation="regions_proximal")


def leader_topology(
    region: Region,
    family: Sequence[SubComplex],
    relation: str = "visible",
) -> NeighborhoodMap:
    """Near-set map of a family of subcomplexes of the region.

    Assigns to each member the set of members it is visible from (or
    near, when `relation` is "near"; the two must agree). This is the
    concrete neighborhood assignment that gives a region its local
    uniform topology.
    """
    if relation not in ("visible", "near"):
        raise RegionError(f"unsupported relation: {relation!r}")
    rel: Callable[[SubComplex, SubComplex], RelationReport] = (
        visible if relation == "visible" else near
    )
    region_cl = region.subcomplex()
    for idx, member in enumerate(family):
        if member.mesh is not region.mesh:
            raise RegionError(f"family member {idx} is on a different mesh")
        if not member.issubset(region_cl):
            raise RegionError(
                f"family member {idx} is not a subcomplex of the region"
            )
    near_sets = tuple(
        frozenset(
            j for j, other in enumerate(family) if rel(member, other).verdict
        )
        for member in family
    )
    return NeighborhoodMap(family=tuple(family), near_sets=near_sets)


def audit_delaunay_characterizations(mesh: Mesh) -> list[RelationReport]:
    """Per-triangle agreement of the Delaunay characterizations.

    For each mesh triangle: (1) its circumcircle is empty of other
    sites; (2) its circumcenter is a true Voronoi vertex of its three
    sites, cross-checked against the clipped cell polygons when it lies
    inside the clip box; (3) the three sites' cells pairwise share
    positive-length boundary, asked only when the circumcenter lies
    strictly inside the box, where each of the three walls it ends keeps
    positive length; (4) the triangle is a convex polygon: its three
    sites are not collinear. A report's verdict is True when the routes
    taken agree and 4 holds; its note names the routes skipped. A
    triangle that fails only route 3, where the site across each edge
    without a wall is cocircular with it, has the counterexample
    ("cocircular_walls", ((edge, site), ...)); any other, ("triangle", t).

    Routes 1 and 2 read no mesh adjacency. Route 1 is
    `is_delaunay_triangle`, about the lattice circumcenter. Route 2
    takes `geometry.circumcenter`, which scales the three points itself
    and calls no `Lattice` method, as its own center, and asks the site
    set which sites of that center's slab are `nearer` than the
    triangle's first site, by integer distances to its corner on either
    scale rule. The two share only `slab`. `Rect.place`, once, and the
    cells' `contains` place route 2's center by that same corner.
    """
    reports = []
    sites = mesh.site_set
    walls = {e: is_delaunay_edge(*e, mesh) for e in mesh.edges}
    for t_idx, tri in enumerate(mesh.triangles):
        empty_circle = is_delaunay_triangle(tri, sites)
        corner = _corner(circumcenter(*mesh.triangle_points(tri)))
        dual_vertex = all(s in tri for s in sites.nearer(corner, tri.v0))
        note = ""
        shared_walls: Optional[bool] = None
        place = mesh.clip_box.place(corner)
        if place > 0:
            shared_walls = all(walls[e] for e in mesh.triangle_edges[t_idx])
        else:
            note = "circumcenter on clip box; shared-wall route skipped"
        if place >= 0:
            in_cells = all(
                mesh.voronoi[s].cell.contains(corner) for s in tri.indices
            )
            dual_vertex = dual_vertex and in_cells
        else:
            note = ("circumcenter outside clip box; cell cross-check and "
                    "shared-wall route skipped")
        convex = sites.orient(*tri.indices) != 0
        agree = (empty_circle == dual_vertex
                 and shared_walls in (None, empty_circle) and convex)
        counterexample = None if agree else ("triangle", t_idx)
        if not agree and empty_circle and dual_vertex and convex:
            counterexample = (_cocircular_walls(mesh, t_idx, walls)
                              or counterexample)
        reports.append(
            RelationReport(
                relation="delaunay_characterizations",
                operands=(f"triangle {t_idx} {tri.indices}",),
                verdict=agree,
                witness=(
                    "verdicts",
                    (empty_circle, dual_vertex, shared_walls, convex),
                ),
                counterexample=counterexample,
                note=note,
            )
        )
    return reports


def _cocircular_walls(mesh: Mesh, t: int, walls: dict) -> Optional[tuple]:
    """("cocircular_walls", ((edge, site), ...)) of the edges of triangle t
    that have no wall, when each site across one is cocircular with t;
    else None."""
    tri = mesh.triangles[t]
    found = []
    for e in mesh.triangle_edges[t]:
        if walls[e]:
            continue
        across = [v for u in mesh.edge_triangles[e] if u != t
                  for v in mesh.triangles[u].indices if v not in e]
        if not across or mesh.site_set.incircle(*tri.indices, *across):
            return None
        found.append((e, *across))
    return "cocircular_walls", tuple(found)


def _edge_connected(mesh: Mesh, tris: frozenset[int]) -> bool:
    start = next(iter(sorted(tris)))
    seen = {start}
    stack = [start]
    while stack:
        t = stack.pop()
        for other in mesh.triangle_neighbors[t]:
            if other in tris and other not in seen:
                seen.add(other)
                stack.append(other)
    return seen == tris
