"""Subcomplexes of a mesh and the proximity/visibility relation algebra.

A subcomplex is any set of vertices, edges and triangles of one mesh. The
eight relations here (near/far, strongly near/strongly far, visible/
invisible and their strong variants) are all decided on simplicial
closures, which makes every verdict exact and lets the axiom checker
falsify rather than assume the algebra's claimed properties.

Closure adds every face of every member simplex. Boundary and interior
follow the union of a subcomplex's closed triangles: an edge shared by
two included triangles is interior, an edge on the union's frontier is
boundary, and a vertex is interior only when its entire mesh fan is
included and it does not sit on the mesh hull. Pieces of lower dimension
than the ambient plane (bare edges, isolated vertices) count wholly as
boundary, while their relative interiors (the open edge, the lone point)
are kept in the interior so that the open-segment reading of an edge's
inside survives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .mesh import Edge, Mesh

# A float: rng.random() draws k / 2**53, which is below the double 1/3
# exactly when k / 2**53 < 1/3, that is when k <= 3002399751580330.
TRIANGLE_PICK_PROBABILITY = 1 / 3


class MeshMismatchError(ValueError):
    """Relation operands live on different meshes."""


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


@dataclass(frozen=True, slots=True)
class RelationReport:
    """Outcome of one relation evaluation or one checked claim.

    `operands` is filled only by the audits, as the label of the checked
    item (a triangle, a site pair); relation calls leave it empty.
    """

    relation: str
    verdict: bool
    witness: Optional[tuple] = None
    counterexample: Optional[tuple] = None
    note: str = ""
    operands: tuple[str, ...] = ()


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


def check_cech_axioms(
    mesh: Mesh, relation: str, trials: int, seed: int
) -> list[RelationReport]:
    """Test the four proximity axioms on random subcomplex triples.

    Axioms: symmetry; nearness to a union is nearness to a part;
    nearness implies both operands nonempty; a shared simplex implies
    nearness. One report per trial; a verdict of True means no axiom was
    violated by that trial's (A, B, C).
    """
    if relation not in ("near", "visible"):
        raise ValueError(f"axiom check supports near/visible, got {relation!r}")
    rel = near if relation == "near" else visible
    if trials < 1:
        raise ValueError("trials must be >= 1")
    reports = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        a = random_triangle_subcomplex(mesh, rng)
        b = random_triangle_subcomplex(mesh, rng)
        c = random_triangle_subcomplex(mesh, rng)
        failure = _axiom_violation(rel, a, b, c)
        reports.append(
            RelationReport(
                relation=f"cech_axioms[{relation}]",
                verdict=failure is None,
                counterexample=failure,
                note=f"trial {trial}",
            )
        )
    return reports


def random_triangle_subcomplex(mesh: Mesh, rng: random.Random) -> SubComplex:
    """Closure of a triangle set sampled with fixed per-triangle odds."""
    picked = [
        t
        for t in range(len(mesh.triangles))
        if rng.random() < TRIANGLE_PICK_PROBABILITY
    ]
    return closure(SubComplex.of_triangles(mesh, picked))


def _axiom_violation(rel, a, b, c) -> Optional[tuple]:
    ab = rel(a, b).verdict
    if ab != rel(b, a).verdict:
        return ("symmetry", a.describe(), b.describe())
    union_verdict = rel(a, b.union(c)).verdict
    if union_verdict != (ab or rel(a, c).verdict):
        return ("union_additivity", a.describe(), b.describe(), c.describe())
    if ab and (a.is_empty() or b.is_empty()):
        return ("nonempty_from_near", a.describe(), b.describe())
    if not a.intersection(b).is_empty() and not ab:
        return ("intersection_implies_near", a.describe(), b.describe())
    return None


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
    """Lowest-dimensional simplex common to both closures."""
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
