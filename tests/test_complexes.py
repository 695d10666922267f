import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from proximesh import complexes as cx
from proximesh.complexes import (
    MeshMismatchError,
    SubComplex,
    boundary,
    check_cech_axioms,
    closure,
    far,
    interior,
    invisible,
    near,
    random_triangle_subcomplex,
    strongly_far,
    strongly_invisible,
    strongly_near,
    strongly_visible,
    visible,
)
from proximesh.geometry import Point2
from proximesh.harness import generate_sites
from proximesh.mesh import SiteSet, triangulate
from proximesh.regions import PAIRWISE_STRONG, build_region, regions_proximal

P = Point2


def tri_sub(mesh, *indices):
    return SubComplex.of_triangles(mesh, indices)


def shared_edge(mesh, t1, t2):
    common = set(mesh.triangles[t1].edges()) & set(mesh.triangles[t2].edges())
    assert len(common) == 1
    return next(iter(common))


@pytest.fixture(scope="module")
def buried_config(grid5_mesh):
    """A triangle C with an all-interior vertex set, the blob B of every
    triangle touching it, and a far set A from the remaining triangles."""
    mesh = grid5_mesh
    candidates = [
        t
        for t in range(len(mesh.triangles))
        if all(
            not mesh.is_hull_site(v) for v in mesh.triangles[t].indices
        )
    ]
    t = candidates[0]
    c = tri_sub(mesh, t)
    b_tris = {
        t2
        for v in mesh.triangles[t].indices
        for t2 in mesh.vertex_triangles[v]
    }
    b = closure(SubComplex.of_triangles(mesh, b_tris))
    blocked = {
        t2 for v in b.vertices for t2 in mesh.vertex_triangles[v]
    }
    a_tris = [t2 for t2 in range(len(mesh.triangles)) if t2 not in blocked]
    assert a_tris
    a = closure(SubComplex.of_triangles(mesh, a_tris))
    return a, b, c


class TestOf:
    @pytest.mark.parametrize("kwargs, bad", [
        ({"vertices": [1.5]}, "vertex index is not an int: 1.5"),
        ({"vertices": [True]}, "vertex index is not an int: True"),
        ({"triangles": [0.5]}, "triangle index is not an int: 0.5"),
        ({"edges": [(0, 1.0)]}, r"edge index is not an int: \(0, 1.0\)"),
    ])
    def test_index_not_an_int_rejected(self, fan_mesh, kwargs, bad):
        with pytest.raises(ValueError, match=bad):
            SubComplex.of(fan_mesh, **kwargs)

    @pytest.mark.parametrize("kwargs, bad", [
        ({"vertices": [4]}, "vertex index out of range: 4"),
        ({"vertices": [-1]}, "vertex index out of range: -1"),
        ({"triangles": [3]}, "triangle index out of range: 3"),
        ({"edges": [(1, 0), (7, 0)]}, r"not a mesh edge: \(0, 7\)"),
    ])
    def test_index_not_in_the_mesh_rejected(self, fan_mesh, kwargs, bad):
        with pytest.raises(ValueError, match=bad):
            SubComplex.of(fan_mesh, **kwargs)

    def test_edges_in_either_order(self, fan_mesh):
        a = SubComplex.of(fan_mesh, edges=[(3, 0), (0, 1)])
        assert a.edges == frozenset({(0, 1), (0, 3)})
        assert a.describe() == "v=[] e=[(0, 1), (0, 3)] t=[]"

    def test_tables_built_on_first_subcomplex(self):
        mesh = triangulate(SiteSet([P(0, 0), P(4, 0), P(2, 3), P(2, 1)]))
        mesh.voronoi
        assert mesh._masks is None
        SubComplex.empty(mesh)
        assert mesh._masks is None
        SubComplex.of(mesh, vertices=[0])
        assert mesh._masks is not None

    def test_triangle_set_is_its_bits(self, fan_mesh):
        assert [SubComplex.of_triangle_set(fan_mesh, k).triangles
                for k in range(8)] == [
            frozenset(t for t in range(3) if k >> t & 1) for k in range(8)]
        assert SubComplex.of_triangle_set(fan_mesh, 5) == tri_sub(fan_mesh,
                                                                  0, 2)

    @pytest.mark.parametrize("k", [-1, 8, True, 1.0])
    def test_triangle_set_not_of_the_mesh_rejected(self, fan_mesh, k):
        with pytest.raises(ValueError, match="not a triangle set of the mesh"):
            SubComplex.of_triangle_set(fan_mesh, k)

    def test_closed_flag_not_a_constructor_argument(self, fan_mesh):
        with pytest.raises(TypeError):
            SubComplex(fan_mesh, closed=True)
        assert not SubComplex.of_triangles(fan_mesh, [0]).closed


class TestClosure:
    def test_closed_operand_returned_as_is(self, fan_mesh):
        cl = closure(tri_sub(fan_mesh, 0))
        assert closure(cl) is cl
        assert closure(cl.union(closure(tri_sub(fan_mesh, 2)))).closed
        # Equality reads the simplices, not the flag.
        assert SubComplex.of(fan_mesh, cl.vertices, cl.edges,
                             cl.triangles) == cl

    def test_triangle_closure(self, fan_mesh):
        cl = closure(tri_sub(fan_mesh, 0))
        tri = fan_mesh.triangles[0]
        assert cl.vertices == frozenset(tri.indices)
        assert cl.edges == frozenset(tri.edges())
        assert cl.triangles == frozenset({0})

    def test_idempotent(self, fan_mesh):
        a = tri_sub(fan_mesh, 0, 2)
        assert closure(closure(a)) == closure(a)

    def test_edge_closure(self, fan_mesh):
        e = min(fan_mesh.edges)
        cl = closure(SubComplex.of(fan_mesh, edges=[e]))
        assert cl.vertices == frozenset(e)
        assert cl.edges == frozenset({e})

    @settings(max_examples=40)
    @given(st.data())
    def test_monotone(self, grid_mesh, data):
        n = len(grid_mesh.triangles)
        small = data.draw(st.sets(st.integers(0, n - 1), max_size=6))
        extra = data.draw(st.sets(st.integers(0, n - 1), max_size=6))
        a = tri_sub(grid_mesh, *small)
        b = tri_sub(grid_mesh, *(small | extra))
        assert closure(a).issubset(closure(b))


class TestBoundaryInterior:
    def test_single_triangle(self, fan_mesh):
        a = tri_sub(fan_mesh, 0)
        tri = fan_mesh.triangles[0]
        bd = boundary(a)
        assert bd.edges == frozenset(tri.edges())
        assert bd.vertices == frozenset(tri.indices)
        assert bd.triangles == frozenset()
        assert interior(a).triangles == frozenset({0})
        assert interior(a).edges == frozenset()
        assert interior(a).vertices == frozenset()

    def test_two_triangles_share_edge(self, fan_mesh):
        a = tri_sub(fan_mesh, 0, 1)
        e = shared_edge(fan_mesh, 0, 1)
        bd = boundary(a)
        assert e not in bd.edges
        assert set(e) <= bd.vertices  # endpoints stay on the frontier
        it = interior(a)
        assert it.triangles == frozenset({0, 1})
        assert it.edges == frozenset({e})

    def test_bare_edge(self, fan_mesh):
        e = min(fan_mesh.edges)
        a = SubComplex.of(fan_mesh, edges=[e])
        bd = boundary(a)
        assert bd == closure(a)  # no planar interior: wholly boundary
        it = interior(a)
        assert it.edges == frozenset({e})  # the open segment survives
        assert it.vertices == frozenset()

    def test_interior_subset_of_closure(self, grid_mesh):
        rng = random.Random(4)
        for _ in range(20):
            a = random_triangle_subcomplex(grid_mesh, rng)
            assert interior(a).issubset(closure(a))
            assert boundary(a).issubset(closure(a))

    @pytest.mark.parametrize("k, picked", [(3002399751580330, True),
                                           (3002399751580331, False)])
    def test_pick_threshold_is_one_third_exactly(self, grid_mesh, k, picked):
        # rng.random() draws k / 2**53; the float threshold picks the
        # draws below 1/3, no more and no fewer.
        assert (Fraction(k, 2**53) < Fraction(1, 3)) is picked

        class Fixed(random.Random):
            def random(self):
                return k / 2**53

        a = random_triangle_subcomplex(grid_mesh, Fixed())
        assert len(a.triangles) == (len(grid_mesh.triangles) if picked else 0)

    def test_full_fan_vertex_interior(self, grid5_mesh):
        # Vertex 12 is deep interior; including its whole star makes it
        # an interior vertex of the subcomplex.
        star = grid5_mesh.vertex_triangles[12]
        a = tri_sub(grid5_mesh, *star)
        assert 12 in interior(a).vertices
        assert 12 not in boundary(a).vertices

    def test_boundary_already_closed(self, fan_mesh):
        a = tri_sub(fan_mesh, 0)
        assert closure(boundary(a)) == boundary(a)


class TestNearFar:
    def test_edges_sharing_vertex(self, fan_mesh):
        a = SubComplex.of(fan_mesh, edges=[(0, 1)])
        b = SubComplex.of(fan_mesh, edges=[(1, 2)])
        rep = near(a, b)
        assert rep.verdict
        assert rep.witness == ("vertex", 1)

    def test_disjoint_far(self, grid_mesh):
        a = SubComplex.of(grid_mesh, vertices=[0])
        b = SubComplex.of(grid_mesh, vertices=[15])
        assert not near(a, b).verdict
        assert far(a, b).verdict

    def test_subset_is_near(self, fan_mesh):
        a = tri_sub(fan_mesh, 0)
        b = closure(tri_sub(fan_mesh, 0, 1))
        assert near(a, b).verdict

    def test_far_of_self_nonempty(self, fan_mesh):
        a = tri_sub(fan_mesh, 0)
        assert not far(a, a).verdict

    def test_witness_is_lowest_dimensional(self, fan_mesh):
        a = tri_sub(fan_mesh, 0)
        rep = near(a, a)
        assert rep.witness[0] == "vertex"

    def test_mesh_mismatch(self, fan_mesh, wheel_mesh):
        with pytest.raises(MeshMismatchError):
            near(tri_sub(fan_mesh, 0), tri_sub(wheel_mesh, 0))

    def test_witness_on_other_mesh_rejected(self, fan_mesh, wheel_mesh):
        a, c = tri_sub(fan_mesh, 0), tri_sub(fan_mesh, 1)
        with pytest.raises(MeshMismatchError):
            strongly_far(a, c, tri_sub(wheel_mesh, 0))


class TestStrongRelations:
    def test_shared_edge_strongly_near(self, fan_mesh):
        assert strongly_near(tri_sub(fan_mesh, 0), tri_sub(fan_mesh, 1)).verdict

    def test_vertex_only_not_strongly_near(self, wheel_mesh):
        # Opposite wheel sectors meet only at the hub.
        rep = strongly_near(tri_sub(wheel_mesh, 0), tri_sub(wheel_mesh, 2))
        assert not rep.verdict
        assert near(tri_sub(wheel_mesh, 0), tri_sub(wheel_mesh, 2)).verdict

    def test_self_strongly_near(self, fan_mesh):
        a = tri_sub(fan_mesh, 0)
        rep = strongly_near(a, a)
        assert rep.verdict and rep.witness[0] == "edge"

    def test_strongly_visible_shared_edge(self, fan_mesh):
        rep = strongly_visible(tri_sub(fan_mesh, 0), tri_sub(fan_mesh, 1))
        assert rep.verdict and rep.witness[0] == "edge"

    def test_strongly_visible_containment(self, grid_mesh):
        # A vertex-only subcomplex inside a blob shares no edge but is
        # contained, which counts as strongly visible.
        blob = closure(tri_sub(grid_mesh, 0, 1))
        v = SubComplex.of(grid_mesh, vertices=[min(blob.vertices)])
        rep = strongly_visible(v, blob)
        assert rep.verdict and rep.witness[0] == "containment"

    def test_vertex_fan_not_strongly_visible(self, wheel_mesh):
        rep = strongly_visible(tri_sub(wheel_mesh, 0), tri_sub(wheel_mesh, 2))
        assert not rep.verdict

    def test_strong_implies_weak(self, grid_mesh):
        rng = random.Random(9)
        for _ in range(60):
            a = random_triangle_subcomplex(grid_mesh, rng)
            b = random_triangle_subcomplex(grid_mesh, rng)
            if strongly_near(a, b).verdict:
                assert near(a, b).verdict
            if strongly_visible(a, b).verdict:
                assert visible(a, b).verdict


class TestVisibleInvisible:
    def test_single_shared_vertex(self, wheel_mesh):
        a, d = tri_sub(wheel_mesh, 0), tri_sub(wheel_mesh, 2)
        rep = visible(a, d)
        assert rep.verdict
        assert rep.witness == ("vertex", 0)  # the hub

    def test_disjoint_invisible(self, grid_mesh):
        a = SubComplex.of(grid_mesh, vertices=[0])
        b = SubComplex.of(grid_mesh, vertices=[15])
        assert invisible(a, b).verdict

    def test_self_closure_visible(self, fan_mesh):
        a = tri_sub(fan_mesh, 0)
        assert visible(a, closure(a)).verdict

    def test_empty_operand(self, fan_mesh):
        a = tri_sub(fan_mesh, 0)
        e = SubComplex.empty(fan_mesh)
        assert not visible(e, a).verdict
        assert not near(e, a).verdict
        assert invisible(e, a).verdict
        assert far(e, a).verdict

    def test_touching_not_invisible(self, fan_mesh):
        assert not invisible(tri_sub(fan_mesh, 0), tri_sub(fan_mesh, 1)).verdict


class TestStronglyInvisible:
    def test_buried_configuration(self, buried_config):
        a, b, c = buried_config
        assert invisible(a, b).verdict
        assert strongly_invisible(a, b).verdict

    def test_touching_triangle_witnessed(self, fan_mesh):
        a = tri_sub(fan_mesh, 0)
        b = tri_sub(fan_mesh, 1)
        rep = strongly_invisible(a, b)
        assert not rep.verdict
        assert rep.counterexample == ("triangle", 1)

    def test_empty_vacuous(self, fan_mesh):
        a = tri_sub(fan_mesh, 0)
        assert strongly_invisible(a, SubComplex.empty(fan_mesh)).verdict

    def test_collapses_to_invisible(self, grid_mesh):
        # On triangle-generated subcomplexes the two relations coincide.
        rng = random.Random(21)
        for _ in range(80):
            a = random_triangle_subcomplex(grid_mesh, rng)
            b = random_triangle_subcomplex(grid_mesh, rng)
            assert strongly_invisible(a, b).verdict == invisible(a, b).verdict


class TestStronglyFar:
    def test_buried_with_witness(self, buried_config):
        a, b, c = buried_config
        assert far(a, b).verdict
        assert closure(c).issubset(interior(b))
        rep = strongly_far(a, c, b)
        assert rep.verdict
        assert rep.witness[0] == "witness_set"

    def test_search_finds_witness(self, buried_config):
        a, _, c = buried_config
        rep = strongly_far(a, c)
        assert rep.verdict
        assert "radius" in rep.note

    def test_touching_c_impossible(self, fan_mesh):
        a = tri_sub(fan_mesh, 0)
        c = tri_sub(fan_mesh, 1)  # shares an edge with a
        assert not strongly_far(a, c).verdict

    def test_empty_operand_rejected(self, fan_mesh):
        rep = strongly_far(SubComplex.empty(fan_mesh), tri_sub(fan_mesh, 0))
        assert not rep.verdict
        assert "nonempty" in rep.note

    def test_implies_invisible(self, grid5_mesh):
        from proximesh.harness import sample_strongly_far_config

        rng = random.Random(31)
        hits = 0
        for _ in range(40):
            config = sample_strongly_far_config(grid5_mesh, rng)
            if config is None:
                continue
            a, c, witness = config
            rep = strongly_far(a, c, witness)
            if rep.verdict:
                hits += 1
                assert invisible(a, c).verdict
                assert strongly_far(a, c).verdict  # search agrees
        assert hits  # the check must not be vacuous

    def test_hull_touching_c_has_no_witness(self, fan_mesh):
        # Every vertex of the fan mesh's triangle 0 includes hull sites,
        # which can never be interior to any closure.
        a = SubComplex.of(fan_mesh, vertices=[2])
        c = tri_sub(fan_mesh, 0)
        assert not strongly_far(a, c).verdict

    def test_whole_mesh_minus_neighborhood_witness(self):
        # 6x6 grid: the witness is everything except the triangles
        # touching A, with C deep inside the witness.
        mesh = triangulate(
            SiteSet([P(i, j) for j in range(6) for i in range(6)])
        )
        a = closure(tri_sub(mesh, 0))
        a_touch = {
            t for v in a.vertices for t in mesh.vertex_triangles[v]
        }
        witness = closure(
            SubComplex.of_triangles(
                mesh,
                [t for t in range(len(mesh.triangles)) if t not in a_touch],
            )
        )
        deep = [
            t
            for t in sorted(witness.triangles)
            if closure(tri_sub(mesh, t)).issubset(interior(witness))
        ]
        assert deep
        c = tri_sub(mesh, deep[len(deep) // 2])
        rep = strongly_far(a, c, witness)
        assert rep.verdict


class TestSymmetry:
    @pytest.mark.parametrize(
        "relation", [near, far, visible, invisible, strongly_near]
    )
    def test_symmetric(self, grid_mesh, relation):
        rng = random.Random(13)
        for _ in range(30):
            a = random_triangle_subcomplex(grid_mesh, rng)
            b = random_triangle_subcomplex(grid_mesh, rng)
            assert relation(a, b).verdict == relation(b, a).verdict


class TestCechAxioms:
    def test_no_violations_random(self, grid_mesh):
        for relation in ("near", "visible"):
            reports = check_cech_axioms(grid_mesh, relation, 100, seed=2)
            assert all(r.verdict for r in reports)

    def test_exhaustive_small_mesh(self, fan_mesh):
        # Exhaustive triples of triangle-subset closures on a 3-triangle
        # mesh: the oracle-style sweep behind the randomized checker.
        n = len(fan_mesh.triangles)
        subs = [
            closure(
                SubComplex.of_triangles(
                    fan_mesh, [t for t in range(n) if mask >> t & 1]
                )
            )
            for mask in range(2**n)
        ]
        for rel, rel_name in ((near, "near"), (visible, "visible")):
            for a in subs:
                for b in subs:
                    assert rel(a, b).verdict == rel(b, a).verdict
                    assert rel(a, b).verdict == (
                        not a.is_empty()
                        and not b.is_empty()
                        and bool(closure(a).vertices & closure(b).vertices)
                    )
                    for c in subs:
                        assert rel(a, b.union(c)).verdict == (
                            rel(a, b).verdict or rel(a, c).verdict
                        )

    def test_empty_never_near(self, fan_mesh):
        e = SubComplex.empty(fan_mesh)
        a = tri_sub(fan_mesh, 0)
        assert not near(e, a).verdict
        assert not near(e, e).verdict

    def test_intersection_implies_near(self, fan_mesh):
        a = tri_sub(fan_mesh, 0, 1)
        b = tri_sub(fan_mesh, 1, 2)
        assert not a.intersection(b).is_empty()
        assert near(a, b).verdict

    def test_bad_relation_rejected(self, fan_mesh):
        with pytest.raises(ValueError):
            check_cech_axioms(fan_mesh, "adjacent", 1, 0)


class TestNearVisibleAgreement:
    def test_exhaustive_small_meshes(
        self, fan_mesh, single_triangle_mesh, wheel_mesh, square_mesh
    ):
        # Every pair of triangle-subset closures on every mesh with at
        # most five triangles: nearness and visibility must coincide.
        for mesh in (fan_mesh, single_triangle_mesh, wheel_mesh, square_mesh):
            n = len(mesh.triangles)
            assert n <= 5
            subs = [
                closure(
                    SubComplex.of_triangles(
                        mesh, [t for t in range(n) if mask >> t & 1]
                    )
                )
                for mask in range(2**n)
            ]
            for a in subs:
                for b in subs:
                    assert near(a, b).verdict == visible(a, b).verdict

    def test_randomized_large_mesh(self, grid5_mesh):
        rng = random.Random(8)
        for _ in range(200):
            a = random_triangle_subcomplex(grid5_mesh, rng)
            b = random_triangle_subcomplex(grid5_mesh, rng)
            assert near(a, b).verdict == visible(a, b).verdict

    def test_mixed_dimension_operands(self, grid_mesh):
        # Vertex- and edge-only subcomplexes as well, not just closures
        # of triangle sets.
        rng = random.Random(12)
        n_v = len(grid_mesh.sites)
        edges = sorted(grid_mesh.edges)
        for _ in range(100):
            a = SubComplex.of(
                grid_mesh,
                vertices=rng.sample(range(n_v), rng.randint(0, 3)),
                edges=rng.sample(edges, rng.randint(0, 3)),
            )
            b = SubComplex.of(
                grid_mesh,
                vertices=rng.sample(range(n_v), rng.randint(0, 3)),
                triangles=rng.sample(
                    range(len(grid_mesh.triangles)), rng.randint(0, 3)
                ),
            )
            assert near(a, b).verdict == visible(a, b).verdict


class TestReportsRenderNothing:
    """Relation reports do not render their operands; `describe()` runs
    only where its text is output (a failure or an sfar witness)."""

    def test_no_describe_calls(self, grid5_mesh, monkeypatch):
        mesh = grid5_mesh
        t0 = 0
        t1 = next(
            t
            for e in mesh.triangles[t0].edges()
            for t in mesh.edge_triangles[e]
            if t != t0
        )
        far_t = next(
            t
            for t in range(len(mesh.triangles))
            if not set(mesh.triangles[t].indices)
            & set(mesh.triangles[t0].indices)
        )
        a, b, d = (tri_sub(mesh, t) for t in (t0, t1, far_t))
        regions = [
            build_region(mesh, [t], mode=PAIRWISE_STRONG) for t in (t0, t1)
        ]

        def refuse(self):
            raise AssertionError("describe() called")

        monkeypatch.setattr(SubComplex, "describe", refuse)
        for rel in (near, far, strongly_near, visible, strongly_visible,
                    invisible, strongly_invisible):
            rel(a, b)
            rel(a, d)
        # Adjacent operands: no witness is found, so none is rendered.
        assert not strongly_far(a, b).verdict
        assert not strongly_far(a, b, b).verdict
        regions_proximal(*regions)
        for relation in ("near", "visible"):
            reports = check_cech_axioms(mesh, relation, 5, seed=3)
            assert all(r.verdict for r in reports)


@cache
def oracle_mesh(name):
    if name == "fan":
        return triangulate(SiteSet([P(0, 0), P(4, 0), P(2, 3), P(2, 1)]))
    if name == "grid":  # every unit square cocircular
        return triangulate(SiteSet([P(i, j) for j in range(5) for i in range(5)]))
    count, seed = {"random-12": (12, 3), "random-40": (40, 7)}[name]
    return triangulate(generate_sites(seed, count)[0])


@st.composite
def operand(draw, mesh):
    """Indices of one operand: empty, vertex-only, edge-only, triangle-only
    or mixed, the edges in either order; closed first or not."""
    n, t = len(mesh.sites), len(mesh.triangles)
    edges = sorted(mesh.edges)
    verts = st.lists(st.integers(0, n - 1), max_size=6)
    edge = st.tuples(st.sampled_from(edges), st.booleans()).map(
        lambda eb: eb[0][::-1] if eb[1] else eb[0])
    tris = st.lists(st.integers(0, t - 1), max_size=t)
    kind = draw(st.sampled_from(["empty", "vertex", "edge", "triangle",
                                 "mixed"]))
    return (
        draw(verts) if kind in ("vertex", "mixed") else [],
        draw(st.lists(edge, max_size=6)) if kind in ("edge", "mixed") else [],
        draw(tris) if kind in ("triangle", "mixed") else [],
        draw(st.booleans()),
    )


def both(mesh, indices):
    """The operand as a mask subcomplex and as a frozenset one."""
    vertices, edges, triangles, closed = indices
    a = SubComplex.of(mesh, vertices, edges, triangles)
    o = oracles.SubComplex.of(mesh, vertices, edges, triangles)
    return (closure(a), oracles.closure(o)) if closed else (a, o)


def assert_same(a, o):
    assert (a.vertices, a.edges, a.triangles) == (
        o.vertices, o.edges, o.triangles)
    assert a.describe() == o.describe()
    assert a.is_empty() == o.is_empty()


RELATIONS = ("near", "far", "strongly_near", "visible", "invisible",
             "strongly_visible", "strongly_invisible", "strongly_far")


class TestMatchesFrozensetOracle:
    """The mask algebra against the frozenset one it replaced, kept in
    `tests/oracles.py`: equal simplices, text and full reports."""

    @pytest.mark.parametrize("name", ["fan", "grid", "random-12", "random-40"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_operations_and_relations(self, name, data):
        mesh = oracle_mesh(name)
        (a, oa), (b, ob), (w, ow) = (
            both(mesh, data.draw(operand(mesh))) for _ in range(3))
        for x, ox in ((a, oa), (b, ob)):
            assert_same(x, ox)
            for op in ("closure", "boundary", "interior"):
                assert_same(getattr(cx, op)(x), getattr(oracles, op)(ox))
        for op in ("union", "intersection"):
            ours, theirs = getattr(a, op)(b), getattr(oa, op)(ob)
            assert_same(ours, theirs)
            assert_same(closure(ours), oracles.closure(theirs))
        assert a.issubset(b) == oa.issubset(ob)
        assert b.issubset(a) == ob.issubset(oa)
        for rel in RELATIONS:
            assert getattr(cx, rel)(a, b) == getattr(oracles, rel)(oa, ob)
        assert strongly_far(a, b, w) == oracles.strongly_far(oa, ob, ow)

    def test_strongly_far_witnesses_match(self, grid5_mesh, buried_config):
        # Configurations where strongly_far holds, found and explicit.
        from proximesh.harness import sample_strongly_far_config

        def frozen(x):
            return oracles.SubComplex.of(grid5_mesh, x.vertices, x.edges,
                                         x.triangles)

        rng = random.Random(5)
        a, b, c = buried_config
        configs = [(a, c, b)] + [
            config for config in (sample_strongly_far_config(grid5_mesh, rng)
                                  for _ in range(20)) if config is not None]
        hits = 0
        for a, c, w in configs:
            for witness in (None, w):
                rep = strongly_far(a, c, witness)
                hits += rep.verdict
                assert rep == oracles.strongly_far(
                    frozen(a), frozen(c),
                    None if witness is None else frozen(witness))
        assert hits


class TestLemma31Exhaustive:
    @pytest.mark.parametrize("count, seed", [(5, 2), (6, 2), (6, 145)])
    def test_every_pair_of_triangle_subsets(self, count, seed):
        # Generated meshes of 5, 6 and 7 triangles: near and visible give
        # the reports of the frozenset algebra, and agree, on every pair.
        mesh = triangulate(generate_sites(seed, count)[0])
        n = len(mesh.triangles)
        assert 5 <= n <= 7
        subs = [
            [t for t in range(n) if mask >> t & 1] for mask in range(2**n)
        ]
        ours = [closure(tri_sub(mesh, *ts)) for ts in subs]
        theirs = [oracles.closure(oracles.SubComplex.of_triangles(mesh, ts))
                  for ts in subs]
        for a, oa in zip(ours, theirs):
            for b, ob in zip(ours, theirs):
                n_rep, v_rep = near(a, b), visible(a, b)
                assert n_rep == oracles.near(oa, ob)
                assert v_rep == oracles.visible(oa, ob)
                assert n_rep.verdict == v_rep.verdict
