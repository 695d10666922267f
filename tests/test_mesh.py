import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    all_sites_voronoi,
    brute_force_delaunay,
    is_delaunay_triangulation,
)
from proximesh.geometry import (
    Point2,
    incircle,
    is_convex_polygon,
    squared_distance,
)
from proximesh.mesh import (
    Mesh,
    MeshError,
    Rect,
    SiteSet,
    Triangle,
    is_delaunay_edge,
    is_delaunay_triangle,
    make_triangle,
    triangles_sharing_edge,
    triangulate,
    voronoi,
)

P = Point2


def random_sites(seed, n):
    rng = random.Random(seed)
    return SiteSet(
        [P(Fraction(rng.random()), Fraction(rng.random())) for _ in range(n)]
    )


class TestSiteSet:
    def test_too_few(self):
        with pytest.raises(MeshError, match="at least 3"):
            SiteSet([P(0, 0), P(1, 1)])

    def test_duplicates_named(self):
        with pytest.raises(MeshError, match="indices 0 and 2"):
            SiteSet([P(0, 0), P(1, 1), P(0, 0)])

    def test_collinear(self):
        with pytest.raises(MeshError, match="collinear"):
            SiteSet([P(0, 0), P(1, 1), P(2, 2), P(3, 3)])

    def test_bbox_margin(self):
        box = triangulate(SiteSet([P(0, 0), P(10, 0), P(0, 10)])).clip_box
        assert box.xmin == -1 and box.xmax == 11
        assert box.ymin == -1 and box.ymax == 11


class TestTriangulate:
    def test_fan_matches_brute_force(self, fan_mesh):
        got = {frozenset(t.indices) for t in fan_mesh.triangles}
        expected = brute_force_delaunay(fan_mesh.sites)
        assert got == expected
        assert len(got) == 3
        assert all(3 in t for t in got)  # interior site in every triangle

    def test_single_triangle(self, single_triangle_mesh):
        assert [t.indices for t in single_triangle_mesh.triangles] == [(0, 1, 2)]

    def test_cocircular_square_tie_break(self, square_mesh):
        # Both diagonals are admissible; the symbolic rule keeps the one
        # through the smaller endpoint index, site 0.
        got = {t.indices for t in square_mesh.triangles}
        assert got == {(0, 1, 2), (0, 2, 3)}

    def test_deterministic(self):
        a = triangulate(random_sites(5, 15))
        b = triangulate(random_sites(5, 15))
        assert [t.indices for t in a.triangles] == [
            t.indices for t in b.triangles
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_equivalence_random(self, seed):
        sites = random_sites(seed, 10)
        mesh = triangulate(sites)
        got = {frozenset(t.indices) for t in mesh.triangles}
        assert got == brute_force_delaunay(sites.sites)

    @pytest.mark.parametrize("seed", range(6))
    def test_euler_relation(self, seed):
        mesh = triangulate(random_sites(seed + 50, 25))
        v = len(mesh.sites)
        e = len(mesh.edge_triangles)
        f = len(mesh.triangles)
        assert v - e + f == 1

    def test_every_triangle_delaunay(self):
        mesh = triangulate(random_sites(99, 30))
        assert all(
            is_delaunay_triangle(t, mesh.site_set) for t in mesh.triangles
        )

    def test_grid_with_many_cocircular_quads(self, grid_mesh):
        assert len(grid_mesh.triangles) == 18
        assert all(
            is_delaunay_triangle(t, grid_mesh.site_set)
            for t in grid_mesh.triangles
        )


# A hull edge 0-1 with site 2 at height 2^-200 above its midpoint: any
# finite outer triangle of moderate size cuts the circumcircle of the
# flat triangle (0, 1, 2).
FLAT_HULL = [P(0, 0), P(1, 0), P(Fraction(1, 2), Fraction(1, 2**200)),
             P(Fraction(1, 2), 1)]


def _indices(mesh):
    return [t.indices for t in mesh.triangles]


def _shared_wall_expected(mesh, p, q):
    """Dual rule: pq is a mesh edge whose two triangles (if two) are not
    cocircular, so the cells share a wall of positive length."""
    ts = mesh.edge_triangles.get((p, q), ())
    if len(ts) != 2:
        return len(ts) == 1
    t1, t2 = (mesh.triangles[t] for t in ts)
    d = next(v for v in t2.indices if v not in (p, q))
    return incircle(*mesh.triangle_points(t1), mesh.sites[d]) != 0


def _assert_fanned_from_least(mesh):
    """Every interior edge between two cocircular triangles has the least
    of their four site indices as an endpoint."""
    for e, ts in mesh.edge_triangles.items():
        if len(ts) == 2 and not _shared_wall_expected(mesh, *e):
            quad = {v for t in ts for v in mesh.triangles[t].indices}
            assert min(quad) in e, (e, quad)


lattice_sites = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 3)),
    min_size=3,
    max_size=10,
    unique=True,
).map(lambda pts: [P(x, y) for x, y in pts])


class TestExactPass:
    def test_flat_hull_matches_brute_force(self):
        mesh = triangulate(SiteSet(FLAT_HULL))
        got = {frozenset(t.indices) for t in mesh.triangles}
        assert got == brute_force_delaunay(FLAT_HULL)

    def test_one_mesh_per_call(self, monkeypatch):
        built = []
        init = Mesh.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Mesh, "__init__", counted)
        inputs = [
            FLAT_HULL,
            [P(i, j) for j in range(5) for i in range(5)],
            random_sites(7, 30).sites,
        ]
        for sites in inputs:
            built.clear()
            triangulate(SiteSet(sites))
            assert len(built) == 1

    @pytest.mark.parametrize(
        "sites",
        [
            # Sites 0-3 and 6-7 lie on one line; 4 is the first off it.
            [P(0, 0), P(1, 0), P(2, 0), P(3, 0), P(1, 1), P(2, -1),
             P(5, 0), P(-1, 0)],
            [P(3, 0), P(1, 0), P(2, 0), P(0, 0), P(1, 5), P(-2, 0)],
            [P(i, j) for j in range(6) for i in range(7)],
        ],
        ids=["collinear-prefix", "collinear-prefix-unsorted", "grid-7x6"],
    )
    def test_degenerate_inputs_match_global_oracle(self, sites):
        mesh = triangulate(SiteSet(sites))
        assert is_delaunay_triangulation(sites, _indices(mesh))

    @settings(max_examples=60, deadline=None)
    @given(lattice_sites)
    def test_lattice_sites_match_global_oracle(self, sites):
        a, b = sites[:2]
        assume(any(
            (b.x - a.x) * (c.y - a.y) != (b.y - a.y) * (c.x - a.x)
            for c in sites[2:]
        ))
        mesh = triangulate(SiteSet(sites))
        assert is_delaunay_triangulation(sites, _indices(mesh))
        assert _indices(triangulate(SiteSet(sites))) == _indices(mesh)
        n = len(sites)
        for p in range(n):
            for q in range(p + 1, n):
                assert is_delaunay_edge(p, q, mesh) == (
                    _shared_wall_expected(mesh, p, q)
                )
        _assert_fanned_from_least(mesh)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("r2, count", [(25, 12), (65, 16)])
    def test_lattice_circle_fanned_from_least_index(self, r2, count, order):
        sites = [P(x, y) for x in range(-8, 9) for y in range(-8, 9)
                 if x * x + y * y == r2]
        assert len(sites) == count
        random.Random(order).shuffle(sites)
        mesh = triangulate(SiteSet(sites))
        assert is_delaunay_triangulation(sites, _indices(mesh))
        _assert_fanned_from_least(mesh)
        # All sites lie on one circle, so the polygon is the whole set.
        assert all(0 in t for t in mesh.triangles)


class TestTriangleNeighbors:
    @pytest.mark.parametrize("seed", range(5))
    def test_neighbors_follow_edge_order(self, seed, grid_mesh):
        for mesh in (grid_mesh, triangulate(random_sites(seed, 20))):
            for t, tri in enumerate(mesh.triangles):
                expected = tuple(
                    u
                    for e in tri.edges()
                    for u in mesh.edge_triangles[e]
                    if u != t
                )
                assert mesh.triangle_neighbors[t] == expected
                assert all(t in mesh.triangle_neighbors[u] for u in expected)


class TestIsDelaunayTriangle:
    def test_blocked_by_interior_site(self, fan_mesh):
        big = make_triangle(0, 1, 2, fan_mesh.site_set)
        assert not is_delaunay_triangle(big, fan_mesh.site_set)

    def test_single(self, single_triangle_mesh):
        t = single_triangle_mesh.triangles[0]
        assert is_delaunay_triangle(t, single_triangle_mesh.site_set)


class TestIsDelaunayEdge:
    def test_fan_every_pair_is_edge(self, fan_mesh):
        for p in range(4):
            for q in range(p + 1, 4):
                assert is_delaunay_edge(p, q, fan_mesh)

    def test_cocircular_cells_meet_at_point(self, square_mesh):
        # All four cells meet at the common circumcenter, so neither
        # diagonal pair shares positive-length boundary, including the
        # tie-break diagonal that the triangulation does contain.
        assert not is_delaunay_edge(0, 2, square_mesh)
        assert not is_delaunay_edge(1, 3, square_mesh)
        assert (0, 2) in set(square_mesh.edges)

    def test_wheel_opposite_rim(self, wheel_mesh):
        # Cells of rim sites 1 and 3 are separated by the hub cell: on
        # their bisector x=0 the hub is strictly nearer everywhere.
        assert not is_delaunay_edge(1, 3, wheel_mesh)
        assert not is_delaunay_edge(2, 4, wheel_mesh)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_duality(self, seed):
        mesh = triangulate(random_sites(seed, 24))
        n = len(mesh.sites)
        dual = {
            (p, q)
            for p in range(n)
            for q in range(p + 1, n)
            if is_delaunay_edge(p, q, mesh)
        }
        assert dual == set(mesh.edges)

    def test_same_index_rejected(self, fan_mesh):
        with pytest.raises(MeshError):
            is_delaunay_edge(2, 2, fan_mesh)


class TestTrianglesSharingEdge:
    def test_interior_edge(self, fan_mesh):
        assert len(triangles_sharing_edge(fan_mesh, 0, 3)) == 2

    def test_hull_edge(self, fan_mesh):
        assert len(triangles_sharing_edge(fan_mesh, 0, 1)) == 1

    def test_non_edge(self, wheel_mesh):
        assert triangles_sharing_edge(wheel_mesh, 1, 3) == ()


class TestVoronoi:
    def test_three_cells_meet_at_circumcenter(self):
        regions = voronoi(triangulate(SiteSet([P(0, 0), P(2, 0), P(1, 2)])))
        meet = P(1, Fraction(3, 4))
        assert all(r.cell.contains(meet) for r in regions)
        assert all(r.clipped for r in regions)

    def test_grid_2x2_congruent_cells(self):
        sites = SiteSet([P(0, 0), P(2, 0), P(0, 2), P(2, 2)])
        mesh = triangulate(sites)
        regions = all_sites_voronoi(sites.sites, mesh.clip_box)
        areas = {r.cell.area() for r in regions}
        assert len(areas) == 1
        assert all(r.clipped for r in regions)
        assert mesh.voronoi == tuple(regions)

    def test_collinear_rejected(self):
        with pytest.raises(MeshError, match="collinear"):
            triangulate(SiteSet([P(0, 0), P(1, 0), P(2, 0)]))

    def test_cells_built_on_first_access(self, monkeypatch):
        import proximesh.mesh as mesh_module

        calls = []
        original = mesh_module.voronoi

        def counted(mesh):
            calls.append(mesh)
            return original(mesh)

        monkeypatch.setattr(mesh_module, "voronoi", counted)
        mesh = triangulate(random_sites(4, 9))
        assert calls == []
        first = mesh.voronoi
        assert mesh.voronoi is first
        assert calls == [mesh]

    def test_tight_box_matches_all_sites_oracle(self):
        # A loaded mesh may carry any box that holds the sites, including
        # one that cuts cells short of their Voronoi vertices.
        base = triangulate(random_sites(21, 15))
        xs = [p.x for p in base.sites]
        ys = [p.y for p in base.sites]
        box = Rect(min(xs), min(ys), max(xs), max(ys))
        mesh = Mesh(base.site_set, base.triangles, clip_box=box)
        assert mesh.voronoi == tuple(all_sites_voronoi(mesh.sites, box))

    def test_cells_partition_box(self):
        mesh = triangulate(random_sites(7, 12))
        box_area = (mesh.clip_box.xmax - mesh.clip_box.xmin) * (
            mesh.clip_box.ymax - mesh.clip_box.ymin
        )
        assert sum(r.cell.area() for r in mesh.voronoi) == box_area

    def test_region_invariants(self):
        mesh = triangulate(random_sites(11, 15))
        sites = mesh.sites
        for region in mesh.voronoi:
            assert is_convex_polygon(region.cell)
            own = sites[region.site]
            assert region.cell.contains(own)
            for v in region.cell.vertices:
                d_own = squared_distance(v, own)
                assert all(
                    squared_distance(v, other) >= d_own for other in sites
                )

    def test_interior_cell_unclipped(self, fan_mesh):
        assert not fan_mesh.voronoi[3].clipped
        assert all(fan_mesh.voronoi[i].clipped for i in range(3))


class TestMeshValidation:
    def test_missing_site_rejected(self, fan_mesh):
        tris = [t for t in fan_mesh.triangles if 3 not in t.indices]
        with pytest.raises(MeshError):
            Mesh(fan_mesh.site_set, tris)

    def test_non_delaunay_rejected(self, fan_mesh):
        ss = fan_mesh.site_set
        bad = [
            make_triangle(0, 1, 2, ss),
            make_triangle(0, 1, 3, ss),
        ]
        with pytest.raises(MeshError):
            Mesh(ss, bad)

    def test_annulus_plus_detached_triangle_rejected(self):
        # An annulus of six triangles around a triangular hole, plus a
        # detached triangle of the hole's area lying over the annulus.
        # Sites used, edge multiplicity, Euler, total area, orientation
        # and every per-edge incircle test all pass; only the one-triangle
        # edges off the hull give it away.
        ss = SiteSet([
            P(0, 0), P(12, 0), P(6, 12), P(5, 4), P(7, 4), P(6, 6),
            P(5, Fraction(3, 2)), P(7, Fraction(3, 2)),
            P(6, Fraction(7, 2)),
        ])
        triples = [(0, 3, 4), (0, 1, 4), (1, 2, 4), (2, 4, 5), (2, 5, 3),
                   (2, 0, 3), (6, 7, 8)]
        assert not is_delaunay_triangulation(ss.sites, triples)
        with pytest.raises(MeshError, match="not on the convex hull"):
            Mesh(ss, [make_triangle(*t, ss) for t in triples])

    def test_triangle_and_its_reverse_rejected(self, square_mesh):
        # A triangle over a new site plus the same triangle reversed: the
        # two cancel in area, add one site, three edges and two faces
        # (Euler holds), use each directed edge once, and pass every
        # per-edge incircle test. Only the orientation check is left.
        ss = SiteSet(list(square_mesh.sites) + [P(Fraction(1, 2),
                                                  Fraction(1, 4))])
        pair = [Triangle(1, 3, 4), Triangle(1, 4, 3)]
        tris = list(square_mesh.triangles) + pair
        assert not is_delaunay_triangulation(
            ss.sites, [t.indices for t in tris]
        )
        with pytest.raises(MeshError, match="not counterclockwise"):
            Mesh(ss, tris)


def _mutations(mesh, rng):
    """Triangle lists one edit away from a mesh: each interior edge
    flipped, and each triangle dropped, duplicated, reversed, or with one
    vertex swapped for another site."""
    tris = list(mesh.triangles)
    ss = mesh.site_set
    for e, ts in mesh.edge_triangles.items():
        if len(ts) != 2:
            continue
        c, d = (next(v for v in tris[t].indices if v not in e) for t in ts)
        try:
            flipped = [make_triangle(c, d, v, ss) for v in e]
        except MeshError:
            continue  # collinear flip: not a triangle list
        yield f"flip {e}", [
            t for i, t in enumerate(tris) if i not in ts
        ] + flipped
    for i, t in enumerate(tris):
        rest = tris[:i] + tris[i + 1:]
        yield f"drop {t.indices}", rest
        yield f"duplicate {t.indices}", tris + [t]
        yield f"reverse {t.indices}", rest + [Triangle(t.v0, t.v2, t.v1)]
        slot = rng.randrange(3)
        other = rng.randrange(len(ss))
        swapped = list(t.indices)
        swapped[slot] = other
        yield f"swap {t.indices} -> {swapped}", rest + [Triangle(*swapped)]


@pytest.mark.parametrize(
    "name", ["fan", "square", "wheel", "grid", "random"]
)
def test_validation_agrees_with_global_oracle(name, request):
    """Mesh() rejects a one-edit mutation exactly when the global oracle
    does; cocircular flips on the square and grid stay valid."""
    if name == "random":
        meshes = [triangulate(random_sites(seed + 400, 9)) for seed in range(4)]
    else:
        meshes = [request.getfixturevalue(f"{name}_mesh")]
    rng = random.Random(name)
    accepted = rejected = 0
    for mesh in meshes:
        for label, tris in _mutations(mesh, rng):
            ok = is_delaunay_triangulation(
                mesh.sites, [t.indices for t in tris]
            )
            if ok:
                accepted += 1
                Mesh(mesh.site_set, tris)
            else:
                rejected += 1
                with pytest.raises(MeshError):
                    Mesh(mesh.site_set, tris)
                    pytest.fail(f"accepted {label}")
    assert rejected
    if name in ("square", "grid"):
        assert accepted
