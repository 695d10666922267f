import itertools
import random
from collections import deque
from fractions import Fraction

import pytest

import proximesh.geometry as geometry_module
import proximesh.regions as regions_module
from oracles import sampling_convexity_oracle
from proximesh.complexes import SubComplex, closure
from proximesh.geometry import (
    DegenerateInputError,
    Point2,
    Polygon,
    circumcenter,
    is_convex_polygon,
)
from proximesh.mesh import Mesh, Rect, SiteSet, triangulate
from proximesh.rational import _corner
from proximesh.regions import (
    EDGE_CHAIN,
    PAIRWISE_STRONG,
    NeighborhoodMap,
    Region,
    RegionError,
    RegionTraceError,
    audit_delaunay_characterizations,
    build_region,
    leader_topology,
    region_convexity,
    region_union_polygon,
    regions_proximal,
)

P = Point2


@pytest.fixture(scope="module")
def nonconvex_pair_mesh():
    """Mesh whose triangles (0,1,2) and (0,2,3) share edge (0,2) and
    union to a non-convex quadrilateral."""
    return triangulate(
        SiteSet([P(0, 0), P(2, 0), P(1, "0.5"), P("0.2", "1.5")])
    )


def strip_triangles(mesh):
    """Three triangles t1-t2-t3 where t1,t3 are not edge-adjacent."""
    tris = mesh.triangles

    def adjacent(a, b):
        return bool(set(tris[a].edges()) & set(tris[b].edges()))

    for a, b, c in itertools.permutations(range(len(tris)), 3):
        if adjacent(a, b) and adjacent(b, c) and not adjacent(a, c):
            return a, b, c
    raise AssertionError("mesh has no strip")


class TestBuildRegion:
    def test_adjacent_pair_pairwise(self, fan_mesh):
        region = build_region(fan_mesh, [0, 1], mode=PAIRWISE_STRONG)
        assert region.triangles == frozenset({0, 1})

    def test_strip_pairwise_rejected_chain_ok(self, grid_mesh):
        a, b, c = strip_triangles(grid_mesh)
        with pytest.raises(RegionError, match="share no edge"):
            build_region(grid_mesh, [a, b, c], mode=PAIRWISE_STRONG)
        region = build_region(grid_mesh, [a, b, c], mode=EDGE_CHAIN)
        assert region.mode == EDGE_CHAIN

    def test_single_triangle_both_modes(self, fan_mesh):
        for mode in (PAIRWISE_STRONG, EDGE_CHAIN):
            assert build_region(fan_mesh, [0], mode=mode).triangles == {0}

    def test_three_triangle_pairwise_strong(self, fan_mesh):
        # A degree-3 interior vertex makes every fan pair share an edge,
        # so the whole fan is a valid pairwise-strong region.
        region = build_region(fan_mesh, [0, 1, 2], mode=PAIRWISE_STRONG)
        assert region.triangles == frozenset({0, 1, 2})

    def test_disconnected_chain_rejected(self, grid_mesh):
        # Two triangles sharing at most a vertex are not a chain.
        tris = grid_mesh.triangles
        pair = next(
            (a, b)
            for a in range(len(tris))
            for b in range(a + 1, len(tris))
            if not set(tris[a].edges()) & set(tris[b].edges())
        )
        with pytest.raises(RegionError, match="not connected"):
            build_region(grid_mesh, pair, mode=EDGE_CHAIN)

    def test_empty_rejected(self, fan_mesh):
        with pytest.raises(RegionError):
            build_region(fan_mesh, [])

    def test_bad_index(self, fan_mesh):
        with pytest.raises(RegionError):
            build_region(fan_mesh, [99])

    @pytest.mark.parametrize("bad", [True, 0.0, 1.0])
    def test_index_not_an_int_rejected(self, fan_mesh, bad):
        # True and 1.0 would pass the range test as triangle 1, and fail
        # only later, in `Region.subcomplex()`.
        with pytest.raises(RegionError, match=f"not an int: {bad!r}"):
            build_region(fan_mesh, [bad])

    def test_bad_mode(self, fan_mesh):
        with pytest.raises(RegionError, match="mode"):
            build_region(fan_mesh, [0], mode="loose")


class TestRegionConvexity:
    def test_single_triangle_convex(self, fan_mesh):
        report = region_convexity(build_region(fan_mesh, [0]))
        assert report.is_convex

    def test_square_from_two_triangles(self, square_mesh):
        report = region_convexity(build_region(square_mesh, [0, 1]))
        assert report.is_convex
        assert report.union_polygon == Polygon(
            [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]
        )

    def test_nonconvex_adjacent_pair(self, nonconvex_pair_mesh):
        mesh = nonconvex_pair_mesh
        got = {t.indices for t in mesh.triangles}
        assert (0, 1, 2) in got and (0, 2, 3) in got
        region = build_region(mesh, [0, 1], mode=PAIRWISE_STRONG)
        report = region_convexity(region)
        assert not report.is_convex

    def test_matches_sampling_oracle(self, grid5_mesh, nonconvex_pair_mesh):
        cases = [
            (grid5_mesh, (0, 1)),
            (nonconvex_pair_mesh, (0, 1)),
            (grid5_mesh, tuple(grid5_mesh.vertex_triangles[12])),
        ]
        rng = random.Random(3)
        from proximesh.harness import sample_chain_region

        for _ in range(25):
            region = sample_chain_region(grid5_mesh, rng)
            if region is not None:
                cases.append((grid5_mesh, tuple(sorted(region.triangles))))
        for mesh, tris in cases:
            region = build_region(mesh, tris, mode=EDGE_CHAIN)
            expected = sampling_convexity_oracle(mesh, tris)
            assert region_convexity(region).is_convex == expected


class TestRegionTracer:
    def test_hole_rejected(self, grid5_mesh):
        star = set(grid5_mesh.vertex_triangles[12])
        rest = set(range(len(grid5_mesh.triangles))) - star
        region = build_region(grid5_mesh, rest, mode=EDGE_CHAIN)
        with pytest.raises(RegionTraceError, match="hole"):
            region_union_polygon(region)

    def test_pinch_rejected(self, grid5_mesh):
        mesh = grid5_mesh
        tris = mesh.triangles
        star = sorted(mesh.vertex_triangles[12])
        ta, tb = next(
            (a, b)
            for a, b in itertools.combinations(star, 2)
            if not set(tris[a].edges()) & set(tris[b].edges())
            and set(tris[a].indices) & set(tris[b].indices) == {12}
        )
        banned = set(star) - {ta, tb}
        prev = {ta: None}
        queue = deque([ta])
        while queue:
            cur = queue.popleft()
            if cur == tb:
                break
            for e in tris[cur].edges():
                for nxt in mesh.edge_triangles[e]:
                    if nxt not in prev and nxt not in banned:
                        prev[nxt] = cur
                        queue.append(nxt)
        path = []
        cur = tb
        while cur is not None:
            path.append(cur)
            cur = prev[cur]
        region = build_region(mesh, path, mode=EDGE_CHAIN)
        with pytest.raises(RegionTraceError, match="pinch"):
            region_union_polygon(region)


class TestRegionsProximal:
    def test_shared_vertex(self, wheel_mesh):
        r1 = build_region(wheel_mesh, [0])
        r2 = build_region(wheel_mesh, [2])
        rep = regions_proximal(r1, r2)
        assert rep.verdict and rep.witness == ("vertex", 0)

    def test_disjoint(self, grid5_mesh):
        tris = grid5_mesh.triangles
        t1 = 0
        far_t = next(
            t
            for t in range(len(tris))
            if not set(tris[t].indices) & set(tris[t1].indices)
        )
        r1 = build_region(grid5_mesh, [t1])
        r2 = build_region(grid5_mesh, [far_t])
        assert not regions_proximal(r1, r2).verdict

    def test_shared_edge(self, fan_mesh):
        assert regions_proximal(
            build_region(fan_mesh, [0]), build_region(fan_mesh, [1])
        ).verdict

    def test_mesh_mismatch(self, fan_mesh, wheel_mesh):
        with pytest.raises(RegionError):
            regions_proximal(
                build_region(fan_mesh, [0]), build_region(wheel_mesh, [0])
            )


class TestLeaderTopology:
    def test_fan_family_complete(self, wheel_mesh):
        # All single-sector subsets of the wheel see each other through
        # the hub: the neighborhood graph is complete.
        region = build_region(
            wheel_mesh, range(len(wheel_mesh.triangles)), mode=EDGE_CHAIN
        )
        family = [
            closure(SubComplex.of_triangles(wheel_mesh, [t]))
            for t in range(len(wheel_mesh.triangles))
        ]
        nm = leader_topology(region, family)
        full = frozenset(range(len(family)))
        assert all(ns == full for ns in nm.near_sets)

    def test_disjoint_members(self, grid5_mesh):
        tris = grid5_mesh.triangles
        t1 = 0
        far_t = next(
            t
            for t in range(len(tris))
            if not set(tris[t].indices) & set(tris[t1].indices)
        )
        region = build_region(
            grid5_mesh, range(len(tris)), mode=EDGE_CHAIN
        )
        family = [
            closure(SubComplex.of_triangles(grid5_mesh, [t1])),
            closure(SubComplex.of_triangles(grid5_mesh, [far_t])),
        ]
        nm = leader_topology(region, family)
        assert nm.near_sets == (frozenset({0}), frozenset({1}))

    def test_empty_member_near_nothing(self, fan_mesh):
        region = build_region(fan_mesh, [0, 1, 2], mode=EDGE_CHAIN)
        family = [
            SubComplex.empty(fan_mesh),
            closure(SubComplex.of_triangles(fan_mesh, [0])),
        ]
        nm = leader_topology(region, family)
        assert nm.near_sets[0] == frozenset()

    def test_member_outside_region_rejected(self, fan_mesh):
        region = build_region(fan_mesh, [0])
        outside = closure(SubComplex.of_triangles(fan_mesh, [1]))
        with pytest.raises(RegionError, match="not a subcomplex"):
            leader_topology(region, [outside])

    def test_visible_equals_near_route(self, grid5_mesh):
        rng = random.Random(17)
        region = build_region(
            grid5_mesh, range(len(grid5_mesh.triangles)), mode=EDGE_CHAIN
        )
        for _ in range(10):
            family = [
                closure(
                    SubComplex.of_triangles(
                        grid5_mesh,
                        [
                            t
                            for t in range(len(grid5_mesh.triangles))
                            if rng.random() < 0.2
                        ],
                    )
                )
                for _ in range(4)
            ]
            nm_v = leader_topology(region, family, relation="visible")
            nm_n = leader_topology(region, family, relation="near")
            assert nm_v.near_sets == nm_n.near_sets

    def test_symmetry_validation(self, fan_mesh):
        sub = closure(SubComplex.of_triangles(fan_mesh, [0]))
        with pytest.raises(RegionError, match="symmetry"):
            NeighborhoodMap(
                family=(sub, sub),
                near_sets=(frozenset({0, 1}), frozenset({1})),
            )


class TestDelaunayCharacterizationsAudit:
    def test_fan_all_agree(self, fan_mesh):
        reports = audit_delaunay_characterizations(fan_mesh)
        assert len(reports) == 3
        assert all(r.verdict for r in reports)
        assert all(r.witness[1] == (True, True, True, True) for r in reports)

    def test_single_triangle_circumcenter_is_cell_corner(
        self, single_triangle_mesh
    ):
        mesh = single_triangle_mesh
        reports = audit_delaunay_characterizations(mesh)
        assert reports[0].verdict
        center = circumcenter(*mesh.triangle_points(mesh.triangles[0]))
        assert all(r.cell.contains(_corner(center)) for r in mesh.voronoi)

    def test_circumcenter_on_box_skips_walls(self):
        # The square's extent box holds the four circumcenters on its
        # edges, where the walls between hull sites have no length.
        base = triangulate(SiteSet([P(0, 0), P(2, 0), P(2, 2), P(0, 2),
                                    P(1, 1)]))
        mesh = Mesh(base.site_set, base.triangles, clip_box=Rect(0, 0, 2, 2))
        reports = audit_delaunay_characterizations(mesh)
        assert [r.note for r in reports] == (
            ["circumcenter on clip box; shared-wall route skipped"] * 4)
        assert all(r.verdict and r.witness[1] == (True, True, None, True)
                   for r in reports)

    def test_random_meshes_agree(self):
        for seed in range(4):
            rng = random.Random(seed)
            ss = SiteSet(
                [
                    P(Fraction(rng.random()), Fraction(rng.random()))
                    for _ in range(18)
                ]
            )
            mesh = triangulate(ss)
            assert all(
                r.verdict for r in audit_delaunay_characterizations(mesh)
            )

    def test_convexity_route_matches_polygon(self):
        # Route 4 reads a triangle as convex when its sites are not
        # collinear; a `Polygon` of the three points, which rejects a
        # collinear triple, is the oracle. Triples of grid sites include
        # collinear ones.
        rng = random.Random(11)
        for n in (6, 12, 20):
            mesh = triangulate(SiteSet(
                [P(Fraction(rng.random()), Fraction(rng.random()))
                 for _ in range(n)]
            ))
            reports = audit_delaunay_characterizations(mesh)
            assert [r.witness[1][3] for r in reports] == [
                is_convex_polygon(Polygon(mesh.triangle_points(t)))
                for t in mesh.triangles
            ]
        sites = SiteSet([P(i, j) for j in range(3) for i in range(3)])
        for triple in itertools.combinations(range(len(sites)), 3):
            try:
                convex = is_convex_polygon(
                    Polygon([sites[i] for i in triple]))
            except DegenerateInputError:
                convex = False
            assert (sites.orient(*triple) != 0) == convex

    def test_each_route_runs_once_per_triangle(self, monkeypatch):
        # The empty-circle route and `geometry.circumcenter` each run
        # once per triangle, and the dual-vertex route takes its distances
        # from that independent center, not from the lattice's circumcenter.
        # Each edge's wall is decided once, for all triangles on it.
        rng = random.Random(5)
        mesh = triangulate(SiteSet(
            [P(Fraction(rng.random()), Fraction(rng.random()))
             for _ in range(16)]
        ))
        assert regions_module.circumcenter is geometry_module.circumcenter
        calls = {"is_delaunay_triangle": [], "circumcenter": [],
                 "is_delaunay_edge": []}
        centers = []

        def counted(name):
            original = getattr(regions_module, name)

            def call(*args):
                calls[name].append(args)
                out = original(*args)
                if name == "circumcenter":
                    centers.append(out)
                return out
            return call

        for name in calls:
            monkeypatch.setattr(regions_module, name, counted(name))
        compared = []
        nearer = SiteSet.nearer

        def recorded(site_set, center, i):
            compared.append(center)
            return nearer(site_set, center, i)

        monkeypatch.setattr(SiteSet, "nearer", recorded)
        reports = audit_delaunay_characterizations(mesh)
        assert all(r.verdict for r in reports)
        assert calls["is_delaunay_triangle"] == [
            (t, mesh.site_set) for t in mesh.triangles
        ]
        assert calls["circumcenter"] == [
            mesh.triangle_points(t) for t in mesh.triangles
        ]
        assert calls["is_delaunay_edge"] == [(*e, mesh) for e in mesh.edges]
        assert len(compared) == len(centers) == len(mesh.triangles)
        assert all(a == _corner(b) for a, b in zip(compared, centers))

    def test_cells_are_asked_with_the_audit_corner(self, monkeypatch):
        # `contains` takes a corner and makes none; the audit makes one
        # per triangle, for `nearer`, `place` and the three cells alike.
        rng = random.Random(7)
        mesh = triangulate(SiteSet(
            [P(Fraction(rng.random()), Fraction(rng.random()))
             for _ in range(16)]
        ))
        cells = [r.cell for r in mesh.voronoi]
        calls = []

        def counted(p):
            calls.append(p)
            return _corner(p)

        for module in (geometry_module, regions_module):
            monkeypatch.setattr(module, "_corner", counted)
        sites = mesh.site_set
        assert all(cell.contains((*xy, w)) for cell, xy, w
                   in zip(cells, sites.lattice, sites.scales))
        assert calls == []
        reports = audit_delaunay_characterizations(mesh)
        assert all(r.verdict for r in reports)
        assert len(calls) == len(mesh.triangles)

    def test_cocircular_divergence_reported(self, square_mesh):
        # Degenerate quads break the shared-wall route: the tie-break
        # diagonal's cells meet at a single point, so the audit reports
        # the disagreement rather than hiding it, naming each wall-less
        # edge with the cocircular site across it.
        reports = audit_delaunay_characterizations(square_mesh)
        assert all(not r.verdict for r in reports)
        for r in reports:
            empty_circle, dual_vertex, shared_walls, convex = r.witness[1]
            assert empty_circle and dual_vertex and convex
            assert not shared_walls
        assert [r.counterexample for r in reports] == [
            ("cocircular_walls", (((0, 2), 3),)),
            ("cocircular_walls", (((0, 2), 1),)),
        ]
