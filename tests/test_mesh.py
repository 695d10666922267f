import math
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    all_sites_dual_vertex,
    all_sites_empty_circle,
    all_sites_voronoi,
    bisector_wall_overlap,
    brute_force_delaunay,
    is_delaunay_triangulation,
    point_set_wall,
    squared_distance,
)
import proximesh.geometry as geometry_module
import proximesh.mesh as mesh_module
import proximesh.rational as rational_module
from proximesh.geometry import (
    Point2,
    circumcenter,
    incircle,
    is_convex_polygon,
    orient2d,
)
from proximesh.harness import generate_sites
from proximesh.mesh import (
    Mesh,
    MeshError,
    Rect,
    SiteSet,
    Triangle,
    is_delaunay_edge,
    is_delaunay_triangle,
    make_triangle,
    triangulate,
    voronoi,
)
from proximesh.rational import _corner

P = Point2


# Coordinates with unrelated denominators, including the 1e+-1000 ends
# of the parse bound. One shared unit puts ties (collinear and cocircular
# sites) within reach; the other mode draws each coordinate freely.
_HUGE = Fraction(10) ** 1000
_units = st.sampled_from(
    [Fraction(1), Fraction(1, 3), Fraction(2, 7), _HUGE, 1 / _HUGE]
)
_free_coords = st.one_of(
    st.fractions(max_denominator=10**6).map(lambda x: x * 1000),
    st.builds(lambda n, e: n * Fraction(10) ** e,
              st.integers(-9, 9), st.sampled_from([-1000, -999, 999, 1000])),
)
lattice_kernel_sites = st.one_of(
    _units.flatmap(
        lambda unit: st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            min_size=4, max_size=5, unique=True,
        ).map(lambda pts: [P(x * unit, y * unit) for x, y in pts])
    ),
    st.lists(st.tuples(_free_coords, _free_coords),
             min_size=4, max_size=5, unique=True)
    .map(lambda pts: [P(x, y) for x, y in pts]),
)


def own_denominator_sites(seed, n, digits):
    """Sites in the unit square, each coordinate over its own random
    denominator of the given number of digits."""
    rng = random.Random(seed)

    def coord():
        d = rng.randrange(10 ** (digits - 1), 10 ** digits)
        return Fraction(rng.randrange(d), d)

    return [P(coord(), coord()) for _ in range(n)]


def own_denominator_wheel(seed, n, digits):
    """The origin and n spokes around it, near the unit circle, each
    coordinate over its own random denominator of the given number of
    digits."""
    rng = random.Random(seed)

    def coord(v):
        d = rng.randrange(10 ** (digits - 1), 10 ** digits)
        return Fraction(round(Fraction(v) * d), d)

    return [P(0, 0)] + [
        P(coord(math.cos(2 * math.pi * k / n)),
          coord(math.sin(2 * math.pi * k / n)))
        for k in range(n)
    ]


def _on_unit_circle(t):
    """The rational point of the unit circle with slope parameter t."""
    return P((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


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

    def test_duplicates_named_on_own_scales(self):
        # Sites are compared by lattice row and scale. On own scales,
        # (1/3, 1/3) and (1/2, 1/2) share the row (1, 1), not the scale.
        sites = own_denominator_sites(0, 10, 60) + [
            P(Fraction(1, 3), Fraction(1, 3)),
            P(Fraction(1, 2), Fraction(1, 2)),
        ]
        assert SiteSet(sites).scale is None
        p = sites[4]
        with pytest.raises(MeshError, match=(
                rf"^duplicate sites at indices 4 and 12: \({p.x}, {p.y}\)$")):
            SiteSet(sites + [p, p])

    def test_collinear(self):
        with pytest.raises(MeshError, match="collinear"):
            SiteSet([P(0, 0), P(1, 1), P(2, 2), P(3, 3)])

    @settings(max_examples=120, deadline=None)
    @given(lattice_kernel_sites, st.booleans())
    def test_lattice_kernels_match_point_predicates(self, sites, own_scales):
        a, b = sites[:2]
        assume(any(orient2d(a, b, c) for c in sites[2:]))
        padding = []
        if own_scales:
            # Ten sites over denominators far wider than any of the given
            # sites' make the lcm of all too wide to share.
            digits = 50 + 2 * max(
                len(str(c.denominator)) for p in sites for c in (p.x, p.y)
            )
            padding = own_denominator_sites(0, 10, digits)
        site_set = SiteSet(sites + padding)
        assert (site_set.scale is None) == own_scales
        for i, j, k in permutations(range(len(sites)), 3):
            side = orient2d(sites[i], sites[j], sites[k])
            assert site_set.orient(i, j, k) == side
            if side == 0 or not i < j < k:
                continue
            x, y, w = site_set.center(i, j, k)
            assert P(Fraction(x, w), Fraction(y, w)) == circumcenter(
                sites[i], sites[j], sites[k]
            )
            for d in range(len(sites)):
                assert site_set.incircle(i, j, k, d) == incircle(
                    sites[i], sites[j], sites[k], sites[d]
                )

    def test_generated_sites_share_one_scale(self):
        sites, _ = generate_sites(5, 100)
        assert sites.scale is not None
        assert set(sites.scales) == {sites.scale}

    def test_unrelated_denominators_keep_own_scales(self, monkeypatch):
        sites = own_denominator_sites(3, 60, 50)
        site_set = SiteSet(sites)
        assert site_set.scale is None
        widest = 0

        def sized(kernel):
            def call(*coords):
                nonlocal widest
                widest = max(widest, *(c.bit_length() for c in coords))
                return kernel(*coords)
            return call

        for name in ("_orient", "_orient_w", "_incircle"):
            monkeypatch.setattr(rational_module, name,
                                sized(getattr(rational_module, name)))
        start = time.perf_counter()
        mesh = triangulate(site_set)
        elapsed = time.perf_counter() - start
        # A predicate pays for the lcm of at most eight 50-digit (167-bit)
        # denominators, not for that of all 120, about 20,000 bits, on
        # which this build took 3.5 s instead of 0.1-0.2 s.
        assert 0 < widest <= 8 * 167
        assert elapsed < 2
        assert is_delaunay_triangulation(sites, _indices(mesh))

    @pytest.mark.parametrize(
        "sites",
        [
            # Six sites inside the hull edge from (0, 0) to (1, 0).
            [P(0, 0), P(1, 0), P(Fraction(1, 3), 1)]
            + [P(p.x, 0) for p in own_denominator_sites(4, 6, 50)],
            # Eight cocircular sites.
            [_on_unit_circle(6 * p.x - 3)
             for p in own_denominator_sites(5, 8, 25)],
        ],
        ids=["collinear-hull-edge", "circle"],
    )
    def test_own_scale_ties_match_global_oracle(self, sites):
        site_set = SiteSet(sites)
        assert site_set.scale is None
        mesh = triangulate(site_set)
        assert is_delaunay_triangulation(sites, _indices(mesh))
        _assert_fanned_from_least(mesh)

    def test_bbox_margin(self):
        box = triangulate(SiteSet([P(0, 0), P(10, 0), P(0, 10)])).clip_box
        assert box.xmin == -1 and box.xmax == 11
        assert box.ymin == -1 and box.ymax == 11

    @pytest.mark.parametrize("read", ["clip_box", "circumcenters", "voronoi"])
    def test_circumcenters_wait_for_a_reader(self, read):
        # The clip box and the cells read the circumcenters' corners; the
        # circumcenters as points are made only for a reader of their own.
        mesh = triangulate(random_sites(2, 12))
        assert mesh.edge_triangles
        assert not {"_corners", "circumcenters"} & vars(mesh).keys()
        getattr(mesh, read)
        assert "_corners" in vars(mesh)
        assert mesh.clip_box is mesh.clip_box
        assert ("circumcenters" in vars(mesh)) == (read == "circumcenters")

    def test_triangulate_builds_no_derived_table(self):
        # A triangulation alone reads none of these; each is built on
        # first access and kept.
        mesh = triangulate(random_sites(2, 12))
        lazy = {"triangle_neighbors", "_corners", "circumcenters",
                "clip_box", "voronoi", "_vertex_sets"}
        assert not lazy & vars(mesh).keys()
        for name in sorted(lazy):
            assert getattr(mesh, name) is getattr(mesh, name)
        assert lazy <= vars(mesh).keys()

    @pytest.mark.parametrize("name, box", [
        ("fan", (Fraction(-2, 5), Fraction(-9, 5), Fraction(22, 5),
                 Fraction(33, 10))),
        ("grid", (Fraction(-3, 10),) * 2 + (Fraction(33, 10),) * 2),
    ])
    def test_derived_box(self, name, box, request):
        # The sites' extent and every circumcenter, widened by a tenth of
        # the sites' extent on each side.
        mesh = request.getfixturevalue(f"{name}_mesh")
        centers = [circumcenter(*mesh.triangle_points(t))
                   for t in mesh.triangles]
        xs = [p.x for p in mesh.sites]
        ys = [p.y for p in mesh.sites]
        mx, my = (max(xs) - min(xs)) / 10, (max(ys) - min(ys)) / 10
        xs += [u.x for u in centers]
        ys += [u.y for u in centers]
        expected = Rect(min(xs) - mx, min(ys) - my, max(xs) + mx,
                        max(ys) + my)
        assert mesh.clip_box == expected == Rect(*box)


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


def _assume_not_collinear(sites):
    a, b = sites[:2]
    assume(any(
        (b.x - a.x) * (c.y - a.y) != (b.y - a.y) * (c.x - a.x)
        for c in sites[2:]
    ))


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
        _assume_not_collinear(sites)
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


class TestLocatedInsertion:
    def test_conflict_tests_per_build(self, monkeypatch):
        calls = 0
        in_conflict = mesh_module._in_conflict

        def counted(*args):
            nonlocal calls
            calls += 1
            return in_conflict(*args)

        monkeypatch.setattr(mesh_module, "_in_conflict", counted)
        sites, _ = generate_sites(5, 400)
        triangulate(sites)
        # Testing every triangle per insertion takes about 158,800; the
        # walk and the cavity grown across edges take about 3,400.
        assert 0 < calls < 20_000

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(3, 40), st.randoms())
    def test_shuffled_sites_give_the_same_triangles(self, seed, n, rnd):
        sites = random_sites(seed, n).sites
        order = list(range(n))
        rnd.shuffle(order)
        shuffled = triangulate(SiteSet([sites[i] for i in order]))
        expected = triangulate(SiteSet(sites))
        assert {
            frozenset(order[v] for v in t.indices) for t in shuffled.triangles
        } == {frozenset(t.indices) for t in expected.triangles}


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

    @pytest.mark.parametrize("seed", range(3))
    def test_triangle_edges_taken_once(self, seed, grid_mesh):
        for mesh in (grid_mesh, triangulate(random_sites(seed, 20))):
            assert len(mesh.triangle_edges) == len(mesh.triangles)
            for t, tri in enumerate(mesh.triangles):
                assert mesh.triangle_edges[t] == tri.edges()


# The twelve lattice points at distance 5 from the origin.
_RADIUS_5 = [(x, y) for x in range(-5, 6) for y in range(-5, 6)
             if x * x + y * y == 25]


@st.composite
def shared_scale_slab_cases(draw):
    """Grid sites over one unit, the first of them on a radius-5 circle,
    whose x-extremes are exact slab edges; and three of them, from the
    circle or from anywhere."""
    unit = draw(st.sampled_from(
        [Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(1, 10**20)]
    ))
    a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    ring = [(a + x, b + y) for x, y in draw(
        st.lists(st.sampled_from(_RADIUS_5), unique=True, max_size=6))]
    grid = draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                         max_size=10))
    pts = list(dict.fromkeys(ring + grid))
    pool = range(len(ring) if len(ring) >= 3 and draw(st.booleans())
                 else len(pts))
    assume(len(pool) >= 3)
    triple = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3,
                           unique=True))
    return [P(x * unit, y * unit) for x, y in pts], tuple(triple)


@st.composite
def own_scale_slab_cases(draw):
    """Sites over unrelated 20-digit denominators, or those moved onto
    the unit circle beside its x-extremes (1, 0) and (-1, 0); and three
    of them."""
    sites = own_denominator_sites(draw(st.integers(0, 2**32)),
                                  draw(st.integers(8, 12)), 20)
    if draw(st.booleans()):
        sites = [P(1, 0), P(-1, 0)] + [_on_unit_circle(6 * p.x - 3)
                                       for p in sites]
    triple = draw(st.lists(st.integers(0, len(sites) - 1), min_size=3,
                           max_size=3, unique=True))
    return sites, tuple(triple)


_OWN_CIRCLE = [_on_unit_circle(6 * p.x - 3)
               for p in own_denominator_sites(1, 8, 20)]


def _assert_slab_routes_match_all_sites(sites, triple):
    assume(orient2d(*(sites[v] for v in triple)) != 0)
    site_set = SiteSet(sites)
    t = make_triangle(*triple, site_set)
    center = circumcenter(*(sites[v] for v in t.indices))
    r2 = squared_distance(center, sites[t.v0])
    # Exactly the closed x-range, on either scale rule, in (x, y) order.
    assert site_set.slab(_corner(center), t.v0) == sorted(
        (k for k, p in enumerate(sites) if (p.x - center.x) ** 2 <= r2),
        key=lambda k: (sites[k].x, sites[k].y))
    nearer = site_set.nearer(_corner(center), t.v0)
    assert sorted(nearer) == [k for k, p in enumerate(sites)
                              if squared_distance(center, p) < r2]
    assert is_delaunay_triangle(t, site_set) == all_sites_empty_circle(
        t, site_set)
    # The audit's dual-vertex route.
    assert all(s in t for s in nearer) == all_sites_dual_vertex(
        center, t, site_set)


class TestIsDelaunayTriangle:
    def test_blocked_by_interior_site(self, fan_mesh):
        big = make_triangle(0, 1, 2, fan_mesh.site_set)
        assert not is_delaunay_triangle(big, fan_mesh.site_set)

    def test_single(self, single_triangle_mesh):
        t = single_triangle_mesh.triangles[0]
        assert is_delaunay_triangle(t, single_triangle_mesh.site_set)

    # The circumcircle of (0, 0), (5, 0), (0, 2) spans x in [-0.19, 5.19],
    # so its slab is x in [0, 5]. The fourth site, inside the circle, is in
    # the slab's last column, then its first. The last example's triangle
    # is the top, left and bottom of a circle whose right end is a site.
    @example(([P(0, 0), P(5, 0), P(0, 2), P(5, 1)], (0, 1, 2)))
    @example(([P(0, 0), P(5, 0), P(0, 2), P(0, 1)], (0, 1, 2)))
    @example(([P(0, 5), P(-5, 0), P(0, -5), P(5, 0), P(1, 1)], (0, 1, 2)))
    @settings(max_examples=200, deadline=None)
    @given(shared_scale_slab_cases())
    def test_shared_scale_slab_routes_match_all_sites(self, case):
        _assert_slab_routes_match_all_sites(*case)

    # Own-scale sites on the unit circle, with its right or left
    # x-extreme as site 0: the circle through sites 1, 2 and 3 is the
    # unit circle, so site 0 lies on the slab's edge.
    @example(([P(1, 0)] + _OWN_CIRCLE, (1, 2, 3)))
    @example(([P(-1, 0)] + _OWN_CIRCLE, (1, 2, 3)))
    @settings(max_examples=40, deadline=None)
    @given(own_scale_slab_cases())
    def test_own_scale_slab_routes_match_all_sites(self, case):
        sites, triple = case
        assert SiteSet(sites).scale is None
        _assert_slab_routes_match_all_sites(sites, triple)

    def test_own_scale_slabs_hold_the_x_range_only(self):
        # On own scales too, a slab holds the sites of the circle's
        # x-range: about a sixth of 120 sites here, where taking every
        # site would sum to n·T.
        sites = SiteSet(own_denominator_sites(11, 120, 20))
        assert sites.scale is None
        tris = triangulate(sites).triangles
        total = sum(len(sites.slab(sites.center(*t.indices), t.v0))
                    for t in tris)
        assert total < len(sites) * len(tris) / 4


@st.composite
def wall_meshes(draw):
    """A mesh over shared-scale lattice sites, whose unit squares are
    cocircular, or over sites with unrelated 20-digit denominators, on
    one circle or not; its clip box derived, or loaded as the sites'
    extent, which passes through hull sites."""
    if draw(st.booleans()):
        sites = draw(lattice_sites)
        _assume_not_collinear(sites)
    else:
        sites = own_denominator_sites(draw(st.integers(0, 2**32)),
                                      draw(st.integers(4, 9)), 20)
        if draw(st.booleans()):
            sites = [_on_unit_circle(6 * p.x - 3) for p in sites]
    mesh = triangulate(SiteSet(sites))
    return _in_extent_box(mesh) if draw(st.booleans()) else mesh


@st.composite
def corner_meshes(draw):
    """A mesh over generated sites, a shuffled grid, rational points on
    one circle with its center or not, sites with unrelated 20-digit
    denominators, or generated sites on one shared scale of over 300
    digits; its clip box derived, or loaded as the sites' extent."""
    kind = draw(st.sampled_from(["generated", "grid", "circle", "own",
                                 "wide"]))
    seed = draw(st.integers(0, 2**32))
    if kind == "generated":
        sites = list(generate_sites(seed, draw(st.integers(3, 20)))[0].sites)
    elif kind == "grid":
        k = draw(st.integers(2, 6))
        sites = [P(i, j) for j in range(k) for i in range(k)]
        random.Random(seed).shuffle(sites)
    elif kind == "circle":
        ts = draw(st.lists(st.fractions(-3, 3, max_denominator=12),
                           min_size=3, max_size=10, unique=True))
        sites = [_on_unit_circle(t) for t in ts]
        if draw(st.booleans()):
            sites.append(P(0, 0))
    elif kind == "own":
        sites = own_denominator_sites(seed, draw(st.integers(6, 12)), 20)
    else:
        unit = Fraction(1, 10**300)
        sites = [P(1 + p.x * unit, 1 + p.y * unit) for p in
                 generate_sites(seed, draw(st.integers(3, 12)))[0].sites]
    site_set = SiteSet(sites)
    assert (site_set.scale is None) == (kind == "own")
    mesh = triangulate(site_set)
    return _in_extent_box(mesh) if draw(st.booleans()) else mesh


def _in_extent_box(mesh):
    """The mesh loaded with the sites' extent as its clip box."""
    xs, ys = [p.x for p in mesh.sites], [p.y for p in mesh.sites]
    box = Rect(min(xs), min(ys), max(xs), max(ys))
    return Mesh(mesh.site_set, mesh.triangles, clip_box=box)


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

    @pytest.mark.parametrize("bad", [True, 0.0, 1.0])
    def test_index_not_an_int_rejected(self, fan_mesh, bad):
        # True would read as site 1, and 1.0 fail as a tuple index.
        for p, q in ((bad, 2), (2, bad)):
            with pytest.raises(MeshError, match=f"not an int: {bad!r}"):
                is_delaunay_edge(p, q, fan_mesh)

    def test_vertex_sets_built_on_first_wall_test(self):
        mesh = triangulate(SiteSet([P(0, 0), P(4, 0), P(2, 3), P(2, 1)]))
        mesh.voronoi
        assert "_vertex_sets" not in vars(mesh)
        assert is_delaunay_edge(0, 1, mesh)
        assert vars(mesh)["_vertex_sets"] == tuple(
            frozenset(region.cell.corners) for region in mesh.voronoi)

    def test_index_out_of_range_rejected(self, fan_mesh):
        # Python would read cell -1 as the last site's.
        for bad in (-1, len(fan_mesh.sites)):
            for p, q in ((bad, 0), (0, bad)):
                with pytest.raises(MeshError, match="out of range"):
                    is_delaunay_edge(p, q, fan_mesh)

    # A 3x3 grid in a box through its hull sites: its four cocircular
    # squares meet the corner test's one-corner case.
    @example(_in_extent_box(triangulate(
        SiteSet([P(i, j) for j in range(3) for i in range(3)]))))
    @settings(max_examples=60, deadline=None)
    @given(wall_meshes())
    def test_shared_corners_match_bisector_overlap(self, mesh):
        n = len(mesh.sites)
        for p in range(n):
            for q in range(n):
                if p != q:
                    assert is_delaunay_edge(p, q, mesh) == (
                        bisector_wall_overlap(p, q, mesh)
                    ), (p, q)


    @settings(max_examples=100, deadline=None)
    @given(corner_meshes())
    def test_corner_sets_match_point_sets(self, mesh):
        # Each cell keeps its corners in lowest terms, one triple for each
        # point, so its corner set is its point set and a wall test on
        # int tuples answers as one on `Point2`s.
        cells = mesh.voronoi
        for region in cells:
            assert frozenset(region.cell.corners) == {
                _corner(v) for v in region.cell.vertices}
        n = len(mesh.sites)
        for p in range(n):
            for q in range(p + 1, n):
                assert is_delaunay_edge(p, q, mesh) == point_set_wall(
                    p, q, mesh), (p, q)
        assert cells == tuple(all_sites_voronoi(mesh.sites, mesh.clip_box))


class TestTrianglesSharingEdge:
    """`Mesh.edge_triangles` maps each (low, high) edge to its 1-2
    triangles."""

    def test_interior_edge(self, fan_mesh):
        assert len(fan_mesh.edge_triangles[(0, 3)]) == 2

    def test_hull_edge(self, fan_mesh):
        assert len(fan_mesh.edge_triangles[(0, 1)]) == 1

    def test_non_edge(self, wheel_mesh):
        assert (1, 3) not in wheel_mesh.edge_triangles


class TestVoronoi:
    def test_three_cells_meet_at_circumcenter(self):
        regions = voronoi(triangulate(SiteSet([P(0, 0), P(2, 0), P(1, 2)])))
        meet = P(1, Fraction(3, 4))
        assert all(r.cell.contains(_corner(meet)) for r in regions)
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

    @pytest.mark.parametrize(
        "sites",
        [
            [P(x, y) for y in range(3) for x in range(3)],
            [P(0, 0), P(2, 0), P(2, 2), P(0, 2), P(1, 1)],
            [P(4, 4), P(3, 2), P(3, 3), P(1, 4)],
        ],
        ids=["grid-3x3", "square-and-center", "corner-then-crossing"],
    )
    def test_clip_corners_on_the_line(self, sites):
        # On the sites' extent, bisectors pass exactly through box
        # corners and through corners of earlier clips. A corner on the
        # line is kept; where the ring leaves the half-plane there, its
        # edge turns onto the line, which a later clip may cross: in the
        # cell of site 3, the bisector toward site 1 leaves the box at its
        # corner (1, 2), and the bisector toward site 2 crosses the edge
        # from (1, 2) along it.
        base = triangulate(SiteSet(sites))
        xs = [p.x for p in sites]
        ys = [p.y for p in sites]
        box = Rect(min(xs), min(ys), max(xs), max(ys))
        mesh = Mesh(base.site_set, base.triangles, clip_box=box)
        assert mesh.voronoi == tuple(all_sites_voronoi(sites, box))

    def test_ring_cell_corners_are_the_mesh_circumcenters(self):
        mesh = triangulate(SiteSet([P(x, y) for y in range(5)
                                    for x in range(5)]))
        rings = [r for r in mesh.voronoi if not r.clipped]
        assert rings
        for r in rings:
            centers = [mesh._corners[t]
                       for t in mesh.vertex_triangles[r.site]]
            assert all(any(c is u for u in centers)
                       for c in r.cell.corners)

    @pytest.mark.parametrize(
        "sites",
        [
            [P(x, y) for y in range(12) for x in range(12)],
            [P(0, 0)] + [P(x, y) for x in range(-8, 9) for y in range(-8, 9)
                         if x * x + y * y == 65],
        ],
        ids=["grid-12x12", "lattice-circle-and-center"],
    )
    def test_ring_cells_match_all_sites_oracle(self, sites):
        # The grid's cocircular fans repeat circumcenters, which the cell
        # drops; the center's fan reaches every site of the circle.
        mesh = triangulate(SiteSet(sites))
        assert any(not mesh.is_hull_site(i) for i in range(len(sites)))
        assert mesh.voronoi == tuple(all_sites_voronoi(sites, mesh.clip_box))

    def test_box_cutting_some_interior_cells(self, monkeypatch):
        # Interior cells whose fan circumcenters all lie strictly inside
        # the box are rings; the box cuts the others, one clip per
        # Delaunay neighbor. One mesh has both.
        base = triangulate(random_sites(3, 40))
        xs = [p.x for p in base.sites]
        ys = [p.y for p in base.sites]
        box = Rect(min(xs), min(ys), max(xs), max(ys))
        mesh = Mesh(base.site_set, base.triangles, clip_box=box)
        ring = {
            i: all(box.place(mesh._corners[t]) > 0
                   for t in mesh.vertex_triangles[i])
            for i in range(len(mesh.sites))
            if not mesh.is_hull_site(i)
        }
        assert set(ring.values()) == {True, False}
        clips = 0
        clip_halfplane = mesh_module.clip_halfplane

        def counted(*args):
            nonlocal clips
            clips += 1
            return clip_halfplane(*args)

        monkeypatch.setattr(mesh_module, "clip_halfplane", counted)
        assert mesh.voronoi == tuple(all_sites_voronoi(mesh.sites, box))
        assert clips == sum(
            i in e for e in mesh.edges for i in range(len(mesh.sites))
            if not ring.get(i, False)
        )

    def test_own_scale_cells_stay_narrow(self, monkeypatch):
        # Each cell holds its corners on their own W, so an orientation
        # pays for its own three points. The center's cell has 40
        # corners; the lcm of all their scales has about 36,000 bits.
        sites = own_denominator_wheel(3, 40, 50)
        site_set = SiteSet(sites)
        assert site_set.scale is None
        widest = 0
        kernel = rational_module._orient_w

        def sized(*coords):
            nonlocal widest
            widest = max(widest, *(c.bit_length() for c in coords))
            return kernel(*coords)

        # Own-scale lattices, cells among them, take the homogeneous
        # kernel from `rational`.
        monkeypatch.setattr(rational_module, "_orient_w", sized)
        mesh = triangulate(site_set)
        cells = mesh.voronoi
        own = max(
            math.lcm(v.x.denominator, v.y.denominator).bit_length()
            for v in (*sites, *(v for r in cells for v in r.cell.vertices))
        )
        assert len(cells[0].cell.vertices) == 40
        assert 0 < widest <= 4 * own
        assert cells == tuple(all_sites_voronoi(sites, mesh.clip_box))

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
            assert region.cell.contains(_corner(own))
            for v in region.cell.vertices:
                d_own = squared_distance(v, own)
                assert all(
                    squared_distance(v, other) >= d_own for other in sites
                )

    def test_interior_cell_unclipped(self, fan_mesh):
        assert not fan_mesh.voronoi[3].clipped
        assert all(fan_mesh.voronoi[i].clipped for i in range(3))


class TestMeshValidation:
    @pytest.mark.parametrize("box, site", [
        (Rect(10, 10, 11, 11), 0),
        (Rect(0, 0, 4, Fraction(29, 10)), 2),
        (Rect(Fraction(1, 10**20), 0, 4, 3), 0),
        (Rect(0, 0, Fraction(4 * 10**20 - 1, 10**20), 3), 1),
    ])
    def test_given_box_must_hold_every_site(self, fan_mesh, box, site):
        # The box is refused where it enters the mesh, not when the first
        # cell is cut from it.
        with pytest.raises(MeshError, match=rf"^clip_box does not contain "
                           rf"site {site}$"):
            Mesh(fan_mesh.site_set, fan_mesh.triangles, clip_box=box)

    def test_given_box_on_own_scales(self):
        sites = SiteSet(own_denominator_sites(5, 30, 20))
        assert sites.scale is None
        base = triangulate(sites)
        xs = [p.x for p in sites.sites]
        ys = [p.y for p in sites.sites]
        Mesh(sites, base.triangles, clip_box=Rect(min(xs), min(ys), max(xs),
                                                  max(ys)))
        narrow = Rect(min(xs), min(ys), max(xs) - Fraction(1, 10**45), max(ys))
        with pytest.raises(MeshError, match=rf"^clip_box does not contain "
                           rf"site {xs.index(max(xs))}$"):
            Mesh(sites, base.triangles, clip_box=narrow)

    def test_missing_site_rejected(self, fan_mesh):
        tris = [t for t in fan_mesh.triangles if 3 not in t.indices]
        with pytest.raises(MeshError):
            Mesh(fan_mesh.site_set, tris)

    def test_missing_site_named(self, fan_mesh):
        ss = fan_mesh.site_set
        with pytest.raises(MeshError, match=r"^sites missing from "
                           r"triangulation: \[3\]$"):
            Mesh(ss, [make_triangle(0, 1, 2, ss)])

    @pytest.mark.parametrize("bad", [9, -1, True, 1.0])
    def test_site_index_not_an_int_in_range_rejected(self, fan_mesh, bad):
        # 9 is no site; -1 would read as the last site, and True and 1.0
        # as site 1, which a mesh file then could not hold.
        ss = fan_mesh.site_set
        message = (f"site index is not an int: {bad!r}" if type(bad) is not int
                   else f"site index out of range: {bad}")
        with pytest.raises(MeshError, match=message):
            Mesh(ss, [Triangle(0, bad, 2)])
        with pytest.raises(MeshError, match=message):
            Mesh(ss, list(fan_mesh.triangles) + [Triangle(0, bad, 2)])
        with pytest.raises(MeshError, match=message):
            make_triangle(0, bad, 2, ss)

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

    def test_star_fan_rejected(self):
        # Five counterclockwise triangles from the center to the edges of
        # a pentagram. Interior edges pair up, Euler holds, and the
        # one-triangle edges form one cycle that turns left everywhere;
        # only its two full turns give it away.
        ss = SiteSet([P(0, 100), P(95, 31), P(59, -81), P(-59, -81),
                      P(-95, 31), P(0, 0)])
        triples = [(5, i, (i + 2) % 5) for i in range(5)]
        assert not is_delaunay_triangulation(ss.sites, triples)
        with pytest.raises(MeshError, match="does not cover the site hull"):
            Mesh(ss, [make_triangle(*t, ss) for t in triples])

    def test_orientations_linear_in_the_mesh(self, monkeypatch):
        # A wheel of 400 spokes has 400 hull sites: the tiling proof takes
        # one orientation per triangle and one per hull site, where a
        # scan of the hull per hull edge takes about h²/2.
        spokes = [2 * math.pi * k / 400 for k in range(400)]
        ss = SiteSet([P(0, 0)] + [
            P(round(10**6 * math.cos(a)), round(10**6 * math.sin(a)))
            for a in spokes
        ])
        tris = triangulate(ss).triangles
        calls = 0
        kernel = rational_module._orient

        def counted(*coords):
            nonlocal calls
            calls += 1
            return kernel(*coords)

        # The geometry module holds the kernel under its own name too.
        monkeypatch.setattr(rational_module, "_orient", counted)
        monkeypatch.setattr(geometry_module, "_orient", counted)
        mesh = Mesh(ss, tris)
        assert sum(map(mesh.is_hull_site, range(len(ss)))) == 400
        assert 0 < calls <= 10 * len(ss)


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
