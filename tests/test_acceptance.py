"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (the conftest summary
hook also prints one line per criterion at the end of the run). Seeds
and trial counts are pinned here; nothing is tuned at runtime.
"""

import random
import time
from fractions import Fraction

import pytest

from oracles import (
    all_sites_voronoi,
    brute_force_delaunay,
    edge_set,
    sampling_convexity_oracle,
)
from proximesh import io
from proximesh.cli import main
from proximesh.complexes import (
    SubComplex,
    check_cech_axioms,
    closure,
    far,
    interior,
    invisible,
    near,
    random_triangle_subcomplex,
    strongly_far,
    strongly_visible,
    visible,
)
from proximesh.geometry import Point2
from proximesh.harness import (
    mesh_for_trial,
    sample_chain_region,
    sample_strongly_far_config,
    suite_strong_visibility,
)
from proximesh.mesh import SiteSet, is_delaunay_edge, triangulate
from proximesh.regions import (
    EDGE_CHAIN,
    audit_delaunay_characterizations,
    build_region,
    leader_topology,
    region_convexity,
)

P = Point2


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def random_site_set(seed: int, n: int) -> SiteSet:
    rng = random.Random(seed)
    while True:
        try:
            return SiteSet(
                [
                    P(Fraction(rng.random()), Fraction(rng.random()))
                    for _ in range(n)
                ]
            )
        except Exception:
            continue


@pytest.fixture(scope="module")
def seeded_meshes_n50():
    """100 seeded meshes with 4..50 sites, shared by the duality and
    characterization criteria."""
    meshes = []
    for trial in range(100):
        meshes.append(mesh_for_trial(20_000, trial, max_sites=50))
    return meshes


def test_delaunay_oracle_equivalence():
    """triangulate() equals the brute-force empty-circumcircle
    triangulation on 100 seeded site sets with n <= 12, in under 10 s."""
    start = time.perf_counter()
    rng = random.Random(1_234)
    for trial in range(100):
        n = rng.randint(4, 12)
        sites = random_site_set(rng.randrange(2**32), n)
        mesh = triangulate(sites)
        got = {frozenset(t.indices) for t in mesh.triangles}
        expected = brute_force_delaunay(sites.sites)
        assert got == expected, f"trial {trial}"
        assert edge_set(got) == edge_set(expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    _report(f"delaunay-oracle-equivalence ({elapsed:.1f}s)")


def test_voronoi_edge_duality(seeded_meshes_n50):
    """The pairs whose clipped cells share positive-length boundary are
    exactly the mesh edges, on 100 seeded meshes with n <= 50."""
    for idx, mesh in enumerate(seeded_meshes_n50):
        n = len(mesh.sites)
        dual = {
            (p, q)
            for p in range(n)
            for q in range(p + 1, n)
            if is_delaunay_edge(p, q, mesh)
        }
        assert dual == set(mesh.edges), f"mesh {idx} (n={n})"
    _report("voronoi-edge-duality")


def test_voronoi_cells_match_all_sites_oracle(
    seeded_meshes_n50, square_mesh, wheel_mesh, grid5_mesh
):
    """The mesh's cells, cut by Delaunay neighbors only, equal the cells
    cut by every other site, on the 100 seeded meshes with n <= 50 and
    on the cocircular square, the wheel and the 5x5 lattice. With this,
    the edge-duality criterion compares the mesh edges with an
    independent construction."""
    meshes = list(seeded_meshes_n50) + [square_mesh, wheel_mesh, grid5_mesh]
    for idx, mesh in enumerate(meshes):
        expected = all_sites_voronoi(mesh.sites, mesh.clip_box)
        assert mesh.voronoi == tuple(expected), f"mesh {idx}"
    _report("voronoi-cells-match-all-sites-oracle")


def test_hull_sites_match_hull_boundary(
    seeded_meshes_n50, grid_mesh, wheel_mesh
):
    """The hull sites a mesh reads off its one-triangle edges are the
    sites on the convex hull boundary, collinear hull sites included (the
    4x4 grid has eight), on the grid, the wheel and the 100 seeded
    meshes."""
    meshes = list(seeded_meshes_n50) + [grid_mesh, wheel_mesh]
    for idx, mesh in enumerate(meshes):
        for i, p in enumerate(mesh.sites):
            assert mesh.is_hull_site(i) == mesh.hull.on_boundary(p), (
                f"mesh {idx} site {i}"
            )
    _report("hull-sites-match-hull-boundary")


def test_near_visible_agreement():
    """Nearness equals visibility: exhaustively on every mesh with at
    most 5 triangles, and on 1000 randomized pairs on larger meshes."""
    small_meshes = [
        triangulate(SiteSet([P(0, 0), P(1, 0), P(0, 1)])),
        triangulate(SiteSet([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])),
        triangulate(SiteSet([P(0, 0), P(4, 0), P(2, 3), P(2, 1)])),
        triangulate(SiteSet([P(0, 0), P(2, 0), P(0, 2), P(-2, 0), P(0, -2)])),
        # Pentagon wheel: exactly five triangles, so the sweep covers the
        # full 2^5 x 2^5 grid of triangle-set pairs.
        triangulate(
            SiteSet([P(0, 0), P(4, 0), P(1, 4), P(-4, 2), P(-3, -3),
                     P(2, -4)])
        ),
    ]
    assert max(len(m.triangles) for m in small_meshes) == 5
    for mesh in small_meshes:
        t = len(mesh.triangles)
        assert t <= 5
        subs = [
            closure(
                SubComplex.of_triangles(
                    mesh, [i for i in range(t) if mask >> i & 1]
                )
            )
            for mask in range(2**t)
        ]
        for a in subs:
            for b in subs:
                assert near(a, b).verdict == visible(a, b).verdict
    big = mesh_for_trial(31_337, 0, max_sites=40)
    rng = random.Random(42)
    for _ in range(1000):
        a = random_triangle_subcomplex(big, rng)
        b = random_triangle_subcomplex(big, rng)
        assert near(a, b).verdict == visible(a, b).verdict
    _report("near-visible-agreement")


def test_cech_axioms_for_visibility():
    """All four proximity axioms hold for the visibility relation on
    1000 seeded subcomplex triples."""
    mesh = mesh_for_trial(77_001, 0, max_sites=30)
    reports = check_cech_axioms(mesh, "visible", trials=1000, seed=909)
    violations = [r for r in reports if not r.verdict]
    assert not violations
    assert len(reports) == 1000
    _report("cech-axioms-visibility")


def test_strong_visibility_forward_and_converse():
    """Strong visibility implies visibility on every tested pair; the
    converse fails on a vertex-fan mesh and is reported as an expected
    divergence, not a failure."""
    rng = random.Random(555)
    meshes = [mesh_for_trial(88_005, t, max_sites=25) for t in range(20)]
    for trial in range(300):
        mesh = meshes[trial % len(meshes)]
        a = random_triangle_subcomplex(mesh, rng)
        b = random_triangle_subcomplex(mesh, rng)
        if strongly_visible(a, b).verdict:
            assert visible(a, b).verdict
    wheel = triangulate(
        SiteSet([P(0, 0), P(2, 0), P(0, 2), P(-2, 0), P(0, -2)])
    )
    a = SubComplex.of_triangles(wheel, [0])
    b = SubComplex.of_triangles(wheel, [2])
    assert visible(a, b).verdict and not strongly_visible(a, b).verdict
    result = suite_strong_visibility(80, seed=6, mesh=wheel)
    assert result.failed == 0
    assert result.divergences > 0
    _report("strong-visibility-forward-and-converse")


def test_strongly_far_implications():
    """On 500 seeded configurations where the strongly-far relation
    holds: the operands are invisible in 100% of cases, and the verdict
    agrees with an independent re-evaluation (the proximity facade) in
    100% of cases."""
    produced = 0
    trial = 0
    rng = random.Random(31_003)
    meshes = [mesh_for_trial(64_007, t, max_sites=36) for t in range(20)]
    while produced < 500 and trial < 25_000:
        mesh = meshes[trial % len(meshes)]
        trial += 1
        config = sample_strongly_far_config(mesh, rng)
        if config is None:
            continue
        a, c, witness = config
        rep = strongly_far(a, c, witness)
        if not rep.verdict:
            continue
        produced += 1
        assert invisible(a, c).verdict, f"config {produced}"
        re_eval = (
            far(a, witness).verdict
            and closure(c).issubset(interior(witness))
        )
        assert re_eval == rep.verdict, f"config {produced}"
    assert produced == 500, f"only {produced} configurations generated"
    _report("strongly-far-implications")


def test_delaunay_characterizations(seeded_meshes_n50):
    """Empty circumcircle, dual Voronoi vertex, and pairwise shared cell
    walls agree for every triangle of 100 seeded meshes; the convexity
    item holds unconditionally."""
    for idx, mesh in enumerate(seeded_meshes_n50):
        for rep in audit_delaunay_characterizations(mesh):
            assert rep.verdict, f"mesh {idx}: {rep}"
            assert rep.witness[1][3] is True
    _report("delaunay-characterizations")


def test_segment_visibility_conclusions():
    """Exhaustive over all site pairs for n <= 10 on 50 seeds: whenever
    the blocking test passes, the open segment holds no site and no
    constraint shares an interior point."""
    from proximesh.visibility import (
        ConstraintSet,
        audit_segment_visibility,
        segment_visible,
    )

    rng = random.Random(404)
    for seed in range(50):
        n = rng.randint(4, 10)
        sites = random_site_set(10_000 + seed, n)
        mesh = triangulate(sites)
        edges = sorted(mesh.edges)
        constraints = ConstraintSet.of(
            [e for i, e in enumerate(edges) if i % 3 == 0]
        )
        pair_count = n * (n - 1) // 2
        reports = audit_segment_visibility(
            sites, constraints, trials=pair_count, seed=seed
        )
        assert all(r.verdict for r in reports)
        visible_count = sum(
            1
            for p in range(n)
            for q in range(p + 1, n)
            if segment_visible(p, q, sites, constraints)
        )
        assert len(reports) == visible_count  # exhaustive coverage
    _report("segment-visibility-conclusions")


def test_region_convexity_audit():
    """region_convexity agrees with the sampling oracle on 200 seeded
    regions, and at least one non-convex edge-adjacent pair is produced
    and logged as a counterexample record."""
    rng = random.Random(17_004)
    checked = 0
    counterexamples = []
    trial = 0
    meshes = [mesh_for_trial(55_010, t, max_sites=30) for t in range(40)]
    while checked < 200 and trial < 2_000:
        mesh = meshes[trial % len(meshes)]
        trial += 1
        region = sample_chain_region(mesh, rng)
        if region is None:
            continue
        checked += 1
        verdict = region_convexity(region).is_convex
        oracle = sampling_convexity_oracle(mesh, sorted(region.triangles))
        assert verdict == oracle, f"region {sorted(region.triangles)}"
        if not verdict and len(region.triangles) == 2:
            counterexamples.append(
                {
                    "triangles": sorted(region.triangles),
                    "mesh_trial": (trial - 1) % 40,
                }
            )
    assert checked == 200
    # A specific edge-adjacent non-convex pair, logged as a record.
    mesh = triangulate(
        SiteSet([P(0, 0), P(2, 0), P(1, "0.5"), P("0.2", "1.5")])
    )
    region = build_region(mesh, [0, 1])
    report = region_convexity(region)
    assert not report.is_convex
    counterexamples.append(
        {"triangles": [0, 1], "mesh": "nonconvex-pair", "logged": True}
    )
    assert counterexamples
    _report(
        f"region-convexity-audit ({len(counterexamples)} counterexamples "
        "logged)"
    )


def test_leader_neighborhood_maps():
    """Every constructed neighborhood map passes symmetry and
    reflexivity, and the visibility route equals the nearness route on
    100 seeded families."""
    rng = random.Random(66_011)
    built = 0
    trial = 0
    meshes = [mesh_for_trial(74_012, t, max_sites=28) for t in range(25)]
    while built < 100 and trial < 1_000:
        mesh = meshes[trial % len(meshes)]
        trial += 1
        region = sample_chain_region(mesh, rng, max_size=8)
        if region is None:
            continue
        built += 1
        family = [
            closure(
                SubComplex.of_triangles(
                    mesh,
                    [t for t in sorted(region.triangles) if rng.random() < 0.5],
                )
            )
            for _ in range(rng.randint(2, 5))
        ]
        nm_v = leader_topology(region, family, relation="visible")
        nm_n = leader_topology(region, family, relation="near")
        assert nm_v.near_sets == nm_n.near_sets
        for i, neighbors in enumerate(nm_v.near_sets):
            for j in neighbors:
                assert i in nm_v.near_sets[j]
            if not family[i].is_empty():
                assert i in neighbors
    assert built == 100
    _report("leader-neighborhood-maps")


def test_command_determinism(tmp_path):
    """Byte-identical outputs for every command across two runs with
    identical inputs and seeds."""
    outputs = {}
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        sites = d / "sites.txt"
        mesh_file = d / "mesh.json"
        vor_file = d / "vor.json"
        report = d / "report.txt"
        svg = d / "mesh.svg"
        assert main(["generate", "--seed", "21", "--count", "14",
                     "--out", str(sites)]) == 0
        assert main(["triangulate", "--sites", str(sites),
                     "--out", str(mesh_file)]) == 0
        assert main(["voronoi", "--sites", str(sites),
                     "--out", str(vor_file)]) == 0
        mesh = io.read_mesh(mesh_file)
        mid = io.mesh_id(mesh)
        a = d / "a.json"
        b = d / "b.json"
        io.write_subcomplex(a, SubComplex.of_triangles(mesh, [0]), mid)
        io.write_subcomplex(b, SubComplex.of_triangles(mesh, [1]), mid)
        assert main(["relate", "--mesh", str(mesh_file), "--a", str(a),
                     "--b", str(b), "--relation", "near"]) in (0, 1)
        assert main(["check", "--suite", "all", "--trials", "2",
                     "--seed", "9", "--out", str(report)]) == 0
        assert main(["render", "--mesh", str(mesh_file),
                     "--subcomplex", str(a), "--voronoi",
                     "--out", str(svg)]) == 0
        outputs[run] = {
            p.name: p.read_bytes()
            for p in (sites, mesh_file, vor_file, report, svg, a, b)
        }
    assert outputs["one"] == outputs["two"]
    _report("command-determinism")
