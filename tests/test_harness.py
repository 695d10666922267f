import gc
import random
import weakref
from fractions import Fraction

import pytest

import proximesh.complexes as cx
import proximesh.harness as hs
import proximesh.regions as rg
import proximesh.visibility as vis
from proximesh.harness import (
    DIVERGENCE,
    CheckRecord,
    FAIL,
    PASS,
    SuiteResult,
    generate_sites,
    mesh_for_trial,
    run_suite,
    sample_chain_region,
    sample_strongly_far_config,
)
from proximesh.mesh import triangulate


class TestGenerateSites:
    def test_deterministic(self):
        a, _ = generate_sites(1, 10)
        b, _ = generate_sites(1, 10)
        assert a.sites == b.sites

    def test_different_seeds_differ(self):
        a, _ = generate_sites(1, 10)
        b, _ = generate_sites(2, 10)
        assert a.sites != b.sites

    def test_too_few(self):
        with pytest.raises(ValueError):
            generate_sites(1, 2)

    def test_zero_area_box(self):
        with pytest.raises(ValueError, match="positive area"):
            generate_sites(1, 5, (Fraction(0), Fraction(0), Fraction(0),
                                  Fraction(1)))

    def test_sites_inside_box(self):
        box = (Fraction(2), Fraction(3), Fraction(5), Fraction(4))
        sites, _ = generate_sites(9, 20, box)
        for p in sites.sites:
            assert box[0] <= p.x <= box[2] and box[1] <= p.y <= box[3]


class TestArgumentChecks:
    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            run_suite("axioms", 0, 0)
        with pytest.raises(ValueError):
            generate_sites(0, 2)
        with pytest.raises(ValueError, match="positive area"):
            generate_sites(
                0, 20, (Fraction(1), Fraction(0), Fraction(1), Fraction(2))
            )


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("bogus", 1, 0)

    @pytest.mark.parametrize(
        "name",
        ["axioms", "lemma31", "lemma33", "thm35", "thm36", "thm37",
         "regions", "leader"],
    )
    def test_suite_green(self, name):
        (result,) = run_suite(name, 6, seed=11)
        assert result.failed == 0
        assert result.records

    def test_thm37_fails_when_no_pair_is_visible(self, monkeypatch):
        # A blocked pair needs a blocking site or constraint, so a
        # visibility test that blocks everything cannot pass empty.
        monkeypatch.setattr(vis, "segment_visible", lambda *args: False)
        (result,) = run_suite("thm37", 200, seed=3)
        assert result.failed > 0
        assert all(r.label.startswith("blocked pair ")
                   for r in result.records)

    def test_all_runs_every_suite(self):
        results = run_suite("all", 3, seed=4)
        names = [r.suite for r in results]
        assert names == [
            "axioms", "lemma31", "lemma33", "thm35", "thm36", "thm37",
            "regions", "leader", "relations",
        ]
        assert all(r.failed == 0 for r in results)

    def test_trial_meshes_built_once_per_pass(self, monkeypatch):
        built = []
        real_triangulate = hs.triangulate
        monkeypatch.setattr(
            hs, "triangulate", lambda ss: built.append(ss) or real_triangulate(ss)
        )
        requested = []
        real_mesh_for_trial = hs.mesh_for_trial

        def counted(seed, trial, *args):
            requested.append((seed, trial))
            return real_mesh_for_trial(seed, trial, *args)

        monkeypatch.setattr(hs, "mesh_for_trial", counted)
        # Every suite reads trial 0, and most read trials 1..19 as well.
        run_suite("all", 20, seed=4)
        n = len(built)
        assert len(set(requested)) == len(requested) == n >= 20
        run_suite("all", 20, seed=4)
        assert len(built) == 2 * n
        # Direct calls build every time.
        a, b = hs.mesh_for_trial(4, 0), hs.mesh_for_trial(4, 0)
        assert a is not b and len(built) == 2 * n + 2

    def test_trial_meshes_stay_bounded(self, monkeypatch):
        # Each trial mesh is dropped once every suite has seen it; a
        # suite's locals may still hold one of its last few meshes.
        built, most_alive = [], 0
        real_mesh_for_trial = hs.mesh_for_trial

        def alive():
            return sum(ref() is not None for ref in built)

        def tracked(seed, trial):
            nonlocal most_alive
            # Collecting cycles cannot raise the count, so it is needed
            # only when more than the bound is alive without it.
            if alive() > 3:
                gc.collect()
            most_alive = max(most_alive, alive())
            mesh = real_mesh_for_trial(seed, trial)
            built.append(weakref.ref(mesh))
            return mesh

        monkeypatch.setattr(hs, "mesh_for_trial", tracked)
        run_suite("all", 200, seed=7)
        assert len(built) > 200
        assert most_alive <= 3

    def test_consecutive_passes_identical(self):
        a = run_suite("all", 3, seed=6)
        b = run_suite("all", 3, seed=6)
        assert a == b

    def test_deterministic_results(self):
        a = run_suite("lemma33", 10, seed=3)
        b = run_suite("lemma33", 10, seed=3)
        assert [r.records for r in a] == [r.records for r in b]

    def test_strongly_far_shortfall(self, wheel_mesh, monkeypatch):
        # The wheel's only off-hull site is its hub, so it offers no
        # configuration: skipped when supplied, a failure when generated.
        (result,) = run_suite("thm35", 3, seed=1, mesh=wheel_mesh)
        assert result.records == [CheckRecord(
            "strongly_far generation", PASS,
            "no strongly-far configuration in the mesh; skipped",
        )]
        monkeypatch.setattr(hs, "mesh_for_trial", lambda seed, trial: wheel_mesh)
        (result,) = run_suite("thm35", 3, seed=1)
        assert result.records == [CheckRecord(
            "strongly_far generation", FAIL, "only 0/3 configurations found"
        )]

    def test_lemma33_converse_divergence_on_wheel(self, wheel_mesh):
        # The wheel guarantees vertex-only visible pairs, so the
        # converse divergence must be observed and must not fail.
        (result,) = run_suite("lemma33", 60, seed=2, mesh=wheel_mesh)
        assert result.failed == 0
        assert result.divergences > 0

    def test_explicit_mesh_used(self, grid_mesh):
        (result,) = run_suite("thm36", 1, seed=0, mesh=grid_mesh)
        assert len(result.records) == len(grid_mesh.triangles)
        # Every grid triangle has a cocircular diagonal with no wall.
        assert result.divergences == len(result.records)

    def test_thm36_decides_each_wall_once(self, grid_mesh, monkeypatch):
        # The audit decides every wall once, in its table, and names the
        # cocircular ones; the suite maps its reports and asks no wall.
        wall = rg.is_delaunay_edge
        calls = []

        def counted(p, q, mesh):
            calls.append((p, q))
            return wall(p, q, mesh)

        for module in (rg, hs):
            if getattr(module, "is_delaunay_edge", None) is wall:
                monkeypatch.setattr(module, "is_delaunay_edge", counted)
        (result,) = run_suite("thm36", 1, 0, mesh=grid_mesh)
        assert result.divergences == len(grid_mesh.triangles)
        assert len(calls) == len(grid_mesh.edges) == 33
        assert sorted(calls) == sorted(grid_mesh.edges)

    @staticmethod
    def _force_walls_false(monkeypatch, edges):
        """Make the audit, which decides every wall, read none on the
        given edges."""
        wall = rg.is_delaunay_edge

        def forced(p, q, mesh):
            return (p, q) not in edges and wall(p, q, mesh)

        monkeypatch.setattr(rg, "is_delaunay_edge", forced)

    def test_forced_false_wall_in_general_position_fails(self, monkeypatch):
        # No fourth site is cocircular with a triangle here, so a wall
        # forced false is a failure of both triangles on its edge.
        mesh = mesh_for_trial(1, 0)
        edge = next(e for e, ts in mesh.edge_triangles.items()
                    if len(ts) == 2)
        self._force_walls_false(monkeypatch, {edge})
        (result,) = run_suite("thm36", 1, seed=5, mesh=mesh)
        assert [r for r in result.records if r.status != PASS] == [
            CheckRecord(f"mesh=0 triangle {t} {mesh.triangles[t].indices}",
                        FAIL, "verdicts=(True, True, False, True) seed=5")
            for t in mesh.edge_triangles[edge]
        ]

    def test_grid_failures_beside_a_cocircular_wall_stay_failures(
        self, grid_mesh, monkeypatch
    ):
        # Triangle 0, (0, 1, 5), has the cocircular diagonal (0, 5). A hull
        # edge (0, 1) forced wall-less has no site across it, and a forced
        # empty-circle failure breaks the first route: both stay failures.
        self._force_walls_false(monkeypatch, {(0, 1)})
        empty_circle = rg.is_delaunay_triangle
        monkeypatch.setattr(
            rg, "is_delaunay_triangle",
            lambda t, sites: t.indices != (1, 2, 6) and empty_circle(t, sites))
        (result,) = run_suite("thm36", 1, seed=0, mesh=grid_mesh)
        failed = [r for r in result.records if r.status == FAIL]
        assert [r.label for r in failed] == [
            "mesh=0 triangle 0 (0, 1, 5)", "mesh=0 triangle 2 (1, 2, 6)"]
        assert [r.detail for r in failed] == [
            "verdicts=(True, True, False, True) seed=0",
            "verdicts=(False, True, False, True) seed=0",
        ]
        assert result.divergences == len(grid_mesh.triangles) - 2

    def test_suite_result_counters(self):
        r = SuiteResult("x", 0, 3)
        r.records.append(CheckRecord("a", PASS))
        r.records.append(CheckRecord("b", DIVERGENCE, "noted"))
        assert r.passed == 1 and r.divergences == 1 and r.failed == 0
        assert r.ok()
        r.records.append(CheckRecord("c", FAIL, "boom"))
        assert not r.ok()

    def test_passing_checks_render_no_operands(self, fan_mesh, wheel_mesh,
                                               monkeypatch):
        # lemma31 is exhaustive on this 3-triangle mesh; its failure
        # detail must not be rendered for the 64 passing pairs. On the
        # wheel, lemma33 describes its two operands for each failure or
        # divergence it reports, and never for a pass.
        calls = []
        describe = cx.SubComplex.describe

        def counted(self):
            calls.append(self)
            return describe(self)

        monkeypatch.setattr(cx.SubComplex, "describe", counted)
        for name in ("axioms", "lemma31"):
            (result,) = run_suite(name, 4, seed=1, mesh=fan_mesh)
            assert result.failed == 0 and result.records
            assert calls == []
        (result,) = run_suite("lemma33", 60, seed=2, mesh=wheel_mesh)
        assert result.passed > 0 and result.divergences > 0
        assert len(calls) == 2 * (result.failed + result.divergences)

    def test_check_keeps_detail_only_on_failure(self):
        r = SuiteResult("x", 0, 2)
        r.check("a", True, "unused")
        r.check("b", False, "boom")
        assert r.records == [
            CheckRecord("a", PASS), CheckRecord("b", FAIL, "boom")
        ]


class TestSamplers:
    def test_mesh_for_trial_deterministic(self):
        # Compare against a fresh build of the same sites.
        a = mesh_for_trial(5, 2)
        rng = random.Random(5 * 7_919 + 2)
        count = rng.randint(4, 30)
        sites, _ = generate_sites(rng.randrange(2**32), count)
        fresh = triangulate(sites)
        assert fresh is not a
        assert a.sites == fresh.sites
        assert [t.indices for t in a.triangles] == [
            t.indices for t in fresh.triangles
        ]

    def test_chain_region_valid(self, grid5_mesh):
        rng = random.Random(0)
        seen = 0
        for _ in range(20):
            region = sample_chain_region(grid5_mesh, rng)
            if region is None:
                continue
            seen += 1
            rg.region_union_polygon(region)  # must not raise
        assert seen

    def test_strongly_far_config_valid(self, grid5_mesh):
        rng = random.Random(1)
        config = sample_strongly_far_config(grid5_mesh, rng)
        assert config is not None
        a, c, witness = config
        assert cx.strongly_far(a, c, witness).verdict


class TestCoverage:
    def test_all_suite_exercises_every_operation(self, monkeypatch):
        """The full run must evaluate each relation once per coverage
        trial and reach every audit routine."""
        relation_names = [
            "near", "strongly_near", "far", "strongly_far", "visible",
            "strongly_visible", "invisible", "strongly_invisible",
        ]
        counts = {name: 0 for name in relation_names}
        counts["check_cech_axioms"] = 0
        counts["audit_delaunay_characterizations"] = 0
        counts["audit_segment_visibility"] = 0
        counts["region_convexity"] = 0
        counts["regions_proximal"] = 0
        counts["leader_topology"] = 0

        def wrap(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in relation_names:
            wrap(cx, name)
        wrap(cx, "check_cech_axioms")
        wrap(rg, "audit_delaunay_characterizations")
        wrap(rg, "region_convexity")
        wrap(rg, "regions_proximal")
        wrap(rg, "leader_topology")
        wrap(vis, "audit_segment_visibility")

        trials = 3
        results = run_suite("all", trials, seed=8)
        assert all(r.failed == 0 for r in results)
        for name in relation_names:
            assert counts[name] >= trials, name
        for name in (
            "check_cech_axioms",
            "audit_delaunay_characterizations",
            "audit_segment_visibility",
            "region_convexity",
            "regions_proximal",
            "leader_topology",
        ):
            assert counts[name] >= 1, name
