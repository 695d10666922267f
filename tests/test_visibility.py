import itertools
import random
from fractions import Fraction

import pytest

import proximesh.visibility as vis
from oracles import collinear_visible
from proximesh.geometry import Point2
from proximesh.mesh import SiteSet, triangulate
from proximesh.visibility import (
    ConstraintSet,
    audit_segment_visibility,
    segment_visible,
)

P = Point2


@pytest.fixture(scope="module")
def collinear_row_sites():
    """Three collinear sites on a line plus one off-line site so the set
    is a valid site set: p=(0,0), r=(1,0), s=(2,0)."""
    return SiteSet([P(0, 0), P(1, 0), P(2, 0), P(1, 5)])


def _unconstrained(p, q, sites):
    return segment_visible(p, q, sites, ConstraintSet.empty())


class TestCollinearVisible:
    """With no constraints, only a site between two others blocks them."""

    def test_neighbor_visible_blocked_beyond(self, collinear_row_sites):
        ss = collinear_row_sites
        assert _unconstrained(0, 1, ss)
        assert not _unconstrained(0, 2, ss)  # r sits between

    def test_adjacent_pair(self, collinear_row_sites):
        assert _unconstrained(1, 2, collinear_row_sites)

    def test_midpoint_site_blocks(self):
        ss = SiteSet([P(0, 0), P(2, 0), P(1, 0), P(0, 3)])
        assert not _unconstrained(0, 1, ss)

    def test_same_point_rejected(self, collinear_row_sites):
        with pytest.raises(ValueError, match="distinct"):
            _unconstrained(0, 0, collinear_row_sites)

    def test_non_site_rejected(self, collinear_row_sites):
        with pytest.raises(ValueError, match="out of range"):
            _unconstrained(9, 0, collinear_row_sites)

    @pytest.mark.parametrize("bad", [True, 0.0, 1.0])
    def test_index_not_an_int_rejected(self, collinear_row_sites, bad):
        # True would read as site 1, and 1.0 fail as a tuple index.
        for p, q in ((bad, 2), (2, bad)):
            with pytest.raises(ValueError, match=f"not an int: {bad!r}"):
                _unconstrained(p, q, collinear_row_sites)

    @pytest.mark.parametrize("bad", [True, 0.0, 1.0])
    def test_constraint_index_not_an_int_rejected(self, collinear_row_sites,
                                                  bad):
        for pair in ((bad, 2), (2, bad)):
            with pytest.raises(ValueError, match="not an int"):
                ConstraintSet.of([pair]).validate(collinear_row_sites)


class TestSegmentVisible:
    def test_unobstructed(self):
        ss = SiteSet([P(0, 0), P(4, 0), P(2, 3)])
        assert segment_visible(0, 1, ss, ConstraintSet.empty())

    def test_crossing_constraint_blocks(self):
        ss = SiteSet([P(0, 0), P(4, 0), P(2, 3), P(2, -3)])
        crossing = ConstraintSet.of([(2, 3)])  # vertical through (2,0)
        assert not segment_visible(0, 1, ss, crossing)

    def test_endpoint_contact_allowed(self):
        ss = SiteSet([P(0, 0), P(4, 0), P(2, 3)])
        touching = ConstraintSet.of([(0, 2)])  # shares only site 0
        assert segment_visible(0, 1, ss, touching)

    def test_interior_site_blocks(self, collinear_row_sites):
        assert not segment_visible(
            0, 2, collinear_row_sites, ConstraintSet.empty()
        )

    def test_own_constraint_ignored(self):
        ss = SiteSet([P(0, 0), P(4, 0), P(2, 3)])
        own = ConstraintSet.of([(0, 1)])
        assert segment_visible(0, 1, ss, own)

    def test_bad_index(self):
        ss = SiteSet([P(0, 0), P(4, 0), P(2, 3)])
        with pytest.raises(ValueError):
            segment_visible(0, 9, ss, ConstraintSet.empty())

    def test_symmetric(self):
        rng = random.Random(5)
        ss = SiteSet(
            [P(Fraction(rng.random()), Fraction(rng.random()))
             for _ in range(12)]
        )
        mesh = triangulate(ss)
        constraints = ConstraintSet.of(sorted(mesh.edges)[:5])
        for p, q in itertools.combinations(range(12), 2):
            assert segment_visible(p, q, ss, constraints) == segment_visible(
                q, p, ss, constraints
            )

    def test_removing_constraint_is_monotone(self):
        rng = random.Random(6)
        ss = SiteSet(
            [P(Fraction(rng.random()), Fraction(rng.random()))
             for _ in range(10)]
        )
        mesh = triangulate(ss)
        edges = sorted(mesh.edges)
        full = ConstraintSet.of(edges[:6])
        smaller = ConstraintSet.of(edges[:3])
        for p, q in itertools.combinations(range(10), 2):
            if segment_visible(p, q, ss, full):
                assert segment_visible(p, q, ss, smaller)

    def test_agrees_with_collinear_visible_on_line(self):
        # Restricted to sites on one line, the blocking test with no
        # constraints is the between-sites test.
        ss = SiteSet([P(0, 0), P(1, 0), P(3, 0), P(6, 0), P(2, 7)])
        online = [0, 1, 2, 3]
        for p, q in itertools.combinations(online, 2):
            assert segment_visible(
                p, q, ss, ConstraintSet.empty()
            ) == collinear_visible(ss[p], ss[q], ss.sites)


class TestAuditSegmentVisibility:
    def test_no_violations_random(self):
        for seed in range(5):
            rng = random.Random(seed)
            ss = SiteSet(
                [P(Fraction(rng.random()), Fraction(rng.random()))
                 for _ in range(10)]
            )
            mesh = triangulate(ss)
            constraints = ConstraintSet.of(
                [e for i, e in enumerate(sorted(mesh.edges)) if i % 3 == 0]
            )
            reports = audit_segment_visibility(ss, constraints, 200, seed)
            assert reports  # some pairs must be visible
            assert all(r.verdict for r in reports)

    def test_empty_constraints_reduces_to_site_test(self, collinear_row_sites):
        reports = audit_segment_visibility(
            collinear_row_sites, ConstraintSet.empty(), 50, seed=1
        )
        checked = {tuple(r.operands) for r in reports}
        assert ("site 0", "site 2") not in checked  # blocked pair skipped
        assert all(r.verdict for r in reports)

    def test_equally_spaced_collinear_only_consecutive(self):
        pts = [P(i, 0) for i in range(5)] + [P(2, 9)]
        ss = SiteSet(pts)
        visible_pairs = {
            (p, q)
            for p, q in itertools.combinations(range(5), 2)
            if segment_visible(p, q, ss, ConstraintSet.empty())
        }
        assert visible_pairs == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_endpoint_divergence_flagged(self):
        ss = SiteSet([P(0, 0), P(4, 0), P(2, 3), P(0, -3)])
        constraints = ConstraintSet.of([(0, 2)])
        reports = audit_segment_visibility(ss, constraints, 50, seed=3)
        flagged = [r for r in reports if r.note]
        assert flagged, "endpoint contact must be flagged as a divergence"
        assert all(r.verdict for r in reports)

    def test_endpoint_inside_constraint_flagged(self):
        # Site 0 lies inside the constraint from site 2 to site 3, which
        # meets segment 01 only there.
        ss = SiteSet([P(0, 0), P(4, 0), P(-1, -1), P(1, 1)])
        reports = audit_segment_visibility(
            ss, ConstraintSet.of([(2, 3)]), 50, seed=3
        )
        notes = {r.operands: r.note for r in reports}
        assert "(2, 3)" in notes[("site 0", "site 1")]
        assert all(r.verdict for r in reports)

    @pytest.mark.parametrize("pts", [
        [P(0, 0), P(4, 0), P(2, 3), P(2, -3)],  # the constraint crosses
        [P(0, 0), P(4, 0), P(-1, 0), P(5, 0), P(2, 3)],  # it covers 01
    ])
    def test_constraint_contact_checked_on_its_own_route(self, pts,
                                                         monkeypatch):
        # With the lattice's `overlap` blind, segment 01 passes as visible
        # through constraint 23; the audit's own test must still see it.
        ss = SiteSet(pts)
        monkeypatch.setattr(SiteSet, "overlap", lambda self, *idx: False)
        reports = audit_segment_visibility(
            ss, ConstraintSet.of([(2, 3)]), 50, seed=3
        )
        report = {r.operands: r for r in reports}[("site 0", "site 1")]
        assert not report.verdict
        assert report.counterexample == (
            "constraint_interior_contact", (2, 3)
        )

    def test_site_in_segment_checked_on_its_own_route(self, monkeypatch):
        # With the lattice's `between` blind, segment 01 passes as visible
        # past site 2 on it; the audit's own test must still see it.
        ss = SiteSet([P(0, 0), P(4, 0), P(1, 0), P(2, 3)])
        monkeypatch.setattr(SiteSet, "between", lambda self, *idx: False)
        reports = audit_segment_visibility(ss, ConstraintSet.empty(), 50, 3)
        report = {r.operands: r for r in reports}[("site 0", "site 1")]
        assert not report.verdict
        assert report.counterexample == ("site_in_open_segment", 2)

    @pytest.mark.parametrize("verdict", [False, True])
    def test_a_constant_verdict_fails(self, verdict, monkeypatch):
        # Every pair is audited: a visible one must have no blocking
        # witness, a blocked one must have one.
        ss = SiteSet([P(0, 0), P(1, 0), P(2, 0), P(1, 5), P(3, 3)])
        constraints = ConstraintSet.of([(1, 4)])
        honest = audit_segment_visibility(ss, constraints, 50, seed=1)
        assert all(r.verdict for r in honest)
        monkeypatch.setattr(vis, "segment_visible", lambda *args: verdict)
        failed = [r for r in audit_segment_visibility(
            ss, constraints, 50, seed=1) if not r.verdict]
        assert failed
        if verdict:
            assert {r.counterexample for r in failed} == {
                ("site_in_open_segment", 1),
                ("constraint_interior_contact", (1, 4))}
        else:
            assert {r.relation for r in failed} == {"segment_blocking"}
            assert {r.counterexample for r in failed} == {
                ("no_blocking_witness",)}
            assert ("site 0", "site 1") in {r.operands for r in failed}

    def test_constraint_validation(self):
        ss = SiteSet([P(0, 0), P(4, 0), P(2, 3)])
        with pytest.raises(ValueError):
            audit_segment_visibility(ss, ConstraintSet.of([(0, 9)]), 10, 0)
