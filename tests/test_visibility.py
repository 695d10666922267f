import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proximesh.visibility as vis
from oracles import collinear_visible, segment_contains, segments_overlap
from test_geometry import own_lines, shared_lines
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

    def test_constraints_validated_once_per_site_count(
            self, collinear_row_sites):
        # The index scan runs once per set and site count; each call then
        # iterates the pairs once more, for its overlap tests.
        class Counted(frozenset):
            scans = 0

            def __iter__(self):
                Counted.scans += 1
                return super().__iter__()

        sites = collinear_row_sites
        constraints = ConstraintSet(Counted({(0, 3)}))
        for _ in range(5):
            assert segment_visible(0, 1, sites, constraints)
        assert Counted.scans == 1 + 5
        wider = SiteSet([*sites.sites, P(7, 7)])
        assert segment_visible(0, 4, wider, constraints)
        assert Counted.scans == 1 + 5 + 2
        # The audit validates the set, sorts it, and tests each of the
        # six pairs of four sites once, without a scan per pair.
        Counted.scans = 0
        audit_segment_visibility(sites, ConstraintSet(Counted({(0, 3)})),
                                 trials=100, seed=0)
        assert Counted.scans == 2 + 6
        # A set that fails is not remembered: every call rejects it.
        bad = ConstraintSet.of([(0, 9)])
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^constraint indices out "
                               r"of range: \(0, 9\)$"):
                segment_visible(0, 1, sites, bad)

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

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 20])
    def test_sampled_pairs_match_a_list_of_all_pairs(self, n, monkeypatch):
        # Pairs are drawn by number and decoded in (p, q) order; they must
        # be the pairs that sampling a list of all of them would give.
        ss = SiteSet([P(i, i * i) for i in range(n)])
        audited = []
        honest = vis.segment_visible

        def spy(p, q, *rest):
            audited.append((p, q))
            return honest(p, q, *rest)

        monkeypatch.setattr(vis, "segment_visible", spy)
        all_pairs = list(itertools.combinations(range(n), 2))
        count = len(all_pairs)
        for trials in sorted({1, 2, 5, count - 1, count, count + 1, 1000}):
            for seed in (0, 1, 7, 40000):
                audited.clear()
                audit_segment_visibility(ss, ConstraintSet.empty(), trials,
                                         seed)
                assert audited == (
                    all_pairs if count <= trials
                    else sorted(random.Random(seed).sample(all_pairs, trials)))

    def test_sampling_lists_no_pairs(self):
        # 2000 sites have 1,999,000 pairs; a list of them all would take
        # well over 100 MB while only ten are audited.
        rng = random.Random(3)
        ss = SiteSet([P(x, y) for x, y in rng.sample(
            list(itertools.product(range(100), repeat=2)), 2000)])
        tracemalloc.start()
        try:
            reports = audit_segment_visibility(ss, ConstraintSet.empty(), 10,
                                               seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reports and all(r.verdict for r in reports)
        assert peak < 2 * 2**20


# Segment ab against segment cd, with the expected `_contact`: 2 for a
# point interior to both, 1 for contact only at an end of either.
CONTACT_CASES = {
    "crossing": ((0, 0), (4, 0), (2, -1), (2, 1), 2),
    "crossing outside ab": ((0, 0), (4, 0), (5, -1), (5, 1), 0),
    "T-junction on ab": ((0, 0), (4, 0), (2, 0), (2, 3), 1),
    "T-junction on cd": ((0, 0), (4, 0), (4, -1), (4, 1), 1),
    "shared end": ((0, 0), (4, 0), (4, 0), (5, 3), 1),
    "collinear overlap": ((0, 0), (4, 0), (3, 0), (6, 0), 2),
    "collinear cover": ((0, 0), (4, 0), (5, 0), (-1, 0), 2),
    "same segment": ((0, 0), (4, 0), (4, 0), (0, 0), 2),
    "collinear touch": ((0, 0), (4, 0), (6, 0), (4, 0), 1),
    "collinear disjoint": ((0, 0), (4, 0), (5, 0), (6, 0), 0),
    "parallel": ((0, 0), (4, 0), (0, 1), (4, 1), 0),
    "zero-length cd inside": ((0, 0), (4, 0), (1, 0), (1, 0), 1),
    "zero-length cd at an end": ((0, 0), (4, 0), (4, 0), (4, 0), 1),
    "zero-length cd beyond": ((0, 0), (4, 0), (5, 0), (5, 0), 0),
    "zero-length cd off": ((0, 0), (4, 0), (1, 1), (1, 1), 0),
}


def _contact_by_oracles(a, b, c, d):
    """`_contact` from the oracles: 2 when the segments overlap, else 1
    when the closed segments meet, at a shared end or at an end of one
    strictly inside the other."""
    if segments_overlap(a, b, c, d):
        return 2
    return int(a in (c, d) or b in (c, d)
               or any(segment_contains(a, b, p) for p in (c, d))
               or any(segment_contains(c, d, p) for p in (a, b)))


# A rational affine map keeps every incidence of the integer cases, and
# puts them over unrelated 20-digit denominators.
_OWN_MAP = [Fraction(random.Random(k).randrange(10**19, 10**20),
                     random.Random(-k).randrange(10**19, 10**20))
            for k in range(1, 7)]


def _on_scale(scale, x, y):
    if scale == "shared":
        return P(Fraction(x, 3), Fraction(y, 3))
    m = _OWN_MAP
    return P(m[0] * x + m[1] * y + m[4], m[2] * x - m[3] * y + m[5])


class TestContact:
    @pytest.mark.parametrize("scale", ["shared", "own"])
    @pytest.mark.parametrize("case", CONTACT_CASES)
    def test_named_cases(self, case, scale):
        *points, expected = CONTACT_CASES[case]
        a, b, c, d = (_on_scale(scale, *xy) for xy in points)
        assert vis._contact(a, b, c, d) == expected
        assert _contact_by_oracles(a, b, c, d) == expected
        assert vis._contact(b, a, d, c) == expected
        if c != d:
            assert vis._contact(c, d, a, b) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(shared_lines, own_lines))
    def test_matches_the_oracles_on_lines(self, lines):
        # Each segment of a line of four points (2a - b, a, the midpoint
        # and b) against every segment, of no length too, on it and on
        # the vertical through a: crossings, T-junctions, shared ends and
        # collinear overlaps, touches and gaps.
        pts, lines = lines
        for g, h in zip(lines, lines[1:] + lines[:1]):
            for i, j in itertools.combinations(g, 2):
                a, b = pts[i], pts[j]
                if a == b:
                    continue
                for k, m in itertools.product(g + h, repeat=2):
                    c, d = pts[k], pts[m]
                    assert vis._contact(a, b, c, d) == _contact_by_oracles(
                        a, b, c, d)
