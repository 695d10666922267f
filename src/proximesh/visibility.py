"""Visibility among sites with constraining segments.

Two sites, named by index, see each other when the open segment between
them contains no third site and meets no constraint in an interior
point; `segment_visible` is that one test. Endpoint contact with a
constraint does not block visibility: the blocking test is
interior-disjointness, not empty intersection, and the audit reports
pairs where the two readings would differ. Sites and constraint ends
are indices into the `SiteSet`, whose lattice `between` and `overlap`
decide every segment test; the audit's Fraction tests of each site and
each constraint are the independent check, on visible and blocked pairs
alike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .complexes import RelationReport
from .geometry import Point2
from .mesh import SiteSet


@dataclass(frozen=True, slots=True)
class ConstraintSet:
    """Constraining segments given as pairs of site indices."""

    pairs: frozenset[tuple[int, int]]

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]]) -> "ConstraintSet":
        return cls(frozenset((p, q) if p < q else (q, p) for p, q in pairs))

    @classmethod
    def empty(cls) -> "ConstraintSet":
        return cls(frozenset())

    def validate(self, sites: SiteSet) -> None:
        n = len(sites)
        for p, q in self.pairs:
            if type(p) is not int or type(q) is not int:
                raise ValueError(
                    f"constraint index is not an int: {(p, q)!r}")
            if p == q:
                raise ValueError(f"constraint endpoints coincide: {p}")
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"constraint indices out of range: {(p, q)}")


def segment_visible(
    p: int, q: int, sites: SiteSet, constraints: ConstraintSet
) -> bool:
    """True when the open segment between sites p and q avoids all other
    sites and shares no interior point with any other constraint."""
    for i in (p, q):
        if type(i) is not int:
            raise ValueError(f"site index is not an int: {i!r}")
    n = len(sites)
    if not (0 <= p < n and 0 <= q < n):
        raise ValueError(f"site index out of range: {(p, q)}")
    if p == q:
        raise ValueError("visibility needs two distinct sites")
    constraints.validate(sites)
    key = (p, q) if p < q else (q, p)
    return not any(sites.between(p, q, s) for s in range(n)) and not any(
        sites.overlap(p, q, *pair) for pair in constraints.pairs if pair != key
    )


def audit_segment_visibility(
    sites: SiteSet,
    constraints: ConstraintSet,
    trials: int,
    seed: int,
) -> list[RelationReport]:
    """Check the visibility conclusions on sampled (or all) site pairs.

    Each pair's blocking witness is sought in Fractions, apart from the
    lattice that `segment_visible` decides on: a site strictly inside
    the open segment, or another constraint sharing an interior point
    with it. A pair declared visible must have none, and is reported; a
    pair declared blocked must have one, and is reported only when it
    has none. Visible pairs where endpoint contact with a constraint is
    the only contact are flagged as a reading divergence, not a failure:
    a literal empty-intersection condition would have excluded them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    constraints.validate(sites)
    n = len(sites)
    all_pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    if len(all_pairs) <= trials:
        pairs = all_pairs
    else:
        rng = random.Random(seed)
        pairs = sorted(rng.sample(all_pairs, trials))
    reports = []
    for p, q in pairs:
        witness = _blocking_witness(p, q, sites, constraints)
        operands = (f"site {p}", f"site {q}")
        if not segment_visible(p, q, sites, constraints):
            if witness is None:
                reports.append(RelationReport(
                    relation="segment_blocking", operands=operands,
                    verdict=False, counterexample=("no_blocking_witness",)))
            continue
        divergence = _endpoint_contact_pairs(p, q, sites, constraints)
        note = ""
        if divergence:
            note = (
                "endpoint-only constraint contact at "
                f"{divergence}; a literal empty-intersection reading "
                "would block this pair"
            )
        reports.append(
            RelationReport(
                relation="segment_visibility",
                operands=operands,
                verdict=witness is None,
                counterexample=witness,
                note=note,
            )
        )
    return reports


def _blocking_witness(
    p: int, q: int, sites: SiteSet, constraints: ConstraintSet
) -> Optional[tuple]:
    """The first other constraint whose interior meets the open segment
    pq, else the first site strictly inside it, else None. Constraints
    come first: they block most pairs of sites in general position.

    In Fractions, site c is strictly inside segment ab when it is on its
    line, a zero cross product, with 0 < (c - a)·(b - a) < |b - a|².
    """
    a, b = sites[p], sites[q]
    key = (p, q) if p < q else (q, p)
    for pair in sorted(constraints.pairs):
        if pair != key and _interiors_meet(a, b, *(sites[v] for v in pair)):
            return ("constraint_interior_contact", pair)
    rx, ry = b.x - a.x, b.y - a.y
    rr = rx * rx + ry * ry
    for s, c in enumerate(sites.sites):
        wx, wy = c.x - a.x, c.y - a.y
        if rx * wy == ry * wx and 0 < wx * rx + wy * ry < rr:
            return ("site_in_open_segment", s)
    return None


def _interiors_meet(a: Point2, b: Point2, c: Point2, d: Point2) -> bool:
    """Segments ab and cd share a point interior to both, in Fractions.

    Off one line, Cramer's rule solves a + t(b - a) = c + u(d - c) and
    both parameters must lie in (0, 1). On one line, c and d have
    parameters along ab, and their interval must overlap (0, 1) for a
    positive length.
    """
    rx, ry, sx, sy = b.x - a.x, b.y - a.y, d.x - c.x, d.y - c.y
    wx, wy = c.x - a.x, c.y - a.y
    den = rx * sy - ry * sx
    if den:
        t = (wx * sy - wy * sx) / den
        return 0 < t < 1 and 0 < (wx * ry - wy * rx) / den < 1
    if wx * ry - wy * rx:
        return False  # parallel lines
    rr = rx * rx + ry * ry
    tc = (wx * rx + wy * ry) / rr
    td = ((d.x - a.x) * rx + (d.y - a.y) * ry) / rr
    return max(0, min(tc, td)) < min(1, max(tc, td))


def _endpoint_contact_pairs(
    p: int, q: int, sites: SiteSet, constraints: ConstraintSet
) -> list[tuple[int, int]]:
    """Constraints that touch segment pq only at an endpoint of either."""
    key = (p, q) if p < q else (q, p)
    out = []
    for pair in sorted(constraints.pairs):
        if pair == key:
            continue
        # With no interior point shared, the closed segments meet exactly
        # where an endpoint of one is an end or an interior point of the
        # other. Sites are distinct, so an end is met by index.
        if not sites.overlap(p, q, *pair) and any(
            end in other or sites.between(*other, end)
            for ends, other in ((key, pair), (pair, key)) for end in ends
        ):
            out.append(pair)
    return out
