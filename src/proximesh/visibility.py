"""Visibility among sites with constraining segments.

Two sites, named by index, see each other when the open segment between
them contains no third site and meets no constraint in an interior
point; `segment_visible` is that one test. Endpoint contact with a
constraint does not block visibility: the blocking test is
interior-disjointness, not empty intersection, and the audit reports
pairs where the two readings would differ. Sites and constraint ends
are indices into the `SiteSet`, whose lattice `between` and `overlap`
decide every segment test; the audit's `_contact`, on integers of its
own, tests each site and each constraint as the independent check, on
visible and blocked pairs alike.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable

from .complexes import RelationReport
from .geometry import Point2
from .mesh import SiteSet, check_indices


@dataclass(frozen=True, slots=True)
class ConstraintSet:
    """Constraining segments given as pairs of site indices. `validate`
    remembers the last site count it passed the pairs for."""

    pairs: frozenset[tuple[int, int]]
    _valid_for: int = field(default=-1, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]]) -> "ConstraintSet":
        return cls(frozenset((p, q) if p < q else (q, p) for p, q in pairs))

    @classmethod
    def empty(cls) -> "ConstraintSet":
        return cls(frozenset())

    def validate(self, sites: SiteSet) -> None:
        n = len(sites)
        if n == self._valid_for:
            return
        for p, q in self.pairs:
            if type(p) is not int or type(q) is not int:
                raise ValueError(
                    f"constraint index is not an int: {(p, q)!r}")
            if p == q:
                raise ValueError(f"constraint endpoints coincide: {p}")
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"constraint indices out of range: {(p, q)}")
        object.__setattr__(self, "_valid_for", n)


def segment_visible(
    p: int, q: int, sites: SiteSet, constraints: ConstraintSet
) -> bool:
    """True when the open segment between sites p and q avoids all other
    sites and shares no interior point with any other constraint."""
    check_indices((p, q), len(sites))
    if p == q:
        raise ValueError("visibility needs two distinct sites")
    constraints.validate(sites)
    key = (p, q) if p < q else (q, p)
    # Constraints first: a pair one blocks skips the n sites.
    return not any(
        sites.overlap(p, q, *pair) for pair in constraints.pairs if pair != key
    ) and not any(sites.between(p, q, s) for s in range(len(sites)))


def audit_segment_visibility(
    sites: SiteSet,
    constraints: ConstraintSet,
    trials: int,
    seed: int,
) -> list[RelationReport]:
    """Check the visibility conclusions on sampled (or all) site pairs.

    Each pair's blocking witness is sought by `_contact`, on integers of
    its own, apart from the lattice that `segment_visible` decides on: a
    site strictly inside the open segment, or another constraint sharing
    an interior point with it. A pair declared visible must have none,
    and is reported; a pair declared blocked must have one, and is
    reported only when it has none. Visible pairs where endpoint contact
    with a constraint is the only contact are flagged as a reading
    divergence, not a failure: a literal empty-intersection condition
    would have excluded them. Pairs are numbered in (p, q) order, and
    `trials` numbers are drawn, so no list of all pairs is made.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    constraints.validate(sites)
    n = len(sites)
    count = n * (n - 1) // 2
    picks = (range(count) if count <= trials
             else sorted(random.Random(seed).sample(range(count), trials)))
    ordered = sorted(constraints.pairs)
    reports = []
    for m in picks:
        p = n - 2 - (math.isqrt(8 * (count - 1 - m) + 1) - 1) // 2
        q = m - p * (2 * n - p - 3) // 2 + 1
        a, b = sites[p], sites[q]
        # Constraints first, as they block most pairs in general
        # position; then sites, which touch pq only strictly inside it.
        witness, touching = None, []
        for pair in ordered:
            if pair == (p, q):
                continue
            contact = _contact(a, b, sites[pair[0]], sites[pair[1]])
            if contact == 2:
                witness = ("constraint_interior_contact", pair)
                break
            if contact:
                touching.append(pair)
        else:
            witness = next((("site_in_open_segment", s)
                            for s, c in enumerate(sites.sites)
                            if s != p and s != q and _contact(a, b, c, c)),
                           None)
        operands = (f"site {p}", f"site {q}")
        if not segment_visible(p, q, sites, constraints):
            if witness is None:
                reports.append(RelationReport(
                    relation="segment_blocking", operands=operands,
                    verdict=False, counterexample=("no_blocking_witness",)))
            continue
        note = ""
        if touching:
            note = (
                "endpoint-only constraint contact at "
                f"{touching}; a literal empty-intersection reading "
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


def _contact(a: Point2, b: Point2, c: Point2, d: Point2) -> int:
    """2 when segments ab and cd share a point interior to both, 1 when
    they meet only at an end of either, 0 when they do not meet.

    The points are put over the lcm of their denominators. Off one line,
    Cramer's rule solves a + t(b - a) = c + u(d - c) as t = tn/den and
    u = un/den with den > 0, so no division is needed. On one line, c
    and d have parameters along ab, dot products with b - a, and their
    span is cut to [0, |b - a|²]: a span of positive length is an
    interior contact, a single point a touch.
    """
    coords = a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y
    s = math.lcm(*(v.denominator for v in coords))
    ax, ay, bx, by, cx, cy, dx, dy = (v.numerator * (s // v.denominator)
                                      for v in coords)
    rx, ry, sx, sy = bx - ax, by - ay, dx - cx, dy - cy
    wx, wy = cx - ax, cy - ay
    den = rx * sy - ry * sx
    if den:
        tn, un = wx * sy - wy * sx, wx * ry - wy * rx
        if den < 0:
            den, tn, un = -den, -tn, -un
        if not (0 <= tn <= den and 0 <= un <= den):
            return 0
        return 2 if 0 < tn < den and 0 < un < den else 1
    if wx * ry - wy * rx:
        return 0  # parallel lines
    tc, td = wx * rx + wy * ry, (dx - ax) * rx + (dy - ay) * ry
    lo, hi = max(0, min(tc, td)), min(rx * rx + ry * ry, max(tc, td))
    return (lo <= hi) + (lo < hi)
