"""Seeded generation and the runnable claim suites.

Each suite checks one family of claims about the relation algebra on
meshes (generated or supplied) and returns a structured result with one
record per check. Two claims are knowingly reported as expected
divergences rather than failures: visibility without a shared edge
refutes the converse of the strong-visibility claim, and edge-adjacent
triangle pairs are routinely non-convex, refuting the unqualified
region-convexity claim. The suites surface both with reproduction data
instead of asserting them away.
"""

from __future__ import annotations

import random
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import complexes as cx
from . import regions as rg
from . import visibility as vis
from .geometry import Point2
from .mesh import Mesh, MeshError, SiteSet, triangulate

PASS = "pass"
FAIL = "fail"
DIVERGENCE = "expected_divergence"

DEFAULT_BOX = (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
MAX_RESAMPLES = 64


@dataclass(frozen=True, slots=True)
class CheckRecord:
    label: str
    status: str
    detail: str = ""


@dataclass(slots=True)
class SuiteResult:
    suite: str
    seed: int
    trials: int
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.status == PASS)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.status == FAIL)

    @property
    def divergences(self) -> int:
        return sum(1 for r in self.records if r.status == DIVERGENCE)

    def ok(self) -> bool:
        return self.failed == 0

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        """Record a pass, or a failure that carries `detail`."""
        record = CheckRecord(label, PASS if ok else FAIL, "" if ok else detail)
        self.records.append(record)

    def skip(self, label: str, detail: str) -> None:
        """Record a check with nothing to test, as a pass with `detail`."""
        self.records.append(CheckRecord(label, PASS, detail))


def generate_sites(
    seed: int,
    count: int,
    box: tuple[Fraction, Fraction, Fraction, Fraction] = DEFAULT_BOX,
) -> tuple[SiteSet, int]:
    """Deterministic random sites in a box; resamples whole draws that
    come out degenerate (duplicates or all collinear) and reports how
    many resamples it took."""
    if count < 3:
        raise ValueError(f"need at least 3 sites, got {count}")
    xmin, ymin, xmax, ymax = box
    if xmin >= xmax or ymin >= ymax:
        raise ValueError("box must have positive area")
    w, h = xmax - xmin, ymax - ymin
    rng = random.Random(seed)
    for resamples in range(MAX_RESAMPLES):
        pts = [
            Point2(xmin + w * Fraction(rng.random()),
                   ymin + h * Fraction(rng.random()))
            for _ in range(count)
        ]
        try:
            return SiteSet(pts), resamples
        except MeshError:
            continue
    raise ValueError(
        f"could not draw a valid site set after {MAX_RESAMPLES} resamples"
    )


# The trial meshes of the `run_suite` call in progress, by (seed, trial).
_TRIAL_MEMO: ContextVar[dict[tuple[int, int], Mesh]] = ContextVar("trial_memo")


def mesh_for_trial(seed: int, trial: int, max_sites: int = 30) -> Mesh:
    """Deterministic per-trial mesh with 4..max_sites sites, built anew
    on every call."""
    rng = random.Random(seed * 7_919 + trial)
    count = rng.randint(4, max_sites)
    sites, _ = generate_sites(rng.randrange(2**32), count)
    return triangulate(sites)


def run_suite(
    name: str,
    trials: int,
    seed: int,
    mesh: Optional[Mesh] = None,
    region_mode: str = rg.PAIRWISE_STRONG,
    constraints: Optional[vis.ConstraintSet] = None,
) -> list[SuiteResult]:
    """Run one named suite (or all of them) and return its results.

    `region_mode` reaches the regions suite and `constraints` the thm37
    suite. The suites share each trial mesh, built once for the duration
    of the call.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    names = list(SUITES) if name == "all" else [name]
    token = _TRIAL_MEMO.set({})
    try:
        if name != "all" and name not in SUITES:
            raise ValueError(f"unknown suite: {name!r}")
        results = [
            SUITES[n](trials, seed, mesh, region_mode, constraints)
            for n in names
        ]
        if name == "all":
            results.append(suite_relation_coverage(trials, seed, mesh))
        return results
    finally:
        _TRIAL_MEMO.reset(token)


def _trial_mesh(mesh: Optional[Mesh], seed: int, trial: int) -> Mesh:
    if mesh is not None:
        return mesh
    memo = _TRIAL_MEMO.get({})  # outside run_suite: a throwaway memo
    if (seed, trial) not in memo:
        memo[seed, trial] = mesh_for_trial(seed, trial)
    return memo[seed, trial]


def suite_axioms(
    trials: int, seed: int, mesh: Optional[Mesh] = None
) -> SuiteResult:
    """Four proximity axioms for both the nearness and the visibility
    relation on random subcomplex triples."""
    result = SuiteResult("axioms", seed, trials)
    per_relation = max(1, trials // 2)
    for relation in ("near", "visible"):
        m = _trial_mesh(mesh, seed, 0)
        reports = cx.check_cech_axioms(m, relation, per_relation, seed)
        for i, rep in enumerate(reports):
            result.check(
                f"axioms[{relation}] trial={i}",
                rep.verdict,
                f"violated={rep.counterexample} seed={seed}",
            )
    return result


def suite_near_visible_agreement(
    trials: int, seed: int, mesh: Optional[Mesh] = None
) -> SuiteResult:
    """Nearness and visibility must give identical verdicts everywhere:
    exhaustive over triangle-set pairs on small meshes, sampled on
    larger ones."""
    result = SuiteResult("lemma31", seed, trials)
    m = _trial_mesh(mesh, seed, 0)
    t = len(m.triangles)
    if t <= 5:
        pairs = [
            (mask_a, mask_b)
            for mask_a in range(2**t)
            for mask_b in range(2**t)
        ]
        for mask_a, mask_b in pairs:
            a = _mask_subcomplex(m, mask_a)
            b = _mask_subcomplex(m, mask_b)
            _record_agreement(result, a, b, f"pair=({mask_a},{mask_b})")
    else:
        for trial in range(trials):
            rng = random.Random(seed * 65_537 + trial)
            a = cx.random_triangle_subcomplex(m, rng)
            b = cx.random_triangle_subcomplex(m, rng)
            _record_agreement(result, a, b, f"trial={trial}")
    return result


def _mask_subcomplex(mesh: Mesh, mask: int) -> cx.SubComplex:
    picked = [t for t in range(len(mesh.triangles)) if mask >> t & 1]
    return cx.closure(cx.SubComplex.of_triangles(mesh, picked))


def _record_agreement(
    result: SuiteResult, a: cx.SubComplex, b: cx.SubComplex, label: str
) -> None:
    n = cx.near(a, b).verdict
    v = cx.visible(a, b).verdict
    result.check(
        f"near=visible {label}",
        n == v,
        "" if n == v else
        f"near={n} visible={v} A=({a.describe()}) B=({b.describe()})",
    )


def suite_strong_visibility(
    trials: int, seed: int, mesh: Optional[Mesh] = None
) -> SuiteResult:
    """Strong visibility must imply visibility on every pair; pairs that
    are visible through a lone shared vertex refute the converse and are
    recorded as expected divergences."""
    result = SuiteResult("lemma33", seed, trials)
    for trial in range(trials):
        m = _trial_mesh(mesh, seed, trial)
        rng = random.Random(seed * 104_729 + trial)
        a = cx.random_triangle_subcomplex(m, rng)
        b = cx.random_triangle_subcomplex(m, rng)
        sv = cx.strongly_visible(a, b).verdict
        v = cx.visible(a, b).verdict
        if sv and not v:
            result.records.append(
                CheckRecord(
                    f"strongly_visible=>visible trial={trial}",
                    FAIL,
                    f"A=({a.describe()}) B=({b.describe()}) seed={seed}",
                )
            )
        elif v and not sv:
            result.records.append(
                CheckRecord(
                    f"visible-without-shared-edge trial={trial}",
                    DIVERGENCE,
                    "converse fails on this pair: "
                    f"A=({a.describe()}) B=({b.describe()})",
                )
            )
        else:
            result.check(f"strongly_visible=>visible trial={trial}", True)
    return result


def suite_strongly_far(
    trials: int, seed: int, mesh: Optional[Mesh] = None
) -> SuiteResult:
    """Configurations where the strongly-far relation holds must also be
    invisible pairs, and the relation's two facades (proximity flavor
    and visibility flavor) must agree with an independent re-evaluation
    from the public closure operations. A supplied mesh that offers no
    such configuration is skipped."""
    result = SuiteResult("thm35", seed, trials)
    if mesh is not None and not any(
        _witness_and_free(mesh, t)[1] for t in _off_hull_triangles(mesh)
    ):
        result.skip("strongly_far generation",
                    "no strongly-far configuration in the mesh; skipped")
        return result
    produced = 0
    trial = 0
    attempts_limit = trials * 40
    while produced < trials and trial < attempts_limit:
        m = _trial_mesh(mesh, seed, trial)
        rng = random.Random(seed * 15_485_863 + trial)
        trial += 1
        config = sample_strongly_far_config(m, rng)
        if config is None:
            continue
        a, c, witness = config
        rep = cx.strongly_far(a, c, witness)
        if not rep.verdict:
            continue
        produced += 1
        re_eval = (
            cx.far(a, witness).verdict
            and cx.closure(c).issubset(cx.interior(witness))
        )
        inv = cx.invisible(a, c).verdict
        ok = re_eval and inv
        result.check(
            f"strongly_far config={produced}",
            ok,
            "" if ok else
            f"re_eval={re_eval} invisible={inv} "
            f"A=({a.describe()}) C=({c.describe()}) seed={seed}",
        )
    if produced < trials:
        result.check(
            "strongly_far generation",
            False,
            f"only {produced}/{trials} configurations found",
        )
    return result


def sample_strongly_far_config(
    mesh: Mesh, rng: random.Random
) -> Optional[tuple[cx.SubComplex, cx.SubComplex, cx.SubComplex]]:
    """Draw (a, c, witness) with c a triangle buried inside the witness
    and a drawn from triangles not touching the witness; None when the
    mesh offers no such configuration."""
    candidates = _off_hull_triangles(mesh)
    if not candidates:
        return None
    t = rng.choice(candidates)
    witness_tris, free = _witness_and_free(mesh, t)
    if not free:
        return None
    c = cx.SubComplex.of_triangles(mesh, [t])
    witness = cx.closure(cx.SubComplex.of_triangles(mesh, witness_tris))
    picked = [t2 for t2 in free if rng.random() < Fraction(1, 2)] or [
        rng.choice(free)
    ]
    a = cx.closure(cx.SubComplex.of_triangles(mesh, picked))
    return a, c, witness


def _off_hull_triangles(mesh: Mesh) -> list[int]:
    """Triangles whose three vertices are all off the hull."""
    return [
        t
        for t, tri in enumerate(mesh.triangles)
        if not any(mesh.is_hull_site(v) for v in tri.indices)
    ]


def _witness_and_free(mesh: Mesh, t: int) -> tuple[set[int], list[int]]:
    """The triangles around t's vertices, which form t's witness, and
    the triangles that touch none of the witness's vertices."""
    witness_tris = {
        t2
        for v in mesh.triangles[t].indices
        for t2 in mesh.vertex_triangles[v]
    }
    blocked = {
        t3
        for t2 in witness_tris
        for v in mesh.triangles[t2].indices
        for t3 in mesh.vertex_triangles[v]
    }
    free = [t2 for t2 in range(len(mesh.triangles)) if t2 not in blocked]
    return witness_tris, free


def suite_delaunay_characterizations(
    trials: int, seed: int, mesh: Optional[Mesh] = None
) -> SuiteResult:
    """Per-triangle agreement of the circumcircle, dual-vertex, and
    shared-wall characterizations, plus triangle convexity."""
    result = SuiteResult("thm36", seed, trials)
    count = 1 if mesh is not None else max(1, trials // 10)
    meshes = [_trial_mesh(mesh, seed, t) for t in range(count)]
    for m_idx, m in enumerate(meshes):
        for rep in rg.audit_delaunay_characterizations(m):
            result.check(
                f"mesh={m_idx} {rep.operands[0]}",
                rep.verdict,
                f"verdicts={rep.witness} seed={seed}",
            )
    return result


def suite_segment_visibility(
    trials: int,
    seed: int,
    mesh: Optional[Mesh] = None,
    constraints: Optional[vis.ConstraintSet] = None,
) -> SuiteResult:
    """Visible site pairs must have site-free open segments and
    interior-disjoint constraints."""
    result = SuiteResult("thm37", seed, trials)
    m = _trial_mesh(mesh, seed, 0)
    sites = m.site_set
    if constraints is None:
        rng = random.Random(seed * 31 + 7)
        edges = sorted(m.edges)
        picked = [e for e in edges if rng.random() < 0.25]
        constraints = vis.ConstraintSet.of(picked)
    reports = vis.audit_segment_visibility(sites, constraints, trials, seed)
    for rep in reports:
        label = f"visible pair {rep.operands[0]},{rep.operands[1]}"
        if not rep.verdict:
            result.records.append(
                CheckRecord(label, FAIL, f"{rep.counterexample} seed={seed}")
            )
        else:
            # A reading-divergence note (endpoint-only constraint contact)
            # flags the pair without failing it.
            result.records.append(CheckRecord(label, PASS, rep.note))
    return result


def suite_regions(
    trials: int,
    seed: int,
    mesh: Optional[Mesh] = None,
    mode: str = rg.PAIRWISE_STRONG,
) -> SuiteResult:
    """Random regions in the requested mode: traceable unions, exact
    convexity verdicts (non-convex ones are expected divergences from
    the convex-region claim), and proximality between sampled region
    pairs."""
    result = SuiteResult("regions", seed, trials)
    sampler = (
        sample_strong_region if mode == rg.PAIRWISE_STRONG else
        sample_chain_region
    )
    for trial in range(trials):
        m = _trial_mesh(mesh, seed, trial)
        rng = random.Random(seed * 22_695_477 + trial)
        region = sampler(m, rng)
        if region is None:
            result.skip(f"region trial={trial}",
                        "no traceable region sampled; skipped")
            continue
        report = rg.region_convexity(region)
        if report.is_convex:
            result.check(f"region convex trial={trial}", True)
        else:
            result.records.append(
                CheckRecord(
                    f"region non-convex trial={trial}",
                    DIVERGENCE,
                    "edge-adjacent region with non-convex union: "
                    f"t={sorted(region.triangles)} seed={seed}",
                )
            )
        other = sampler(m, rng)
        if other is not None:
            rel = rg.regions_proximal(region, other)
            expected = bool(
                region.subcomplex().vertices & other.subcomplex().vertices
            )
            result.check(
                f"regions_proximal trial={trial}", rel.verdict == expected
            )
    return result


def sample_strong_region(
    mesh: Mesh, rng: random.Random
) -> Optional[rg.Region]:
    """A pairwise-strong region: one triangle or an edge-adjacent pair."""
    start = rng.randrange(len(mesh.triangles))
    neighbors = sorted(mesh.triangle_neighbors[start])
    chosen = {start}
    if neighbors and rng.random() < 0.7:
        chosen.add(rng.choice(neighbors))
    return rg.build_region(mesh, chosen, mode=rg.PAIRWISE_STRONG)


def sample_chain_region(
    mesh: Mesh, rng: random.Random, max_size: int = 6
) -> Optional[rg.Region]:
    """Grow an edge-chain region by random adjacency walk; None when the
    grown set is not traceable (hole or pinch)."""
    size = rng.randint(1, max_size)
    start = rng.randrange(len(mesh.triangles))
    chosen = {start}
    frontier = [start]
    while len(chosen) < size and frontier:
        t = rng.choice(frontier)
        neighbors = [u for u in mesh.triangle_neighbors[t] if u not in chosen]
        if not neighbors:
            frontier.remove(t)
            continue
        new = rng.choice(neighbors)
        chosen.add(new)
        frontier.append(new)
    region = rg.build_region(mesh, chosen, mode=rg.EDGE_CHAIN)
    try:
        rg.region_union_polygon(region)
    except rg.RegionTraceError:
        return None
    return region


def suite_leader(
    trials: int, seed: int, mesh: Optional[Mesh] = None
) -> SuiteResult:
    """Neighborhood maps of random families must validate (symmetry,
    reflexivity) and agree between the visibility and nearness routes."""
    result = SuiteResult("leader", seed, trials)
    for trial in range(trials):
        m = _trial_mesh(mesh, seed, trial)
        rng = random.Random(seed * 67_867_967 + trial)
        region = sample_chain_region(m, rng, max_size=8)
        if region is None:
            result.skip(f"leader trial={trial}", "skipped")
            continue
        family = [
            _random_region_member(region, rng) for _ in range(rng.randint(2, 5))
        ]
        nm_visible = rg.leader_topology(region, family, relation="visible")
        nm_near = rg.leader_topology(region, family, relation="near")
        result.check(
            f"leader trial={trial}",
            nm_visible.near_sets == nm_near.near_sets,
            f"visible/near neighborhood maps differ seed={seed}",
        )
    return result


def _random_region_member(
    region: rg.Region, rng: random.Random
) -> cx.SubComplex:
    picked = [t for t in sorted(region.triangles) if rng.random() < 0.5]
    return cx.closure(cx.SubComplex.of_triangles(region.mesh, picked))


def suite_relation_coverage(
    trials: int, seed: int, mesh: Optional[Mesh] = None
) -> SuiteResult:
    """One evaluation of every relation operation per trial, so a run of
    the full suite exercises the complete algebra."""
    result = SuiteResult("relations", seed, trials)
    for trial in range(trials):
        m = _trial_mesh(mesh, seed, trial)
        rng = random.Random(seed * 179_424_673 + trial)
        a = cx.random_triangle_subcomplex(m, rng)
        b = cx.random_triangle_subcomplex(m, rng)
        verdicts = {
            "near": cx.near(a, b).verdict,
            "strongly_near": cx.strongly_near(a, b).verdict,
            "far": cx.far(a, b).verdict,
            "strongly_far": cx.strongly_far(a, b).verdict,
            "visible": cx.visible(a, b).verdict,
            "strongly_visible": cx.strongly_visible(a, b).verdict,
            "invisible": cx.invisible(a, b).verdict,
            "strongly_invisible": cx.strongly_invisible(a, b).verdict,
        }
        consistent = (
            verdicts["near"] == verdicts["visible"]
            and verdicts["far"] == (not verdicts["near"])
            and verdicts["invisible"] == (not verdicts["visible"])
            and (not verdicts["strongly_near"] or verdicts["near"])
            and (not verdicts["strongly_visible"] or verdicts["visible"])
            and verdicts["invisible"] == verdicts["strongly_invisible"]
            and (not verdicts["strongly_far"] or verdicts["invisible"])
        )
        result.check(
            f"relation consistency trial={trial}",
            consistent,
            f"verdicts={verdicts} seed={seed}",
        )
    return result


# Suite name -> runner(trials, seed, mesh, region_mode, constraints). The
# runners look the suite functions up when called, so a wrapper put on a
# module attribute, as by a tracer, sees every suite run.
SUITES = {
    "axioms": lambda t, s, m, rm, c: suite_axioms(t, s, m),
    "lemma31": lambda t, s, m, rm, c: suite_near_visible_agreement(t, s, m),
    "lemma33": lambda t, s, m, rm, c: suite_strong_visibility(t, s, m),
    "thm35": lambda t, s, m, rm, c: suite_strongly_far(t, s, m),
    "thm36": lambda t, s, m, rm, c: suite_delaunay_characterizations(t, s, m),
    "thm37": lambda t, s, m, rm, c: suite_segment_visibility(t, s, m, c),
    "regions": lambda t, s, m, rm, c: suite_regions(t, s, m, mode=rm),
    "leader": lambda t, s, m, rm, c: suite_leader(t, s, m),
}
