"""Seeded generation and the runnable claim suites.

Each suite checks one family of claims about the relation algebra on
meshes (generated or supplied) and records one check per claim
instance with `SuiteResult.record`. `run_suite` runs them all: it
builds each trial mesh once and feeds it to every suite that still
needs one, so a run holds only a few meshes at a time. Two claims are
knowingly reported as expected divergences rather than failures:
visibility without a shared edge refutes the converse of the
strong-visibility claim, and edge-adjacent triangle pairs are routinely
non-convex, refuting the unqualified region-convexity claim. The suites
surface both with reproduction data instead of asserting them away.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Generator, Optional

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
# The most sites `generate_sites` draws; checked before any is drawn.
MAX_SITES = 100_000
# The most trials `run_suite` runs; checked before any mesh is built.
MAX_TRIALS = 100_000

# A suite: a generator that records its checks on the `SuiteResult` it
# was started with and takes the next trial mesh with `m = yield`.
Suite = Generator[None, Mesh, None]


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

    def record(self, label: str, status: str, detail: str = "") -> None:
        """Record one check: the one place a `CheckRecord` is made."""
        self.records.append(CheckRecord(label, status, detail))

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        """Record a pass, or a failure that carries `detail`."""
        self.record(label, PASS if ok else FAIL, "" if ok else detail)


def generate_sites(
    seed: int,
    count: int,
    box: tuple[Fraction, Fraction, Fraction, Fraction] = DEFAULT_BOX,
) -> tuple[SiteSet, int]:
    """Deterministic random sites in a box; resamples whole draws that
    come out degenerate (duplicates or all collinear) and reports how
    many resamples it took."""
    if not 3 <= count <= MAX_SITES:
        raise ValueError(
            f"count must be between 3 and {MAX_SITES} sites, got {count}"
        )
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
    suite. Each suite is a generator that takes one mesh per `yield`
    and returns when it has checked enough. Trial mesh t is built once,
    by `mesh_for_trial(seed, t)` (or is the given `mesh`), handed to
    every suite still running, in report order, and then dropped, so
    memory does not grow with `trials`.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(
            f"trials must be between 1 and {MAX_TRIALS}, got {trials}"
        )
    if name == "all":
        chosen = {**SUITES, "relations": _relation_coverage}
    elif name in SUITES:
        chosen = {name: SUITES[name]}
    else:
        raise ValueError(f"unknown suite: {name!r}")
    results = [SuiteResult(n, seed, trials) for n in chosen]
    running = [
        suite(result, given=mesh, mode=region_mode, constraints=constraints)
        for suite, result in zip(chosen.values(), results)
    ]
    running = [s for s in running if _advance(s, None)]
    trial = 0
    while running:
        m = mesh if mesh is not None else mesh_for_trial(seed, trial)
        running = [s for s in running if _advance(s, m)]
        trial += 1
    return results


def _advance(suite: Suite, m: Optional[Mesh]) -> bool:
    """Send m to the suite (None starts it); False once it has returned."""
    try:
        suite.send(m)
    except StopIteration:
        return False
    return True


def _axioms(result: SuiteResult, **_) -> Suite:
    """Four proximity axioms for both the nearness and the visibility
    relation on random subcomplex triples of trial mesh 0."""
    m = yield
    seed = result.seed
    for relation in ("near", "visible"):
        reports = cx.check_cech_axioms(
            m, relation, max(1, result.trials // 2), seed)
        for i, rep in enumerate(reports):
            result.check(
                f"axioms[{relation}] trial={i}",
                rep.verdict,
                f"violated={rep.counterexample} seed={seed}",
            )


def _near_visible_agreement(result: SuiteResult, **_) -> Suite:
    """Nearness and visibility must give identical verdicts everywhere on
    trial mesh 0: exhaustive over triangle-set pairs on small meshes,
    sampled on larger ones."""
    m = yield
    t = len(m.triangles)
    if t <= 5:
        # Every triangle subset, each closed once.
        subs = [cx.closure(cx.SubComplex.of_triangle_set(m, k))
                for k in range(2**t)]
        for mask_a, a in enumerate(subs):
            for mask_b, b in enumerate(subs):
                _record_agreement(result, a, b, f"pair=({mask_a},{mask_b})")
    else:
        for trial in range(result.trials):
            rng = random.Random(result.seed * 65_537 + trial)
            a = cx.random_triangle_subcomplex(m, rng)
            b = cx.random_triangle_subcomplex(m, rng)
            _record_agreement(result, a, b, f"trial={trial}")


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


def _strong_visibility(result: SuiteResult, **_) -> Suite:
    """Strong visibility must imply visibility on every pair; pairs that
    are visible through a lone shared vertex refute the converse and are
    recorded as expected divergences."""
    seed = result.seed
    for trial in range(result.trials):
        m = yield
        rng = random.Random(seed * 104_729 + trial)
        a = cx.random_triangle_subcomplex(m, rng)
        b = cx.random_triangle_subcomplex(m, rng)
        sv = cx.strongly_visible(a, b).verdict
        v = cx.visible(a, b).verdict
        # The operands are described only in the branches that report them.
        if sv and not v:
            result.record(f"strongly_visible=>visible trial={trial}", FAIL,
                          f"A=({a.describe()}) B=({b.describe()}) seed={seed}")
        elif v and not sv:
            result.record(f"visible-without-shared-edge trial={trial}",
                          DIVERGENCE, "converse fails on this pair: "
                          f"A=({a.describe()}) B=({b.describe()})")
        else:
            result.record(f"strongly_visible=>visible trial={trial}", PASS)


def _strongly_far(result: SuiteResult, given: Optional[Mesh],
                  **_) -> Suite:
    """Configurations where the strongly-far relation holds must also be
    invisible pairs, and the relation's two facades (proximity flavor
    and visibility flavor) must agree with an independent re-evaluation
    from the public closure operations. A given mesh that offers no
    such configuration is skipped."""
    if given is not None and not any(
        _witness_and_free(given, t)[1] for t in _off_hull_triangles(given)
    ):
        result.record("strongly_far generation", PASS,
                      "no strongly-far configuration in the mesh; skipped")
        return
    seed, trials = result.seed, result.trials
    produced = 0
    trial = 0
    attempts_limit = trials * 40
    while produced < trials and trial < attempts_limit:
        m = yield
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
    picked = [t2 for t2 in free if rng.random() < 0.5] or [
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


def _delaunay_characterizations(result: SuiteResult, given: Optional[Mesh],
                                **_) -> Suite:
    """Per-triangle agreement of the circumcircle, dual-vertex, and
    shared-wall characterizations, plus triangle convexity, on a tenth
    of the trial meshes (or the given one). A triangle whose audit
    counterexample names its cocircular walls, walls of no length, is an
    expected divergence: the shared-wall characterization holds only in
    general position."""
    seed = result.seed
    count = 1 if given is not None else max(1, result.trials // 10)
    for m_idx in range(count):
        m = yield
        for rep in rg.audit_delaunay_characterizations(m):
            label = f"mesh={m_idx} {rep.operands[0]}"
            if rep.verdict:
                # A route skipped on a loaded clip box passes with its note.
                result.record(label, PASS, rep.note)
                continue
            verdicts = f"verdicts={rep.witness[1]} seed={seed}"
            kind, named = rep.counterexample
            if kind == "cocircular_walls":
                result.record(label, DIVERGENCE, "shared wall has no length: "
                              + ", ".join(f"edge {e} with cocircular site {d}"
                                          for e, d in named)
                              + " " + verdicts)
            else:
                result.record(label, FAIL, verdicts)


def _segment_visibility(
    result: SuiteResult,
    constraints: Optional[vis.ConstraintSet],
    **_,
) -> Suite:
    """Visible site pairs of trial mesh 0 must have site-free open
    segments and interior-disjoint constraints; blocked pairs must have
    a site or a constraint that blocks them."""
    m = yield
    seed = result.seed
    sites = m.site_set
    if constraints is None:
        rng = random.Random(seed * 31 + 7)
        edges = sorted(m.edges)
        picked = [e for e in edges if rng.random() < 0.25]
        constraints = vis.ConstraintSet.of(picked)
    reports = vis.audit_segment_visibility(
        sites, constraints, result.trials, seed)
    for rep in reports:
        kind = "visible" if rep.relation == "segment_visibility" else "blocked"
        label = f"{kind} pair {rep.operands[0]},{rep.operands[1]}"
        if rep.verdict:
            # A reading-divergence note (endpoint-only constraint contact)
            # flags the pair without failing it.
            result.record(label, PASS, rep.note)
        else:
            result.record(label, FAIL, f"{rep.counterexample} seed={seed}")


def _regions(result: SuiteResult, mode: str, **_) -> Suite:
    """Random regions in the requested mode: traceable unions, exact
    convexity verdicts (non-convex ones are expected divergences from
    the convex-region claim), and proximality between sampled region
    pairs."""
    seed = result.seed
    sampler = (
        sample_strong_region if mode == rg.PAIRWISE_STRONG else
        sample_chain_region
    )
    for trial in range(result.trials):
        m = yield
        rng = random.Random(seed * 22_695_477 + trial)
        region = sampler(m, rng)
        if region is None:
            result.record(f"region trial={trial}", PASS,
                          "no traceable region sampled; skipped")
            continue
        report = rg.region_convexity(region)
        if report.is_convex:
            result.record(f"region convex trial={trial}", PASS)
        else:
            result.record(f"region non-convex trial={trial}", DIVERGENCE,
                          "edge-adjacent region with non-convex union: "
                          f"t={sorted(region.triangles)} seed={seed}")
        other = sampler(m, rng)
        if other is not None:
            rel = rg.regions_proximal(region, other)
            expected = bool(
                region.subcomplex().vertices & other.subcomplex().vertices
            )
            result.check(
                f"regions_proximal trial={trial}", rel.verdict == expected
            )


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


def _leader(result: SuiteResult, **_) -> Suite:
    """Neighborhood maps of random families must validate (symmetry,
    reflexivity) and agree between the visibility and nearness routes."""
    seed = result.seed
    for trial in range(result.trials):
        m = yield
        rng = random.Random(seed * 67_867_967 + trial)
        region = sample_chain_region(m, rng, max_size=8)
        if region is None:
            result.record(f"leader trial={trial}", PASS, "skipped")
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


def _random_region_member(
    region: rg.Region, rng: random.Random
) -> cx.SubComplex:
    picked = [t for t in sorted(region.triangles) if rng.random() < 0.5]
    return cx.closure(cx.SubComplex.of_triangles(region.mesh, picked))


def _relation_coverage(result: SuiteResult, **_) -> Suite:
    """One evaluation of every relation operation per trial, so a run of
    the full suite exercises the complete algebra."""
    seed = result.seed
    for trial in range(result.trials):
        m = yield
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


# Suite name -> generator, in report order. `run_suite("all")` runs
# them and then the relation coverage suite.
SUITES = {
    "axioms": _axioms,
    "lemma31": _near_visible_agreement,
    "lemma33": _strong_visibility,
    "thm35": _strongly_far,
    "thm36": _delaunay_characterizations,
    "thm37": _segment_visibility,
    "regions": _regions,
    "leader": _leader,
}
