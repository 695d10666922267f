"""The four benchmark workloads: inputs, set-up, timed operations, checks.

Every workload is a closed loop with one caller. Its inputs are files
that set-up writes from fixed seeds, so every run times the same inputs;
the workload seed sets only the order in which a process times them. A
timed operation only ever sees files, never an object left over from
set-up or from an earlier operation, except the loaded mesh that a
library user keeps between `relate` calls.

The library is always reached through module attributes
(`pm.triangulate`, `pio.read_mesh`, ...), never through names bound at
import time, so that the tracer in `layertrace.py` sees every call when it
is installed, and nothing changes when it is not.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path
from typing import Callable, NamedTuple

from proximesh import complexes as cx
from proximesh import harness
from proximesh import io as pio
from proximesh import mesh as pm
from proximesh import render
from proximesh.geometry import Point2

# Seed bases of the inputs. Input k of a workload is drawn from base + k;
# the warm-up inputs come from seeds outside every workload's inputs.
UNIFORM_BASE = 10_000
GRID_BASE = 20_000
QUERY_BASE = 30_000
SUITE_BASE = 40_000
WARM_SEED = 99_999

# Relations of the `relate` command in its fixed rotation, with the
# library function each one calls. `sfar` runs without an explicit
# witness, so it uses the bounded witness search.
RELATIONS = (
    ("near", "near"),
    ("snear", "strongly_near"),
    ("far", "far"),
    ("sfar", "strongly_far"),
    ("visible", "visible"),
    ("svisible", "strongly_visible"),
    ("invisible", "invisible"),
    ("sinvisible", "strongly_invisible"),
)

# Input sizes. "full" is what the benchmark measures; "tiny" is the smoke
# mode. One process times every input of its workload once: "pool" build
# inputs, "passes" suite passes, or "loads" mesh loads followed by
# "chunks" chunks of "chunk_ops" relate calls. A process is sized to a
# few seconds, so that a run repeats it in several fresh processes.
SIZES = {
    "full": {
        "build-uniform": {"sites": 100, "pool": 2},
        "build-grid": {"side": 10, "pool": 6},
        "query": {"sites": 100, "operands": 96, "chunks": 32,
                  "chunk_ops": 64, "loads": 1},
        "suite": {"trials": 1, "passes": 4},
    },
    "tiny": {
        "build-uniform": {"sites": 12, "pool": 2},
        "build-grid": {"side": 4, "pool": 2},
        "query": {"sites": 12, "operands": 8, "chunks": 4,
                  "chunk_ops": 16, "loads": 1},
        "suite": {"trials": 1, "passes": 2},
    },
}


class Sample(NamedTuple):
    """One timed operation: its kind, wall seconds, whether it failed, and
    the input it ran on (build input, load number, relate chunk or pass
    seed)."""

    kind: str
    seconds: float
    failed: bool
    key: int


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def timed(probe, kind: str, fn: Callable, *args):
    """Run fn(*args) as one timed operation; return (result, seconds).

    An exception is returned in place of the result, so that the caller
    counts it as a failed operation and the run goes on.
    """
    with probe.op(kind):
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any library error is a failed op
            result = exc
        seconds = time.perf_counter() - start
    return result, seconds


class Workload:
    """Base of the four workloads.

    `setup` writes the inputs and warms up; it leaves the same files each
    time. `run` times every input once, in the order the seed sets, and
    returns the samples.
    """

    name = ""
    kind = ""  # what one timed operation of the main kind is
    item = ""  # the unit of the throughput metric
    operation = ""  # the exact operation one sample times

    def __init__(self, size: str, workdir: Path, reference: dict | None):
        self.cfg = SIZES[size][self.name]
        self.workdir = workdir
        self.ref = reference
        workdir.mkdir(parents=True, exist_ok=True)

    def items_per_op(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seed: int, probe) -> list[Sample]:
        raise NotImplementedError

    def make_reference(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# build-uniform and build-grid


class BuildWorkload(Workload):
    """Read a sites file, triangulate, write the mesh with cells (the
    `voronoi` command) and render that mesh's SVG with cells."""

    kind = "build"
    item = "site"
    operation = (
        "io.read_sites -> mesh.triangulate -> "
        "io.write_mesh(include_voronoi=True) -> "
        "render.render_svg(include_voronoi=True) -> write SVG"
    )

    def points(self, entry: int) -> list[Point2]:
        raise NotImplementedError

    def warm_points(self) -> list[Point2]:
        raise NotImplementedError

    def items_per_op(self) -> int:
        return len(self.points(0))

    def paths(self, tag) -> tuple[Path, Path, Path]:
        d = self.workdir
        return d / f"sites-{tag}.txt", d / f"mesh-{tag}.json", d / f"svg-{tag}.svg"

    def setup(self) -> None:
        for entry in range(self.cfg["pool"]):
            pio.write_sites(self.paths(entry)[0], self.points(entry),
                            header=[f"{self.name} entry {entry}"])
        warm = self.paths("warm")
        pio.write_sites(warm[0], self.warm_points())
        self.build(*warm)

    @staticmethod
    def build(sites_path: Path, mesh_path: Path, svg_path: Path) -> None:
        points = pio.read_sites(sites_path)
        mesh = pm.triangulate(pm.SiteSet(points))
        pio.write_mesh(mesh_path, mesh, include_voronoi=True)
        svg_path.write_text(render.render_svg(mesh, include_voronoi=True))

    def outputs(self, entry: int) -> dict:
        sites, mesh, svg = (p.read_bytes() for p in self.paths(entry))
        return {
            "sites": sha256(sites),
            "mesh": sha256(mesh),
            "mesh_id": json.loads(mesh)["mesh_id"],
            "svg": sha256(svg),
        }

    def run(self, seed, probe):
        order = random.Random(seed).sample(range(self.cfg["pool"]),
                                           self.cfg["pool"])
        return [self._op(entry, probe) for entry in order]

    def _op(self, entry: int, probe) -> Sample:
        result, seconds = timed(probe, self.kind, self.build, *self.paths(entry))
        failed = isinstance(result, Exception)
        if not failed:
            failed = self.outputs(entry) != self.ref["entries"][entry]
        return Sample(self.kind, seconds, failed, entry)

    def make_reference(self) -> dict:
        self.setup()
        entries = []
        for entry in range(self.cfg["pool"]):
            self.build(*self.paths(entry))
            entries.append(self.outputs(entry))
        return {"entries": entries}


class UniformBuild(BuildWorkload):
    name = "build-uniform"

    def points(self, entry):
        return list(harness.generate_sites(UNIFORM_BASE + entry,
                                           self.cfg["sites"])[0].sites)

    def warm_points(self):
        return list(harness.generate_sites(WARM_SEED, 40)[0].sites)


class GridBuild(BuildWorkload):
    """A k x k integer lattice in row-major order, translated by a
    per-entry integer offset so that every entry is a distinct file."""

    name = "build-grid"

    def points(self, entry):
        rng = random.Random(GRID_BASE + entry)
        x0, y0 = rng.randrange(-500, 500), rng.randrange(-500, 500)
        side = self.cfg["side"]
        return [Point2(x0 + i, y0 + j) for i in range(side) for j in range(side)]

    def warm_points(self):
        return [Point2(i, j) for i in range(6) for j in range(6)]


# ---------------------------------------------------------------------------
# query


def relate_output(name: str, report) -> str:
    """The lines `proximesh relate` prints for one report."""
    lines = [f"relation {name} verdict={str(report.verdict).lower()}"]
    if report.witness is not None:
        lines.append("witness " + " ".join(str(x) for x in report.witness))
    if report.counterexample is not None:
        lines.append(
            "counterexample " + " ".join(str(x) for x in report.counterexample)
        )
    if report.note:
        lines.append(f"note {report.note}")
    return "\n".join(lines) + "\n"


def relate(mesh, a_path: Path, b_path: Path, name: str, fn_name: str) -> str:
    """One `relate` call on an already loaded mesh: read both operand
    files, evaluate the relation, format the output lines."""
    a = pio.read_subcomplex(a_path, mesh)
    b = pio.read_subcomplex(b_path, mesh)
    return relate_output(name, getattr(cx, fn_name)(a, b))


def operand_docs(mesh, count: int, seed: int) -> list[dict]:
    """A deterministic mix of operand subcomplexes: single triangles,
    edge-connected patches of 2-8 triangles, scattered sets of about a
    tenth of the triangles, and bare vertex/edge sets."""
    rng = random.Random(seed)
    n_tri = len(mesh.triangles)
    edges = sorted(mesh.edge_triangles)
    docs = []
    for k in range(count):
        shape = k % 4
        verts: set[int] = set()
        edge_set: set[tuple[int, int]] = set()
        tris: set[int] = set()
        if shape == 0:
            tris.add(rng.randrange(n_tri))
        elif shape == 1:
            tris.add(rng.randrange(n_tri))
            target = rng.randint(2, 8)
            while len(tris) < target:
                t = rng.choice(sorted(tris))
                nbrs = sorted(
                    t2
                    for e in mesh.triangles[t].edges()
                    for t2 in mesh.edge_triangles[e]
                    if t2 not in tris
                )
                if not nbrs:
                    break
                tris.add(rng.choice(nbrs))
        elif shape == 2:
            tris.update(t for t in range(n_tri) if rng.random() < 0.1)
            tris.add(rng.randrange(n_tri))
        else:
            verts.update(rng.sample(range(len(mesh.sites)), rng.randint(1, 4)))
            edge_set.update(rng.sample(edges, rng.randint(0, 4)))
        docs.append({"vertices": sorted(verts), "edges": sorted(edge_set),
                     "triangles": sorted(tris)})
    return docs


class QueryWorkload(Workload):
    """Load one mesh file several times, then stream `relate` calls over a
    pool of operand files against the loaded mesh.

    The relate calls come in fixed chunks; the workload seed sets only
    the order in which a process runs the chunks.
    """

    name = "query"
    kind = "relate"
    item = "relate op"
    operation = (
        "load: io.read_mesh; relate: io.read_subcomplex x2 -> "
        "complexes.<relation> -> format relate output"
    )

    def items_per_op(self) -> int:
        return 1

    @property
    def mesh_path(self) -> Path:
        return self.workdir / "mesh.json"

    def operand_path(self, k) -> Path:
        return self.workdir / f"operand-{k}.json"

    def setup(self) -> None:
        self.write_inputs()
        self._warm_up()

    def write_inputs(self) -> None:
        sites, _ = harness.generate_sites(QUERY_BASE, self.cfg["sites"])
        mesh = pm.triangulate(sites)
        pio.write_mesh(self.mesh_path, mesh)
        ref = pio.mesh_id(mesh)
        docs = operand_docs(mesh, self.cfg["operands"], QUERY_BASE)
        for k, doc in enumerate(docs):
            pio.write_subcomplex(self.operand_path(k),
                                 cx.SubComplex.of(mesh, **doc), ref)

    def _warm_up(self) -> None:
        warm = self.workdir / "warm"
        warm.mkdir(exist_ok=True)
        sites, _ = harness.generate_sites(WARM_SEED, 8)
        pio.write_mesh(warm / "mesh.json", pm.triangulate(sites))
        mesh = pio.read_mesh(warm / "mesh.json")
        ref = pio.mesh_id(mesh)
        paths = []
        for k, doc in enumerate(operand_docs(mesh, 2, WARM_SEED)):
            paths.append(warm / f"operand-{k}.json")
            pio.write_subcomplex(paths[-1], cx.SubComplex.of(mesh, **doc), ref)
        for name, fn_name in RELATIONS:
            relate(mesh, paths[0], paths[1], name, fn_name)

    def inputs_digest(self) -> str:
        h = hashlib.sha256(self.mesh_path.read_bytes())
        for k in range(self.cfg["operands"]):
            h.update(self.operand_path(k).read_bytes())
        return h.hexdigest()

    @staticmethod
    def loaded(mesh) -> dict:
        cells = json.dumps(pio.mesh_payload(mesh, include_voronoi=True),
                           sort_keys=True).encode()
        return {"mesh_id": pio.mesh_id(mesh), "cells": sha256(cells)}

    def chunk_ops(self, chunk: int):
        """The relate calls of one chunk: (operand a, operand b, relation)."""
        size = self.cfg["chunk_ops"]
        rng = random.Random(QUERY_BASE * 1_000_003 + chunk)
        count = self.cfg["operands"]
        for j in range(size):
            op = chunk * size + j
            yield (rng.randrange(count), rng.randrange(count),
                   RELATIONS[op % len(RELATIONS)])

    def run(self, seed, probe):
        inputs_ok = self.inputs_digest() == self.ref["inputs"]
        samples, mesh = [], None
        for k in range(self.cfg["loads"]):
            loaded, seconds = timed(probe, "load", pio.read_mesh, self.mesh_path)
            failed = isinstance(loaded, Exception)
            if not failed:
                mesh = loaded
                failed = self.loaded(mesh) != self.ref["loaded"]
            samples.append(Sample("load", seconds, failed or not inputs_ok, k))
        if mesh is None:
            raise RuntimeError("query: no mesh was loaded")
        order = random.Random(seed).sample(range(self.cfg["chunks"]),
                                           self.cfg["chunks"])
        for c in order:
            samples.extend(self._chunk(mesh, c, probe, inputs_ok))
        return samples

    def _chunk(self, mesh, c: int, probe, inputs_ok: bool) -> list[Sample]:
        samples, outputs = [], []
        for a, b, (name, fn_name) in self.chunk_ops(c):
            out, seconds = timed(probe, self.kind, relate, mesh,
                                 self.operand_path(a),
                                 self.operand_path(b), name, fn_name)
            failed = isinstance(out, Exception)
            outputs.append(f"error {out!r}\n" if failed else out)
            samples.append(Sample(self.kind, seconds, failed, c))
        digest = sha256("".join(outputs).encode())[:16]
        if digest != self.ref["chunks"][c] or not inputs_ok:
            samples = [s._replace(failed=True) for s in samples]
        return samples

    def make_reference(self) -> dict:
        self.write_inputs()
        mesh = pio.read_mesh(self.mesh_path)
        chunks = []
        for c in range(self.cfg["chunks"]):
            outputs = [
                relate(mesh, self.operand_path(a), self.operand_path(b),
                       name, fn_name)
                for a, b, (name, fn_name) in self.chunk_ops(c)
            ]
            chunks.append(sha256("".join(outputs).encode())[:16])
        return {"inputs": self.inputs_digest(), "loaded": self.loaded(mesh),
                "chunks": chunks}


# ---------------------------------------------------------------------------
# suite


def format_text(results) -> str:
    """The report `proximesh check --format text` prints."""
    lines = []
    for r in results:
        lines.append(f"suite {r.suite} seed={r.seed} trials={r.trials}")
        for rec in r.records:
            line = f"check {rec.label} status={rec.status}"
            if rec.detail:
                line += f" detail={rec.detail}"
            lines.append(line)
        lines.append(
            f"summary suite={r.suite} pass={r.passed} fail={r.failed} "
            f"expected_divergence={r.divergences}"
        )
    return "\n".join(lines) + "\n"


def summary(results) -> dict:
    """Pass, fail and expected-divergence counts per suite."""
    return {r.suite: [r.passed, r.failed, r.divergences] for r in results}


def report_summary(text: str) -> dict:
    """The same counts, read back from the summary lines of a report."""
    counts = {}
    for line in text.splitlines():
        if line.startswith("summary "):
            fields = dict(f.split("=", 1) for f in line.split()[1:])
            counts[fields["suite"]] = [
                int(fields[k]) for k in ("pass", "fail", "expected_divergence")
            ]
    return counts


class SuiteWorkload(Workload):
    """`check --suite all --trials T` over a fixed campaign of pass seeds.

    The campaign is the same on every run and the workload seed sets its
    order. A pass's cost depends on the sizes of the trial meshes its
    seed draws, and a run holds too few passes for random seeds to
    average out.
    """

    name = "suite"
    kind = "check"
    item = "trial"
    operation = (
        "harness.run_suite('all', trials, seed_i) -> format as "
        "check --format text -> write report"
    )

    def items_per_op(self) -> int:
        return self.cfg["trials"]

    def pass_seeds(self) -> list[int]:
        return [SUITE_BASE + k for k in range(self.cfg["passes"])]

    def check(self, seed: int, path: Path, trials: int | None = None) -> None:
        results = harness.run_suite("all", trials or self.cfg["trials"], seed)
        path.write_text(format_text(results))

    def setup(self) -> None:
        self.check(WARM_SEED, self.workdir / "warm-report.txt", trials=1)

    def run(self, seed, probe):
        order = random.Random(seed).sample(self.pass_seeds(),
                                           self.cfg["passes"])
        return [self._op(s, probe) for s in order]

    def _op(self, s: int, probe) -> Sample:
        path = self.workdir / f"report-{s}.txt"
        result, seconds = timed(probe, self.kind, self.check, s, path)
        failed = isinstance(result, Exception)
        if not failed:
            expected = self.ref["passes"][str(s)]
            text = path.read_text()
            failed = (sha256(text.encode()) != expected["report"]
                      or report_summary(text) != expected["summary"]
                      or " status=fail" in text)
        return Sample(self.kind, seconds, failed, s)

    def make_reference(self) -> dict:
        passes = {}
        for s in self.pass_seeds():
            results = harness.run_suite("all", self.cfg["trials"], s)
            passes[str(s)] = {"report": sha256(format_text(results).encode()),
                              "summary": summary(results)}
        return {"passes": passes}


WORKLOADS = {
    cls.name: cls
    for cls in (UniformBuild, GridBuild, QueryWorkload, SuiteWorkload)
}
