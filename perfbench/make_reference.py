"""Regenerate perfbench/reference.json from the proximesh sources of this
checkout.

    python3 perfbench/make_reference.py

Run it on the commit whose outputs are the reference, and only when the
benchmark's inputs change: the reference pins the bytes every later
commit must reproduce. Before writing, it checks that the benchmark's
operations produce the same bytes as the `voronoi`, `render`, `relate`
and `check` commands on the tiny inputs. It rewrites the whole file,
every workload at every size, from the sources of this checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from proximesh import cli  # noqa: E402

import workloads  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def cli_output(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def check_cli_parity(workdir: Path) -> None:
    """The benchmark's operations write what the CLI commands write."""
    build = WORKLOADS["build-uniform"]("tiny", workdir / "build", None)
    build.setup()
    sites, mesh, svg = build.paths(0)
    build.build(sites, mesh, svg)
    cli.main(["voronoi", "--sites", str(sites), "--out", str(workdir / "m.json")])
    cli.main(["render", "--mesh", str(mesh), "--voronoi",
              "--out", str(workdir / "m.svg")])
    assert (workdir / "m.json").read_bytes() == mesh.read_bytes()
    assert (workdir / "m.svg").read_bytes() == svg.read_bytes()

    query = WORKLOADS["query"]("tiny", workdir / "query", None)
    query.write_inputs()
    loaded = workloads.pio.read_mesh(query.mesh_path)
    a, b = query.operand_path(0), query.operand_path(1)
    for name, fn_name in workloads.RELATIONS:
        expected = cli_output(["relate", "--mesh", str(query.mesh_path),
                               "--a", str(a), "--b", str(b),
                               "--relation", name])
        assert workloads.relate(loaded, a, b, name, fn_name) == expected, name

    suite = WORKLOADS["suite"]("tiny", workdir / "suite", None)
    seed = suite.pass_seeds()[0]
    report = workdir / "report.txt"
    suite.check(seed, report)
    expected = cli_output(["check", "--suite", "all", "--seed", str(seed),
                           "--trials", str(suite.cfg["trials"])])
    assert report.read_text() == expected


def main() -> int:
    workdir = ROOT / ".perfbench" / f"make-reference-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        check_cli_parity(workdir / "parity")
        doc = {"source": source_revision(), "sizes": SIZES, "workloads": {}}
        for size in SIZES:
            for name, cls in WORKLOADS.items():
                wl = cls(size, workdir / size / name, None)
                doc["workloads"].setdefault(size, {})[name] = wl.make_reference()
                print(f"{size} {name}: done", file=sys.stderr)
        path = BENCH / "reference.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def source_revision() -> str:
    """The git revision of the library sources, when run in a clone."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev.stdout.strip()


if __name__ == "__main__":
    sys.exit(main())
