"""Run one benchmark workload against the proximesh sources of this checkout.

    python3 perfbench/run.py --workload build-uniform --seed 1 --seconds 10 --trace 0

Workloads: build-uniform, build-grid, query, suite (see README.md).
Every process this script starts sets up, then times each input of the
workload once, in the order the seed sets. With --trace 0 the run starts
such processes one after another for --seconds (at least two) and prints
the end-to-end metrics of BENCHMARK.json. Each process first times the
calibration kernel in calib/, and the throughput and set-up time it
reports are rescaled to the kernel's reference time, so that changes in
the host's speed cancel out. With --trace 1 it runs one
process untraced and one with every library layer wrapped, and prints
the per-layer metrics of BENCHMARK.json, including the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics. Every operation's output is checked against
reference.json.

The full figures, with run metadata, are written to
.perfbench/results/, and the traced run's spans to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from layertrace import NullProbe, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
RUN_LIMIT_S = 170
MIN_PROCESSES = 2

# Per-layer figures printed by a traced run, each with the end-to-end
# metric it should move.
LAYER_REPORT = [
    "rational.parse_rational.calls", "rational.scaled_ints.calls",
    "geometry.orient2d.calls", "geometry.incircle.calls",
    "geometry.circumcenter.calls", "geometry.convex_hull.calls",
    "geometry.incircle.zero_share",
    "geometry.clip_halfplane.calls", "geometry.clip_halfplane.s",
    "mesh.triangulate.s", "mesh.triangulate.self_s",
    "mesh.triangulate.retries", "mesh.triangulate.incircle_hit_ratio",
    "mesh.Mesh.s", "mesh.is_delaunay_triangle.calls",
    "mesh.is_delaunay_triangle.s", "mesh.voronoi.s",
    "mesh.is_delaunay_edge.calls", "mesh.Mesh.is_hull_site.calls",
    "io.read_sites.s", "io.write_mesh.s", "io.read_mesh.s",
    "io.read_mesh.self_s", "io.read_subcomplex.s", "io.mesh_id.calls",
    "render.render_svg.s",
    "complexes.closure.calls", "complexes.closure.s",
    *(f"complexes.{r}.{m}" for r in (
        "near", "strongly_near", "far", "strongly_far", "visible",
        "strongly_visible", "invisible", "strongly_invisible")
      for m in ("calls", "s")),
    "complexes.interior.s",
    "complexes.SubComplex.describe.calls", "complexes.SubComplex.describe.s",
    "visibility.segment_visible.calls", "visibility.segment_visible.s",
    "regions.region_union_polygon.calls",
    "regions.region_union_polygon.ok_ratio",
    "regions.audit_delaunay_characterizations.s", "regions.leader_topology.s",
    *(f"harness.{r}.s" for r in (
        "suite_axioms", "suite_near_visible_agreement",
        "suite_strong_visibility", "suite_strongly_far",
        "suite_delaunay_characterizations", "suite_segment_visibility",
        "suite_regions", "suite_leader", "suite_relation_coverage")),
    "harness.mesh_for_trial.calls", "harness.mesh_for_trial.distinct_ratio",
    "harness.sample_strongly_far_config.hit_ratio",
    *(f"layer.{layer}.{m}" for layer in (
        "rational", "geometry", "mesh", "io", "render", "complexes",
        "visibility", "regions", "harness")
      for m in ("busy_s", "self_s")),
    "layer.bench.self_s", "trace.op_s", "trace.overhead_s",
    "trace.overhead_ratio",
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is the smoke mode")
    # A child process run by this script: set up, time every input once
    # and print the samples as JSON.
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    src = ROOT / "src"
    if not (src / "proximesh" / "__init__.py").is_file():
        print(f"error: no proximesh sources under {src}", file=sys.stderr)
        return 2
    # Calibrate before the library under test is imported, so that
    # nothing it does at import time can reach the kernel.
    calibration = calib.calibrate() if args.child else None
    sys.path.insert(0, str(src))
    import proximesh

    if Path(proximesh.__file__).resolve().parent != (src / "proximesh").resolve():
        print(f"error: imported proximesh from {proximesh.__file__}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())
    if reference["sizes"][args.size] != workloads.SIZES[args.size]:
        print("error: reference.json was made for other input sizes; "
              "run perfbench/make_reference.py", file=sys.stderr)
        return 2
    ref = reference["workloads"][args.size][args.workload]

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.size, workdir, ref)
        if args.child:
            return child_main(args, wl, calibration)
        if args.trace:
            return traced_run(args, wl, started)
        return measured_run(args, wl, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measured_run(args, wl, started: float) -> int:
    # Every process times the same inputs from a fresh start, so that no
    # memo carries over and each input gets one timing per process.
    runs = []
    t0 = time.monotonic()
    while True:
        runs.append(run_child(args, False, started))
        elapsed = time.monotonic() - t0
        if (len(runs) >= MIN_PROCESSES
                and elapsed * (len(runs) + 1) / len(runs) > args.seconds):
            break
    per_run = [child_samples(run) for run in runs]
    figures = end_to_end(wl, per_run, runs)
    return finish(args, wl, [s for run in per_run for s in run], figures, {})


def traced_run(args, wl, started: float) -> int:
    """One untraced and one traced process on the same inputs."""
    plain = run_child(args, False, started)
    child = run_child(args, True, started)
    samples = child_samples(plain)
    figures = end_to_end(wl, [samples], [plain])
    traced = {name: tuple(v) for name, v in child["metrics"].items()}
    untraced_s, traced_s = op_seconds(samples), op_seconds(child_samples(child))
    keys = untraced_s.keys() & traced_s.keys()
    base = sum(untraced_s[k] for k in keys)
    overhead = sum(traced_s[k] for k in keys) - base
    traced["trace.overhead_s"] = (overhead, "s")
    traced["trace.overhead_ratio"] = (overhead / base if base else 0.0, "ratio")
    return finish(args, wl, samples + child_samples(child), figures, traced)


def finish(args, wl, samples, figures: dict, traced: dict) -> int:
    """Print the figures and the result line; fail on an untraced name."""
    attempted, failed = len(samples), sum(s.failed for s in samples)
    figures["error_rate"] = (failed / attempted if attempted else 1.0, "ratio")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    pool = traced if args.trace else figures
    missing = [m["name"] for m in wanted if m["name"] not in pool]
    if missing:
        print(f"error: not measured by this version: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": pool[m["name"]][0],
                           "unit": pool[m["name"]][1]} for m in wanted}
    report(run_metadata(args, wl, samples), figures, traced)
    print(json.dumps({"correct": attempted > 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def child_samples(run: dict) -> list:
    from workloads import Sample
    return [Sample(*s) for s in run["samples"]]


def op_seconds(samples) -> dict:
    """Timed seconds per input, as (kind, key) -> seconds."""
    out: dict = {}
    for s in samples:
        out[s.kind, s.key] = out.get((s.kind, s.key), 0.0) + s.seconds
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(wl, per_run, runs) -> dict:
    """Every end-to-end figure of the run, as name -> (value, unit), from
    the samples of each of its processes and what each process reported.

    `items_per_s` and `setup_s` are rescaled to the host speed at which
    the calibration kernel takes calib.REFERENCE_S: each process's figure
    is scaled by its own kernel time, then the median is taken over the
    processes. The `_raw` figures are as measured.
    """
    speed = [calib.REFERENCE_S / run["calibration_s"] for run in runs]
    setup = [run["setup_s"] for run in runs]
    out = {
        "setup_s": (statistics.median(
            t * f for t, f in zip(setup, speed)), "s"),
        "setup_s_raw": (statistics.median(setup), "s"),
        "calibration_s": (statistics.median(
            run["calibration_s"] for run in runs), "s"),
        "peak_rss_mb": (max(run["rss_mb"] for run in runs), "MB"),
        "processes": (len(per_run), "count"),
    }
    by_kind: dict[str, list[float]] = {}
    for s in (s for run in per_run for s in run):
        by_kind.setdefault(s.kind, []).append(s.seconds)
    main = by_kind.get(wl.kind, [])
    if not main:
        return out
    rates = [wl.items_per_op() * sum(s.kind == wl.kind for s in run)
             / sum(s.seconds for s in run if s.kind == wl.kind)
             for run in per_run]
    out["items_per_s"] = (statistics.median(
        r / f for r, f in zip(rates, speed)), "1/s")
    out["items_per_s_raw"] = (statistics.median(rates), "1/s")
    rate = wl.items_per_op() * len(main) / sum(main)
    out["op_s_p50"] = (statistics.median(main), "s")
    if wl.kind == "build":
        out.update(timing("build_s", main, "s", 1))
        out["sites_per_s"] = (rate, "1/s")
    elif wl.kind == "check":
        out.update(timing("check_s", main, "s", 1))
        out["trials_per_s"] = (rate, "1/s")
    else:
        out.update(timing("load_s", by_kind.get("load", []), "s", 1))
        out.update(timing("relate_us", main, "us", 1e6))
        out["relate_us_p99"] = (percentile(main, 99) * 1e6, "us")
        out["relate_per_s"] = (rate, "1/s")
    return out


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def timing(base: str, values, unit: str, scale: float) -> dict:
    """Median, sample count, and the highest percentile that has at least
    ten samples beyond it."""
    if not values:
        return {}
    out = {f"{base}_p50": (statistics.median(values) * scale, unit),
           f"{base}_n": (len(values), "count")}
    for p in (99.9, 99, 90):
        if len(values) * (1 - p / 100) >= 10:
            out[f"{base}_p{p:g}"] = (percentile(values, p) * scale, unit)
            break
    return out


def run_child(args, trace: bool, started: float) -> dict:
    """Run the workload in a fresh process and return what it measured."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(int(trace)), "--child"]
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(budget, 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child run exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def child_main(args, wl, calibration: float) -> int:
    """Set up, then time every input once (traced, if asked)."""
    t0 = time.perf_counter()
    wl.setup()
    setup = time.perf_counter() - t0
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        samples = wl.run(args.seed, tracer or NullProbe())
    finally:
        if tracer:
            tracer.uninstall()
    figures = {}
    if tracer:
        tracer.write_spans(
            OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        figures = tracer.metrics()
    print(json.dumps({"calibration_s": calibration, "setup_s": setup,
                      "rss_mb": peak_rss_mb(),
                      "samples": samples, "metrics": figures}))
    return 0


def run_metadata(args, wl, samples) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "inputs": wl.cfg,
        "operation": wl.operation,
        "item": wl.item,
        "samples": {k: sum(s.kind == k for s in samples)
                    for k in sorted({s.kind for s in samples})},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def report(meta: dict, figures: dict, traced: dict) -> None:
    """Print the figures and write them, with the metadata, to a file."""
    print(f"perfbench {meta['workload']} seed={meta['seed']} "
          f"trace={meta['trace']} size={meta['size']} "
          f"python={meta['python']} nproc={meta['nproc']}")
    print(f"operation: {meta['operation']}")
    print(f"inputs: {json.dumps(meta['inputs'])} samples: "
          f"{json.dumps(meta['samples'])}")
    for name, (value, unit) in figures.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for name in LAYER_REPORT if traced else ():
        if name in traced:
            value, unit = traced[name]
            print(f"  {name:<44} {value:>14.6g} {unit}")
        else:
            print(f"  {name:<44} {'not traced':>14}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{meta['workload']}-seed{meta['seed']}-"
                      f"trace{meta['trace']}.json")
    path.write_text(json.dumps(
        {"meta": meta, "end_to_end": figures, "per_layer": traced},
        indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
