"""Command line front end.

Commands: generate, triangulate, voronoi, relate, check, render.
Relation verdicts use the exit-code contract 0=true, 1=false, 2=error so
shell pipelines can branch on them; check exits 0 only when no suite
recorded a failure (expected divergences do not fail a run).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional, Sequence

from . import complexes as cx
from . import harness, io, render
from .mesh import DEFAULT_CLIP_MARGIN, triangulate
from .rational import ParseError, parse_rational

RELATIONS = {
    "near": cx.near,
    "snear": cx.strongly_near,
    "far": cx.far,
    "sfar": cx.strongly_far,
    "visible": cx.visible,
    "svisible": cx.strongly_visible,
    "invisible": cx.invisible,
    "sinvisible": cx.strongly_invisible,
}

SUITES = (*harness.SUITES, "all")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proximesh",
        description="Delaunay meshes, Voronoi duals, and the proximity/"
        "visibility relation algebra with runnable claim suites.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("generate", help="draw a deterministic site set")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--bbox", type=_parse_box, default="0,0,1,1",
                   help="sampling box as xmin,ymin,xmax,ymax")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    for name, include_voronoi in (("triangulate", False), ("voronoi", True)):
        p = sub.add_parser(
            name,
            help="build the mesh file"
            + (" with voronoi cells included" if include_voronoi else ""),
        )
        p.add_argument("--sites", required=True)
        p.add_argument("--clip-margin", type=_parse_flag,
                       default=DEFAULT_CLIP_MARGIN)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_build_mesh, include_voronoi=include_voronoi)

    p = sub.add_parser("relate", help="evaluate one relation on two "
                       "subcomplex files")
    p.add_argument("--mesh", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--relation", required=True, choices=sorted(RELATIONS))
    p.add_argument("--witness", help="explicit witness subcomplex for sfar")
    p.set_defaults(func=_cmd_relate)

    p = sub.add_parser("check", help="run a claim suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mesh", help="run against this mesh file instead of "
                   "generated meshes")
    p.add_argument("--constraints", help="constraint file for the segment "
                   "visibility suite")
    p.add_argument("--mode", choices=("pairwise", "chain"),
                   default="pairwise",
                   help="region membership rule for the regions suite")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("render", help="render a mesh (and overlays) to SVG")
    p.add_argument("--mesh", required=True)
    p.add_argument("--subcomplex", action="append", default=[])
    p.add_argument("--voronoi", action="store_true")
    p.add_argument("--no-labels", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)
    return parser


def _parse_flag(text: str) -> Fraction:
    """A rational flag value; argparse prints the reason it is not one."""
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_box(text: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "box must be xmin,ymin,xmax,ymax"
        )
    vals = tuple(_parse_flag(p) for p in parts)
    return vals  # type: ignore[return-value]


def _cmd_generate(args: argparse.Namespace) -> int:
    site_set, resamples = harness.generate_sites(
        args.seed, args.count, args.bbox
    )
    if resamples:
        print(f"resampled {resamples} degenerate draws", file=sys.stderr)
    box = ",".join(str(v) for v in args.bbox)
    io.write_sites(
        args.out,
        site_set.sites,
        header=[
            f"sites generated seed={args.seed} "
            f"count={args.count} bbox={box}",
            f"resamples={resamples}",
        ],
    )
    return 0


def _cmd_build_mesh(args: argparse.Namespace) -> int:
    from .mesh import MeshError, SiteSet

    # A bad flag is not the sites file's fault.
    if args.clip_margin <= 0:
        raise ValueError("clip margin must be positive")
    points = io.read_sites(args.sites)
    try:
        site_set = SiteSet(points, clip_margin=args.clip_margin)
    except MeshError as exc:
        raise MeshError(f"{args.sites}: {exc}") from exc
    mesh = triangulate(site_set)
    io.write_mesh(args.out, mesh, include_voronoi=args.include_voronoi)
    return 0


def _cmd_relate(args: argparse.Namespace) -> int:
    if args.witness and args.relation != "sfar":
        raise ValueError("--witness only applies to sfar")
    mesh = io.read_mesh(args.mesh)
    a = io.read_subcomplex(args.a, mesh)
    b = io.read_subcomplex(args.b, mesh)
    if args.relation == "sfar":
        witness = (
            io.read_subcomplex(args.witness, mesh) if args.witness else None
        )
        report = cx.strongly_far(a, b, witness)
    else:
        report = RELATIONS[args.relation](a, b)
    print(f"relation {args.relation} verdict={str(report.verdict).lower()}")
    if report.witness is not None:
        print("witness " + " ".join(str(x) for x in report.witness))
    if report.counterexample is not None:
        print(
            "counterexample "
            + " ".join(str(x) for x in report.counterexample)
        )
    if report.note:
        print(f"note {report.note}")
    return 0 if report.verdict else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from .regions import EDGE_CHAIN, PAIRWISE_STRONG

    region_mode = PAIRWISE_STRONG if args.mode == "pairwise" else EDGE_CHAIN
    # Flag combinations are checked before any file is read.
    if args.constraints:
        if args.suite not in ("thm37", "all"):
            raise ValueError("--constraints only applies to the thm37 suite")
        if not args.mesh:
            raise ValueError("--constraints requires --mesh")
    mesh = io.read_mesh(args.mesh) if args.mesh else None
    constraints = None
    if args.constraints:
        constraints = io.read_constraints(args.constraints)
        try:
            constraints.validate(mesh.site_set)
        except ValueError as exc:
            raise ValueError(f"{args.constraints}: {exc}") from exc
    results = harness.run_suite(
        args.suite, args.trials, args.seed, mesh,
        region_mode=region_mode, constraints=constraints,
    )
    # The report is written as it is formatted, so that it is never held
    # twice beside the records it comes from.
    chunks = (
        _format_structured(results)
        if args.format == "structured"
        else _format_text(results)
    )
    if args.out:
        with open(args.out, "w") as out:
            out.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
    return 0 if all(r.ok() for r in results) else 1


def _format_text(results) -> Iterator[str]:
    """The text report, one line at a time."""
    for r in results:
        yield f"suite {r.suite} seed={r.seed} trials={r.trials}\n"
        for rec in r.records:
            detail = f" detail={rec.detail}" if rec.detail else ""
            yield f"check {rec.label} status={rec.status}{detail}\n"
        yield (
            f"summary suite={r.suite} pass={r.passed} fail={r.failed} "
            f"expected_divergence={r.divergences}\n"
        )


def _format_structured(results) -> Iterator[str]:
    """The structured report as JSON text, one record at a time: the text
    of `json.dumps(docs, sort_keys=True, indent=1)` over one doc per
    result, in which "records" is the first key, with each piece encoded
    alone and indented to its depth. JSON text holds no raw newline
    inside a string, so every newline of a piece starts a line."""
    encode = json.JSONEncoder(sort_keys=True, indent=1).encode

    def at(depth: int, text: str) -> str:
        return text.replace("\n", "\n" + " " * depth)

    opening = "["
    for r in results:
        yield opening + '\n {\n  "records": ['
        opening = ","
        for k, rec in enumerate(r.records):
            yield ("," if k else "") + "\n   " + at(3, encode(
                {"label": rec.label, "status": rec.status,
                 "detail": rec.detail}))
        yield "\n  ]," if r.records else "],"
        yield at(1, encode({
            "seed": r.seed,
            "suite": r.suite,
            "trials": r.trials,
            "summary": {
                "pass": r.passed,
                "fail": r.failed,
                "expected_divergence": r.divergences,
            },
        })[1:])
    yield "[]\n" if opening == "[" else "\n]\n"


def _cmd_render(args: argparse.Namespace) -> int:
    mesh = io.read_mesh(args.mesh)
    subs = [io.read_subcomplex(path, mesh) for path in args.subcomplex]
    svg = render.render_svg(
        mesh,
        subcomplexes=subs,
        include_voronoi=args.voronoi,
        include_labels=not args.no_labels,
    )
    Path(args.out).write_text(svg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
