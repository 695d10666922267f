"""File formats: sites, meshes, subcomplexes, regions, constraints.

Sites and constraints are line-oriented text with # comments; meshes,
subcomplexes and regions are JSON documents with exact coordinates
rendered as canonical fraction strings. Every writer is deterministic,
and meshes carry a content id that subcomplex and region files must
match.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Sequence, Union

from .geometry import Point2
from .mesh import Mesh, Rect, SiteSet, make_triangle
from .rational import ParseError, format_rational, parse_rational
from .visibility import ConstraintSet

MESH_FORMAT = "proximesh-mesh/1"
SUBCOMPLEX_FORMAT = "proximesh-subcomplex/1"
REGION_FORMAT = "proximesh-region/1"

PathLike = Union[str, Path]


class FileFormatError(ValueError):
    """A document is structurally not what its format promises."""


def read_sites(path: PathLike) -> list[Point2]:
    """Read "x,y" coordinate lines; # starts a comment."""
    points = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'x,y', got {raw!r}")
        try:
            points.append(Point2(parse_rational(parts[0]),
                                 parse_rational(parts[1])))
        except ParseError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return points


def write_sites(
    path: PathLike, points: Sequence[Point2], header: Sequence[str] = ()
) -> None:
    lines = [f"# {h}" for h in header]
    lines += [
        f"{format_rational(p.x)},{format_rational(p.y)}" for p in points
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_constraints(path: PathLike) -> ConstraintSet:
    """Read "p,q" site-index pairs; # starts a comment."""
    pairs = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            p, q = (int(x) for x in parts)
        except ValueError as exc:
            raise ParseError(
                f"{path}:{lineno}: expected 'p,q' indices, got {raw!r}"
            ) from exc
        pairs.append((p, q))
    return ConstraintSet.of(pairs)


def write_constraints(path: PathLike, constraints: ConstraintSet) -> None:
    lines = [f"{p},{q}" for p, q in sorted(constraints.pairs)]
    Path(path).write_text("\n".join(lines) + "\n")


def mesh_payload(mesh: Mesh, include_voronoi: bool = False) -> dict:
    payload = {
        "format": MESH_FORMAT,
        "sites": [
            [format_rational(p.x), format_rational(p.y)] for p in mesh.sites
        ],
        "triangles": [list(t.indices) for t in mesh.triangles],
        "clip_margin": format_rational(mesh.site_set.clip_margin),
        "clip_box": [
            format_rational(v)
            for v in (
                mesh.clip_box.xmin,
                mesh.clip_box.ymin,
                mesh.clip_box.xmax,
                mesh.clip_box.ymax,
            )
        ],
    }
    payload["mesh_id"] = _payload_id(payload)
    if include_voronoi:
        payload["voronoi"] = [
            {
                "site": region.site,
                "clipped": region.clipped,
                "cell": [
                    [format_rational(v.x), format_rational(v.y)]
                    for v in region.cell.vertices
                ],
            }
            for region in mesh.voronoi
        ]
    return payload


# Kept for the last mesh, which every operand read asks about. A Mesh is
# immutable and compares by identity; its lazy cells are not in the id.
@functools.lru_cache(maxsize=1)
def mesh_id(mesh: Mesh) -> str:
    return mesh_payload(mesh)["mesh_id"]


def write_mesh(path: PathLike, mesh: Mesh, include_voronoi: bool = False) -> None:
    _dump(path, mesh_payload(mesh, include_voronoi))


def read_mesh(path: PathLike) -> Mesh:
    doc = _load(path, MESH_FORMAT)
    try:
        sites = [
            Point2(parse_rational(x), parse_rational(y))
            for x, y in doc["sites"]
        ]
        margin = parse_rational(doc["clip_margin"])
        box = Rect(*(parse_rational(v) for v in doc["clip_box"]))
        n = len(sites)
        tri_rows = [_index(row, n, arity=3) for row in doc["triangles"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed mesh document: {exc}") from exc
    site_set = SiteSet(sites, clip_margin=margin)
    # Cells are built from the box only on first access, so check it now.
    for i, p in enumerate(sites):
        if not box.contains(p):
            raise FileFormatError(f"{path}: clip_box does not contain site {i}")
    triangles = [make_triangle(i, j, k, site_set) for i, j, k in tri_rows]
    return Mesh(site_set, triangles, clip_box=box)


def _index(value, n: int, of: str = "site", arity: int = 0):
    """One `of` index in [0, n), or with `arity` a list of that many.

    Only plain ints are indices: JSON `true` and `1.7` would otherwise
    read as 1.
    """
    row = value if arity else [value]
    if not (
        isinstance(row, list)
        and len(row) == max(arity, 1)
        and all(type(v) is int and 0 <= v < n for v in row)
    ):
        count = f"{arity} {of} indices" if arity else f"a {of} index"
        raise FileFormatError(f"{value!r} is not {count} in [0, {n})")
    return tuple(row) if arity else value


def write_subcomplex(path: PathLike, sub, mesh_ref: str) -> None:
    payload = {
        "format": SUBCOMPLEX_FORMAT,
        "mesh": mesh_ref,
        "vertices": sorted(sub.vertices),
        "edges": [list(e) for e in sorted(sub.edges)],
        "triangles": sorted(sub.triangles),
    }
    _dump(path, payload)


def read_subcomplex(path: PathLike, mesh: Mesh):
    from .complexes import SubComplex

    doc = _load(path, SUBCOMPLEX_FORMAT)
    ref = doc.get("mesh", "")
    actual = mesh_id(mesh)
    if ref != actual:
        raise FileFormatError(
            f"{path}: subcomplex references mesh {ref!r}, "
            f"but loaded mesh is {actual!r}"
        )
    n, t = len(mesh.sites), len(mesh.triangles)
    try:
        return SubComplex.of(
            mesh,
            vertices=[_index(v, n) for v in doc["vertices"]],
            edges=[_index(e, n, arity=2) for e in doc["edges"]],
            triangles=[_index(i, t, "triangle") for i in doc["triangles"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed subcomplex: {exc}") from exc


def write_region(path: PathLike, region, mesh_ref: str) -> None:
    payload = {
        "format": REGION_FORMAT,
        "mesh": mesh_ref,
        "mode": region.mode,
        "triangles": sorted(region.triangles),
    }
    _dump(path, payload)


def read_region(path: PathLike, mesh: Mesh):
    from .regions import build_region

    doc = _load(path, REGION_FORMAT)
    ref = doc.get("mesh", "")
    actual = mesh_id(mesh)
    if ref != actual:
        raise FileFormatError(
            f"{path}: region references mesh {ref!r}, loaded {actual!r}"
        )
    t = len(mesh.triangles)
    try:
        return build_region(
            mesh,
            [_index(i, t, "triangle") for i in doc["triangles"]],
            mode=doc["mode"],
        )
    except (KeyError, TypeError, FileFormatError) as exc:
        raise FileFormatError(f"{path}: malformed region: {exc}") from exc


def _payload_id(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _dump(path: PathLike, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n"
    )


def _load(path: PathLike, expected_format: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != expected_format:
        raise FileFormatError(
            f"{path}: expected a {expected_format} document"
        )
    return doc
