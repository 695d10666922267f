"""File formats: sites, constraints, meshes, subcomplexes.

Sites and constraints are line-oriented text with # comments
(constraints are only read); meshes and subcomplexes are JSON documents
with exact coordinates rendered as canonical fraction strings. Every
writer is deterministic, and meshes carry a content id that subcomplex
files must match.

A mesh document is written by its own layout, byte-identical to
`json.dumps(mesh_payload(...), sort_keys=True, indent=1)` and a newline:
with any indent, `json.dumps` leaves its C encoder for a generator that
visits every value in Python, and a mesh with cells has hundreds of
small rows. Subcomplex documents are few and small, and go through
`json.dumps`. Every coordinate is written from its integers by one
formatter, `_coord`: a cell corner (X, Y, W) as X/W and Y/W, keyed by
the corner, with no `Point2` made.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence, Union

from .geometry import Corner, Point2
from .mesh import Mesh, MeshError, Rect, SiteSet, make_triangle
from .rational import MAX_DIGITS, ParseError, format_rational, parse_rational
from .visibility import ConstraintSet

MESH_FORMAT = "proximesh-mesh/1"
SUBCOMPLEX_FORMAT = "proximesh-subcomplex/1"

PathLike = Union[str, Path]


class FileFormatError(ValueError):
    """A document is structurally not what its format promises."""


def read_sites(path: PathLike) -> list[Point2]:
    """Read "x,y" coordinate lines; # starts a comment."""
    points = []
    for lineno, raw, parts in _fields(path):
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
    for lineno, raw, parts in _fields(path):
        try:
            p, q = (int(x) for x in parts)
        except ValueError as exc:
            raise ParseError(
                f"{path}:{lineno}: expected 'p,q' indices, got {raw!r}"
            ) from exc
        pairs.append((p, q))
    return ConstraintSet.of(pairs)


def _fields(path: PathLike) -> Iterator[tuple[int, str, list[str]]]:
    """Number, text and stripped comma-separated fields of each line that
    is not blank once its # comment is cut."""
    for lineno, raw in enumerate(_read_text(path, ParseError).splitlines(),
                                 start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, raw, [p.strip() for p in line.split(",")]


def mesh_payload(mesh: Mesh, include_voronoi: bool = False) -> dict:
    payload = {
        "format": MESH_FORMAT,
        "sites": [[_text(p.x), _text(p.y)] for p in mesh.sites],
        "triangles": [list(t.indices) for t in mesh.triangles],
        "clip_margin": _text(mesh.site_set.clip_margin),
        "clip_box": [
            _text(v)
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
        # Cells that share a corner share its row. A circumcenter strictly
        # inside the box is a corner of its cells: its row is made before
        # the cells are built, so a coordinate past the digit limit fails
        # first. Corners are in lowest terms, one triple for each point.
        rows: dict[Corner, list[str]] = {}

        def row(corner: Corner) -> list[str]:
            r = rows.get(corner)
            if r is None:
                x, y, w = corner
                r = rows[corner] = [_coord(x, w), _coord(y, w)]
            return r

        for corner, inside in zip(mesh._corners, mesh.centers_inside):
            if inside:
                row(corner)
        payload["voronoi"] = [
            {
                "site": region.site,
                "clipped": region.clipped,
                "cell": [row(c) for c in region.cell.corners],
            }
            for region in mesh.voronoi
        ]
    return payload


def _text(value: Fraction) -> str:
    """`_coord` of a Fraction."""
    return _coord(value.numerator, value.denominator)


def _coord(n: int, d: int) -> str:
    """The number n/d, d > 0, as `str(Fraction(n, d))` writes it."""
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError as exc:  # CPython's int-to-text digit limit
        raise FileFormatError(
            f"a mesh coordinate needs more than {MAX_DIGITS} digits"
        ) from exc


# Kept for the last mesh, which every operand read asks about. A Mesh is
# immutable and compares by identity; its lazy cells are not in the id.
@functools.lru_cache(maxsize=1)
def mesh_id(mesh: Mesh) -> str:
    return mesh_payload(mesh)["mesh_id"]


def write_mesh(path: PathLike, mesh: Mesh, include_voronoi: bool = False) -> None:
    try:
        payload = mesh_payload(mesh, include_voronoi)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    Path(path).write_text(_mesh_text(payload))


# `_SEP[d]` ends one entry of a list or object and starts the next at
# indent depth d; without its comma it opens the first.
_SEP = tuple(",\n" + " " * d for d in range(5))
_str = json.encoder.encode_basestring_ascii


def _mesh_text(payload: dict) -> str:
    """`json.dumps(payload, sort_keys=True, indent=1) + "\n"` of a mesh
    payload, written by its known layout (see the module docstring):
    each row is one template, and a cell corner shared by several cells
    is encoded once.
    """
    s = _str
    sites = [f"[\n   {s(x)},\n   {s(y)}\n  ]" for x, y in payload["sites"]]
    triangles = [f"[\n   {i},\n   {j},\n   {k}\n  ]"
                 for i, j, k in payload["triangles"]]
    parts = [
        '{\n "clip_box": ', _list(map(s, payload["clip_box"]), 1),
        ',\n "clip_margin": ', s(payload["clip_margin"]),
        ',\n "format": ', s(payload["format"]),
        ',\n "mesh_id": ', s(payload["mesh_id"]),
        ',\n "sites": ', _list(sites, 1),
        ',\n "triangles": ', _list(triangles, 1),
    ]
    if "voronoi" in payload:
        corners: dict[tuple[str, str], str] = {}
        cells = []
        for region in payload["voronoi"]:
            rows = []
            for x, y in region["cell"]:
                text = corners.get((x, y))
                if text is None:
                    text = corners[x, y] = (
                        f"[\n     {s(x)},\n     {s(y)}\n    ]")
                rows.append(text)
            clipped = "true" if region["clipped"] else "false"
            cells.append(
                '{\n   "cell": ' + _list(rows, 3)
                + f',\n   "clipped": {clipped},\n   "site": '
                + str(region["site"]) + "\n  }"
            )
        parts += [',\n "voronoi": ', _list(cells, 1)]
    parts.append("\n}\n")
    return "".join(parts)


def _list(entries, depth: int) -> str:
    """A JSON list of encoded entries, its brackets at indent `depth`."""
    body = _SEP[depth + 1].join(entries)
    if not body:
        return "[]"
    return "[" + _SEP[depth + 1][1:] + body + _SEP[depth][1:] + "]"


def read_mesh(path: PathLike) -> Mesh:
    doc = _load(path, MESH_FORMAT)
    try:
        sites = [
            Point2(*map(parse_rational, _row(row, 2)))
            for row in _array(doc, "sites")
        ]
        margin = parse_rational(doc["clip_margin"])
        box = Rect(*map(parse_rational, _row(doc["clip_box"], 4)))
        n = len(sites)
        tri_rows = [
            _index(row, n, arity=3) for row in _array(doc, "triangles")
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed mesh document: {exc}") from exc
    try:
        site_set = SiteSet(sites, clip_margin=margin)
        triangles = [make_triangle(i, j, k, site_set) for i, j, k in tri_rows]
        return Mesh(site_set, triangles, clip_box=box)
    except MeshError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _array(doc: dict, field: str) -> list:
    """The document's `field` if it is a JSON list, else an error: a
    string or an object would iterate as its characters or keys."""
    value = doc[field]
    if not isinstance(value, list):
        raise FileFormatError(f"field {field!r} is not a list")
    return value


def _row(value, size: int) -> list:
    """`value` if it is a JSON list of `size` entries, else an error."""
    if not (isinstance(value, list) and len(value) == size):
        raise FileFormatError(f"{value!r} is not a list of {size} coordinates")
    return value


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
            vertices=[_index(v, n) for v in _array(doc, "vertices")],
            edges=[_index(e, n, arity=2) for e in _array(doc, "edges")],
            triangles=[
                _index(i, t, "triangle") for i in _array(doc, "triangles")
            ],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed subcomplex: {exc}") from exc


def _payload_id(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _dump(path: PathLike, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n"
    )


def _read_text(path: PathLike, error: type[ValueError]) -> str:
    """The file's text, or `error` naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text") from exc


def _load(path: PathLike, expected_format: str) -> dict:
    # Read outside the try: its ValueError is the digit limit alone.
    text = _read_text(path, FileFormatError)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # CPython's int/text digit limit
        raise FileFormatError(
            f"{path}: a number has more than {MAX_DIGITS} digits"
        ) from exc
    if not isinstance(doc, dict) or doc.get("format") != expected_format:
        raise FileFormatError(
            f"{path}: expected a {expected_format} document"
        )
    return doc
