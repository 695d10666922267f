"""Deterministic SVG rendering of meshes, cells, and subcomplexes.

World coordinates are mapped into a fixed 1000-unit viewport; rounding
to three decimals happens only here, at emission. Each coordinate is
read as an integer pair (n, d), d > 0: a site's from its lattice row
and scale, a cell corner's (X, Y, W) as (X, W) and (Y, W). Each distinct
pair is mapped once, by one integer true division, which CPython rounds
correctly, as `float(Fraction)` does, so a pair not in lowest terms
gives the same text. Identical inputs produce byte-identical documents.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .mesh import Mesh

VIEWPORT = 1000
PAD = 20

HIGHLIGHTS = [
    ("#d62728", "rgba(214,39,40,0.25)"),
    ("#1f77b4", "rgba(31,119,180,0.25)"),
    ("#2ca02c", "rgba(44,160,44,0.25)"),
    ("#9467bd", "rgba(148,103,189,0.25)"),
    ("#ff7f0e", "rgba(255,127,14,0.25)"),
    ("#8c564b", "rgba(140,86,75,0.25)"),
]


def render_svg(
    mesh: Mesh,
    subcomplexes: Sequence = (),
    include_voronoi: bool = False,
    include_labels: bool = True,
) -> str:
    box = mesh.clip_box
    spanx = box.xmax - box.xmin
    spany = box.ymax - box.ymin
    span = max(spanx, spany)
    scale = Fraction(VIEWPORT - 2 * PAD) / span
    sx = _axis(box.xmin, scale, lambda f: f + PAD)
    # SVG y axis points down.
    sy = _axis(box.ymin, scale, lambda f: VIEWPORT - PAD - f)
    site_set = mesh.site_set
    at = [(sx(x, w), sy(y, w))
          for (x, y), w in zip(site_set.lattice, site_set.scales)]

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEWPORT}" '
        f'height="{VIEWPORT}" viewBox="0 0 {VIEWPORT} {VIEWPORT}">',
        f'<rect width="{VIEWPORT}" height="{VIEWPORT}" fill="white"/>',
    ]
    if include_voronoi:
        out.append('<g stroke="#999999" stroke-dasharray="4 3" fill="none">')
        for region in mesh.voronoi:
            pts = " ".join(
                f"{sx(x, w)},{sy(y, w)}" for x, y, w in region.cell.corners
            )
            out.append(f'<polygon points="{pts}"/>')
        out.append("</g>")
    out.append('<g stroke="#222222" stroke-width="1.5">')
    for (i, j) in mesh.edges:
        (x1, y1), (x2, y2) = at[i], at[j]
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    out.append("</g>")
    for layer, sub in enumerate(subcomplexes):
        stroke, fill = HIGHLIGHTS[layer % len(HIGHLIGHTS)]
        out.append(f'<g stroke="{stroke}" stroke-width="3" fill="{fill}">')
        for t_idx in sorted(sub.triangles):
            pts = " ".join(",".join(at[v])
                           for v in mesh.triangles[t_idx].indices)
            out.append(f'<polygon points="{pts}"/>')
        for (i, j) in sorted(sub.edges):
            (x1, y1), (x2, y2) = at[i], at[j]
            out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
        for v in sorted(sub.vertices):
            x, y = at[v]
            out.append(
                f'<circle cx="{x}" cy="{y}" r="6" '
                f'fill="{stroke}" stroke="none"/>'
            )
        out.append("</g>")
    out.append('<g fill="#000000">')
    for i, (x, y) in enumerate(at):
        out.append(f'<circle cx="{x}" cy="{y}" r="3.5"/>')
        if include_labels:
            out.append(
                f'<text x="{x}" y="{y}" dx="6" dy="-6" '
                f'font-size="14" font-family="monospace">{i}</text>'
            )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _axis(
    low: Fraction, scale: Fraction, place: Callable[[float], float]
) -> Callable[[int, int], str]:
    """The text of each coordinate v = n/d, d > 0, at
    `place(float((v - low) * scale))`, computed once per distinct (n, d)."""
    a, b = low.numerator, low.denominator
    c, e = scale.numerator, scale.denominator
    memo: dict[tuple[int, int], str] = {}

    def text(n: int, d: int) -> str:
        key = (n, d)
        out = memo.get(key)
        if out is None:
            out = memo[key] = f"{place((n * b - a * d) * c / (d * b * e)):.3f}"
        return out

    return text
