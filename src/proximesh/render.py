"""Deterministic SVG rendering of meshes, cells, and subcomplexes.

World coordinates are mapped into a fixed 1000-unit viewport; rounding
to three decimals happens only here, at emission. Each distinct
coordinate is mapped once, by one integer true division, which CPython
rounds correctly, as `float(Fraction)` does. Identical inputs produce
byte-identical documents.
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

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEWPORT}" '
        f'height="{VIEWPORT}" viewBox="0 0 {VIEWPORT} {VIEWPORT}">',
        f'<rect width="{VIEWPORT}" height="{VIEWPORT}" fill="white"/>',
    ]
    if include_voronoi:
        out.append('<g stroke="#999999" stroke-dasharray="4 3" fill="none">')
        for region in mesh.voronoi:
            pts = " ".join(
                f"{sx(v.x)},{sy(v.y)}" for v in region.cell.vertices
            )
            out.append(f'<polygon points="{pts}"/>')
        out.append("</g>")
    out.append('<g stroke="#222222" stroke-width="1.5">')
    for (i, j) in mesh.edges:
        a, b = mesh.site_set[i], mesh.site_set[j]
        out.append(
            f'<line x1="{sx(a.x)}" y1="{sy(a.y)}" '
            f'x2="{sx(b.x)}" y2="{sy(b.y)}"/>'
        )
    out.append("</g>")
    for layer, sub in enumerate(subcomplexes):
        stroke, fill = HIGHLIGHTS[layer % len(HIGHLIGHTS)]
        out.append(f'<g stroke="{stroke}" stroke-width="3" fill="{fill}">')
        for t_idx in sorted(sub.triangles):
            pts = " ".join(
                f"{sx(p.x)},{sy(p.y)}"
                for p in mesh.triangle_points(mesh.triangles[t_idx])
            )
            out.append(f'<polygon points="{pts}"/>')
        for (i, j) in sorted(sub.edges):
            a, b = mesh.site_set[i], mesh.site_set[j]
            out.append(
                f'<line x1="{sx(a.x)}" y1="{sy(a.y)}" '
                f'x2="{sx(b.x)}" y2="{sy(b.y)}"/>'
            )
        for v in sorted(sub.vertices):
            p = mesh.site_set[v]
            out.append(
                f'<circle cx="{sx(p.x)}" cy="{sy(p.y)}" r="6" '
                f'fill="{stroke}" stroke="none"/>'
            )
        out.append("</g>")
    out.append('<g fill="#000000">')
    for i, p in enumerate(mesh.sites):
        out.append(f'<circle cx="{sx(p.x)}" cy="{sy(p.y)}" r="3.5"/>')
        if include_labels:
            out.append(
                f'<text x="{sx(p.x)}" y="{sy(p.y)}" dx="6" dy="-6" '
                f'font-size="14" font-family="monospace">{i}</text>'
            )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _axis(
    low: Fraction, scale: Fraction, place: Callable[[float], float]
) -> Callable[[Fraction], str]:
    """The text of each coordinate v at `place(float((v - low) * scale))`,
    computed once per distinct v."""
    a, b = low.numerator, low.denominator
    c, e = scale.numerator, scale.denominator
    memo: dict[tuple[int, int], str] = {}

    def text(v: Fraction) -> str:
        key = (v.numerator, v.denominator)
        out = memo.get(key)
        if out is None:
            n, d = key
            out = memo[key] = f"{place((n * b - a * d) * c / (d * b * e)):.3f}"
        return out

    return text
