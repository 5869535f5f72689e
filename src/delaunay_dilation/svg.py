"""Minimal deterministic SVG export for constructions and dilation reports."""

from __future__ import annotations

from .dilation import DilationReport
from .triangulation import PointSet, Triangulation

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="{x0} {y0} {vw} {vh}">\n'
)


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def render_svg(
    ps: PointSet,
    tri: Triangulation | None = None,
    report: DilationReport | None = None,
    marked: tuple[int, int] | None = None,
    circles: list[tuple[float, float, float]] | None = None,
    annotation: str | None = None,
    width: int = 800,
) -> str:
    pts = ps.coords.tolist()
    xs, ys = ps.coords.T.tolist()
    for cx, cy, r in circles or []:
        xs += [cx - r, cx + r]
        ys += [cy - r, cy + r]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.06 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1 = x0 - pad, x1 + pad
    y0, y1 = y0 - pad, y1 + pad
    vw, vh = x1 - x0, y1 - y0
    height = int(round(width * vh / vw))
    scale = vw / width

    # SVG's y axis points down; flip by emitting y' = (y0 + y1) - y.
    def fy(y: float) -> float:
        return (y0 + y1) - y

    out = [
        _HEADER.format(
            w=width, h=height, x0=_fmt(x0), y0=_fmt(y0), vw=_fmt(vw), vh=_fmt(vh)
        )
    ]
    out.append(f'<g stroke-width="{_fmt(1.2 * scale)}">\n')

    for cx, cy, r in circles or []:
        out.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(fy(cy))}" r="{_fmt(r)}" '
            'fill="none" stroke="#bbbbbb" stroke-dasharray='
            f'"{_fmt(6 * scale)},{_fmt(4 * scale)}"/>\n'
        )

    if tri is not None:
        for u, v in tri.edge_array.tolist():
            (ax, ay), (bx, by) = pts[u], pts[v]
            out.append(
                f'<line x1="{_fmt(ax)}" y1="{_fmt(fy(ay))}" '
                f'x2="{_fmt(bx)}" y2="{_fmt(fy(by))}" stroke="#4477aa"/>\n'
            )

    if report is not None and len(report.witness_path) > 1:
        coords = " ".join(
            f"{_fmt(pts[i][0])},{_fmt(fy(pts[i][1]))}" for i in report.witness_path
        )
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="#cc2222" '
            f'stroke-width="{_fmt(3.0 * scale)}" class="witness-path"/>\n'
        )

    r_pt = 2.2 * scale
    for x, y in pts:
        out.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(fy(y))}" r="{_fmt(r_pt)}" '
            'fill="#222222"/>\n'
        )
    if marked is not None:
        for i in marked:
            x, y = pts[i]
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(fy(y))}" '
                f'r="{_fmt(3.5 * r_pt)}" fill="none" stroke="#cc2222"/>\n'
            )

    if annotation:
        out.append(
            f'<text x="{_fmt(x0 + 2 * pad)}" y="{_fmt(y0 + 3 * pad)}" '
            f'font-size="{_fmt(16 * scale)}" font-family="monospace" '
            f'fill="#222222">{annotation}</text>\n'
        )
    out.append("</g>\n</svg>\n")
    return "".join(out)
