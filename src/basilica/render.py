"""Deterministic SVG pictures of arc diagrams and elements.

Arcs are drawn as circular arcs meeting the boundary circle at right
angles (hyperbolic geodesics).  This is the only module that touches
floating point; all numbers are formatted to fixed precision so output
bytes are reproducible.
"""

from __future__ import annotations

import math

from .diagram import ArcDiagram
from .element import Element

_R = 100.0  # boundary circle radius in user units
_PAD = 12.0


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _point(theta: float, cx: float, cy: float):
    # y grows downward in SVG; flip so angles run counterclockwise on screen
    return cx + _R * math.cos(theta), cy - _R * math.sin(theta)


def _arc_path(a, b, cx: float, cy: float) -> str:
    """Geodesic from boundary angle a to b (fractions of a full turn)."""
    ta = 2 * math.pi * float(a)
    tb = 2 * math.pi * float(b)
    x1, y1 = _point(ta, cx, cy)
    x2, y2 = _point(tb, cx, cy)
    gap = abs(float(a) - float(b)) % 1.0
    gap = min(gap, 1.0 - gap)
    if abs(gap - 0.5) < 1e-12:
        return (
            f'<path class="arc" d="M {_fmt(x1)} {_fmt(y1)} '
            f"L {_fmt(x2)} {_fmt(y2)}\" />"
        )
    phi = math.pi * gap
    r = _R * math.tan(phi)
    # pick the sweep that keeps the short arc bowing toward the disk center
    mid = ((ta + tb) / 2) if abs(ta - tb) <= math.pi else ((ta + tb) / 2 + math.pi)
    d = _R / math.cos(phi)
    ccx = cx + d * math.cos(mid)
    ccy = cy - d * math.sin(mid)
    cross = (x1 - ccx) * (y2 - ccy) - (y1 - ccy) * (x2 - ccx)
    sweep = 1 if cross > 0 else 0
    return (
        f'<path class="arc" d="M {_fmt(x1)} {_fmt(y1)} '
        f"A {_fmt(r)} {_fmt(r)} 0 0 {sweep} {_fmt(x2)} {_fmt(y2)}\" />"
    )


def _panel(diagram: ArcDiagram, cx: float, cy: float, dot_leaf: int | None):
    parts = [
        f'<circle class="boundary" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
        f'r="{_fmt(_R)}" fill="none" stroke="black" />'
    ]
    for arc in sorted(diagram.arcs()):
        a, b = sorted(p.f for p in arc.endpoints)
        parts.append(_arc_path(a, b, cx, cy))
    if dot_leaf is not None:
        iv = diagram.leaves()[dot_leaf]
        theta = 2 * math.pi * float(iv.lo + iv.length / 2)
        x = cx + 0.92 * _R * math.cos(theta)
        y = cy - 0.92 * _R * math.sin(theta)
        parts.append(
            f'<circle class="dot" cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.0000" />'
        )
    return parts


def render_diagram(diagram: ArcDiagram) -> str:
    side = 2 * (_R + _PAD)
    body = _panel(diagram, _R + _PAD, _R + _PAD, None)
    return _svg(side, side, body)


def render_element(e: Element) -> str:
    """Two panels, domain then range, with the matched leaf marked."""
    width = 4 * (_R + _PAD)
    height = 2 * (_R + _PAD)
    body = _panel(e.domain, _R + _PAD, _R + _PAD, 0)
    body += _panel(e.range, 3 * (_R + _PAD), _R + _PAD, e.offset)
    return _svg(width, height, body)


def _svg(width: float, height: float, body) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    style = (
        "<style>.arc{fill:none;stroke:#235;stroke-width:1.2}"
        ".boundary{stroke-width:1.5}.dot{fill:#b22}</style>"
    )
    return "\n".join([head, style, *body, "</svg>"]) + "\n"
