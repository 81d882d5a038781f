"""Deterministic SVG rendering of cycles, ribbons and nerves.

Outer loops are filled, removed inner interiors are painted white, hole
markers are gray disks of radius 0.06 units, filaments are 0.02-unit
strokes.  Identical input yields identical bytes.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .document import ComplexDocument
from .errors import UnknownTarget
from .geometry import Point2, bounding_box
from .ribbons import FilledCycle, Ribbon, RibbonComplex, VortexNerve

HOLE_RADIUS = "0.06"
STROKE_WIDTH = "0.02"
MARGIN = Fraction(1, 2)
FILL = "#b5e0b5"
HOLE_FILL = "#8a8a8a"


def _fmt(v) -> str:
    return f"{float(v):.6g}"


def _ribbons_of(target) -> List[Ribbon]:
    if isinstance(target, Ribbon):
        return [target]
    if isinstance(target, RibbonComplex):
        return list(target.ribbons)
    return []


def _loops_of(target) -> List[Tuple[Tuple[Point2, ...], bool]]:
    """(loop, removed-interior flag) pairs in paint order."""
    loops: List[Tuple[Tuple[Point2, ...], bool]] = []
    if isinstance(target, FilledCycle):
        loops.append((target.points, False))
    elif isinstance(target, VortexNerve):
        for cyc in reversed(target.cycles):
            loops.append((cyc.points, False))
        loops.append((target.cycles[0].points, True))
    else:
        for r in _ribbons_of(target):
            loops.append((r.outer.points, False))
            loops.append((r.inner.points, True))
    return loops


def render_svg(doc: ComplexDocument, target_name: str) -> str:
    target = doc.target(target_name)
    if not isinstance(target, (FilledCycle, Ribbon, RibbonComplex, VortexNerve)):
        raise UnknownTarget(f"{target_name!r} is not a drawable structure")
    loops = _loops_of(target)
    box = bounding_box(p for loop, _ in loops for p in loop)
    min_x, min_y = box[0] - MARGIN, box[1] - MARGIN
    max_x, max_y = box[2] + MARGIN, box[3] + MARGIN

    def fy(y) -> Fraction:
        # flip to SVG's downward y axis around the drawing box
        return max_y + min_y - y

    out: List[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(min_x)} {_fmt(min_y)} {_fmt(max_x - min_x)} {_fmt(max_y - min_y)}">'
    )
    for loop, removed in loops:
        coords = " ".join(f"{_fmt(p.x)},{_fmt(fy(p.y))}" for p in loop)
        fill = "#ffffff" if removed else FILL
        out.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="#000000" '
            f'stroke-width="{STROKE_WIDTH}"/>'
        )
    for r in _ribbons_of(target):
        k = r.complex
        for f in r.filaments:
            a = k.vertices[f.outer_vertex]
            b = k.vertices[f.inner_vertex]
            out.append(
                f'<line x1="{_fmt(a.x)}" y1="{_fmt(fy(a.y))}" x2="{_fmt(b.x)}" '
                f'y2="{_fmt(fy(b.y))}" stroke="#000000" stroke-width="{STROKE_WIDTH}"/>'
            )
        for h in r.holes:
            out.append(
                f'<circle cx="{_fmt(h.marker.x)}" cy="{_fmt(fy(h.marker.y))}" '
                f'r="{HOLE_RADIUS}" fill="{HOLE_FILL}" stroke="#000000" '
                f'stroke-width="{STROKE_WIDTH}"/>'
            )
        if r.label:
            anchor = r.outer.points[0]
            # By hand: importing xml.sax.saxutils loads urllib (about 6 MB).
            label = r.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            out.append(
                f'<text x="{_fmt(anchor.x)}" y="{_fmt(fy(anchor.y))}" '
                f'font-size="0.25">{label}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
