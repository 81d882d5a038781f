"""Planar cell complexes: vertices, edges, filled triangles.

A complex is structurally sound when it satisfies two conditions:
containment (every face of a cell is a cell of the complex) and
intersection (whenever two cell realizations meet, the overlap is a union
of cells of the complex).  The second is the Alexandroff-Hopf-Whitehead
condition: two cells meet in a common face or not at all.
:func:`validate_cw` reports violations of both as data instead of raising;
it settles most cell pairs from vertex ids and integer signs and meets
only the rest, as convex hulls.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import DegenerateCell, UnknownCellId
from .geometry import (
    Lattice,
    Point2,
    bounding_box,
    boxes_meet,
    cross_value,
    polygon_area2,
    segment_intersection,
)


class CellKind(Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    TRIANGLE = "triangle"


@dataclass(frozen=True)
class Cell:
    kind: CellKind
    vertex_ids: Tuple[str, ...]


class CellComplex:
    """Mutable-while-building container of cells; treat as frozen afterwards."""

    def __init__(self, name: str = ""):
        self.name = name
        self.vertices: Dict[str, Point2] = {}
        self.cells: Dict[str, Cell] = {}
        self._edge_index: Dict[FrozenSet[str], str] = {}

    def add_vertex(self, vid: str, p: Point2) -> str:
        if "--" in vid:
            raise ValueError(f"vertex id {vid!r} may not contain '--'")
        existing = self.vertices.get(vid)
        if existing is not None:
            if existing != p:
                raise ValueError(f"vertex {vid!r} already bound to {existing}")
            return vid
        self.vertices[vid] = p
        self.cells[vid] = Cell(CellKind.VERTEX, (vid,))
        return vid

    def add_edge(self, a: str, b: str, eid: Optional[str] = None) -> str:
        if a == b:
            raise DegenerateCell(f"edge endpoints must be distinct, got {a!r} twice")
        key = frozenset((a, b))
        found = self._edge_index.get(key)
        if found is not None:
            return found
        if eid is None:
            lo, hi = sorted((a, b))
            eid = f"{lo}--{hi}"
        if eid in self.cells:
            raise ValueError(f"cell id {eid!r} already in use")
        self.cells[eid] = Cell(CellKind.EDGE, (a, b))
        self._edge_index[key] = eid
        return eid

    def add_triangle(self, a: str, b: str, c: str, tid: Optional[str] = None) -> str:
        if len({a, b, c}) != 3:
            raise DegenerateCell("triangle needs three distinct vertices")
        pts = [self.vertices.get(v) for v in (a, b, c)]
        if None not in pts and cross_value(*pts) == 0:
            raise DegenerateCell(f"triangle {a},{b},{c} is collinear")
        if tid is None:
            tid = "--".join(sorted((a, b, c)))
        if tid in self.cells:
            raise ValueError(f"cell id {tid!r} already in use")
        for u, v in ((a, b), (b, c), (a, c)):
            self.add_edge(u, v)
        self.cells[tid] = Cell(CellKind.TRIANGLE, (a, b, c))
        return tid

    def edge_between(self, a: str, b: str) -> Optional[str]:
        return self._edge_index.get(frozenset((a, b)))

    def cell_points(self, cid: str) -> Optional[Tuple[Point2, ...]]:
        """Realization vertices of a cell, or None if a coordinate is missing."""
        cell = self.cells.get(cid)
        if cell is None:
            raise UnknownCellId(f"no cell {cid!r}")
        pts = []
        for vid in cell.vertex_ids:
            p = self.vertices.get(vid)
            if p is None:
                return None
            pts.append(p)
        return tuple(pts)


@dataclass(frozen=True)
class ValidityReport:
    name: str
    cell_count: int
    containment_violations: Tuple[str, ...]
    intersection_violations: Tuple[str, ...]

    @property
    def nonempty(self) -> bool:
        return self.cell_count > 0

    @property
    def valid(self) -> bool:
        return (
            self.nonempty
            and not self.containment_violations
            and not self.intersection_violations
        )

    def lines(self) -> List[str]:
        out = [f"complex={self.name or '<unnamed>'} cells={self.cell_count} valid={str(self.valid).lower()}"]
        for v in self.containment_violations:
            out.append(f"  containment: {v}")
        for v in self.intersection_violations:
            out.append(f"  intersection: {v}")
        if not self.nonempty:
            out.append("  empty: complex holds no cells")
        return out


def _ccw(pts: Sequence[Point2]) -> List[Point2]:
    pts = list(pts)
    if polygon_area2(pts) < 0:
        pts.reverse()
    return pts


def _point_in_convex(p: Point2, poly: Sequence[Point2]) -> bool:
    """Closed membership in a counterclockwise convex polygon."""
    n = len(poly)
    for i in range(n):
        if cross_value(poly[i], poly[(i + 1) % n], p) < 0:
            return False
    return True


def _interpolate(p: Point2, q: Point2, num, den) -> Point2:
    """The point ``p + (num / den) * (q - p)``, exactly; ``p`` or ``q``
    itself at the ends, so integer endpoints stay integers."""
    if num == 0:
        return p
    if num == den:
        return q
    t = Fraction(num, den)
    return Point2(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))


def convex_clip(subject: Sequence[Point2], clip: Sequence[Point2]) -> List[Point2]:
    """Sutherland-Hodgman clipping of convex ``subject`` by convex ``clip``."""
    output = list(subject)
    clip = list(clip)
    n = len(clip)
    for i in range(n):
        a, b = clip[i], clip[(i + 1) % n]
        if not output:
            break
        inputs = output
        output = []
        prev = inputs[-1]
        prev_side = cross_value(a, b, prev)
        for cur in inputs:
            cur_side = cross_value(a, b, cur)
            if cur_side >= 0:
                if prev_side < 0:
                    output.append(_interpolate(prev, cur, prev_side, prev_side - cur_side))
                output.append(cur)
            elif prev_side >= 0:
                output.append(_interpolate(prev, cur, prev_side, prev_side - cur_side))
            prev, prev_side = cur, cur_side
    dedup: List[Point2] = []
    for p in output:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _hull(points: Sequence[Point2]) -> Optional[Tuple[Point2, ...]]:
    """Corners of the convex hull of a clip result or a realized cell:
    ``(p,)`` for one point, the lexicographic extremes ``(lo, hi)`` for
    collinear points, the points themselves otherwise; None if empty."""
    distinct: List[Point2] = []
    for p in points:
        if p not in distinct:
            distinct.append(p)
    if len(distinct) < 2:
        return tuple(distinct) or None
    if len(distinct) == 2 or polygon_area2(points) == 0:
        key = lambda q: (q.x, q.y)
        return (min(distinct, key=key), max(distinct, key=key))
    return tuple(points)


def _pair_intersection(r1, r2):
    """Hull of the intersection of two hulls, or None."""
    if len(r2) == 3:
        return _hull(convex_clip(r1, r2))
    if len(r1) == 3:
        return _hull(convex_clip(r2, r1))
    inter = segment_intersection(r1[0], r1[-1], r2[0], r2[-1])
    return inter and inter[1:]


class _Shape:
    """A realized cell read by :func:`validate_cw`: ``hull`` is a vertex
    ``(p,)``, an edge ``(p, q)``, or a triangle's corners counterclockwise;
    a collinear triangle is the segment between its lexicographic extremes,
    or its one point.  ``at[S]``, for each proper subset ``S`` of its ids,
    holds its edge lines through all of ``S``, its points off ``S``, and the
    hull of ``S`` if that is an edge; ``at`` is None for a collinear
    triangle.  A line ``(dx, dy, c)`` has the cell inside and ``(x, y)``
    strictly outside iff ``dx * y - dy * x < c``; an edge has both sides of
    its line."""

    __slots__ = ("ids", "hull", "at")

    def __init__(self, vids, points):
        self.ids = frozenset(vids)
        n = len(points)
        area = cross_value(*points) if n == 3 else 1
        if area == 0:
            self.hull, self.at = _hull(points), None
            return
        if area < 0:
            vids, points = vids[::-1], points[::-1]
        self.hull = tuple(points)
        pts = tuple([(p.x, p.y) for p in points])
        lines = [(bx - ax, by - ay, (bx - ax) * ay - (by - ay) * ax)
                 for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1])]
        self.at = at = {frozenset(): (lines, pts, None)}
        for s in range(n):
            at[frozenset((vids[s],))] = ((lines[s], lines[s - 1]), pts[:s] + pts[s + 1 :], None)
            if n == 3:
                edge = _hull([points[s], points[s - 2]])
                at[frozenset((vids[s], vids[s - 2]))] = ((lines[s],), (pts[s - 1],), edge)


def _strictly_outside(lines, pts) -> bool:
    """True iff one of ``lines`` has every point of ``pts`` strictly outside."""
    for dx, dy, c in lines:
        for x, y in pts:
            if dx * y - dy * x >= c:
                break
        else:
            return True
    return False


def _meeting(a: _Shape, b: _Shape):
    """What of two cells' intersection :func:`validate_cw` must check, or None."""
    if a.ids < b.ids or b.ids < a.ids:
        return None
    if a.at is not None and b.at is not None and a.ids != b.ids:
        shared = a.ids & b.ids
        lines, rest, meet = a.at[shared]
        lines_b, rest_b, _ = b.at[shared]
        if _strictly_outside(lines, rest_b) or _strictly_outside(lines_b, rest):
            return meet
    return _pair_intersection(a.hull, b.hull)


def _containment_violations(k: CellComplex, coords: Dict[str, Point2]) -> List[str]:
    """Missing faces and collinear triangles; ``coords`` are the points of
    the bound vertices, or any one rescale of them by a positive factor."""
    out: List[str] = []
    for cid, cell in sorted(k.cells.items()):
        if cell.kind is CellKind.VERTEX:
            if cell.vertex_ids[0] not in coords:
                out.append(f"vertex cell {cid!r} has no coordinates")
        elif cell.kind is CellKind.EDGE:
            for vid in cell.vertex_ids:
                if vid not in coords:
                    out.append(f"edge {cid!r} is missing vertex {vid!r}")
        else:
            missing = [vid for vid in cell.vertex_ids if vid not in coords]
            out.extend(f"triangle {cid!r} is missing vertex {vid!r}" for vid in missing)
            if not missing and cross_value(*[coords[vid] for vid in cell.vertex_ids]) == 0:
                out.append(f"triangle {cid!r} is collinear")
            a, b, c = cell.vertex_ids
            for u, v in ((a, b), (b, c), (a, c)):
                if k.edge_between(u, v) is None:
                    out.append(f"triangle {cid!r} is missing edge {u!r}-{v!r}")
    return out


def _line_key(p: Point2, q: Point2) -> Tuple[int, int, int]:
    """Integer line ``a*x + b*y + c = 0`` through the distinct points ``p``
    and ``q``, divided by the gcd, with the first nonzero of ``a``, ``b``
    positive: collinear segments get equal keys."""
    a, b, c = q.y - p.y, p.x - q.x, q.x * p.y - p.x * q.y
    m = lcm(a.denominator, b.denominator, c.denominator)
    a = a.numerator * (m // a.denominator)
    b = b.numerator * (m // b.denominator)
    c = c.numerator * (m // c.denominator)
    g = gcd(a, b, c)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    return (a // g, b // g, c // g)


def _along(key: Tuple[int, int, int], p: Point2):
    """Coordinate of ``p`` that runs along the line ``key``: x unless the
    line is vertical."""
    return p.x if key[1] else p.y


def _edge_lines(edges) -> Dict[Tuple[int, int, int], List[tuple]]:
    """Edges ``(p, q)`` of nonzero length grouped by carrier line, each as
    its sorted extent along the line."""
    lines: Dict[Tuple[int, int, int], List[tuple]] = {}
    for p, q in edges:
        if p == q:
            continue
        key = _line_key(p, q)
        s, t = _along(key, p), _along(key, q)
        lines.setdefault(key, []).append((min(s, t), max(s, t)))
    for extents in lines.values():
        extents.sort()
    return lines


def _segment_covered_by_edges(lines, lo: Point2, hi: Point2) -> bool:
    """True iff edges tile the whole closed segment lo-hi (lo before hi in
    lexicographic order).  An edge with both endpoints on the segment lies
    on its line, so only that line's edges are read."""
    key = _line_key(lo, hi)
    start, stop = _along(key, lo), _along(key, hi)
    cursor = start
    for s, t in lines.get(key, ()):
        if s < start or t > stop:
            continue
        if s > cursor:
            return False
        if t > cursor:
            cursor = t
    return cursor >= stop


def _region_covered_by_triangles(poly: Sequence[Point2], triangles) -> bool:
    """True iff those of ``triangles`` (CCW) lying in the convex ``poly``
    have disjoint interiors and tile it."""
    target = abs(polygon_area2(poly))
    ccw_poly = _ccw(poly)
    contained = [t for t in triangles if all(_point_in_convex(p, ccw_poly) for p in t)]
    total = Fraction(0)
    for i, t1 in enumerate(contained):
        total += abs(polygon_area2(t1))
        for t2 in contained[i + 1 :]:
            overlap = convex_clip(t1, t2)
            if len(overlap) >= 3 and polygon_area2(overlap) != 0:
                return False
    return total == target


class _Buckets:
    """Uniform grid of about sqrt(n) x sqrt(n) buckets over n integer boxes.

    A closed box goes into every bucket its extent reaches, so two boxes
    that meet, even in one boundary point, share a bucket.
    """

    def __init__(self, boxes):
        side = max(1, isqrt(len(boxes)))
        self.x0 = min((b[0] for b in boxes), default=0)
        self.y0 = min((b[1] for b in boxes), default=0)
        self.wx = (max((b[2] for b in boxes), default=0) - self.x0) // side + 1
        self.wy = (max((b[3] for b in boxes), default=0) - self.y0) // side + 1
        self.members: Dict[Tuple[int, int], List[int]] = {}
        self.keys = [self.reach(b) for b in boxes]
        for i, keys in enumerate(self.keys):
            for key in keys:
                self.members.setdefault(key, []).append(i)

    def reach(self, box) -> List[Tuple[int, int]]:
        """Buckets met by a closed box; its corners may be Fractions."""
        i0, i1 = (box[0] - self.x0) // self.wx, (box[2] - self.x0) // self.wx
        j0, j1 = (box[1] - self.y0) // self.wy, (box[3] - self.y0) // self.wy
        return [(i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)]

    def near(self, keys) -> set:
        """Indices of the boxes sharing one of ``keys``."""
        found = set()
        for key in keys:
            found.update(self.members.get(key, ()))
        return found


def validate_cw(k: CellComplex) -> ValidityReport:
    """Check the containment and intersection conditions; violations are data.

    The intersection check works on the complex scaled once by the lcm of
    its coordinate denominators, so every predicate is an integer test;
    points in the report are scaled back.  Cell pairs come from a bucket
    grid over the cell boxes, in sorted-id order.  Cells are the convex
    hulls of their vertices, and two rules settle a pair before any clip:

    1. A cell whose ids are a proper subset of the other's is its face and
       their intersection: a vertex, or an edge covering itself.  Equal id
       sets (duplicates) are met exactly.
    2. Let ``L`` be an edge line of one cell through all shared ids ``S``.
       If the other cell's vertices off ``S`` are strictly outside ``L``,
       it meets the first cell's closed side of ``L`` only in the hull of
       ``S``, which lies in both: the cells are disjoint, meet in a
       vertex, or are triangles on opposite sides of a shared edge, which
       must be covered by edges.

    Strict tests send touching cells, collinear rays, zero-length edges
    and twin vertices to the exact meeting of their hulls: two points or
    segments by :func:`segment_intersection`, anything with a triangle by
    :func:`convex_clip`.  Collinear triangles skip rule 2 and are met as
    their hull, a segment or a point; only edge cells cover a
    shared segment, and only triangles of positive area a shared region.
    """
    lattice = Lattice(k.vertices.values())
    coords = {vid: Point2(*lattice.ints(p)) for vid, p in k.vertices.items()}
    realized = {}
    for cid, cell in k.cells.items():
        pts = [coords.get(vid) for vid in cell.vertex_ids]
        if None not in pts:
            realized[cid] = _Shape(cell.vertex_ids, pts)
    ids = sorted(realized)
    shapes = [realized[cid] for cid in ids]
    hulls = [shape.hull for shape in shapes]
    boxes = [bounding_box(hull) for hull in hulls]
    lines = _edge_lines(s.hull for cid, s in realized.items() if k.cells[cid].kind is CellKind.EDGE)
    vertex_coords = {(p.x, p.y) for p in coords.values()}

    def unscaled(p: Point2) -> Point2:
        return lattice.point(p.x, p.y)

    intersection: List[str] = []
    grid = _Buckets(boxes)
    for i, c1 in enumerate(ids):
        s1, b1 = shapes[i], boxes[i]
        for j in sorted(j for j in grid.near(grid.keys[i]) if j > i):
            if not boxes_meet(b1, boxes[j]):
                continue
            c2 = ids[j]
            inter = _meeting(s1, shapes[j])
            if inter is None:
                continue
            if len(inter) == 1:
                p = inter[0]
                if (p.x, p.y) not in vertex_coords:
                    intersection.append(
                        f"cells {c1!r},{c2!r} meet at {unscaled(p)} which is not a vertex"
                    )
            elif len(inter) == 2:
                if not _segment_covered_by_edges(lines, *inter):
                    intersection.append(
                        f"cells {c1!r},{c2!r} share segment {unscaled(inter[0])}-{unscaled(inter[1])} not covered by edges"
                    )
            else:
                near = grid.near(grid.reach(bounding_box(inter)))
                triangles = [hulls[t] for t in sorted(near) if len(hulls[t]) == 3]
                if not _region_covered_by_triangles(inter, triangles):
                    intersection.append(
                        f"cells {c1!r},{c2!r} share a region not covered by triangles"
                    )
    return ValidityReport(
        name=k.name,
        cell_count=len(k.cells),
        containment_violations=tuple(_containment_violations(k, coords)),
        intersection_violations=tuple(intersection),
    )


def _faces_of(k: CellComplex, cid: str) -> List[str]:
    cell = k.cells[cid]
    faces: List[str] = []
    if cell.kind is CellKind.EDGE:
        for vid in cell.vertex_ids:
            if vid in k.cells:
                faces.append(vid)
    elif cell.kind is CellKind.TRIANGLE:
        a, b, c = cell.vertex_ids
        for vid in (a, b, c):
            if vid in k.cells:
                faces.append(vid)
        for u, v in ((a, b), (b, c), (a, c)):
            eid = k.edge_between(u, v)
            if eid is not None:
                faces.append(eid)
    return faces


def closure(k: CellComplex, cell_ids: Iterable[str]) -> FrozenSet[str]:
    """The given cells plus all of their faces present in the complex."""
    result = set()
    for cid in cell_ids:
        if cid not in k.cells:
            raise UnknownCellId(f"no cell {cid!r}")
        result.add(cid)
        result.update(_faces_of(k, cid))
    return frozenset(result)


def boundary(k: CellComplex, cell_ids: Iterable[str]) -> FrozenSet[str]:
    """Combinatorial frontier of the closure of the given cells.

    An edge is a frontier edge when exactly one triangle of the closure is
    incident to it; a vertex is on the frontier when it bounds a frontier
    edge or a maximal (triangle-free) edge.  Maximal cells themselves keep
    their relative interior, so a lone edge has only its endpoints as
    boundary and an isolated vertex has none.
    """
    closed = closure(k, cell_ids)
    tri_count: Dict[str, int] = {}
    for cid in closed:
        cell = k.cells[cid]
        if cell.kind is CellKind.TRIANGLE:
            a, b, c = cell.vertex_ids
            for u, v in ((a, b), (b, c), (a, c)):
                eid = k.edge_between(u, v)
                if eid is not None:
                    tri_count[eid] = tri_count.get(eid, 0) + 1
    result = set()
    for cid in closed:
        cell = k.cells[cid]
        if cell.kind is not CellKind.EDGE:
            continue
        incident = tri_count.get(cid, 0)
        if incident == 1:
            result.add(cid)
        if incident <= 1:
            for vid in cell.vertex_ids:
                if vid in closed:
                    result.add(vid)
    return frozenset(result)


def interior(k: CellComplex, cell_ids: Iterable[str]) -> FrozenSet[str]:
    """Closure minus boundary."""
    return closure(k, cell_ids) - boundary(k, cell_ids)
