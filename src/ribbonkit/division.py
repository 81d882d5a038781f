"""Three-region division of a bounded frame by a ribbon.

A ribbon strictly inside a rectangular frame splits it into the outside
part, the annulus, and the closed inner disk.  Boundary ownership follows
the set expressions of the underlying decomposition: the outer loop
belongs to the annulus region, the inner loop to the inner region.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Optional, Tuple

from .errors import FrameTooSmall, PointOutsideFrame
from .geometry import (
    Lattice,
    Point2,
    bounding_box,
    lattice_row_runs,
    loop_segments,
    segment_point_distance_sq,
    to_fraction,
)
from .ribbons import Ribbon, RibbonMembership


class RegionLabel(Enum):
    PI1_OUTSIDE = "pi1_outside"
    PI2_ANNULUS = "pi2_annulus"
    PI3_INNER = "pi3_inner"


@dataclass(frozen=True)
class Frame:
    lo: Point2
    hi: Point2

    def __post_init__(self):
        if self.lo.x >= self.hi.x or self.lo.y >= self.hi.y:
            raise ValueError("frame corners must be strictly increasing")

    def contains(self, p: Point2) -> bool:
        return self.lo.x <= p.x <= self.hi.x and self.lo.y <= p.y <= self.hi.y

    def strictly_contains(self, p: Point2) -> bool:
        return self.lo.x < p.x < self.hi.x and self.lo.y < p.y < self.hi.y

    def corners(self) -> Tuple[Point2, ...]:
        return (
            self.lo,
            Point2(self.hi.x, self.lo.y),
            self.hi,
            Point2(self.lo.x, self.hi.y),
        )

    def border_segments(self):
        c = self.corners()
        return [(c[i], c[(i + 1) % 4]) for i in range(4)]


def frame_around(r: Ribbon, margin) -> Frame:
    """Axis-aligned frame enclosing the ribbon with the given margin."""
    x0, y0, x1, y1 = bounding_box(r.outer.points)
    m = to_fraction(margin)
    return Frame(Point2(x0 - m, y0 - m), Point2(x1 + m, y1 + m))


def _require_frame(r: Ribbon, f: Frame) -> None:
    for p in r.outer.points:
        if not f.strictly_contains(p):
            raise FrameTooSmall(f"frame does not strictly contain outer vertex {p}")


_LABEL_OF = {
    RibbonMembership.ON_INNER_BOUNDARY: RegionLabel.PI3_INNER,
    RibbonMembership.IN_REMOVED_INTERIOR: RegionLabel.PI3_INNER,
    RibbonMembership.ON_OUTER_BOUNDARY: RegionLabel.PI2_ANNULUS,
    RibbonMembership.IN_RIBBON: RegionLabel.PI2_ANNULUS,
    RibbonMembership.OUTSIDE: RegionLabel.PI1_OUTSIDE,
}

# The label by the loops a point is in or on: bit 1 the outer, bit 2 the inner.
_LABEL_OF_MASK = (
    RegionLabel.PI1_OUTSIDE, RegionLabel.PI2_ANNULUS, RegionLabel.PI3_INNER, RegionLabel.PI3_INNER
)


def _label(r: Ribbon, p: Point2) -> RegionLabel:
    """The region label of ``p``, for a frame already checked to hold ``r``."""
    return _LABEL_OF[r.membership(p)]


def classify_region(r: Ribbon, f: Frame, p: Point2) -> RegionLabel:
    """Exactly one of the three region labels for a frame point."""
    _require_frame(r, f)
    if not f.contains(p):
        raise PointOutsideFrame(f"{p} lies outside the frame")
    return _label(r, p)


@dataclass(frozen=True)
class PartitionReport:
    grid_density: int
    total_points: int
    label_counts: Dict[str, int]
    each_point_single_label: bool
    all_labels_realized: bool
    bounded: bool
    witnesses: Dict[str, Optional[Tuple[Point2, Fraction]]]

    @property
    def clearance_ok(self) -> bool:
        return all(w is not None for w in self.witnesses.values())

    @property
    def ok(self) -> bool:
        return self.each_point_single_label and self.all_labels_realized and self.bounded

    def lines(self) -> List[str]:
        out = [
            f"grid={self.grid_density} points={self.total_points} ok={str(self.ok).lower()}"
        ]
        for name in sorted(self.label_counts):
            out.append(f"  {name}: {self.label_counts[name]}")
        for name in sorted(self.witnesses):
            w = self.witnesses[name]
            if w is None:
                out.append(f"  witness {name}: none")
            else:
                out.append(f"  witness {name}: {w[0]} clearance_sq={w[1]}")
        return out


def _on_any(x: int, y: int, segments) -> bool:
    """``(x, y)`` lies on one of the closed segments ``((x1, y1), (x2, y2))``."""
    for (x1, y1), (x2, y2) in segments:
        if (
            min(x1, x2) <= x <= max(x1, x2)
            and min(y1, y2) <= y <= max(y1, y2)
            and (x2 - x1) * (y - y1) == (y2 - y1) * (x - x1)
        ):
            return True
    return False


def verify_partition(r: Ribbon, f: Frame, grid_density: int) -> PartitionReport:
    """Classify a rational lattice plus loop vertices and edge midpoints.

    The samples are the d x d lattice spanning the frame (its centre alone
    for d = 1), then the vertices and the edge midpoints of the outer and
    of the inner loop.  The report records the per-label sample counts,
    whether all three labels were realized, and for each label the first
    sample whose exact clearance to the label's boundary set is strictly
    positive, with that clearance.

    The frame and the loops are scaled once to integers, so lattice point
    ``(i, j)`` sits at ``origin + (i, j) * step``; :func:`lattice_row_runs`
    gives each stretch of a lattice row the loops it is in or on, and
    those decide its label as :func:`_label` decides a point's.
    """
    if grid_density < 1:
        raise ValueError("grid density must be at least 1")
    _require_frame(r, f)
    d = grid_density
    loops = (r.outer.points, r.inner.points)
    # An even multiple of the lcm of the denominators, so edge midpoints are integers too.
    lattice = Lattice((f.hi, *loops[0], *loops[1]), f.lo, 2 * max(d - 1, 1))
    scaled, unscaled, s = lattice.ints, lattice.point, lattice.s
    width, height = scaled(f.hi)
    if d == 1:
        origin, step = (width // 2, height // 2), (width, height)
    else:
        origin, step = (0, 0), (width // (d - 1), height // (d - 1))
    (ox, oy), (sx, sy) = origin, step
    outer, inner = ([scaled(p) for p in loop] for loop in loops)

    # runs[label] lists the lattice stretches (j, first, last) in sample order.
    runs: Dict[RegionLabel, List[Tuple[int, int, int]]] = {lab: [] for lab in RegionLabel}
    # A ribbon built without make_ribbon may have an inner loop that leaves
    # the frame; the stretches are clipped to the lattice.
    stretches = lattice_row_runs((outer, inner), origin, step, (d, d))
    for j in range(d):
        for first, last, inside, on in stretches.get(j, ((0, d - 1, 0, 0),)):
            runs[_LABEL_OF_MASK[inside | on]].append((j, first, last))

    loop_samples = []
    for loop in (outer, inner):
        loop_samples += loop
        loop_samples += [((ax + bx) // 2, (ay + by) // 2) for (ax, ay), (bx, by) in loop_segments(loop)]
    loop_points = [unscaled(x, y) for x, y in loop_samples]
    tail: Dict[RegionLabel, List[Tuple[int, int]]] = {lab: [] for lab in RegionLabel}
    for p, q in zip(loop_points, loop_samples):
        tail[_label(r, p)].append(q)

    border = loop_segments([scaled(c) for c in f.corners()])
    boundaries = {
        RegionLabel.PI1_OUTSIDE: loop_segments(outer) + border,
        RegionLabel.PI2_ANNULUS: loop_segments(outer) + loop_segments(inner),
        RegionLabel.PI3_INNER: loop_segments(inner),
    }
    witnesses: Dict[str, Optional[Tuple[Point2, Fraction]]] = {}
    for lab in RegionLabel:
        segs = boundaries[lab]
        samples = (
            (x, oy + j * sy)
            for j, first, last in runs[lab]
            for x in range(ox + first * sx, ox + last * sx + 1, sx)
        )
        # A sample's clearance is 0 exactly when it lies on a boundary segment.
        q = next((q for q in chain(samples, tail[lab]) if not _on_any(*q, segs)), None)
        if q is None:
            witnesses[lab.value] = None
            continue
        clearance = min(
            segment_point_distance_sq(Point2(*q), Point2(*a), Point2(*b)) for a, b in segs
        )
        witnesses[lab.value] = (unscaled(*q), Fraction(clearance, s * s))
    counts = {
        lab.value: sum(last - first + 1 for _, first, last in runs[lab]) + len(tail[lab])
        for lab in RegionLabel
    }
    # The lattice is monotone between its extreme corners.
    corners = (unscaled(ox, oy), unscaled(ox + (d - 1) * sx, oy + (d - 1) * sy))
    return PartitionReport(
        grid_density=d,
        total_points=d * d + len(loop_samples),
        label_counts=counts,
        each_point_single_label=True,  # each sample gets exactly one label
        all_labels_realized=all(counts[lab.value] > 0 for lab in RegionLabel),
        bounded=all(f.contains(p) for p in corners + tuple(loop_points)),
        witnesses=witnesses,
    )
