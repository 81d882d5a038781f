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
from typing import Dict, List, Optional, Tuple

from .errors import FrameTooSmall, PointOutsideFrame
from .geometry import Point2, segment_point_distance_sq
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
    pts = r.outer.points
    m = Fraction(margin)
    return Frame(
        Point2(min(p.x for p in pts) - m, min(p.y for p in pts) - m),
        Point2(max(p.x for p in pts) + m, max(p.y for p in pts) + m),
    )


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


def _sample_points(r: Ribbon, f: Frame, grid_density: int) -> List[Point2]:
    pts: List[Point2] = []
    if grid_density == 1:
        pts.append(Point2((f.lo.x + f.hi.x) / 2, (f.lo.y + f.hi.y) / 2))
    else:
        d = grid_density
        wx = f.hi.x - f.lo.x
        wy = f.hi.y - f.lo.y
        xs = [f.lo.x + Fraction(i, d - 1) * wx for i in range(d)]
        ys = [f.lo.y + Fraction(j, d - 1) * wy for j in range(d)]
        pts.extend(Point2(x, y) for y in ys for x in xs)
    for cycle in (r.outer, r.inner):
        pts.extend(cycle.points)
        for a, b in cycle.segments():
            pts.append(Point2((a.x + b.x) / 2, (a.y + b.y) / 2))
    return pts


def _boundary_sets(r: Ribbon, f: Frame):
    outer = r.outer.segments()
    inner = r.inner.segments()
    return {
        RegionLabel.PI1_OUTSIDE: outer + f.border_segments(),
        RegionLabel.PI2_ANNULUS: outer + inner,
        RegionLabel.PI3_INNER: inner,
    }


def verify_partition(r: Ribbon, f: Frame, grid_density: int) -> PartitionReport:
    """Classify a rational lattice plus loop vertices and edge midpoints.

    The report records the per-label sample counts, whether all three
    labels were realized, and for each label a sampled witness point whose
    exact clearance to the label's boundary set is strictly positive.
    """
    if grid_density < 1:
        raise ValueError("grid density must be at least 1")
    _require_frame(r, f)
    samples = _sample_points(r, f, grid_density)
    labelled: Dict[RegionLabel, List[Point2]] = {lab: [] for lab in RegionLabel}
    for p in samples:  # every sample lies in the frame
        labelled[_label(r, p)].append(p)
    boundaries = _boundary_sets(r, f)
    witnesses: Dict[str, Optional[Tuple[Point2, Fraction]]] = {}
    for lab in RegionLabel:
        found = None
        for p in labelled[lab]:
            clearance = min(
                segment_point_distance_sq(p, a, b) for a, b in boundaries[lab]
            )
            if clearance > 0:
                found = (p, clearance)
                break
        witnesses[lab.value] = found
    counts = {lab.value: len(labelled[lab]) for lab in RegionLabel}
    return PartitionReport(
        grid_density=grid_density,
        total_points=len(samples),
        label_counts=counts,
        each_point_single_label=True,  # _label returns exactly one label
        all_labels_realized=all(counts[lab.value] > 0 for lab in RegionLabel),
        bounded=all(f.contains(p) for p in samples),
        witnesses=witnesses,
    )
