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
from .geometry import (
    MAX_LATTICE_ROWS,
    Point2,
    PointLocation,
    bounding_box,
    frame_lattice,
    lattice_gap_sq,
    lattice_location,
    lattice_ring,
    lattice_row_runs,
    to_fraction,
)
from .ribbons import Ribbon


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


# The label by the loops a point is in or on: bit 1 the outer, bit 2 the inner.
_LABEL_OF_MASK = (
    RegionLabel.PI1_OUTSIDE, RegionLabel.PI2_ANNULUS, RegionLabel.PI3_INNER, RegionLabel.PI3_INNER
)
# The loops of each label's boundary, by the same bits; the outside's has the frame border too.
_BOUNDARY_BITS = {RegionLabel.PI1_OUTSIDE: 1, RegionLabel.PI2_ANNULUS: 3, RegionLabel.PI3_INNER: 2}


def classify_region(r: Ribbon, f: Frame, p: Point2) -> RegionLabel:
    """Exactly one of the three region labels for a frame point."""
    _require_frame(r, f)
    if not f.contains(p):
        raise PointOutsideFrame(f"{p} lies outside the frame")
    mask = sum(bit for bit, c in ((1, r.outer), (2, r.inner)) if c.locate(p) is not PointLocation.OUTSIDE)
    return _LABEL_OF_MASK[mask]


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


def verify_partition(r: Ribbon, f: Frame, grid_density: int) -> PartitionReport:
    """Classify a rational lattice plus loop vertices and edge midpoints.

    The samples are the d x d lattice spanning the frame (its centre alone
    for d = 1), then the vertices and the edge midpoints of the outer and
    of the inner loop.  The report records the per-label sample counts,
    whether all three labels were realized, and for each label the first
    sample whose exact clearance to the label's boundary set is strictly
    positive, with that clearance.

    The frame and the loops are scaled once to integers by
    :func:`frame_lattice`, so lattice point ``(i, j)`` sits at
    ``origin + (i, j) * step``; :func:`lattice_row_runs` gives each stretch
    of a lattice row the loops it is in or on, and
    :func:`lattice_location` gives them for each loop sample.  Those bits
    decide a sample's label, and whether it lies on its label's boundary.
    """
    if grid_density < 1:
        raise ValueError("grid density must be at least 1")
    if grid_density > MAX_LATTICE_ROWS:
        raise ValueError(f"grid density {grid_density} exceeds the limit of {MAX_LATTICE_ROWS}")
    _require_frame(r, f)
    d = grid_density
    # An even multiple of the lcm of the denominators, so edge midpoints are integers too.
    s, (lx, ly), (hx, hy), loops = frame_lattice(f.lo, f.hi, (r.outer.shape, r.inner.shape), 2 * max(d - 1, 1))
    if d == 1:
        origin, step = ((lx + hx) // 2, (ly + hy) // 2), (hx - lx, hy - ly)
    else:
        origin, step = (lx, ly), ((hx - lx) // (d - 1), (hy - ly) // (d - 1))
    (ox, oy), (sx, sy) = origin, step

    # samples[label] lists stretches (y, first x, last x, on) in sample order:
    # the lattice's, every sx apart, then each loop sample as its own.
    samples: Dict[RegionLabel, List[Tuple[int, int, int, int]]] = {lab: [] for lab in RegionLabel}
    of_mask = [samples[lab] for lab in _LABEL_OF_MASK]  # a label's list, by the mask
    # A ribbon built without make_ribbon may have an inner loop that leaves
    # the frame; the stretches are clipped to the lattice.
    stretches = lattice_row_runs(loops, origin, step, (d, d))
    for j in range(d):
        y = oy + j * sy
        for first, last, inside, on in stretches.get(j, ((0, d - 1, 0, 0),)):
            of_mask[inside | on].append((y, ox + first * sx, ox + last * sx, on))

    loop_samples = []
    for loop in loops:
        loop_samples += zip(loop.xs, loop.ys)
        loop_samples += [((x1 + x2) // 2, (y1 + y2) // 2) for x1, y1, x2, y2, *_ in loop.ring]
    for x, y in loop_samples:
        inside = on = 0
        for bit, loop in zip((1, 2), loops):
            where = lattice_location(loop, x, y, 1)
            if where is PointLocation.ON_BOUNDARY:
                on |= bit
            elif where is PointLocation.INSIDE:
                inside |= bit
        of_mask[inside | on].append((y, x, x, on))

    border = lattice_ring((lx, hx, hx, lx), (ly, ly, hy, hy))
    boundaries = {
        RegionLabel.PI1_OUTSIDE: loops[0].ring + border,
        RegionLabel.PI2_ANNULUS: loops[0].ring + loops[1].ring,
        RegionLabel.PI3_INNER: loops[1].ring,
    }
    witnesses: Dict[str, Optional[Tuple[Point2, Fraction]]] = {}
    for lab in RegionLabel:
        bits, framed = _BOUNDARY_BITS[lab], lab is RegionLabel.PI1_OUTSIDE
        # A sample's clearance is 0 exactly when it lies on its label's boundary;
        # the outside's samples all lie on the lattice, so in the frame.
        q = next(
            (
                (x, y)
                for y, first, last, on in samples[lab]
                if not on & bits
                for x in range(first, last + 1, sx)
                if not (framed and (x in (lx, hx) or y in (ly, hy)))
            ),
            None,
        )
        if q is not None:
            clearance = min(lattice_gap_sq(*q, g) for g in boundaries[lab])
            q = (Point2(Fraction(q[0], s), Fraction(q[1], s)), Fraction(clearance, s * s))
        witnesses[lab.value] = q
    counts = {
        lab.value: sum((last - first) // sx + 1 for _, first, last, _ in samples[lab]) for lab in RegionLabel
    }
    return PartitionReport(
        grid_density=d,
        total_points=d * d + len(loop_samples),
        label_counts=counts,
        each_point_single_label=True,  # each sample gets exactly one label
        all_labels_realized=all(counts[lab.value] > 0 for lab in RegionLabel),
        # The lattice spans the frame, so only a loop sample can leave it.
        bounded=all(lx <= x <= hx and ly <= y <= hy for x, y in loop_samples),
        witnesses=witnesses,
    )
