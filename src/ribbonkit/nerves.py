"""Nerve construction over finite collections of closed planar regions.

The nerve of a collection is the abstract simplicial complex of all
nonempty subcollections whose members share a common point.  It is built
in one pass over the arrangement of all region boundaries:

1. One candidate list for the whole family: every boundary vertex, every
   crossing of two boundaries of distinct regions, and one interior sample
   per loop.  Region pairs and segment pairs whose bounding boxes are
   disjoint are skipped, as they cannot cross.
2. Each candidate is classified against every region with
   :meth:`Region.contains`, giving the bitmask of the regions that hold it.
3. The nerve is the downward closure of the maximal masks.

This is exact.  The common intersection of a subcollection is compact and
polygonal, so when it is nonempty its lexicographically least point is a
vertex of the arrangement of that subcollection's boundaries.  The global
candidate list contains every such vertex, so every simplex has a witness
whose mask holds it, and no mask holds a subcollection without a common
point.  :func:`common_witness` searches the same candidate list restricted
to the regions it is given.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .errors import CollectionTooLarge, EmptyCollection, NonSimplePolygon
from .geometry import (
    Point2,
    PointLocation,
    ScaledLoop,
    loop_segments,
    segment_intersection,
    simple_polygon,
    vertex_centroid,
)
from .ribbons import FilledCycle, Ribbon, RibbonComplex, RibbonNerve


@dataclass(eq=False)
class Region:
    """Closed point set given by outer loops minus excluded open interiors."""

    loops: Tuple[Tuple[Point2, ...], ...]
    excluded: Tuple[Tuple[Point2, ...], ...] = ()
    label: str = ""

    def __post_init__(self):
        self.loops = tuple(tuple(l) for l in self.loops)
        self.excluded = tuple(tuple(l) for l in self.excluded)
        if not self.loops:
            raise EmptyCollection("a region needs at least one loop")
        self._scaled = [ScaledLoop(l) for l in self.loops]
        self._scaled_excluded = [ScaledLoop(l) for l in self.excluded]
        xs = [p.x for loop in self.loops for p in loop]
        ys = [p.y for loop in self.loops for p in loop]
        self.bbox = (min(xs), min(ys), max(xs), max(ys))

    @classmethod
    def from_cycle(cls, c: FilledCycle, label: str = "") -> "Region":
        return cls(loops=(c.points,), label=label or c.label)

    @classmethod
    def from_ribbon(cls, r: Ribbon, label: str = "") -> "Region":
        return cls(
            loops=(r.outer.points,),
            excluded=(r.inner.points,),
            label=label or r.label,
        )

    @classmethod
    def from_polygon(cls, pts: Sequence[Point2], label: str = "") -> "Region":
        pts = tuple(pts)
        if not simple_polygon(pts):
            raise NonSimplePolygon("polygon region must be simple")
        return cls(loops=(pts,), label=label)

    def contains(self, p: Point2) -> bool:
        b = self.bbox
        if p.x < b[0] or p.x > b[2] or p.y < b[1] or p.y > b[3]:
            return False
        if not any(s.classify(p) is not PointLocation.OUTSIDE for s in self._scaled):
            return False
        return all(
            s.classify(p) is not PointLocation.INSIDE for s in self._scaled_excluded
        )

    def boundary_vertices(self) -> List[Point2]:
        out: List[Point2] = []
        for loop in self.loops + self.excluded:
            out.extend(loop)
        return out

    def boundary_segments(self):
        segs = []
        for loop in self.loops + self.excluded:
            segs.extend(loop_segments(loop))
        return segs

    def interior_samples(self) -> List[Point2]:
        return [vertex_centroid(loop) for loop in self.loops]

    def __repr__(self) -> str:
        return f"Region({self.label or len(self.loops)})"


def _box(points) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """Bounding box ``(xmin, ymin, xmax, ymax)`` of a nonempty point set."""
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return (min(xs), min(ys), max(xs), max(ys))


def _boxes_meet(a, b) -> bool:
    """The closed boxes ``(xmin, ymin, xmax, ymax)`` share a point."""
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def _candidate_points(regions: Sequence[Region]) -> List[Point2]:
    """Arrangement vertices of the boundaries plus one sample per loop.

    In order: every boundary vertex, every crossing of two boundaries of
    distinct regions, every interior sample; duplicates dropped.  Pairs of
    regions or segments whose bounding boxes are disjoint cannot cross
    and are skipped, so the list equals the unpruned one.
    """
    seen = set()
    out: List[Point2] = []

    def push(p: Point2):
        key = (p.x, p.y)
        if key not in seen:
            seen.add(key)
            out.append(p)

    for r in regions:
        for p in r.boundary_vertices():
            push(p)
    segments = [[(a, b, _box((a, b))) for a, b in r.boundary_segments()] for r in regions]
    boxes = [_box(r.boundary_vertices()) for r in regions]
    for i, segs1 in enumerate(segments):
        for j in range(i + 1, len(regions)):
            if not _boxes_meet(boxes[i], boxes[j]):
                continue
            for a, b, box1 in segs1:
                for c, d, box2 in segments[j]:
                    if not _boxes_meet(box1, box2):
                        continue
                    inter = segment_intersection(a, b, c, d)
                    if inter is None:
                        continue
                    push(inter[1])
                    if inter[0] == "segment":
                        push(inter[2])
    for r in regions:
        for p in r.interior_samples():
            push(p)
    return out


def common_witness(regions: Sequence[Region]) -> Optional[Point2]:
    """A point in the common intersection of all regions, if one exists."""
    if not regions:
        raise EmptyCollection("witness search over an empty collection")
    for p in _candidate_points(regions):
        if all(r.contains(p) for r in regions):
            return p
    return None


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex on labelled vertices."""

    vertex_labels: Tuple[str, ...]
    simplices: FrozenSet[FrozenSet[int]]

    def is_downward_closed(self) -> bool:
        for s in self.simplices:
            if len(s) > 1:
                for facet in combinations(sorted(s), len(s) - 1):
                    if frozenset(facet) not in self.simplices:
                        return False
        return True

    def maximal_simplices(self) -> Tuple[Tuple[int, ...], ...]:
        """Simplices with no coface; assumes the complex is downward closed.

        In a downward-closed complex a simplex with any proper coface also
        has one a vertex larger, so only the cofaces ``s | {v}`` are tried.
        """
        simplices = self.simplices
        vertices = frozenset().union(*simplices)
        maximal = [
            s
            for s in simplices
            if not any(s | {v} in simplices for v in vertices - s)
        ]
        return tuple(sorted(tuple(sorted(s)) for s in maximal))

    def simplices_of_dim(self, d: int) -> Tuple[FrozenSet[int], ...]:
        return tuple(
            sorted((s for s in self.simplices if len(s) == d + 1), key=sorted)
        )

    @property
    def dimension(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)


def nerve(regions: Sequence[Region]) -> SimplicialComplex:
    """All nonempty subcollections with a common point, downward closed."""
    if not regions:
        raise EmptyCollection("nerve of an empty collection")
    if len(regions) > 20:
        raise CollectionTooLarge(f"nerve enumeration capped at 20 regions, got {len(regions)}")
    masks = set()
    for p in _candidate_points(regions):
        masks.add(sum(1 << i for i, r in enumerate(regions) if r.contains(p)))
    masks.discard(0)
    simplices = {frozenset((i,)) for i in range(len(regions))}
    for m in masks:
        if any(m & other == m for other in masks if other != m):
            continue  # not maximal: its faces come with a larger mask
        members = [i for i in range(len(regions)) if m >> i & 1]
        for k in range(2, len(members) + 1):
            simplices.update(frozenset(c) for c in combinations(members, k))
    return SimplicialComplex(
        vertex_labels=tuple(r.label for r in regions),
        simplices=frozenset(simplices),
    )


def _ribbon_groups(rbx: RibbonComplex, sc: SimplicialComplex) -> Tuple[RibbonNerve, ...]:
    """The maximal simplices of ``sc``, the nerve of ``rbx``, as ribbon groups."""
    out = []
    for g in sc.maximal_simplices():
        members = tuple(rbx.ribbons[i] for i in g)
        out.append(
            RibbonNerve(members, label="+".join(m.label or f"r{i}" for i, m in zip(g, members)))
        )
    return tuple(out)


def ribbon_nerve(rbx: RibbonComplex) -> Tuple[RibbonNerve, ...]:
    """Maximal groups of ribbons with common intersection; singletons allowed."""
    return _ribbon_groups(rbx, nerve([Region.from_ribbon(r) for r in rbx.ribbons]))
