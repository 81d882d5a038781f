"""Nerve construction over finite collections of closed planar regions.

The nerve of a collection is the abstract simplicial complex of all
nonempty subcollections whose members share a common point.  It is built
in one pass over the arrangement of all region boundaries:

1. One candidate list for the whole family: the vertices of the
   arrangement of all boundary loops, that is every loop vertex and every
   meeting of two loops, of one region or of two.  Region pairs and segment
   pairs whose bounding boxes are disjoint cannot meet and are skipped.
2. Each candidate is classified against every region with
   :meth:`Region.contains`, giving the bitmask of the regions that hold it.
3. The nerve is the downward closure of the maximal masks.

This is exact when each loop is simple, which :class:`Region` does not
check.  A nonempty common intersection of a subcollection is then compact,
and its lexicographically least point is a vertex of the arrangement of
the loops: a point inside one edge and off every other loop has a lower
neighbour along that edge, in the same regions.  The global candidate list
holds every such vertex, so every simplex has a witness whose mask holds
it, and no mask holds a subcollection without a common point.
:func:`common_witness` searches the same candidate list restricted to the
regions it is given.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .errors import CollectionTooLarge, EmptyCollection
from .geometry import (
    Point2,
    PointLocation,
    ScaledLoop,
    as_scaled_loop,
    bounding_box,
    boxes_meet,
    segment_meetings,
)
from .ribbons import FilledCycle, Ribbon, RibbonComplex, RibbonNerve


@dataclass(eq=False)
class Region:
    """Closed point set given by outer loops minus excluded open interiors."""

    loops: Tuple[ScaledLoop, ...]
    excluded: Tuple[ScaledLoop, ...] = ()
    label: str = ""

    def __post_init__(self):
        self.loops = tuple(map(as_scaled_loop, self.loops))
        self.excluded = tuple(map(as_scaled_loop, self.excluded))
        if not self.loops:
            raise EmptyCollection("a region needs at least one loop")
        self.segments = [s for loop in self.loops + self.excluded for s in loop.segments]
        self.bbox = bounding_box(self.boundary_vertices())

    @classmethod
    def from_cycle(cls, c: FilledCycle, label: str = "") -> "Region":
        return cls(loops=(c.shape,), label=label or c.label)

    @classmethod
    def from_ribbon(cls, r: Ribbon, label: str = "") -> "Region":
        return cls(loops=(r.outer.shape,), excluded=(r.inner.shape,), label=label or r.label)

    def contains(self, p: Point2) -> bool:
        b = self.bbox
        if p.x < b[0] or p.x > b[2] or p.y < b[1] or p.y > b[3]:
            return False
        if not any(s.classify(p) is not PointLocation.OUTSIDE for s in self.loops):
            return False
        return all(s.classify(p) is not PointLocation.INSIDE for s in self.excluded)

    def boundary_vertices(self) -> List[Point2]:
        out: List[Point2] = []
        for loop in self.loops + self.excluded:
            out.extend(loop.points)
        return out

    def __repr__(self) -> str:
        return f"Region({self.label or len(self.loops)})"


def boundary_meetings(regions: Sequence[Region]) -> Iterator[tuple]:
    """The :func:`segment_intersection` of each meeting of two boundaries of
    distinct regions, region pair by region pair; pairs of regions whose
    bounding boxes are disjoint cannot meet and are skipped."""
    for i, r1 in enumerate(regions):
        for r2 in regions[i + 1 :]:
            if boxes_meet(r1.bbox, r2.bbox):
                for _, _, meet in segment_meetings(r1.segments, r2.segments):
                    yield meet


def _candidate_points(regions: Sequence[Region]) -> List[Point2]:
    """The vertices of the arrangement of all boundary loops.

    In order: every boundary vertex, every meeting of two boundaries of
    distinct regions, every meeting of two loops of one region; duplicates
    dropped.
    """
    own = (
        meet
        for r in regions
        for k, l in combinations(r.loops + r.excluded, 2)
        for _, _, meet in segment_meetings(k.segments, l.segments)
    )
    vertices = (p for r in regions for p in r.boundary_vertices())
    meets = (p for meet in chain(boundary_meetings(regions), own) for p in meet[1:])
    return list(dict.fromkeys(chain(vertices, meets)))


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
