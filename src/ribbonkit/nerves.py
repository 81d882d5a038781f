"""Nerve construction over finite collections of closed planar regions.

The nerve of a collection is the abstract simplicial complex of all
nonempty subcollections whose members share a common point.  It is built
in one pass over the arrangement of all region boundaries:

1. One candidate list for the whole family: the vertices of the
   arrangement of all boundary loops, that is every loop vertex and every
   meeting of two loops, of one region or of two.  Region pairs and segment
   pairs whose bounding boxes are disjoint cannot meet and are skipped.
2. Each candidate is classified against every region with
   :meth:`Region.contains`, giving the set of regions that hold it.
3. The nerve is stored as its facets, the maximal such sets; every other
   simplex is a face of one, and the downward closure is built on demand.

This is exact when each loop is simple, which :class:`Region` does not
check.  A nonempty common intersection of a subcollection is then compact,
and its lexicographically least point is a vertex of the arrangement of
the loops: a point inside one edge and off every other loop has a lower
neighbour along that edge, in the same regions.  The global candidate list
holds every such vertex, so every simplex, a single region included, has
a witness whose set holds it, and no set holds a subcollection without a
common point.
:func:`common_witness` searches the same candidate list restricted to the
regions it is given.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """Abstract simplicial complex on labelled vertices, stored as its facets.

    The complex is the downward closure of the nonempty ``facets`` given.
    Construction keeps only the maximal ones, as sorted tuples in sorted
    order, so any generating set may be passed.
    """

    vertex_labels: Tuple[str, ...]
    facets: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        kept: List[FrozenSet[int]] = []
        for g in sorted({frozenset(g) for g in self.facets if g}, key=len, reverse=True):
            if not any(g <= k for k in kept):
                kept.append(g)
        object.__setattr__(self, "facets", tuple(sorted(tuple(sorted(g)) for g in kept)))

    @cached_property
    def simplices(self) -> FrozenSet[FrozenSet[int]]:
        """Every nonempty face of every facet, built on first use."""
        return frozenset(
            frozenset(c)
            for f in self.facets
            for k in range(1, len(f) + 1)
            for c in combinations(f, k)
        )

    def simplices_of_dim(self, d: int) -> Tuple[FrozenSet[int], ...]:
        """The ``d``-simplices in sorted order, read off the facets alone."""
        faces = {c for f in self.facets for c in combinations(f, d + 1)}
        return tuple(map(frozenset, sorted(faces)))


def nerve(regions: Sequence[Region]) -> SimplicialComplex:
    """All nonempty subcollections with a common point, stored as the maximal ones."""
    if not regions:
        raise EmptyCollection("nerve of an empty collection")
    if len(regions) > 20:
        raise CollectionTooLarge(f"nerve enumeration capped at 20 regions, got {len(regions)}")
    held = {
        tuple(i for i, r in enumerate(regions) if r.contains(p)) for p in _candidate_points(regions)
    }
    return SimplicialComplex(vertex_labels=tuple(r.label for r in regions), facets=tuple(held))


def _ribbon_groups(rbx: RibbonComplex, sc: SimplicialComplex) -> Tuple[RibbonNerve, ...]:
    """The facets of ``sc``, the nerve of ``rbx``, as ribbon groups."""
    out = []
    for g in sc.facets:
        members = tuple(rbx.ribbons[i] for i in g)
        out.append(
            RibbonNerve(members, label="+".join(m.label or f"r{i}" for i, m in zip(g, members)))
        )
    return tuple(out)


def ribbon_nerve(rbx: RibbonComplex) -> Tuple[RibbonNerve, ...]:
    """Maximal groups of ribbons with common intersection; singletons allowed."""
    return _ribbon_groups(rbx, nerve([Region.from_ribbon(r) for r in rbx.ribbons]))
