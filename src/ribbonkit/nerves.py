"""Nerve construction over finite collections of closed planar regions.

The nerve of a collection is the abstract simplicial complex of all
nonempty subcollections whose members share a common point.  It is built
in one pass over the arrangement of all region boundaries:

1. :func:`family_lattice` rescales the family once to integers: ``s`` is
   the lcm of its loops' denominators ``ScaledLoop.den``.
2. One candidate list for the whole family: the vertices of the
   arrangement of all boundary loops, that is every loop vertex and every
   meeting of two loops, of one region or of two, as gcd-reduced lattice
   points ``(X, Y, D)`` from :func:`~ribbonkit.geometry.lattice_meetings`.
   Region pairs and segment pairs whose integer boxes are disjoint cannot
   meet and are skipped.  Each region finds the candidates it holds: those
   on its boundary untested if its boundary lies in it (:func:`_held_sets`),
   the rest in its box's x range, a slice of the candidates sorted once by
   ``X // D``, by its box and then :func:`~ribbonkit.geometry.lattice_location`
   on its loops.  Only a returned witness is built as a :class:`Point2`.
3. The nerve is stored as its facets, the maximal sets of regions holding
   one candidate; every other simplex is a face of one, and the downward
   closure is built on demand.

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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import CollectionTooLarge, EmptyCollection
from .geometry import (
    LatticePoint,
    Point2,
    PointLocation,
    ScaledLoop,
    as_scaled_loop,
    boxes_meet,
    lattice_location,
    lattice_meetings,
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

    @classmethod
    def from_cycle(cls, c: FilledCycle, label: str = "") -> "Region":
        return cls(loops=(c.shape,), label=label or c.label)

    @classmethod
    def from_ribbon(cls, r: Ribbon, label: str = "") -> "Region":
        return cls(loops=(r.outer.shape,), excluded=(r.inner.shape,), label=label or r.label)

    def contains(self, p: Point2) -> bool:
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


class LatticeRegion:
    """A region on its family's integer lattice of scale ``s``: ``loops``
    and ``excluded`` :meth:`~ScaledLoop.at` ``s``, their ``box``, and the
    segments of all their rings (``segments``)."""

    __slots__ = ("box", "loops", "excluded", "segments")

    def __init__(self, region: Region, s: int):
        self.loops = [loop.at(s) for loop in region.loops]
        self.excluded = [loop.at(s) for loop in region.excluded]
        every = self.loops + self.excluded
        self.segments = [g for loop in every for g in loop.ring]
        self.box = (
            min(min(loop.xs) for loop in every),
            min(min(loop.ys) for loop in every),
            max(max(loop.xs) for loop in every),
            max(max(loop.ys) for loop in every),
        )

    def holds(self, x: int, y: int, d: int) -> bool:
        """The region holds the lattice point ``(x / d, y / d)``."""
        x0, y0, x1, y1 = self.box
        if x < x0 * d or x > x1 * d or y < y0 * d or y > y1 * d:
            return False
        if all(lattice_location(loop, x, y, d) is PointLocation.OUTSIDE for loop in self.loops):
            return False
        return all(lattice_location(loop, x, y, d) is not PointLocation.INSIDE for loop in self.excluded)


def family_lattice(regions: Sequence[Region]) -> Tuple[int, List[LatticeRegion]]:
    """``s``, the lcm of the family's loop denominators, and each region
    rescaled by it."""
    s = lcm(*(loop.den for r in regions for loop in r.loops + r.excluded))
    return s, [LatticeRegion(r, s) for r in regions]


def boundary_meetings(family: Sequence[LatticeRegion]) -> Iterator[Tuple[int, int, Tuple[LatticePoint, ...]]]:
    """``(i, j, meet)`` for each meeting of the boundaries of regions ``i < j``
    of a :func:`family_lattice`, region pair by region pair, ``meet`` as
    :func:`~ribbonkit.geometry.lattice_meet` gives it: one point
    ``(X, Y, D)``, or the two ends of a collinear overlap.  Region pairs
    whose boxes are disjoint cannot meet and are skipped."""
    for i, r1 in enumerate(family):
        for j in range(i + 1, len(family)):
            if boxes_meet(r1.box, family[j].box):
                for meet in lattice_meetings(r1.segments, family[j].segments):
                    yield i, j, meet


def _held_sets(family: Sequence[LatticeRegion]) -> Dict[LatticePoint, Set[int]]:
    """Each vertex of the arrangement of all boundary loops, in candidate
    order (boundary vertices, meetings of two regions' boundaries, then of
    two loops of one region), with the set of indices of the regions that
    hold it.

    A region is closed, its boundary in it, when it excludes nothing, or
    when it is one loop minus one excluded loop off the loop whose first
    vertex is inside the loop: by the Jordan curve theorem the excluded
    loop then lies inside the loop, so the loop lies outside it (or it
    would lie inside itself).  A closed region holds the points found on
    its boundary, as a vertex or a meeting, untested.  Each region tests
    the rest whose ``X // D`` is in its box's x range, a superset of those
    whose ``X / D`` is.
    """
    own = [
        [p for k, l in combinations(r.loops + r.excluded, 2) for m in lattice_meetings(k.ring, l.ring) for p in m]
        for r in family
    ]
    closed = [
        not r.excluded
        or (len(r.loops) == len(r.excluded) == 1 and not meets)
        and lattice_location(r.loops[0], r.excluded[0].xs[0], r.excluded[0].ys[0], 1) is PointLocation.INSIDE
        for r, meets in zip(family, own)
    ]
    held: Dict[LatticePoint, Set[int]] = {}

    def found(points, *indices):
        seeds = [i for i in indices if closed[i]]
        for p in points:
            held.setdefault(p, set()).update(seeds)

    for i, r in enumerate(family):
        found(((x, y, 1) for loop in r.loops + r.excluded for x, y in zip(loop.xs, loop.ys)), i)
    for i, j, meet in boundary_meetings(family):
        found(meet, i, j)
    for i, meets in enumerate(own):
        found(meets, i)
    points = sorted(held, key=lambda p: p[0] // p[2])
    keys = [x // d for x, _, d in points]
    for i, r in enumerate(family):
        for p in points[bisect_left(keys, r.box[0]) : bisect_right(keys, r.box[2])]:
            if i not in held[p] and r.holds(*p):
                held[p].add(i)
    return held


def common_witness(regions: Sequence[Region]) -> Optional[Point2]:
    """A point in the common intersection of all regions, if one exists."""
    if not regions:
        raise EmptyCollection("witness search over an empty collection")
    s, family = family_lattice(regions)
    for (x, y, d), held in _held_sets(family).items():
        if len(held) == len(family):
            return Point2(Fraction(x, d * s), Fraction(y, d * s))
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
    held = _held_sets(family_lattice(regions)[1]).values()
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
