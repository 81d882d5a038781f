"""Filled cycles, ribbons, ribbon complexes and vortex nerves.

A ribbon is the closure of an outer filled cycle minus the open interior
of a strictly nested inner cycle; both boundary loops belong to the
ribbon.  Holes are point markers inside the annulus and filaments are
edges joining a vertex of the outer loop to a vertex of the inner loop.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .complexes import CellComplex
from .errors import (
    ConcentricCycles,
    EmptyCollection,
    FilamentEndpointOffBoundary,
    HoleOutsideRibbon,
    NonSimplePolygon,
    NotNested,
    TooFewCycles,
    UnknownVertex,
    VertexNotOnInnerBoundary,
)
from .geometry import (
    Point2,
    PointLocation,
    ScaledLoop,
    loop_segments,
    segment_intersection,
    simple_polygon,
    vertex_centroid,
)


@dataclass(eq=False)
class FilledCycle:
    """Simple closed polygonal loop together with its interior."""

    complex: CellComplex
    loop: Tuple[str, ...]
    label: str = ""

    def __post_init__(self):
        self.loop = tuple(self.loop)
        self._points = tuple(self.complex.vertices[v] for v in self.loop)
        self._scaled = ScaledLoop(self._points)

    @property
    def points(self) -> Tuple[Point2, ...]:
        return self._points

    def segments(self):
        return loop_segments(self._points)

    def locate(self, p: Point2) -> PointLocation:
        return self._scaled.classify(p)

    def centroid(self) -> Point2:
        return vertex_centroid(self._points)

    def __repr__(self) -> str:
        return f"FilledCycle({self.label or len(self.loop)})"


def make_filled_cycle(k: CellComplex, loop: Sequence[str], label: str = "") -> FilledCycle:
    """Register a filled cycle on ``k``; loop edges are added when absent."""
    loop = tuple(loop)
    for vid in loop:
        if vid not in k.vertices:
            raise UnknownVertex(f"loop vertex {vid!r} is not in complex {k.name!r}")
    pts = [k.vertices[v] for v in loop]
    if not simple_polygon(pts):
        raise NonSimplePolygon(f"cycle {label or loop} is not a simple closed polygon")
    n = len(loop)
    for i in range(n):
        k.add_edge(loop[i], loop[(i + 1) % n])
    return FilledCycle(k, loop, label)


def is_nested(inner: FilledCycle, outer: FilledCycle) -> bool:
    """True iff every inner vertex is strictly inside ``outer`` and the
    two boundaries do not meet anywhere."""
    for p in inner.points:
        if outer.locate(p) is not PointLocation.INSIDE:
            return False
    for a, b in inner.segments():
        for c, d in outer.segments():
            if segment_intersection(a, b, c, d) is not None:
                return False
    return True


def is_concentric(a: FilledCycle, b: FilledCycle) -> bool:
    """Equal vertex centroids, compared exactly."""
    return a.centroid() == b.centroid()


@dataclass(frozen=True)
class Hole:
    """Point marker for a non-retractable spot in a ribbon interior."""

    marker: Point2
    label: str = ""


@dataclass(frozen=True)
class Filament:
    """Edge between a vertex of the outer loop and one of the inner loop."""

    outer_vertex: str
    inner_vertex: str


class RibbonMembership(Enum):
    IN_RIBBON = "in_ribbon"
    ON_OUTER_BOUNDARY = "on_outer_boundary"
    ON_INNER_BOUNDARY = "on_inner_boundary"
    IN_REMOVED_INTERIOR = "in_removed_interior"
    OUTSIDE = "outside"


@dataclass(eq=False)
class Ribbon:
    outer: FilledCycle
    inner: FilledCycle
    filaments: Tuple[Filament, ...] = ()
    holes: Tuple[Hole, ...] = ()
    label: str = ""
    fixed_vertex: Optional[str] = None

    @property
    def complex(self) -> CellComplex:
        return self.outer.complex

    def membership(self, p: Point2) -> RibbonMembership:
        loc_inner = self.inner.locate(p)
        if loc_inner is PointLocation.ON_BOUNDARY:
            return RibbonMembership.ON_INNER_BOUNDARY
        if loc_inner is PointLocation.INSIDE:
            return RibbonMembership.IN_REMOVED_INTERIOR
        loc_outer = self.outer.locate(p)
        if loc_outer is PointLocation.ON_BOUNDARY:
            return RibbonMembership.ON_OUTER_BOUNDARY
        if loc_outer is PointLocation.INSIDE:
            return RibbonMembership.IN_RIBBON
        return RibbonMembership.OUTSIDE

    def contains(self, p: Point2) -> bool:
        return self.membership(p) not in (
            RibbonMembership.OUTSIDE,
            RibbonMembership.IN_REMOVED_INTERIOR,
        )

    def __repr__(self) -> str:
        return f"Ribbon({self.label or 'unnamed'})"


def ribbon_membership(r: Ribbon, p: Point2) -> RibbonMembership:
    return r.membership(p)


def _check_filament(r_outer: FilledCycle, r_inner: FilledCycle, fil: Filament) -> None:
    if fil.outer_vertex not in r_outer.loop:
        raise FilamentEndpointOffBoundary(
            f"filament endpoint {fil.outer_vertex!r} is not on the outer loop"
        )
    if fil.inner_vertex not in r_inner.loop:
        raise FilamentEndpointOffBoundary(
            f"filament endpoint {fil.inner_vertex!r} is not on the inner loop"
        )
    k = r_outer.complex
    fa = k.vertices[fil.outer_vertex]
    fb = k.vertices[fil.inner_vertex]
    for cycle, endpoint in ((r_outer, fa), (r_inner, fb)):
        for a, b in cycle.segments():
            inter = segment_intersection(fa, fb, a, b)
            if inter is None:
                continue
            if inter != ("point", endpoint):
                raise FilamentEndpointOffBoundary(
                    f"filament {fil.outer_vertex!r}-{fil.inner_vertex!r} crosses a cycle boundary"
                )
    mid = Point2((fa.x + fb.x) / 2, (fa.y + fb.y) / 2)
    if (
        r_outer.locate(mid) is not PointLocation.INSIDE
        or r_inner.locate(mid) is not PointLocation.OUTSIDE
    ):
        raise FilamentEndpointOffBoundary(
            f"filament {fil.outer_vertex!r}-{fil.inner_vertex!r} leaves the ribbon annulus"
        )


def make_ribbon(
    outer: FilledCycle,
    inner: FilledCycle,
    filaments: Iterable[Union[Filament, Tuple[str, str]]] = (),
    holes: Iterable[Union[Hole, Point2]] = (),
    label: str = "",
    fixed_vertex: Optional[str] = None,
    allow_concentric: bool = False,
) -> Ribbon:
    """Build a ribbon from a nesting pair of cycles on one complex."""
    if outer.complex is not inner.complex:
        raise ValueError("ribbon cycles must live on the same complex")
    if not is_nested(inner, outer):
        raise NotNested(
            f"cycle {inner.label or '<inner>'} is not strictly nested in {outer.label or '<outer>'}"
        )
    if not allow_concentric and is_concentric(outer, inner):
        raise ConcentricCycles(
            "cycles share their vertex centroid; pass allow_concentric=True to accept"
        )
    norm_holes: List[Hole] = []
    for idx, h in enumerate(holes):
        hole = h if isinstance(h, Hole) else Hole(marker=h, label=f"h{idx}")
        if (
            outer.locate(hole.marker) is not PointLocation.INSIDE
            or inner.locate(hole.marker) is not PointLocation.OUTSIDE
        ):
            raise HoleOutsideRibbon(f"hole marker {hole.marker} is not inside the annulus")
        norm_holes.append(hole)
    norm_fils: List[Filament] = []
    for f in filaments:
        fil = f if isinstance(f, Filament) else Filament(*f)
        _check_filament(outer, inner, fil)
        norm_fils.append(fil)
    if fixed_vertex is not None and fixed_vertex not in inner.loop:
        raise VertexNotOnInnerBoundary(
            f"declared fixed vertex {fixed_vertex!r} is not on the inner loop"
        )
    for fil in norm_fils:
        outer.complex.add_edge(fil.outer_vertex, fil.inner_vertex)
    return Ribbon(
        outer=outer,
        inner=inner,
        filaments=tuple(norm_fils),
        holes=tuple(norm_holes),
        label=label,
        fixed_vertex=fixed_vertex,
    )


@dataclass(eq=False)
class RibbonComplex:
    """Nonempty collection of ribbons."""

    ribbons: Tuple[Ribbon, ...]
    label: str = ""

    def __post_init__(self):
        self.ribbons = tuple(self.ribbons)
        if not self.ribbons:
            raise EmptyCollection("a ribbon complex holds at least one ribbon")

    def __repr__(self) -> str:
        return f"RibbonComplex({self.label or len(self.ribbons)})"


@dataclass(eq=False)
class RibbonNerve:
    """Group of ribbons with nonempty common intersection."""

    ribbons: Tuple[Ribbon, ...]
    label: str = ""

    def __post_init__(self):
        self.ribbons = tuple(self.ribbons)
        if not self.ribbons:
            raise EmptyCollection("a ribbon nerve holds at least one ribbon")

    def __repr__(self) -> str:
        return f"RibbonNerve({self.label or len(self.ribbons)})"


@dataclass(eq=False)
class VortexNerve:
    """Chain of nesting filled cycles, innermost first, plus filaments."""

    cycles: Tuple[FilledCycle, ...]
    filaments: Tuple[Filament, ...] = ()
    label: str = ""

    def __post_init__(self):
        self.cycles = tuple(self.cycles)
        self.filaments = tuple(
            f if isinstance(f, Filament) else Filament(*f) for f in self.filaments
        )
        if len(self.cycles) < 2:
            raise TooFewCycles(f"a vortex nerve needs k >= 2 cycles, got {len(self.cycles)}")
        k0 = self.cycles[0].complex
        for c in self.cycles:
            if c.complex is not k0:
                raise ValueError("vortex nerve cycles must live on the same complex")
        for i in range(len(self.cycles) - 1):
            if not is_nested(self.cycles[i], self.cycles[i + 1]):
                raise NotNested(
                    f"cycle {i} is not strictly nested in cycle {i + 1} of the chain"
                )
        self._filament_slot: Dict[Filament, int] = {}
        for fil in self.filaments:
            slot = None
            for i in range(len(self.cycles) - 1):
                if (
                    fil.inner_vertex in self.cycles[i].loop
                    and fil.outer_vertex in self.cycles[i + 1].loop
                ):
                    slot = i
                    break
            if slot is None:
                raise FilamentEndpointOffBoundary(
                    f"filament {fil.outer_vertex!r}-{fil.inner_vertex!r} joins no adjacent cycle pair"
                )
            self._filament_slot[fil] = slot

    def __repr__(self) -> str:
        return f"VortexNerve({self.label or len(self.cycles)})"


def ribbons_of_vortex_nerve(v: VortexNerve) -> Tuple[Ribbon, ...]:
    """The k-1 ribbons of a k-cycle nerve, adjacent pairs in ascending order."""
    k = len(v.cycles)
    if k < 2:
        raise TooFewCycles("need at least two cycles to form a ribbon")
    prefix = f"{v.label}/" if v.label else ""
    out: List[Ribbon] = []
    for i in range(k - 1):
        fils = tuple(f for f in v.filaments if v._filament_slot[f] == i)
        out.append(
            make_ribbon(
                outer=v.cycles[i + 1],
                inner=v.cycles[i],
                filaments=fils,
                label=f"{prefix}rb{i}",
                allow_concentric=True,
            )
        )
    return tuple(out)


def ribbon_nerves_of_vortex_nerve(v: VortexNerve) -> Tuple[RibbonNerve, ...]:
    """The k-2 ribbon nerves of a k-cycle nerve; adjacent ribbons share a cycle."""
    k = len(v.cycles)
    if k < 3:
        raise TooFewCycles(f"need at least three cycles for a ribbon nerve, got {k}")
    ribbons = ribbons_of_vortex_nerve(v)
    prefix = f"{v.label}/" if v.label else ""
    return tuple(
        RibbonNerve((ribbons[i], ribbons[i + 1]), label=f"{prefix}rbnrv{i}")
        for i in range(k - 2)
    )
