"""Fixed-cell detection for finite self-maps and gradient-angle probes.

Finite cell maps need not have fixed cells (a vertex rotation is a
derangement), so detection reports an empty set instead of assuming
existence.  The filament retraction map is the constructive example: it
collapses a filament onto its inner-boundary endpoint, which is fixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Optional

from .complexes import CellComplex
from .errors import (
    FilamentNotInRibbon,
    PartialMap,
    UnknownCellId,
    VertexNotOnInnerBoundary,
)
from .ribbons import Filament, Ribbon

ANGLE_DEN = 10**6


@dataclass(eq=False)
class CellMap:
    """Self-map of a complex, total over an explicit cell domain."""

    complex: CellComplex
    mapping: Dict[str, str]
    domain: Optional[FrozenSet[str]] = None

    def __post_init__(self):
        if self.domain is None:
            self.domain = frozenset(self.mapping)
        else:
            self.domain = frozenset(self.domain)
            missing = self.domain - set(self.mapping)
            if missing:
                raise PartialMap(f"map undefined on cells {sorted(missing)}")
        for cid, target in self.mapping.items():
            if cid not in self.complex.cells:
                raise UnknownCellId(f"domain cell {cid!r} is not in the complex")
            if target not in self.complex.cells:
                raise UnknownCellId(f"image cell {target!r} is not in the complex")

    @classmethod
    def identity(cls, k: CellComplex) -> "CellMap":
        return cls(k, {cid: cid for cid in k.cells})

    def apply(self, cid: str) -> str:
        if cid not in self.domain:
            raise PartialMap(f"cell {cid!r} is outside the map domain")
        return self.mapping[cid]

    def compose(self) -> "CellMap":
        """The map applied twice over the same domain."""
        out = {}
        for cid in self.domain:
            mid = self.mapping[cid]
            if mid not in self.domain:
                raise PartialMap(f"image cell {mid!r} escapes the domain; cannot iterate")
            out[cid] = self.mapping[mid]
        return CellMap(self.complex, out, self.domain)


def fixed_cells(m: CellMap) -> FrozenSet[str]:
    """All domain cells mapped to themselves; may be empty."""
    return frozenset(cid for cid in m.domain if m.mapping[cid] == cid)


def filament_retraction_map(
    r: Ribbon, fil: Filament, extend_identity: bool = False
) -> CellMap:
    """Collapse a filament of ``r`` onto its inner-boundary endpoint.

    The returned map sends both filament endpoints and the filament edge
    to the inner endpoint.  By default the domain is the filament closure,
    so the fixed set is exactly that endpoint; with ``extend_identity``
    the map is extended identically to every other cell of the complex.
    """
    if fil not in r.filaments:
        raise FilamentNotInRibbon(
            f"filament {fil.outer_vertex!r}-{fil.inner_vertex!r} does not belong to {r!r}"
        )
    k = r.complex
    edge_id = k.edge_between(fil.outer_vertex, fil.inner_vertex)
    if edge_id is None:
        raise FilamentNotInRibbon("filament edge cell is missing from the complex")
    p = fil.inner_vertex
    mapping = {fil.outer_vertex: p, fil.inner_vertex: p, edge_id: p}
    if extend_identity:
        for cid in k.cells:
            mapping.setdefault(cid, cid)
    return CellMap(k, mapping)


def _wrap_to_grid(angle: float) -> Fraction:
    """Round an angle in radians to the 1e-6 rational grid inside (-pi, pi]."""
    units = round(angle * ANGLE_DEN)
    if units <= -3141593:
        units = 3141593
    return Fraction(units, ANGLE_DEN)


def gradient_angle(r: Ribbon, vertex_id: str) -> Fraction:
    """Tangent direction at an inner-loop vertex, on the 1e-6 grid.

    The tangent is the bisector of the two travel directions through the
    vertex along the inner loop.  When the directions are exactly opposite
    the left normal of the incoming direction is used, which keeps the
    result deterministic and rotation-equivariant.
    """
    loop = r.inner.loop
    if vertex_id not in loop:
        raise VertexNotOnInnerBoundary(f"vertex {vertex_id!r} is not on the inner loop")
    idx = loop.index(vertex_id)
    k = r.complex
    p = k.vertices[vertex_id]
    u = k.vertices[loop[idx - 1]]
    w = k.vertices[loop[(idx + 1) % len(loop)]]
    d1 = (p.x - u.x, p.y - u.y)
    d2 = (w.x - p.x, w.y - p.y)
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    dot = d1[0] * d2[0] + d1[1] * d2[1]
    if cross == 0 and dot < 0:
        # straight-through reversal: take the left normal of the approach
        return _wrap_to_grid(math.atan2(float(d1[0]), -float(d1[1])))
    n1 = math.hypot(float(d1[0]), float(d1[1]))
    n2 = math.hypot(float(d2[0]), float(d2[1]))
    bx = float(d1[0]) / n1 + float(d2[0]) / n2
    by = float(d1[1]) / n1 + float(d2[1]) / n2
    return _wrap_to_grid(math.atan2(by, bx))


def declared_fixed_vertex(r: Ribbon) -> Optional[str]:
    """The ribbon's declared fixed vertex, falling back to the first
    filament's inner endpoint."""
    if r.fixed_vertex is not None:
        return r.fixed_vertex
    if r.filaments:
        return r.filaments[0].inner_vertex
    return None
