"""Built-in sample structures used by tests, docs and the CLI demos.

Each sample is a canonical ``.rcx`` document shipped in ``samples/``.  Every
function parses its document afresh, so callers may mutate what they get
without affecting later calls.
"""
from __future__ import annotations

from importlib.resources import files
from typing import Dict, NamedTuple

from .complexes import CellComplex
from .document import ComplexDocument, parse_document
from .geometry import Point2, point
from .ribbons import Filament, FilledCycle, Ribbon, RibbonComplex, VortexNerve

# The order of sample_documents(): callers pick its ribbons by position.
_STEMS = (
    "two_hole_ribbon", "shared_vertex_pair", "triple_vortex", "five_ribbon_complex",
    "filament_ribbon", "nerve_space_pair", "proximity_demo",
)


def _load(stem: str) -> ComplexDocument:
    return parse_document((files(__package__) / "samples" / f"{stem}.rcx").read_text(encoding="utf-8"))


class TwoHoleRibbon(NamedTuple):
    complex: CellComplex
    outer: FilledCycle
    inner: FilledCycle
    ribbon: Ribbon


def two_hole_ribbon() -> TwoHoleRibbon:
    """One ribbon on a pair of ten-vertex nesting loops with two hole markers."""
    doc = _load("two_hole_ribbon")
    return TwoHoleRibbon(doc.complexes["K"], doc.cycles["outer"], doc.cycles["inner"], doc.ribbons["ring"])


class SharedVertexPair(NamedTuple):
    complex: CellComplex
    lower: Ribbon
    upper: Ribbon
    rbx: RibbonComplex
    junction: Point2


def shared_vertex_pair() -> SharedVertexPair:
    """Two ribbons meeting in a single shared boundary vertex.

    The lower ribbon carries two hole markers, the upper one three.
    """
    doc = _load("shared_vertex_pair")
    return SharedVertexPair(
        doc.complexes["Kp"], doc.ribbons["lower"], doc.ribbons["upper"], doc.ribbon_complexes["pair"], point(2, 2)
    )


class TripleVortex(NamedTuple):
    complex: CellComplex
    nerve: VortexNerve


def triple_vortex() -> TripleVortex:
    """A vortex nerve of three nesting ten-vertex cycles, innermost first."""
    doc = _load("triple_vortex")
    return TripleVortex(doc.complexes["Kv"], doc.vortex_nerves["vortex"])


class FiveRibbonComplex(NamedTuple):
    complex: CellComplex
    ribbons: Dict[str, Ribbon]
    rbx: RibbonComplex
    junction: Point2


def five_ribbon_complex() -> FiveRibbonComplex:
    """Five ribbons: three meet in one vertex, two sit apart on the right."""
    doc = _load("five_ribbon_complex")
    rbx = doc.ribbon_complexes["five"]
    return FiveRibbonComplex(doc.complexes["Kx"], {r.label: r for r in rbx.ribbons}, rbx, point(2, 2))


class FilamentRibbon(NamedTuple):
    complex: CellComplex
    ribbon: Ribbon
    filament: Filament
    outer_vertex: str
    inner_vertex: str


def filament_ribbon() -> FilamentRibbon:
    """A ribbon with one filament and three hole markers.

    The filament joins the outer vertex at (1, 1/2) to the inner vertex at
    (1, 3/4); the inner endpoint is the ribbon's declared fixed point.
    """
    doc = _load("filament_ribbon")
    ribbon = doc.ribbons["ring"]
    fil = ribbon.filaments[0]
    return FilamentRibbon(doc.complexes["Kf"], ribbon, fil, fil.outer_vertex, fil.inner_vertex)


class NerveSpace(NamedTuple):
    complex: CellComplex
    rbx: RibbonComplex


class NerveSpacePair(NamedTuple):
    left: NerveSpace
    right: NerveSpace


def nerve_space_pair() -> NerveSpacePair:
    """Two disjoint spaces whose ribbon groups both carry six hole markers.

    The left space holds three ribbons meeting in one vertex; the right
    space holds two ribbons sharing a boundary edge.
    """
    doc = _load("nerve_space_pair")
    return NerveSpacePair(
        NerveSpace(doc.complexes["Kl"], doc.ribbon_complexes["left_group"]),
        NerveSpace(doc.complexes["Kr"], doc.ribbon_complexes["right_group"]),
    )


def sample_documents() -> Dict[str, ComplexDocument]:
    """Every packaged sample document, keyed by file stem."""
    return {stem: _load(stem) for stem in _STEMS}
