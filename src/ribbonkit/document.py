"""The ``.rcx`` document format: canonical JSON for shape structures.

Canonical form has sorted keys, no insignificant whitespace, and rationals
as reduced ``"num/den"`` strings (plain ``"num"`` when the denominator is
one).  Serializing a parsed canonical document reproduces it byte for
byte.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import CellComplex, CellKind
from .errors import (
    NonCanonicalRational,
    RibbonError,
    SchemaViolation,
    UnknownTarget,
    UnknownVertex,
    UnresolvedReference,
)
from .geometry import Point2, to_fraction
from .proximity import probe_by_name
from .ribbons import (
    Filament,
    FilledCycle,
    Ribbon,
    RibbonComplex,
    VortexNerve,
    make_filled_cycle,
    make_ribbon,
)

FORMAT_VERSION = 1
# Canonical spellings only: an exponent would make Fraction expand it unbounded.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _quoted(text: str) -> str:
    """``text`` for an error message: whole when short, else a prefix and the length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:20]!r}... ({len(text)} characters)"


def parse_rational(raw, path: str) -> Fraction:
    """Parse a document rational; strings must already be canonical."""
    if isinstance(raw, bool):
        raise SchemaViolation(f"{path}: expected a rational, got a boolean")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        try:
            return to_fraction(raw)
        except ValueError as exc:
            raise NonCanonicalRational(f"{path}: {exc}") from exc
    if isinstance(raw, str):
        if not _RATIONAL.fullmatch(raw):
            raise NonCanonicalRational(f"{path}: {_quoted(raw)} is not a canonical rational")
        num, _, den = raw.partition("/")
        try:
            n, d = int(num), int(den or 1)
            value = Fraction(n, d)
        except (ValueError, ZeroDivisionError) as exc:
            raise NonCanonicalRational(f"{path}: {_quoted(raw)} is not a rational") from exc
        if str(n) != num or value.denominator != d or (den and (d == 1 or str(d) != den)):
            raise NonCanonicalRational(
                f"{path}: {_quoted(raw)} is not canonical"
                f" (expected {_quoted(format_rational(value))})"
            )
        return value
    raise SchemaViolation(f"{path}: expected a rational, got {type(raw).__name__}")


@dataclass
class ComplexDocument:
    """Named shape structures plus an optional probe selection."""

    format_version: int = FORMAT_VERSION
    complexes: Dict[str, CellComplex] = field(default_factory=dict)
    cycles: Dict[str, FilledCycle] = field(default_factory=dict)
    ribbons: Dict[str, Ribbon] = field(default_factory=dict)
    ribbon_complexes: Dict[str, RibbonComplex] = field(default_factory=dict)
    vortex_nerves: Dict[str, VortexNerve] = field(default_factory=dict)
    probes: Optional[Tuple[str, ...]] = None
    threshold: Optional[Fraction] = None

    def target(self, name: str):
        for table in (
            self.ribbons,
            self.ribbon_complexes,
            self.vortex_nerves,
            self.cycles,
            self.complexes,
        ):
            if name in table:
                return table[name]
        raise UnknownTarget(f"document has no structure named {name!r}")


def _expect_dict(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise SchemaViolation(f"{path}: expected an object")
    return node


def _expect_list(node, path: str) -> list:
    if not isinstance(node, list):
        raise SchemaViolation(f"{path}: expected an array")
    return node


def _expect_str(node, path: str) -> str:
    if not isinstance(node, str):
        raise SchemaViolation(f"{path}: expected a string")
    return node


def _check_keys(node: dict, allowed: Sequence[str], path: str) -> None:
    unknown = set(node) - set(allowed)
    if unknown:
        raise SchemaViolation(f"{path}: unknown keys {sorted(unknown)}")


def _parse_point(node, path: str) -> Point2:
    arr = _expect_list(node, path)
    if len(arr) != 2:
        raise SchemaViolation(f"{path}: a point is a [x, y] pair")
    return Point2(parse_rational(arr[0], f"{path}[0]"), parse_rational(arr[1], f"{path}[1]"))


def _parse_filament_list(node, path: str) -> List[Tuple[str, str]]:
    out = []
    for i, item in enumerate(_expect_list(node, path)):
        pair = _expect_list(item, f"{path}[{i}]")
        if len(pair) != 2:
            raise SchemaViolation(f"{path}[{i}]: a filament is an [outer, inner] pair")
        out.append((_expect_str(pair[0], f"{path}[{i}][0]"), _expect_str(pair[1], f"{path}[{i}][1]")))
    return out


def _register(doc: ComplexDocument, table: Dict, name: str, obj, path: str) -> None:
    tables = (doc.complexes, doc.cycles, doc.ribbons, doc.ribbon_complexes, doc.vortex_nerves)
    if any(name in t for t in tables):
        raise SchemaViolation(f"{path}: name {name!r} is already in use")
    table[name] = obj


def parse_document(text: str) -> ComplexDocument:
    try:
        root = json.loads(text)
    except ValueError as exc:  # also an integer literal past the digit limit
        raise SchemaViolation(f"document is not valid JSON: {exc}") from exc
    root = _expect_dict(root, "$")
    _check_keys(root, ("format_version", "complexes", "probes", "threshold"), "$")
    version = root.get("format_version")
    if version != FORMAT_VERSION:
        raise SchemaViolation(f"$.format_version: expected {FORMAT_VERSION}, got {version!r}")
    doc = ComplexDocument(format_version=version)

    for kname, knode in sorted(_expect_dict(root.get("complexes", {}), "$.complexes").items()):
        kpath = f"$.complexes.{kname}"
        knode = _expect_dict(knode, kpath)
        _check_keys(
            knode,
            ("vertices", "edges", "triangles", "cycles", "ribbons", "ribbon_complexes", "vortex_nerves"),
            kpath,
        )
        k = CellComplex(kname)
        _register(doc, doc.complexes, kname, k, kpath)
        for vid, vnode in sorted(_expect_dict(knode.get("vertices", {}), f"{kpath}.vertices").items()):
            try:
                k.add_vertex(vid, _parse_point(vnode, f"{kpath}.vertices.{vid}"))
            except ValueError as exc:
                raise SchemaViolation(f"{kpath}.vertices.{vid}: {exc}") from exc
        for eid, enode in sorted(_expect_dict(knode.get("edges", {}), f"{kpath}.edges").items()):
            pair = _expect_list(enode, f"{kpath}.edges.{eid}")
            if len(pair) != 2:
                raise SchemaViolation(f"{kpath}.edges.{eid}: an edge is an [a, b] pair")
            a, b = (_expect_str(v, f"{kpath}.edges.{eid}") for v in pair)
            for vid in (a, b):
                if vid not in k.vertices:
                    raise UnresolvedReference(f"{kpath}.edges.{eid}: unknown vertex {vid!r}")
            if k.edge_between(a, b) is not None:
                raise SchemaViolation(f"{kpath}.edges.{eid}: duplicate edge {a!r}-{b!r}")
            try:
                k.add_edge(a, b, eid)
            except RibbonError as exc:
                raise SchemaViolation(f"{kpath}.edges.{eid}: {exc}") from exc
        for tid, tnode in sorted(_expect_dict(knode.get("triangles", {}), f"{kpath}.triangles").items()):
            triple = _expect_list(tnode, f"{kpath}.triangles.{tid}")
            if len(triple) != 3:
                raise SchemaViolation(f"{kpath}.triangles.{tid}: a triangle is an [a, b, c] triple")
            a, b, c = (_expect_str(v, f"{kpath}.triangles.{tid}") for v in triple)
            for vid in (a, b, c):
                if vid not in k.vertices:
                    raise UnresolvedReference(f"{kpath}.triangles.{tid}: unknown vertex {vid!r}")
            try:
                k.add_triangle(a, b, c, tid)
            except RibbonError as exc:
                raise SchemaViolation(f"{kpath}.triangles.{tid}: {exc}") from exc

        for cname, cnode in sorted(_expect_dict(knode.get("cycles", {}), f"{kpath}.cycles").items()):
            cpath = f"{kpath}.cycles.{cname}"
            loop = [_expect_str(v, cpath) for v in _expect_list(cnode, cpath)]
            try:
                cyc = make_filled_cycle(k, loop, cname)
            except UnknownVertex as exc:
                raise UnresolvedReference(f"{cpath}: {exc}") from exc
            except RibbonError as exc:
                raise SchemaViolation(f"{cpath}: {exc}") from exc
            _register(doc, doc.cycles, cname, cyc, cpath)

        for rname, rnode in sorted(_expect_dict(knode.get("ribbons", {}), f"{kpath}.ribbons").items()):
            rpath = f"{kpath}.ribbons.{rname}"
            rnode = _expect_dict(rnode, rpath)
            _check_keys(rnode, ("outer", "inner", "filaments", "holes", "fixed_vertex"), rpath)
            cycles = {}
            for role in ("outer", "inner"):
                cyc_name = _expect_str(rnode.get(role, ""), f"{rpath}.{role}")
                cyc = doc.cycles.get(cyc_name)
                if cyc is None or cyc.complex is not k:
                    raise UnresolvedReference(f"{rpath}.{role}: unknown cycle {cyc_name!r}")
                cycles[role] = cyc
            holes = [
                _parse_point(hnode, f"{rpath}.holes[{i}]")
                for i, hnode in enumerate(_expect_list(rnode.get("holes", []), f"{rpath}.holes"))
            ]
            filaments = _parse_filament_list(rnode.get("filaments", []), f"{rpath}.filaments")
            fixed = rnode.get("fixed_vertex")
            if fixed is not None:
                fixed = _expect_str(fixed, f"{rpath}.fixed_vertex")
            try:
                ribbon = make_ribbon(
                    cycles["outer"],
                    cycles["inner"],
                    filaments=filaments,
                    holes=holes,
                    label=rname,
                    fixed_vertex=fixed,
                )
            except RibbonError as exc:
                raise SchemaViolation(f"{rpath}: {exc}") from exc
            _register(doc, doc.ribbons, rname, ribbon, rpath)

        for xname, xnode in sorted(
            _expect_dict(knode.get("ribbon_complexes", {}), f"{kpath}.ribbon_complexes").items()
        ):
            xpath = f"{kpath}.ribbon_complexes.{xname}"
            members = []
            for i, item in enumerate(_expect_list(xnode, xpath)):
                rid = _expect_str(item, f"{xpath}[{i}]")
                ribbon = doc.ribbons.get(rid)
                if ribbon is None or ribbon.complex is not k:
                    raise UnresolvedReference(f"{xpath}[{i}]: unknown ribbon {rid!r}")
                members.append(ribbon)
            try:
                rbx = RibbonComplex(tuple(members), label=xname)
            except RibbonError as exc:
                raise SchemaViolation(f"{xpath}: {exc}") from exc
            _register(doc, doc.ribbon_complexes, xname, rbx, xpath)

        for vname, vnode in sorted(
            _expect_dict(knode.get("vortex_nerves", {}), f"{kpath}.vortex_nerves").items()
        ):
            vpath = f"{kpath}.vortex_nerves.{vname}"
            vnode = _expect_dict(vnode, vpath)
            _check_keys(vnode, ("cycles", "filaments"), vpath)
            chain = []
            for i, item in enumerate(_expect_list(vnode.get("cycles", []), f"{vpath}.cycles")):
                cid = _expect_str(item, f"{vpath}.cycles[{i}]")
                cyc = doc.cycles.get(cid)
                if cyc is None or cyc.complex is not k:
                    raise UnresolvedReference(f"{vpath}.cycles[{i}]: unknown cycle {cid!r}")
                chain.append(cyc)
            filaments = [
                Filament(*pair)
                for pair in _parse_filament_list(vnode.get("filaments", []), f"{vpath}.filaments")
            ]
            try:
                vnrv = VortexNerve(tuple(chain), tuple(filaments), label=vname)
            except RibbonError as exc:
                raise SchemaViolation(f"{vpath}: {exc}") from exc
            _register(doc, doc.vortex_nerves, vname, vnrv, vpath)

    if "probes" in root:
        probes = [_expect_str(p, "$.probes") for p in _expect_list(root["probes"], "$.probes")]
        for p in probes:
            try:
                probe_by_name(p)
            except RibbonError as exc:
                raise SchemaViolation(f"$.probes: {exc}") from exc
        doc.probes = tuple(probes)
    if "threshold" in root:
        th = parse_rational(root["threshold"], "$.threshold")
        if th <= 0:
            raise SchemaViolation(f"$.threshold: must be positive, got {th}")
        doc.threshold = th
    return doc


def _cycle_name(doc: ComplexDocument, c: FilledCycle) -> str:
    for name, obj in doc.cycles.items():
        if obj is c:
            return name
    raise ValueError("ribbon references a cycle that is not named in the document")


def _ribbon_name(doc: ComplexDocument, r: Ribbon) -> str:
    for name, obj in doc.ribbons.items():
        if obj is r:
            return name
    raise ValueError("collection references a ribbon that is not named in the document")


def document_payload(doc: ComplexDocument) -> dict:
    """Plain-JSON payload in canonical (fully named) shape."""
    payload: dict = {"format_version": doc.format_version, "complexes": {}}
    for kname, k in doc.complexes.items():
        knode: dict = {}
        knode["vertices"] = {
            vid: [format_rational(p.x), format_rational(p.y)]
            for vid, p in k.vertices.items()
        }
        edges = {
            cid: list(cell.vertex_ids)
            for cid, cell in k.cells.items()
            if cell.kind is CellKind.EDGE
        }
        if edges:
            knode["edges"] = edges
        triangles = {
            cid: list(cell.vertex_ids)
            for cid, cell in k.cells.items()
            if cell.kind is CellKind.TRIANGLE
        }
        if triangles:
            knode["triangles"] = triangles
        cycles = {
            name: list(c.loop) for name, c in doc.cycles.items() if c.complex is k
        }
        if cycles:
            knode["cycles"] = cycles
        ribbons = {}
        for name, r in doc.ribbons.items():
            if r.complex is not k:
                continue
            rnode = {
                "outer": _cycle_name(doc, r.outer),
                "inner": _cycle_name(doc, r.inner),
                "filaments": [[f.outer_vertex, f.inner_vertex] for f in r.filaments],
                "holes": [
                    [format_rational(h.marker.x), format_rational(h.marker.y)]
                    for h in r.holes
                ],
            }
            if r.fixed_vertex is not None:
                rnode["fixed_vertex"] = r.fixed_vertex
            ribbons[name] = rnode
        if ribbons:
            knode["ribbons"] = ribbons
        rbxs = {
            name: [_ribbon_name(doc, r) for r in x.ribbons]
            for name, x in doc.ribbon_complexes.items()
            if x.ribbons[0].complex is k
        }
        if rbxs:
            knode["ribbon_complexes"] = rbxs
        vnrvs = {}
        for name, v in doc.vortex_nerves.items():
            if v.cycles[0].complex is not k:
                continue
            vnrvs[name] = {
                "cycles": [_cycle_name(doc, c) for c in v.cycles],
                "filaments": [[f.outer_vertex, f.inner_vertex] for f in v.filaments],
            }
        if vnrvs:
            knode["vortex_nerves"] = vnrvs
        payload["complexes"][kname] = knode
    if doc.probes is not None:
        payload["probes"] = list(doc.probes)
    if doc.threshold is not None:
        payload["threshold"] = format_rational(doc.threshold)
    return payload


def serialize_document(doc: ComplexDocument) -> str:
    return json.dumps(document_payload(doc), sort_keys=True, separators=(",", ":")) + "\n"
