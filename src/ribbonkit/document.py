"""The ``.rcx`` document format: canonical JSON for shape structures.

Canonical form has sorted keys, no insignificant whitespace, and rationals
as reduced ``"num/den"`` strings (plain ``"num"`` when the denominator is
one).  Serializing a parsed canonical document reproduces it byte for
byte.

:func:`parse_document` reads each coordinate string once per call, by integer
tests on its digits; the complex keeps each vertex's integer parts.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
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
    FilledCycle,
    Ribbon,
    RibbonComplex,
    VortexNerve,
    make_filled_cycle,
    make_ribbon,
)

FORMAT_VERSION = 1
# Canonical spellings only: an exponent would make Fraction expand it unbounded.
_RATIONAL = re.compile(r"(-?([0-9]+))(?:/([0-9]+))?")


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
        m = _RATIONAL.fullmatch(raw)
        if m is None:
            raise NonCanonicalRational(f"{path}: {_quoted(raw)} is not a canonical rational")
        num, digits, den = m.groups()
        try:
            n, d = int(num), int(den or 1)
            value = Fraction(n, d)
        except (ValueError, ZeroDivisionError) as exc:
            raise NonCanonicalRational(f"{path}: {_quoted(raw)} is not a rational") from exc
        if (digits[0] == "0" and num != "0") or (den and (den[0] == "0" or d == 1 or gcd(n, d) != 1)):
            raise NonCanonicalRational(
                f"{path}: {_quoted(raw)} is not canonical (expected {_quoted(format_rational(value))})"
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


def _entries(node: dict, key: str, path: str) -> list:
    """Sorted items of the object ``node[key]``, if present."""
    return sorted(_expect_dict(node.get(key, {}), f"{path}.{key}").items())


class _Rationals(dict):
    """The value of each coordinate string read by one parse; a value that
    is not a string, or not a canonical rational, is missing."""

    def __missing__(self, raw):
        if type(raw) is not str:
            raise KeyError(raw)
        try:
            self[raw] = parse_rational(raw, "")
        except SchemaViolation as exc:
            raise KeyError(raw) from exc
        return self[raw]


def _parse_point(node, rationals: _Rationals, *path: str) -> Point2:
    """``node`` as a point; the parts of ``path`` are joined only for a
    coordinate that ``rationals`` misses."""
    try:
        if type(node) is list and len(node) == 2:
            return Point2(rationals[node[0]], rationals[node[1]])
    except (KeyError, TypeError):  # TypeError: an unhashable coordinate
        pass
    path = "".join(path)
    if len(_expect_list(node, path)) != 2:
        raise SchemaViolation(f"{path}: a point is a [x, y] pair")
    return Point2(*[parse_rational(raw, f"{path}[{i}]") for i, raw in enumerate(node)])


def _parse_filament_list(node, path: str) -> List[Tuple[str, str]]:
    out = []
    for i, item in enumerate(_expect_list(node, path)):
        pair = _expect_list(item, f"{path}[{i}]")
        if len(pair) != 2:
            raise SchemaViolation(f"{path}[{i}]: a filament is an [outer, inner] pair")
        out.append((_expect_str(pair[0], f"{path}[{i}][0]"), _expect_str(pair[1], f"{path}[{i}][1]")))
    return out


def _member(table: Dict, node, k: CellComplex, path: str, kind: str):
    """The structure of ``table`` on ``k`` named by ``node``."""
    name = _expect_str(node, path)
    obj = table.get(name)
    if obj is None or obj.complex is not k:
        raise UnresolvedReference(f"{path}: unknown {kind} {name!r}")
    return obj


def _register(names: set, table: Dict, name: str, obj, path: str) -> None:
    if name in names:
        raise SchemaViolation(f"{path}: name {name!r} is already in use")
    names.add(name)
    table[name] = obj


def parse_document(text: str) -> ComplexDocument:
    try:
        root = json.loads(text)
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, nesting past the recursion limit
        raise SchemaViolation(f"document is not valid JSON: {exc}") from exc
    root = _expect_dict(root, "$")
    _check_keys(root, ("format_version", "complexes", "probes", "threshold"), "$")
    version = root.get("format_version")
    if version != FORMAT_VERSION:
        raise SchemaViolation(f"$.format_version: expected {FORMAT_VERSION}, got {version!r}")
    doc = ComplexDocument(format_version=version)
    names, rationals = set(), _Rationals()

    for kname, knode in _entries(root, "complexes", "$"):
        kpath = f"$.complexes.{kname}"
        knode = _expect_dict(knode, kpath)
        _check_keys(
            knode,
            ("vertices", "edges", "triangles", "cycles", "ribbons", "ribbon_complexes", "vortex_nerves"),
            kpath,
        )
        k = CellComplex(kname)
        _register(names, doc.complexes, kname, k, kpath)
        for vid, vnode in _entries(knode, "vertices", kpath):
            p = _parse_point(vnode, rationals, kpath, ".vertices.", vid)
            try:
                k.add_vertex(vid, p)
            except ValueError as exc:
                raise SchemaViolation(f"{kpath}.vertices.{vid}: {exc}") from exc
        for table, size, add, shape in (
            ("edges", 2, k.add_edge, "an edge is an [a, b] pair"),
            ("triangles", 3, k.add_triangle, "a triangle is an [a, b, c] triple"),
        ):
            for cid, cnode in _entries(knode, table, kpath):
                cpath = f"{kpath}.{table}.{cid}"
                if len(_expect_list(cnode, cpath)) != size:
                    raise SchemaViolation(f"{cpath}: {shape}")
                ids = [_expect_str(v, cpath) for v in cnode]
                for vid in ids:
                    if vid not in k.vertices:
                        raise UnresolvedReference(f"{cpath}: unknown vertex {vid!r}")
                if size == 2 and k.edge_between(*ids) is not None:
                    raise SchemaViolation(f"{cpath}: duplicate edge {ids[0]!r}-{ids[1]!r}")
                try:
                    add(*ids, cid)
                except RibbonError as exc:
                    raise SchemaViolation(f"{cpath}: {exc}") from exc

        for cname, cnode in _entries(knode, "cycles", kpath):
            cpath = f"{kpath}.cycles.{cname}"
            loop = [_expect_str(v, cpath) for v in _expect_list(cnode, cpath)]
            try:
                cyc = make_filled_cycle(k, loop, cname)
            except UnknownVertex as exc:
                raise UnresolvedReference(f"{cpath}: {exc}") from exc
            except RibbonError as exc:
                raise SchemaViolation(f"{cpath}: {exc}") from exc
            _register(names, doc.cycles, cname, cyc, cpath)

        for rname, rnode in _entries(knode, "ribbons", kpath):
            rpath = f"{kpath}.ribbons.{rname}"
            rnode = _expect_dict(rnode, rpath)
            _check_keys(rnode, ("outer", "inner", "filaments", "holes", "fixed_vertex"), rpath)
            outer, inner = (_member(doc.cycles, rnode.get(role, ""), k, f"{rpath}.{role}", "cycle")
                            for role in ("outer", "inner"))
            holes = [
                _parse_point(hnode, rationals, f"{rpath}.holes[{i}]")
                for i, hnode in enumerate(_expect_list(rnode.get("holes", []), f"{rpath}.holes"))
            ]
            filaments = _parse_filament_list(rnode.get("filaments", []), f"{rpath}.filaments")
            fixed = rnode.get("fixed_vertex")
            if fixed is not None:
                fixed = _expect_str(fixed, f"{rpath}.fixed_vertex")
            try:
                ribbon = make_ribbon(outer, inner, filaments, holes, label=rname, fixed_vertex=fixed)
            except RibbonError as exc:
                raise SchemaViolation(f"{rpath}: {exc}") from exc
            _register(names, doc.ribbons, rname, ribbon, rpath)

        for xname, xnode in _entries(knode, "ribbon_complexes", kpath):
            xpath = f"{kpath}.ribbon_complexes.{xname}"
            members = [
                _member(doc.ribbons, item, k, f"{xpath}[{i}]", "ribbon")
                for i, item in enumerate(_expect_list(xnode, xpath))
            ]
            try:
                rbx = RibbonComplex(tuple(members), label=xname)
            except RibbonError as exc:
                raise SchemaViolation(f"{xpath}: {exc}") from exc
            _register(names, doc.ribbon_complexes, xname, rbx, xpath)

        for vname, vnode in _entries(knode, "vortex_nerves", kpath):
            vpath = f"{kpath}.vortex_nerves.{vname}"
            vnode = _expect_dict(vnode, vpath)
            _check_keys(vnode, ("cycles", "filaments"), vpath)
            chain = [
                _member(doc.cycles, item, k, f"{vpath}.cycles[{i}]", "cycle")
                for i, item in enumerate(_expect_list(vnode.get("cycles", []), f"{vpath}.cycles"))
            ]
            filaments = _parse_filament_list(vnode.get("filaments", []), f"{vpath}.filaments")
            try:
                vnrv = VortexNerve(tuple(chain), tuple(filaments), label=vname)
            except RibbonError as exc:
                raise SchemaViolation(f"{vpath}: {exc}") from exc
            _register(names, doc.vortex_nerves, vname, vnrv, vpath)

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


def _name(table: Dict, obj, user: str, kind: str) -> str:
    for name, other in table.items():
        if other is obj:
            return name
    raise ValueError(f"{user} references a {kind} that is not named in the document")


def document_payload(doc: ComplexDocument) -> dict:
    """Plain-JSON payload in canonical (fully named) shape."""
    payload: dict = {"format_version": doc.format_version, "complexes": {}}
    for kname, k in doc.complexes.items():
        ribbons = {}
        for name, r in doc.ribbons.items():
            if r.complex is k:
                ribbons[name] = {
                    "outer": _name(doc.cycles, r.outer, "ribbon", "cycle"),
                    "inner": _name(doc.cycles, r.inner, "ribbon", "cycle"),
                    "filaments": [[f.outer_vertex, f.inner_vertex] for f in r.filaments],
                    "holes": [[format_rational(h.marker.x), format_rational(h.marker.y)] for h in r.holes],
                }
                if r.fixed_vertex is not None:
                    ribbons[name]["fixed_vertex"] = r.fixed_vertex
        tables = {
            "vertices": {vid: [format_rational(p.x), format_rational(p.y)] for vid, p in k.vertices.items()},
            "edges": {cid: list(c.vertex_ids) for cid, c in k.cells.items() if c.kind is CellKind.EDGE},
            "triangles": {cid: list(c.vertex_ids) for cid, c in k.cells.items() if c.kind is CellKind.TRIANGLE},
            "cycles": {name: list(c.loop) for name, c in doc.cycles.items() if c.complex is k},
            "ribbons": ribbons,
            "ribbon_complexes": {
                name: [_name(doc.ribbons, r, "collection", "ribbon") for r in x.ribbons]
                for name, x in doc.ribbon_complexes.items()
                if x.ribbons[0].complex is k
            },
            "vortex_nerves": {
                name: {
                    "cycles": [_name(doc.cycles, c, "ribbon", "cycle") for c in v.cycles],
                    "filaments": [[f.outer_vertex, f.inner_vertex] for f in v.filaments],
                }
                for name, v in doc.vortex_nerves.items()
                if v.cycles[0].complex is k
            },
        }
        payload["complexes"][kname] = {key: table for key, table in tables.items() if table or key == "vertices"}
    if doc.probes is not None:
        payload["probes"] = list(doc.probes)
    if doc.threshold is not None:
        payload["threshold"] = format_rational(doc.threshold)
    return payload


def serialize_document(doc: ComplexDocument) -> str:
    return json.dumps(document_payload(doc), sort_keys=True, separators=(",", ":")) + "\n"
