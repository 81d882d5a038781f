"""Command line interface over ``.rcx`` documents.

Exit codes: 0 success, 2 validation or check failure, 3 schema error,
4 computation error.  Output is deterministic: identical invocations on
identical files print identical bytes.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .betti import betti_rb, betti_rb_vnrv, betti_rbnrv_vnrv, betti_rbx, betti_triple
from .complexes import validate_cw
from .division import Frame, frame_around, verify_partition
from .document import ComplexDocument, format_rational, parse_document
from .errors import RibbonError, SchemaViolation
from .geometry import Point2, to_fraction
from .homology import nerve_theorem_check
# ribbon_nerve stays bound in this module: perfbench/spans.py traces it here.
from .nerves import Region, _ribbon_groups, nerve, ribbon_nerve
from .proximity import distance_sq, dx_near
from .ribbons import Ribbon, RibbonComplex, VortexNerve
from .svgrender import render_svg

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SCHEMA = 3
EXIT_COMPUTE = 4


def _load(path: str) -> ComplexDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def _cmd_validate(args) -> int:
    doc = _load(args.file)
    all_valid = bool(doc.complexes)
    for name in sorted(doc.complexes):
        report = validate_cw(doc.complexes[name])
        for line in report.lines():
            print(line)
        all_valid = all_valid and report.valid
    if not doc.complexes:
        print("document holds no complexes")
    return EXIT_OK if all_valid else EXIT_INVALID


def _cmd_betti(args) -> int:
    doc = _load(args.file)
    target = doc.target(args.target)
    rows = {}
    if isinstance(target, (Ribbon, RibbonComplex, VortexNerve)):
        t = betti_triple(target)
        rows["b0_filaments"] = t.b0
        rows["b1_cycles"] = t.b1
        rows["b2_holes"] = t.b2
    if isinstance(target, Ribbon):
        rows["betti_rb"] = betti_rb(target)
    elif isinstance(target, RibbonComplex):
        both = betti_rbx(target)
        rows["betti_rbx_count"] = both.count_variant
        rows["betti_rbx_sum"] = both.sum_variant
    elif isinstance(target, VortexNerve):
        rows["betti_rb_vnrv"] = betti_rb_vnrv(target)
        if len(target.cycles) >= 3:
            rows["betti_rbnrv_vnrv"] = betti_rbnrv_vnrv(target)
    if not rows:
        raise RibbonError(f"target {args.target!r} has no counters")
    for key in sorted(rows):
        print(f"{key}={rows[key]}")
    return EXIT_OK


def _cmd_nerve(args) -> int:
    doc = _load(args.file)
    if not doc.ribbon_complexes:
        print("document holds no ribbon complexes")
        return EXIT_OK
    for name in sorted(doc.ribbon_complexes):
        rbx = doc.ribbon_complexes[name]
        sc = nerve([Region.from_ribbon(r) for r in rbx.ribbons])
        rendered = " ".join(
            "{" + ",".join(r.label for r in g.ribbons) + "}" for g in _ribbon_groups(rbx, sc)
        )
        print(f"{name} groups: {rendered}")
        simplices = sorted(
            tuple(sc.vertex_labels[i] for i in sorted(s)) for s in sc.simplices
        )
        rendered = " ".join("{" + ",".join(s) + "}" for s in simplices)
        print(f"{name} simplices: {rendered}")
    return EXIT_OK


def _cmd_near(args) -> int:
    doc = _load(args.file)
    a = doc.target(args.a)
    b = doc.target(args.b)
    probes = args.probes.split(",") if args.probes else list(doc.probes or ())
    if not probes:
        raise RibbonError("no probes given and the document selects none")
    th = to_fraction(args.th) if args.th is not None else doc.threshold
    if th is None:
        raise RibbonError("no threshold given and the document sets none")
    near = dx_near(a, b, probes, th)
    dist = distance_sq(a, b, probes)
    print(f"near={str(near).lower()} distance_sq={format_rational(dist)}")
    return EXIT_OK


def _cmd_divide(args) -> int:
    doc = _load(args.file)
    target = doc.target(args.target)
    if not isinstance(target, Ribbon):
        raise RibbonError(f"target {args.target!r} is not a ribbon")
    frame = frame_around(target, Fraction(2))
    report = verify_partition(target, frame, args.grid)
    for line in report.lines():
        print(line)
    return EXIT_OK


def _cmd_nervecheck(args) -> int:
    doc = _load(args.file)
    if not doc.cycles:
        raise RibbonError("document holds no cycles to check")
    regions = [
        Region.from_cycle(doc.cycles[name], label=name) for name in sorted(doc.cycles)
    ]
    pts = [p for r in regions for p in r.boundary_vertices()]
    margin = Fraction(1)
    frame = Frame(
        Point2(min(p.x for p in pts) - margin, min(p.y for p in pts) - margin),
        Point2(max(p.x for p in pts) + margin, max(p.y for p in pts) + margin),
    )
    report = nerve_theorem_check(regions, frame, args.resolution)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_INVALID


def _cmd_render(args) -> int:
    doc = _load(args.file)
    svg = render_svg(doc, args.target)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbonkit", description="planar ribbon structures: validate, count, compare"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the containment and intersection conditions")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("betti", help="print all applicable counters for a target")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("nerve", help="maximal ribbon groups and nerve simplices")
    p.add_argument("file")
    p.set_defaults(func=_cmd_nerve)

    p = sub.add_parser("near", help="approximate descriptive nearness of two targets")
    p.add_argument("file")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--probes", help="comma-separated probe names")
    p.add_argument("--th", help="positive rational threshold")
    p.set_defaults(func=_cmd_near)

    p = sub.add_parser("divide", help="three-region partition report for a ribbon")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("--grid", type=int, default=40)
    p.set_defaults(func=_cmd_divide)

    p = sub.add_parser("nervecheck", help="nerve vs union rank agreement on the document cycles")
    p.add_argument("file")
    p.add_argument("--resolution", type=int, default=16)
    p.set_defaults(func=_cmd_nervecheck)

    p = sub.add_parser("render", help="write an SVG drawing of a target")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaViolation as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return EXIT_SCHEMA
    except (RibbonError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
