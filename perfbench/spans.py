"""Span tracing from outside the program, by wrapping module bindings.

A ``from .x import f`` copies the binding, so every module through which
callers reach a function is wrapped on its own; all of them report under
one span name.  Functions called once or a few times per document keep a
record per call (name, start, end, parent, document, size); the leaf
primitives called thousands of times per document are only tallied.
Every wrapped call, recorded or tallied, charges its duration to the open
call around it, so self time is duration minus time covered by children
and the self times of one document add up to its ``cli.main`` span.

Self time is also summed by stage: a call belongs to the stage named by
its module, except that the geometry primitives belong to the stage that
called them (``segment_intersection`` under ``common_witness`` counts to
``nerves``), because every stage does its work through them.
"""
from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class WrapPoint:
    owner: str  # module, or module plus class, as "ribbonkit.geometry.ScaledLoop"
    attr: str
    span: str  # "<module>.<function>"; the module part names the layer
    record: bool = True
    size: Optional[Callable[[tuple, object], int]] = None
    count: Optional[Callable[[tuple, object], int]] = None
    tag: Optional[Callable[[tuple], str]] = None


def _nerve_family(args) -> str:
    # The workload generator names chain ribbons c00, c01, ...
    return "chain" if args[0][0].label.startswith("c") else "dense"


def _report_violations(args, report) -> int:
    return len(report.containment_violations) + len(report.intersection_violations)


def _pixels(bitmap) -> int:
    return bitmap.width * bitmap.height


_NERVE = dict(size=lambda a, r: len(a[0]), count=lambda a, r: len(r.simplices), tag=_nerve_family)

WRAP_POINTS: Tuple[WrapPoint, ...] = (
    WrapPoint("ribbonkit.cli", "main", "cli.main"),
    WrapPoint("ribbonkit.cli", "parse_document", "document.parse_document", size=lambda a, r: len(a[0])),
    WrapPoint("ribbonkit.cli", "validate_cw", "complexes.validate_cw",
              size=lambda a, r: len(a[0].cells), count=_report_violations),
    WrapPoint("ribbonkit.cli", "nerve", "nerves.nerve", **_NERVE),
    WrapPoint("ribbonkit.nerves", "nerve", "nerves.nerve", **_NERVE),
    WrapPoint("ribbonkit.homology", "nerve", "nerves.nerve", **_NERVE),
    WrapPoint("ribbonkit.cli", "ribbon_nerve", "nerves.ribbon_nerve", size=lambda a, r: len(a[0].ribbons)),
    WrapPoint("ribbonkit.nerves", "common_witness", "nerves.common_witness",
              size=lambda a, r: len(a[0]), count=lambda a, r: int(r is not None)),
    WrapPoint("ribbonkit.cli", "nerve_theorem_check", "homology.nerve_theorem_check",
              size=lambda a, r: len(a[0])),
    WrapPoint("ribbonkit.homology", "rasterize", "homology.rasterize", size=lambda a, r: _pixels(r)),
    WrapPoint("ribbonkit.homology", "cubical_betti", "homology.cubical_betti",
              size=lambda a, r: _pixels(a[0])),
    WrapPoint("ribbonkit.homology", "z2_betti", "homology.z2_betti", size=lambda a, r: len(a[0].simplices)),
    WrapPoint("ribbonkit.homology", "min_boundary_clearance_sq", "homology.clearance",
              size=lambda a, r: len(a[0])),
    WrapPoint("ribbonkit.cli", "verify_partition", "division.verify_partition",
              size=lambda a, r: r.total_points),
    WrapPoint("ribbonkit.division", "classify_region", "division.classify_region", record=False),
    WrapPoint("ribbonkit.geometry.ScaledLoop", "classify", "geometry.classify", record=False),
    *(
        WrapPoint(f"ribbonkit.{m}", "segment_intersection", "geometry.segment_intersection", record=False)
        for m in ("geometry", "complexes", "nerves", "ribbons")
    ),
)

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(p.span for p in WRAP_POINTS))


def _resolve(owner: str):
    """The module or class named by ``owner``, or None if it is gone."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = vars(obj).get(name)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Wraps the bindings in ``points`` while installed; spans stay in memory.

    ``tallies[doc][span]`` is ``[calls, busy_ns, self_ns, errors, count]``;
    ``spans`` holds ``(id, span, doc, parent_id, start_ns, end_ns, self_ns,
    size, tag)`` for recorded calls.
    """

    def __init__(self, points: Tuple[WrapPoint, ...] = WRAP_POINTS):
        self.points = points
        self.spans: List[tuple] = []
        self.tallies: Dict[str, Dict[str, list]] = {}
        self.absent: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []
        # One frame per open call: [time covered by children, stage].
        self._frames: List[list] = [[0, "cli"]]
        self._parent = -1  # id of the innermost open recorded span
        self._tally: Dict[str, list] = {}
        self._stage: Dict[str, int] = {}
        self.stages: Dict[str, Dict[str, int]] = {}
        self.doc = ""

    def start_document(self, doc: str) -> None:
        self.doc = doc
        self._tally = self.tallies.setdefault(doc, {})
        self._stage = self.stages.setdefault(doc, {})

    def install(self) -> None:
        present = set()
        for point in self.points:
            owner = _resolve(point.owner)
            original = vars(owner).get(point.attr) if owner is not None else None
            if original is None:
                continue
            present.add(point.span)
            self._saved.append((owner, point.attr, original))
            setattr(owner, point.attr, self._wrap(original, point))
        self.absent = list(dict.fromkeys(p.span for p in self.points if p.span not in present))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, point: WrapPoint):
        tracer = self
        frames = self._frames
        name, record = point.span, point.record
        layer = name.split(".")[0]
        primitive = layer == "geometry"
        size, count, tag = point.size, point.count, point.tag

        def traced(*args, **kwargs):
            tally = tracer._tally.get(name)
            if tally is None:
                tally = tracer._tally[name] = [0, 0, 0, 0, 0]
            parent = tracer._parent
            if record:
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # reserve the id; filled in below
                tracer._parent = span_id
            frame = [0, frames[-1][1] if primitive else layer]
            frames.append(frame)
            result, returned = None, False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            except BaseException:
                tally[3] += 1
                raise
            finally:
                end = perf_counter_ns()
                frames.pop()
                dur = end - start
                own = dur - frame[0]
                frames[-1][0] += dur
                tally[0] += 1
                tally[1] += dur
                tally[2] += own
                stage = tracer._stage
                stage[frame[1]] = stage.get(frame[1], 0) + own
                if returned and count is not None:
                    tally[4] += count(args, result)
                if record:
                    tracer._parent = parent
                    tracer.spans[span_id] = (
                        span_id, name, tracer.doc, parent, start, end, own,
                        size(args, result) if returned and size is not None else None,
                        tag(args) if returned and tag is not None else None,
                    )

        traced.__wrapped__ = fn
        return traced
