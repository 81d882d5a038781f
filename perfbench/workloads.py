"""Seeded `.rcx` document generators and correctness checks, one per workload.

Every document carries the answer its construction fixes, so a run can
check each CLI result without a second implementation of the program:

* ``nervecheck_rects``: convex families, so the nerve theorem makes rank
  agreement the true answer.  The union's ranks come from rectangle
  overlaps (b0) and inclusion-exclusion over the nerve (chi = b0 - b1).
  Its probe documents add a pair of squares 1/100 apart, which the raster
  of the current code merges (``is_known_defect``); they run outside the
  timed loop, so every timed document has a correct answer to give.
* ``nerve_ribbons``: a dense cluster whose annuli all hold one common
  point (nerve = full simplex) and a chain whose neighbours alone meet.
* ``validate_grids``: a perturbed n x n triangulation is valid; an injected
  crossing edge or overlapping triangle makes every violation name it.
* ``divide_ribbons``: axis-aligned loops make the label counts products of
  per-axis lattice counts, and witness clearances distances to rectangles.

Sizes cycle through fixed classes in document order, so any prefix of a
corpus mixes sizes the same way whatever the seed; the seed moves shapes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Q = Fraction(1, 4)
NEAR_GAP = Fraction(1, 100)
NERVECHECK_RESOLUTION = 32
DIVIDE_GRID = 120


@dataclass(frozen=True)
class Doc:
    """One generated document, the CLI arguments around it and its answer."""

    index: int
    text: str
    argv: Tuple[str, ...]  # the file path is inserted after argv[0]
    expect: object
    near_tangent: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: int  # documents generated per run; the timed loop cycles them
    build: Callable[[Random, int], Doc]
    check: Callable[[Doc, int, str], List[str]]
    probe: Optional[Callable[[Random, int], Doc]] = None  # known-defect documents
    probes: int = 0

    def generate(self, seed: int) -> List[Doc]:
        rng = Random(f"{self.name}:{seed}")
        return [self.build(rng, i) for i in range(self.corpus)]

    def generate_probes(self, seed: int) -> List[Doc]:
        rng = Random(f"{self.name}:probe:{seed}")
        return [self.probe(rng, i) for i in range(self.probes)]


def fmt(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _corners(x0, y0, x1, y1) -> list:
    """Counterclockwise corners of an axis-aligned rectangle."""
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def _rect_loop(prefix: str, x0, y0, x1, y1, vertices: Dict[str, list]) -> List[str]:
    ids = []
    for i, (x, y) in enumerate(_corners(x0, y0, x1, y1)):
        vid = f"{prefix}{i}"
        vertices[vid] = [fmt(x), fmt(y)]
        ids.append(vid)
    return ids


# ---------------------------------------------------------------- nervecheck


Rect = Tuple[Fraction, Fraction, Fraction, Fraction]


def _meet(rects: Sequence[Rect]) -> bool:
    return max(r[0] for r in rects) <= min(r[2] for r in rects) and max(
        r[1] for r in rects
    ) <= min(r[3] for r in rects)


def union_ranks(rects: Sequence[Rect]) -> Tuple[int, int]:
    """(b0, b1) of a union of closed rectangles, exactly."""
    n = len(rects)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in combinations(range(n), 2):
        if _meet((rects[i], rects[j])):
            parent[find(i)] = find(j)
    b0 = len({find(i) for i in range(n)})
    chi = 0
    level = [(i,) for i in range(n)]
    while level:
        chi += len(level) if len(level[0]) % 2 else -len(level)
        level = [
            s + (j,)
            for s in level
            for j in range(s[-1] + 1, n)
            if _meet([rects[i] for i in s + (j,)])
        ]
    return b0, b0 - chi


def _rect_gap_sq(a: Rect, b: Rect) -> Fraction:
    """Squared distance between the boundaries of two closed rectangles."""
    dx = max(Fraction(0), b[0] - a[2], a[0] - b[2])
    dy = max(Fraction(0), b[1] - a[3], a[1] - b[3])
    if dx or dy:
        return dx * dx + dy * dy
    for outer, inner in ((a, b), (b, a)):
        if outer[0] < inner[0] and outer[1] < inner[1] and inner[2] < outer[2] and inner[3] < outer[3]:
            gap = min(inner[0] - outer[0], inner[1] - outer[1], outer[2] - inner[2], outer[3] - inner[3])
            return gap * gap
    return Fraction(0)


def nervecheck_lines(rects: Sequence[Rect], union: Tuple[int, int]) -> List[str]:
    b0, b1 = union_ranks(rects)
    clearance = min(_rect_gap_sq(a, b) for a, b in combinations(rects, 2))
    return [
        f"regions={len(rects)} resolution={NERVECHECK_RESOLUTION} passed={str((b0, b1) == union).lower()}",
        f"  nerve  b0={b0} b1={b1}",
        f"  union  b0={union[0]} b1={union[1]}",
        f"  min_boundary_clearance_sq={clearance}",
    ]


def build_nervecheck(rng: Random, index: int, near: bool = False) -> Doc:
    n = 3 + index % 6
    # Side lengths depend on the index alone and the seed only places the
    # rectangles; the first two sit in opposite corners of [0, 8], so the
    # frame, and with it the raster, is the same size whatever the seed.
    sides = Random(f"nervecheck_rects:sides:{index}")
    rects: List[Rect] = []
    for i in range(n):
        w, h = sides.randint(4, 16), sides.randint(4, 16)
        x0, y0 = rng.randint(0, 32 - w), rng.randint(0, 32 - h)
        if i < 2:
            x0, y0 = (0, 0) if i == 0 else (32 - w, 32 - h)
        rects.append((x0 * Q, y0 * Q, (x0 + w) * Q, (y0 + h) * Q))
    if near:
        # Half a unit above the other rectangles, so the pair's own gap is
        # the only thing that decides whether it is one component or two.
        x = rng.randrange(24) * Q
        y = Fraction(17, 2)
        rects.append((x, y, x + 1, y + 1))
        rects.append((x + 1 + NEAR_GAP, y, x + 2 + NEAR_GAP, y + 1))
    vertices: Dict[str, list] = {}
    cycles = {
        f"r{i}": _rect_loop(f"r{i}_", *r, vertices) for i, r in enumerate(rects)
    }
    text = dump({"format_version": 1, "complexes": {"K": {"vertices": vertices, "cycles": cycles}}})
    return Doc(
        index=index,
        text=text,
        argv=("nervecheck", "--resolution", str(NERVECHECK_RESOLUTION)),
        expect=tuple(rects),
        near_tangent=near,
    )


def build_near_tangent(rng: Random, index: int) -> Doc:
    return build_nervecheck(rng, index, near=True)


def check_nervecheck(doc: Doc, code: int, out: str) -> List[str]:
    want = nervecheck_lines(doc.expect, union_ranks(doc.expect))
    got = out.splitlines()
    problems = []
    if code != 0:
        problems.append(f"exit {code}, want 0")
    if got != want:
        problems.append(f"stdout {got!r}, want {want!r}")
    return problems


def is_known_defect(doc: Doc, code: int, out: str) -> bool:
    """True for the recorded false failure of the seed code.

    On a document with a near-tangent pair the raster merges the pair: the
    nerve ranks are right, only the union ranks differ, and the check
    reports ``passed=false`` and exits 2.
    """
    if not doc.near_tangent or code != 2:
        return False
    got = out.splitlines()
    if len(got) != 4 or not got[2].startswith("  union  b0="):
        return False
    b0, b1 = (int(f.split("=")[1]) for f in got[2].split()[1:])
    union = (b0, b1)
    return union != union_ranks(doc.expect) and got == nervecheck_lines(doc.expect, union)


# ------------------------------------------------------------- nerve_ribbons


def _ribbon(prefix: str, outer: Rect, inner: Rect, vertices, cycles, ribbons) -> str:
    cycles[f"{prefix}o"] = _rect_loop(f"{prefix}o", *outer, vertices)
    cycles[f"{prefix}i"] = _rect_loop(f"{prefix}i", *inner, vertices)
    ribbons[prefix] = {"outer": f"{prefix}o", "inner": f"{prefix}i"}
    return prefix


def _off_centre(outer: Rect, inner: Rect) -> bool:
    return outer[0] + outer[2] != inner[0] + inner[2] or outer[1] + outer[3] != inner[1] + inner[3]


def _dense_ribbon(rng: Random) -> Tuple[Rect, Rect]:
    """Annulus around the origin whose open hole avoids the origin."""
    while True:
        outer = (
            -rng.randint(8, 16) * Q,
            -rng.randint(8, 16) * Q,
            rng.randint(12, 24) * Q,
            rng.randint(12, 24) * Q,
        )
        # The hole sits in the upper-right quadrant, a quarter unit clear of
        # the origin and of the outer loop.
        x0 = rng.randint(1, 4) * Q
        y0 = rng.randint(1, 4) * Q
        x1 = x0 + rng.randint(2, int(outer[2] / Q) - int(x0 / Q) - 1) * Q
        y1 = y0 + rng.randint(2, int(outer[3] / Q) - int(y0 / Q) - 1) * Q
        inner = (x0, y0, x1, y1)
        if _off_centre(outer, inner):
            return outer, inner


def build_nerve(rng: Random, index: int) -> Doc:
    dense_n = 4 + index % 3
    chain_n = 14 + (index // 3) % 7
    vertices_d: Dict[str, list] = {}
    cycles_d: Dict[str, list] = {}
    ribbons_d: Dict[str, dict] = {}
    dense = [
        _ribbon(f"d{i}", *_dense_ribbon(rng), vertices_d, cycles_d, ribbons_d)
        for i in range(dense_n)
    ]
    vertices_c: Dict[str, list] = {}
    cycles_c: Dict[str, list] = {}
    ribbons_c: Dict[str, dict] = {}
    chain = []
    for i in range(chain_n):
        # Outer loops span [3i, 3i + 4] in x, so only neighbours overlap and
        # the overlap strips stay clear of the holes.
        y = rng.randint(0, 4) * Q
        outer = (Fraction(3 * i), y, Fraction(3 * i + 4), y + 4)
        inner = outer
        while not _off_centre(outer, inner):
            hx = Fraction(3 * i + 1) + rng.randint(1, 3) * Q
            hy = y + rng.randint(1, 6) * Q
            inner = (hx, hy, hx + rng.randint(2, 4) * Q, hy + rng.randint(2, 8) * Q)
        chain.append(_ribbon(f"c{i:02d}", outer, inner, vertices_c, cycles_c, ribbons_c))
    text = dump(
        {
            "format_version": 1,
            "complexes": {
                "D": {"vertices": vertices_d, "cycles": cycles_d, "ribbons": ribbons_d,
                      "ribbon_complexes": {"dense": dense}},
                "C": {"vertices": vertices_c, "cycles": cycles_c, "ribbons": ribbons_c,
                      "ribbon_complexes": {"chain": chain}},
            },
        }
    )
    dense_simplices = [s for k in range(1, dense_n + 1) for s in combinations(dense, k)]
    chain_groups = [tuple(chain[i : i + 2]) for i in range(chain_n - 1)]
    chain_simplices = [(c,) for c in chain] + chain_groups

    def render(groups):
        return " ".join("{" + ",".join(g) + "}" for g in groups)

    expect = [
        f"chain groups: {render(chain_groups)}",
        f"chain simplices: {render(sorted(chain_simplices))}",
        f"dense groups: {render([tuple(dense)])}",
        f"dense simplices: {render(sorted(dense_simplices))}",
    ]
    return Doc(index=index, text=text, argv=("nerve",), expect=expect)


def check_nerve(doc: Doc, code: int, out: str) -> List[str]:
    problems = []
    if code != 0:
        problems.append(f"exit {code}, want 0")
    if out.splitlines() != doc.expect:
        problems.append("stdout differs from the answer fixed by construction")
    return problems


# ------------------------------------------------------------ validate_grids


def _orient(a, b, c) -> Fraction:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def build_validate(rng: Random, index: int) -> Doc:
    # n x m squares with sides 4-8: cost grows faster than the cell count,
    # and the pairs spread it evenly up to the 8 x 8 tail.  Every run of
    # five documents holds each n and each m once.
    n, m = 4 + index % 5, 4 + (index + index // 5) % 5
    while True:
        pts = {}
        for i in range(n + 1):
            for j in range(m + 1):
                dx = dy = Fraction(0)
                if 0 < i < n and 0 < j < m:
                    dx = Fraction(rng.randint(-3, 3), 16)
                    dy = Fraction(rng.randint(-3, 3), 16)
                pts[i, j] = (i + dx, j + dy)
        tris = []
        for i in range(n):
            for j in range(m):
                tris.append(((i, j), (i + 1, j), (i + 1, j + 1)))
                tris.append(((i, j), (i + 1, j + 1), (i, j + 1)))
        if all(_orient(*(pts[v] for v in t)) > 0 for t in tris):
            break

    def vid(v):
        return f"v{v[0]}_{v[1]}"

    triangles = {f"t{k:03d}": [vid(v) for v in t] for k, t in enumerate(tris)}
    edges = {}
    injected: Tuple[str, ...] = ()
    if index % 4 == 3:
        i, j = rng.randrange(n), rng.randrange(m)
        a, b = vid((i, j + 1)), vid((i + 1, j))
        if rng.random() < 0.5:
            edges["x_cross"] = [a, b]
            injected = ("x_cross",)
        else:
            triangles["x_tri"] = [vid((i, j)), b, a]
            injected = ("x_tri", "--".join(sorted((a, b))))
    vertices = {vid(v): [fmt(x), fmt(y)] for v, (x, y) in pts.items()}
    node = {"vertices": vertices, "triangles": triangles}
    if edges:
        node["edges"] = edges
    text = dump({"format_version": 1, "complexes": {"G": node}})
    # vertices, edges (rows, columns, diagonals), triangles, injected cells
    cells = (n + 1) * (m + 1) + (n * (m + 1) + m * (n + 1) + n * m) + 2 * n * m + len(injected)
    return Doc(index=index, text=text, argv=("validate",), expect=(cells, injected))


def check_validate(doc: Doc, code: int, out: str) -> List[str]:
    cells, injected = doc.expect
    lines = out.splitlines()
    valid = not injected
    problems = []
    if code != (0 if valid else 2):
        problems.append(f"exit {code}, want {0 if valid else 2}")
    head = f"complex=G cells={cells} valid={str(valid).lower()}"
    if not lines or lines[0] != head:
        problems.append(f"first line {lines[:1]!r}, want {head!r}")
    body = lines[1:]
    if valid and body:
        problems.append(f"unexpected violations {body[:2]!r}")
    if not valid:
        if not body:
            problems.append("no violation reported for the injected cell")
        quoted = tuple(f"'{c}'" for c in injected)
        stray = [line for line in body if not any(q in line for q in quoted)]
        if stray:
            problems.append(f"violations not naming {injected}: {stray[:2]!r}")
    return problems


# ------------------------------------------------------------ divide_ribbons


def _loop_with_extras(rect: Rect, extras: int, rng: Random) -> List[Tuple[Fraction, Fraction]]:
    """The rectangle's loop with ``extras`` more vertices on its sides."""
    corners = _corners(*rect)
    per_side = [0, 0, 0, 0]
    for _ in range(extras):
        per_side[rng.randrange(4)] += 1
    loop = []
    for s, k in enumerate(per_side):
        (ax, ay), (bx, by) = corners[s], corners[(s + 1) % 4]
        steps = int(abs(bx - ax + by - ay) * 16)  # sixteenths along an axis-aligned side
        loop.append((ax, ay))
        for t in sorted(rng.sample(range(1, steps), k)):
            f = Fraction(t, steps)
            loop.append((ax + f * (bx - ax), ay + f * (by - ay)))
    return loop


def _lattice_count(lo: Fraction, step: Fraction, d: int, a: Fraction, b: Fraction) -> int:
    """Number of k in [0, d) with a <= lo + k * step <= b."""
    return sum(1 for k in range(d) if a <= lo + k * step <= b)


def _seg_dist_sq(p, a, b) -> Fraction:
    px, py = p
    ax, ay = a
    bx, by = b
    cx = min(max(px, min(ax, bx)), max(ax, bx))
    cy = min(max(py, min(ay, by)), max(ay, by))
    return (px - cx) ** 2 + (py - cy) ** 2


def _rect_segments(r: Rect):
    c = _corners(*r)
    return [(c[i], c[(i + 1) % 4]) for i in range(4)]


def _inside(p, r: Rect) -> bool:
    return r[0] <= p[0] <= r[2] and r[1] <= p[1] <= r[3]


def _centroid(loop) -> Tuple[Fraction, Fraction]:
    return sum(p[0] for p in loop) / len(loop), sum(p[1] for p in loop) / len(loop)


def build_divide(rng: Random, index: int) -> Doc:
    extras = index % 9
    # Loop sizes and vertex counts depend on the index alone, so the share of
    # samples per label (one point location inside the inner loop, two
    # elsewhere) and the cost of each location hardly move with the seed,
    # which places the inner loop and the extra vertices.
    sides = Random(f"divide_ribbons:sides:{index}")
    w, h = sides.randint(12, 32), sides.randint(12, 32)
    iw, ih = sides.randint(4, w - 4), sides.randint(4, h - 4)
    n_outer = sides.randint(0, extras)
    outer = (Fraction(0), Fraction(0), w * Q, h * Q)
    while True:
        x0, y0 = rng.randint(2, w - iw - 2), rng.randint(2, h - ih - 2)
        inner = (x0 * Q, y0 * Q, (x0 + iw) * Q, (y0 + ih) * Q)
        outer_loop = _loop_with_extras(outer, n_outer, rng)
        inner_loop = _loop_with_extras(inner, extras - n_outer, rng)
        # The document rejects loops with equal vertex centroids.
        if _centroid(outer_loop) != _centroid(inner_loop):
            break
    vertices: Dict[str, list] = {}
    cycles = {}
    for name, loop in (("out", outer_loop), ("in", inner_loop)):
        ids = []
        for i, (x, y) in enumerate(loop):
            vid = f"{name}{i}"
            vertices[vid] = [fmt(x), fmt(y)]
            ids.append(vid)
        cycles[name] = ids
    text = dump(
        {
            "format_version": 1,
            "complexes": {"B": {"vertices": vertices, "cycles": cycles,
                                "ribbons": {"band": {"outer": "out", "inner": "in"}}}},
        }
    )
    return Doc(
        index=index,
        text=text,
        argv=("divide", "--target", "band", "--grid", str(DIVIDE_GRID)),
        expect=(outer, inner, len(outer_loop), len(inner_loop)),
    )


def _parse_point(text: str) -> Tuple[Fraction, Fraction]:
    x, y = text.strip("()").split(", ")
    return Fraction(x), Fraction(y)


def check_divide(doc: Doc, code: int, out: str) -> List[str]:
    outer, inner, n_out, n_in = doc.expect
    lo = (outer[0] - 2, outer[1] - 2)
    hi = (outer[2] + 2, outer[3] + 2)
    d = DIVIDE_GRID
    sx = (hi[0] - lo[0]) / (d - 1)
    sy = (hi[1] - lo[1]) / (d - 1)
    in_inner = _lattice_count(lo[0], sx, d, inner[0], inner[2]) * _lattice_count(lo[1], sy, d, inner[1], inner[3])
    in_outer = _lattice_count(lo[0], sx, d, outer[0], outer[2]) * _lattice_count(lo[1], sy, d, outer[1], outer[3])
    counts = {
        "pi1_outside": d * d - in_outer,
        "pi2_annulus": in_outer - in_inner + 2 * n_out,
        "pi3_inner": in_inner + 2 * n_in,
    }
    points = d * d + 2 * (n_out + n_in)
    lines = out.splitlines()
    problems = []
    if code != 0:
        problems.append(f"exit {code}, want 0")
    head = [f"grid={d} points={points} ok=true"] + [f"  {k}: {counts[k]}" for k in sorted(counts)]
    if lines[:4] != head:
        problems.append(f"report head {lines[:4]!r}, want {head!r}")
    frame: Rect = (lo[0], lo[1], hi[0], hi[1])
    boundaries = {
        "pi1_outside": _rect_segments(outer) + _rect_segments(frame),
        "pi2_annulus": _rect_segments(outer) + _rect_segments(inner),
        "pi3_inner": _rect_segments(inner),
    }
    seen = set()
    for line in lines[4:]:
        prefix, _, rest = line.partition(": ")
        name = prefix.replace("  witness ", "")
        if name not in boundaries or " clearance_sq=" not in rest:
            problems.append(f"bad witness line {line!r}")
            continue
        ptext, _, ctext = rest.partition(" clearance_sq=")
        p = _parse_point(ptext)
        label = "pi3_inner" if _inside(p, inner) else "pi2_annulus" if _inside(p, outer) else "pi1_outside"
        clearance = min(_seg_dist_sq(p, a, b) for a, b in boundaries[name])
        if label != name or clearance <= 0 or Fraction(ctext) != clearance:
            problems.append(f"witness {line!r}: label {label}, clearance {clearance}")
        seen.add(name)
    if seen != set(counts):
        problems.append(f"witnesses for {sorted(seen)}, want all three labels")
    return problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("nervecheck_rects", 24, build_nervecheck, check_nervecheck,
                 probe=build_near_tangent, probes=3),
        Workload("nerve_ribbons", 21, build_nerve, check_nerve),
        Workload("validate_grids", 20, build_validate, check_validate),
        Workload("divide_ribbons", 36, build_divide, check_divide),
    )
}
