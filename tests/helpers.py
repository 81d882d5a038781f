"""Shared builders for randomized tests: rectangular annuli and families,
and the implementations replaced by faster ones, kept as references: the
level-wise nerve enumerator, the rational-arithmetic nerve, witness and
candidate list with its segment-meeting scan, the closure-based complex (maximal search and ranks over
every simplex), the per-pixel raster with its breadth-first
counts, the row scan with a division per edge and row, the unpruned clearance loop, the all-pairs CW intersection check,
the unpruned simplicity, nesting and filament tests and the per-sample
partition check."""
from collections import deque
from fractions import Fraction
from itertools import chain, combinations, groupby
from operator import itemgetter
from random import Random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ribbonkit.complexes import (
    CellComplex,
    CellKind,
    ValidityReport,
    _ccw,
    _containment_violations,
    _point_in_convex,
    convex_clip,
)
from ribbonkit.division import (
    Frame,
    PartitionReport,
    RegionLabel,
    _label,
    _require_frame,
)
from ribbonkit.errors import FilamentEndpointOffBoundary, FrameTooSmall
from ribbonkit.geometry import (
    Point2,
    PointLocation,
    _lattice_key,
    bounding_box,
    boxes_meet,
    cross_value,
    loop_segments,
    point,
    polygon_area2,
    segment_point_distance_sq,
    segment_segment_distance_sq,
    vertex_centroid,
)
from ribbonkit.homology import Bitmap, _gf2_rank
from ribbonkit.nerves import Region
from ribbonkit.ribbons import (
    Filament,
    FilledCycle,
    Hole,
    Ribbon,
    make_filled_cycle,
    make_ribbon,
)

_counter = [0]


def _fresh_prefix() -> str:
    _counter[0] += 1
    return f"g{_counter[0]}"


def add_rect_loop(k: CellComplex, prefix: str, x0, y0, x1, y1):
    coords = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    return [k.add_vertex(f"{prefix}{i}", point(x, y)) for i, (x, y) in enumerate(coords)]


def random_rect_ribbon(
    rng: Random,
    k: CellComplex = None,
    lo: int = -20,
    hi: int = 20,
    band: int = 2,
    max_holes: int = 3,
    max_filaments: int = 2,
    label: str = "",
) -> Ribbon:
    """Axis-aligned annulus with integer corners and a band-wide gap."""
    if k is None:
        k = CellComplex("R")
    need = 2 * band + 3
    a = rng.randint(lo, hi - need)
    b = rng.randint(a + need, hi)
    c = rng.randint(lo, hi - need)
    d = rng.randint(c + need, hi)
    prefix = _fresh_prefix()
    outer_ids = add_rect_loop(k, f"{prefix}o", a, c, b, d)
    inner_ids = add_rect_loop(k, f"{prefix}i", a + band, c + band, b - band, d - band)
    outer = make_filled_cycle(k, outer_ids, f"{prefix}outer")
    inner = make_filled_cycle(k, inner_ids, f"{prefix}inner")
    holes = [
        Hole(Point2(Fraction(x), Fraction(c) + Fraction(band, 2)))
        for x in rng.choices(range(a + 1, b), k=rng.randint(0, max_holes))
    ]
    filaments = [
        Filament(outer_ids[i], inner_ids[i])
        for i in rng.sample(range(4), rng.randint(0, max_filaments))
    ]
    return make_ribbon(
        outer,
        inner,
        filaments=filaments,
        holes=holes,
        label=label or prefix,
        allow_concentric=True,
    )


def random_universe(rng: Random, max_ribbons: int = 8):
    """Independent random ribbons, one complex each."""
    return [
        random_rect_ribbon(rng, CellComplex(f"U{i}"), label=f"u{i}")
        for i in range(rng.randint(1, max_ribbons))
    ]


def random_rect_family(rng: Random, max_rects: int = 6):
    """Axis-aligned rectangle regions on the quarter-unit grid in [0, 8].

    All boundary lines are pairwise distinct, so any two rectangles are
    either separated or overlap by at least a quarter unit (4 pixels at
    resolution 16); no near-tangency can occur.
    """
    n = rng.randint(1, max_rects)
    xs = rng.sample(range(0, 33), 2 * n)
    ys = rng.sample(range(0, 33), 2 * n)
    regions = []
    for i in range(n):
        x0, x1 = sorted((xs[2 * i], xs[2 * i + 1]))
        y0, y1 = sorted((ys[2 * i], ys[2 * i + 1]))
        pts = [
            Point2(Fraction(x0, 4), Fraction(y0, 4)),
            Point2(Fraction(x1, 4), Fraction(y0, 4)),
            Point2(Fraction(x1, 4), Fraction(y1, 4)),
            Point2(Fraction(x0, 4), Fraction(y1, 4)),
        ]
        regions.append(Region(loops=(tuple(pts),), label=f"r{i}"))
    return regions


def random_grid_rect_family(rng: Random, max_rects: int = 6, side: int = 4):
    """Rectangles with integer corners in [0, side].

    On so small a grid rectangles often share vertices, overlap along
    collinear edges and touch along their boundaries.
    """
    regions = []
    for i in range(rng.randint(1, max_rects)):
        x0, x1 = sorted(rng.sample(range(side + 1), 2))
        y0, y1 = sorted(rng.sample(range(side + 1), 2))
        pts = (point(x0, y0), point(x1, y0), point(x1, y1), point(x0, y1))
        regions.append(Region(loops=(pts,), label=f"g{i}"))
    return regions


SLANTED_DENOMINATORS = (1, 2, 3, 7)
_ON_LINE = (Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), Fraction(1), Fraction(3, 2))


def _slanted_point(rng: Random) -> Point2:
    q = rng.choice(SLANTED_DENOMINATORS)
    return Point2(Fraction(rng.randint(0, 4 * q), q), Fraction(rng.randint(0, 4 * q), q))


def _along(a: Point2, b: Point2, t: Fraction) -> Point2:
    return Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def _slanted_loop(rng: Random, pool: List[Point2], edges: List[Tuple[Point2, Point2]]) -> List[Point2]:
    """A triangle or a convex quad of nonzero area, now and then with one
    vertex repeated.

    Its vertices come fresh on the 1, 1/2, 1/3 or 1/7 grid over [0, 4], or
    from ``pool``; or it leans on one of ``edges``: two vertices on the
    edge's line (a collinear overlap or a shared vertex) or one inside the
    edge (a touching boundary).
    """
    while True:
        kind = rng.randrange(4 if edges else 2)
        if kind == 1:  # a convex quad p, p + u, p + a u + b v, p + v
            p, u, v = (_slanted_point(rng) for _ in range(3))
            (ux, uy), (vx, vy) = (u.x - 2, u.y - 2), (v.x - 2, v.y - 2)
            a, b = rng.choice(((1, 1), (Fraction(3, 2), Fraction(1, 2)), (2, Fraction(1, 3))))
            loop = [
                p,
                Point2(p.x + ux, p.y + uy),
                Point2(p.x + a * ux + b * vx, p.y + a * uy + b * vy),
                Point2(p.x + vx, p.y + vy),
            ]
        elif kind == 2:
            a, b = rng.choice(edges)
            t, u = rng.sample(_ON_LINE, 2)
            loop = [_along(a, b, t), _along(a, b, u), _slanted_point(rng)]
        elif kind == 3:
            a, b = rng.choice(edges)
            loop = [_along(a, b, rng.choice(_ON_LINE[2:5])), _slanted_point(rng), _slanted_point(rng)]
        else:
            loop = [rng.choice(pool) if pool and rng.random() < 0.3 else _slanted_point(rng) for _ in range(3)]
        if polygon_area2(loop) == 0 or len(set(loop)) < len(loop):
            continue
        if rng.random() < 0.1:  # a repeated vertex, so one segment is a point
            k = rng.randrange(len(loop))
            loop.insert(k, loop[k])
        pool.extend(loop)
        edges.extend(loop_segments(loop))
        return loop


def nudged_map(rng: Random, q: int):
    """The exact map ``p -> p / q + t``, ``t`` a random shift whose
    coordinates are -1, 0 or 1 over 7, 14 or 21.  Loops under their own
    such maps with one ``q`` keep most of their layout, on lattices that
    differ."""
    tx, ty = (Fraction(rng.randint(-1, 1), rng.choice((7, 14, 21))) for _ in range(2))
    return lambda p: Point2(p.x / q + tx, p.y / q + ty)


def random_slanted_family(rng: Random, max_regions: int = 4) -> List[Region]:
    """Regions of slanted triangles and quads with coordinate denominators
    1, 2, 3 and 7 that share vertices, overlap along collinear edges and
    touch; some regions are a loop minus another loop leaning on it, or the
    union of two such loops, so their own loops meet."""
    pool: List[Point2] = []
    edges: List[Tuple[Point2, Point2]] = []
    regions = []
    for i in range(rng.randint(1, max_regions)):
        outer = _slanted_loop(rng, pool, edges)
        kind = rng.randrange(3)
        if kind == 0:
            regions.append(Region(loops=(outer,), label=f"s{i}"))
            continue
        other = _slanted_loop(rng, pool, loop_segments(outer))
        if kind == 1:
            regions.append(Region(loops=(outer,), excluded=(other,), label=f"s{i}"))
        else:
            regions.append(Region(loops=(outer, other), label=f"s{i}"))
    return regions


def reference_witness(regions):
    """First point, in candidate order, held by every region; or None.

    The candidates are all boundary vertices, all pairwise boundary
    crossings found by testing every segment pair, and the interior
    samples, duplicates dropped.
    """
    seen = set()
    candidates = []

    def push(p):
        if (p.x, p.y) not in seen:
            seen.add((p.x, p.y))
            candidates.append(p)

    for r in regions:
        for p in r.boundary_vertices():
            push(p)
    for i, r1 in enumerate(regions):
        for r2 in regions[i + 1 :]:
            for a, b in chain.from_iterable(map(loop_segments, r1.loops + r1.excluded)):
                for c, d in chain.from_iterable(map(loop_segments, r2.loops + r2.excluded)):
                    inter = fraction_segment_intersection(a, b, c, d)
                    if inter is not None:
                        for p in inter[1:]:
                            push(p)
    for r in regions:
        for p in [vertex_centroid(loop.points) for loop in r.loops]:
            push(p)
    for p in candidates:
        if all(r.contains(p) for r in regions):
            return p
    return None


def reference_nerve(regions) -> frozenset:
    """The simplices of the level-wise nerve: a region is a vertex iff it
    has a witness, and a candidate simplex whose facets are all in is kept
    iff its own regions have a common witness."""
    n = len(regions)
    level = [frozenset((i,)) for i in range(n) if reference_witness([regions[i]]) is not None]
    simplices = set(level)
    while level:
        next_level = []
        seen = set()
        for s in level:
            for j in range(max(s) + 1, n):
                cand = s | {j}
                if cand in seen:
                    continue
                seen.add(cand)
                if any(
                    frozenset(f) not in simplices
                    for f in combinations(sorted(cand), len(cand) - 1)
                ):
                    continue
                if reference_witness([regions[i] for i in sorted(cand)]) is not None:
                    simplices.add(cand)
                    next_level.append(cand)
        level = next_level
    return frozenset(simplices)


def boxed_segments(*loops) -> list:
    """The edges of each closed loop in turn, as ``(a, b, box)`` triples."""
    return [(a, b, bounding_box((a, b))) for loop in loops for a, b in loop_segments(loop)]


def segment_meetings(first: list, second: list):
    """``(i, j, meet)`` in row-major order for each ``first[i]`` meeting
    ``second[j]`` in ``meet``, their :func:`fraction_segment_intersection`;
    both lists come from :func:`boxed_segments`, and pairs with disjoint
    boxes are skipped.  The ``Fraction`` scan that
    ``geometry.lattice_meetings`` replaced."""
    for i, (a, b, box1) in enumerate(first):
        for j, (c, d, box2) in enumerate(second):
            if boxes_meet(box1, box2):
                meet = fraction_segment_intersection(a, b, c, d)
                if meet is not None:
                    yield i, j, meet


def fraction_boundary_meetings(regions) -> List[Tuple[Point2, ...]]:
    """The points of each meeting of two boundaries of distinct regions, in
    ``Fraction`` arithmetic, region pair by region pair; region pairs with
    disjoint boxes are skipped."""
    boxes = [bounding_box(r.boundary_vertices()) for r in regions]
    segments = [boxed_segments(*r.loops, *r.excluded) for r in regions]
    return [
        meet[1:]
        for i in range(len(regions))
        for j in range(i + 1, len(regions))
        if boxes_meet(boxes[i], boxes[j])
        for _, _, meet in segment_meetings(segments[i], segments[j])
    ]


def fraction_candidate_points(regions) -> List[Point2]:
    """The nerve's candidate list in ``Fraction`` arithmetic: every boundary
    vertex, every meeting of two boundaries of distinct regions, then every
    meeting of two loops of one region; duplicates dropped."""
    own = (
        meet[1:]
        for r in regions
        for k, l in combinations(r.loops + r.excluded, 2)
        for _, _, meet in segment_meetings(boxed_segments(k), boxed_segments(l))
    )
    vertices = (p for r in regions for p in r.boundary_vertices())
    meets = (p for meet in chain(fraction_boundary_meetings(regions), own) for p in meet)
    return list(dict.fromkeys(chain(vertices, meets)))


def fraction_common_witness(regions) -> Optional[Point2]:
    """First ``Fraction`` candidate held by every region, by ``Region.contains``."""
    for p in fraction_candidate_points(regions):
        if all(r.contains(p) for r in regions):
            return p
    return None


def fraction_nerve_facets(regions) -> Tuple[Tuple[int, ...], ...]:
    """The facets of the nerve, from the ``Fraction`` candidates and
    ``Region.contains``."""
    held = {
        tuple(i for i, r in enumerate(regions) if r.contains(p))
        for p in fraction_candidate_points(regions)
    }
    return reference_facets(reference_closure(held))


def reference_closure(generators) -> frozenset:
    """Every nonempty subset of every generator."""
    return frozenset(
        frozenset(c)
        for g in generators
        for k in range(1, len(g) + 1)
        for c in combinations(sorted(g), k)
    )


def reference_facets(simplices) -> Tuple[Tuple[int, ...], ...]:
    """The simplices of a set with no strict superset in it, by definition."""
    maximal = [s for s in simplices if not any(s < t for t in simplices)]
    return tuple(sorted(tuple(sorted(s)) for s in maximal))


def is_downward_closed(simplices) -> bool:
    return all(
        frozenset(f) in simplices
        for s in simplices
        if len(s) > 1
        for f in combinations(sorted(s), len(s) - 1)
    )


def reference_simplices_of_dim(simplices, d: int) -> tuple:
    return tuple(sorted((s for s in simplices if len(s) == d + 1), key=sorted))


def reference_z2_betti(simplices) -> Tuple[int, int]:
    """(b0, b1) over Z/2 from boundary matrices over the whole simplex set,
    which must be downward closed."""
    assert is_downward_closed(simplices)
    ranks = []
    for d in (1, 2):
        row_index = {s: i for i, s in enumerate(reference_simplices_of_dim(simplices, d - 1))}
        columns = [
            sum(1 << row_index[col - {v}] for v in col)
            for col in reference_simplices_of_dim(simplices, d)
        ]
        ranks.append(_gf2_rank(columns))
    n0 = len(reference_simplices_of_dim(simplices, 0))
    n1 = len(reference_simplices_of_dim(simplices, 1))
    return (n0 - ranks[0], n1 - ranks[0] - ranks[1])


def translate_ribbon(r: Ribbon, dx, dy) -> Ribbon:
    """Rebuild the ribbon with every coordinate shifted by (dx, dy)."""
    dx, dy = Fraction(dx), Fraction(dy)
    k2 = CellComplex(r.complex.name + "_shift")
    for vid in set(r.outer.loop) | set(r.inner.loop):
        p = r.complex.vertices[vid]
        k2.add_vertex(vid, Point2(p.x + dx, p.y + dy))
    outer = make_filled_cycle(k2, r.outer.loop, r.outer.label)
    inner = make_filled_cycle(k2, r.inner.loop, r.inner.label)
    return make_ribbon(
        outer,
        inner,
        filaments=r.filaments,
        holes=[Hole(Point2(h.marker.x + dx, h.marker.y + dy), h.label) for h in r.holes],
        label=r.label,
        fixed_vertex=r.fixed_vertex,
        allow_concentric=True,
    )


def rotate_ribbon(r: Ribbon, cos_a, sin_a) -> Ribbon:
    """Rebuild the ribbon rotated by an exact rational rotation."""
    c, s = Fraction(cos_a), Fraction(sin_a)

    def rot(p: Point2) -> Point2:
        return Point2(c * p.x - s * p.y, s * p.x + c * p.y)

    k2 = CellComplex(r.complex.name + "_rot")
    for vid in set(r.outer.loop) | set(r.inner.loop):
        k2.add_vertex(vid, rot(r.complex.vertices[vid]))
    outer = make_filled_cycle(k2, r.outer.loop, r.outer.label)
    inner = make_filled_cycle(k2, r.inner.loop, r.inner.label)
    return make_ribbon(
        outer,
        inner,
        filaments=r.filaments,
        holes=[Hole(rot(h.marker), h.label) for h in r.holes],
        label=r.label,
        fixed_vertex=r.fixed_vertex,
        allow_concentric=True,
    )


def bitmap_from_bits(width, height, resolution, frame, bits) -> Bitmap:
    """The bitmap whose set pixels are ``bits``, as maximal row runs."""
    rows = []
    for j in range(height):
        runs = []
        for i in sorted(i for i, jj in bits if jj == j):
            if runs and runs[-1][1] == i - 1:
                runs[-1][1] = i
            else:
                runs.append([i, i])
        rows.append(tuple(tuple(run) for run in runs))
    return Bitmap(width=width, height=height, resolution=resolution, frame=frame, rows=tuple(rows))


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor_fraction(x: Fraction) -> int:
    return x.numerator // x.denominator


def reference_rasterize(regions, frame, resolution) -> Bitmap:
    """One exact point-in-region test per pixel centre in each region's box."""
    if resolution < 4:
        raise ValueError(f"resolution must be at least 4 pixels per unit, got {resolution}")
    for r in regions:
        for p in r.boundary_vertices():
            if not frame.contains(p):
                raise FrameTooSmall(f"region vertex {p} falls outside the frame")
    width = _ceil_fraction((frame.hi.x - frame.lo.x) * resolution)
    height = _ceil_fraction((frame.hi.y - frame.lo.y) * resolution)
    bits = set()
    for r in regions:
        bx0, by0, bx1, by1 = bounding_box(r.boundary_vertices())
        i0 = max(0, _ceil_fraction((bx0 - frame.lo.x) * resolution - Fraction(1, 2)))
        i1 = min(width - 1, _floor_fraction((bx1 - frame.lo.x) * resolution - Fraction(1, 2)))
        j0 = max(0, _ceil_fraction((by0 - frame.lo.y) * resolution - Fraction(1, 2)))
        j1 = min(height - 1, _floor_fraction((by1 - frame.lo.y) * resolution - Fraction(1, 2)))
        for j in range(j0, j1 + 1):
            cy = frame.lo.y + Fraction(2 * j + 1, 2 * resolution)
            for i in range(i0, i1 + 1):
                if (i, j) in bits:
                    continue
                cx = frame.lo.x + Fraction(2 * i + 1, 2 * resolution)
                if r.contains(Point2(cx, cy)):
                    bits.add((i, j))
    return bitmap_from_bits(width, height, resolution, frame, bits)


def reference_lattice_row_runs(
    loops: Iterable[Sequence[Tuple[int, int]]],
    origin: Tuple[int, int],
    step: Tuple[int, int],
    shape: Tuple[int, int],
) -> Dict[int, List[Tuple[int, int, int, int]]]:
    """Split the rows of a lattice into stretches no loop boundary crosses.

    Lattice point ``(i, j)`` sits at ``(ox + i * sx, oy + j * sy)`` for
    ``origin = (ox, oy)``, ``step = (sx, sy)``, ``0 <= i < columns`` and
    ``0 <= j < rows`` with ``shape = (columns, rows)``; loop vertices are
    ``(x, y)`` pairs of ``int``.  For each row the closed loops meet,
    ``runs[j]`` lists closed column stretches ``(first, last, inside, on)``
    covering the row from left to right.  Bit ``b`` of the masks is loop
    ``b``: every point of the stretch lies on that loop if it is set in
    ``on``, strictly inside it if set in ``inside``, and outside it if set
    in neither, as :meth:`ScaledLoop.classify` finds.  The rows missing
    from ``runs`` are outside every loop.
    """
    ox, oy = origin
    sx, sy = step
    columns, rows = shape
    top = 2 * columns
    # events[j] holds (key, flip, on), keyed as by _lattice_key, for each
    # lattice column an edge lying on row j covers and each point where another
    # edge meets the row's line; ``flip`` has the loop's bit when that edge
    # crosses by the half-open rule of ScaledLoop.classify: y1 <= y < y2.
    events: Dict[int, List[Tuple[int, int, int]]] = {}
    for b, loop in enumerate(loops):
        bit = 1 << b
        for (x1, y1), (x2, y2) in zip(loop, loop[1:] + loop[:1]):
            if y1 == y2:
                row = _lattice_key(y1, oy, sy)
                if row & 1 and 0 <= row // 2 < rows:
                    lo, hi = sorted((_lattice_key(x1, ox, sx), _lattice_key(x2, ox, sx)))
                    events.setdefault(row // 2, []).extend(
                        (k, 0, bit) for k in range(max(lo | 1, 1), min(hi, top - 1) + 1, 2)
                    )
                continue
            if y1 > y2:
                x1, y1, x2, y2 = x2, y2, x1, y1
            dy, dx = y2 - y1, x2 - x1
            first = max(_lattice_key(y1, oy, sy) // 2, 0)
            last = min((_lattice_key(y2, oy, sy) - 1) // 2, rows - 1)
            # The edge meets row j at x = x1 + (oy + j * sy - y1) * dx / dy, whose
            # key is that of _lattice_key from (x - ox) * dy = num in units sx * dy.
            num, inc, unit = (x1 - ox) * dy + (oy + first * sy - y1) * dx, sy * dx, sx * dy
            for j in range(first, last + 1):
                q, rem = divmod(num, unit)
                # Keys off the lattice keep their flips at its two ends.
                key = min(max(2 * q + (2 if rem else 1), 0), top)
                events.setdefault(j, []).append((key, bit if oy + j * sy < y2 else 0, bit))
                num += inc
    runs: Dict[int, List[Tuple[int, int, int, int]]] = {}
    for j, row in events.items():
        stretches = runs[j] = []
        inside = start = 0  # loops crossed an odd number of times; next column
        for key, group in groupby(sorted(row), itemgetter(0)):
            flip = on = 0
            for _, f, o in group:
                flip ^= f
                on |= o
            if start <= (key - 2) // 2:  # the columns strictly left of the key
                stretches.append((start, (key - 2) // 2, inside, 0))
            if key & 1:
                stretches.append((key // 2, key // 2, inside & ~on, on))
            inside ^= flip
            start = (key + 1) // 2
        if start < columns:
            stretches.append((start, columns - 1, inside, 0))
    return runs


_EIGHT = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
_FOUR = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _components(cells, moves):
    seen = set()
    comps = []
    for start in cells:
        if start in seen:
            continue
        comp = set()
        queue = deque([start])
        seen.add(start)
        while queue:
            i, j = queue.popleft()
            comp.add((i, j))
            for di, dj in moves:
                nxt = (i + di, j + dj)
                if nxt in cells and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        comps.append(comp)
    return comps


def reference_cubical_betti(b: Bitmap):
    """(components, bounded holes) by breadth-first search over pixels:
    set pixels 8-way, unset pixels 4-way, holes off the border."""
    bits = b.bits
    comps = _components(bits, _EIGHT)
    unset = {
        (i, j)
        for i in range(b.width)
        for j in range(b.height)
        if (i, j) not in bits
    }
    holes = 0
    for comp in _components(unset, _FOUR):
        touches = any(
            i == 0 or j == 0 or i == b.width - 1 or j == b.height - 1 for i, j in comp
        )
        if not touches:
            holes += 1
    return (len(comps), holes)


def reference_clearance_sq(regions):
    """Minimum squared boundary distance over every segment pair of every
    region pair, with no pruning; None for fewer than two regions."""
    best = None
    for i, r1 in enumerate(regions):
        for r2 in regions[i + 1 :]:
            for a, b in chain.from_iterable(map(loop_segments, r1.loops + r1.excluded)):
                for c, d in chain.from_iterable(map(loop_segments, r2.loops + r2.excluded)):
                    dist = segment_segment_distance_sq(a, b, c, d)
                    if best is None or dist < best:
                        best = dist
    return best


def _lex(p: Point2) -> Tuple[Fraction, Fraction]:
    return (p.x, p.y)


def on_segment(p: Point2, a: Point2, b: Point2) -> bool:
    """True iff ``p`` lies on the closed segment ``ab``."""
    if cross_value(a, b, p) != 0:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def fraction_segment_intersection(a, b, c, d):
    """Exact intersection of the closed segments ``ab`` and ``cd`` in
    ``Fraction`` arithmetic, as ``geometry.segment_intersection`` gives it:
    the implementation ``geometry.lattice_meet`` replaced."""
    if a == b:
        return ("point", a) if on_segment(a, c, d) else None
    if c == d:
        return ("point", c) if on_segment(c, a, b) else None
    rx, ry = b.x - a.x, b.y - a.y
    sx, sy = d.x - c.x, d.y - c.y
    acx, acy = c.x - a.x, c.y - a.y
    denom = rx * sy - ry * sx
    if denom != 0:
        # t = tn / denom and u = un / denom lie in [0, 1] iff tn and un lie
        # between 0 and denom, whatever its sign; divide only on a hit.
        tn = acx * sy - acy * sx
        un = acx * ry - acy * rx
        if denom > 0:
            if not (0 <= tn <= denom and 0 <= un <= denom):
                return None
        elif not (denom <= tn <= 0 and denom <= un <= 0):
            return None
        if tn == 0 or tn == denom:
            return ("point", a if tn == 0 else b)
        if un == 0 or un == denom:
            return ("point", c if un == 0 else d)
        t = Fraction(tn, denom)
        return ("point", Point2(a.x + t * rx, a.y + t * ry))
    if acx * ry - acy * rx != 0:
        return None  # parallel, different carrier lines
    lo1, hi1 = sorted((a, b), key=_lex)
    lo2, hi2 = sorted((c, d), key=_lex)
    lo = max(lo1, lo2, key=_lex)
    hi = min(hi1, hi2, key=_lex)
    if _lex(lo) > _lex(hi):
        return None
    if lo == hi:
        return ("point", lo)
    return ("segment", lo, hi)


def reference_segment_intersection(a, b, c, d):
    """Intersection of closed segments with the parameters divided out
    before they are compared with 0 and 1; Fraction coordinates only."""
    if a == b:
        return ("point", a) if on_segment(a, c, d) else None
    if c == d:
        return ("point", c) if on_segment(c, a, b) else None
    rx, ry = b.x - a.x, b.y - a.y
    sx, sy = d.x - c.x, d.y - c.y
    acx, acy = c.x - a.x, c.y - a.y
    denom = rx * sy - ry * sx
    if denom != 0:
        t = (acx * sy - acy * sx) / denom
        u = (acx * ry - acy * rx) / denom
        if 0 <= t <= 1 and 0 <= u <= 1:
            return ("point", Point2(a.x + t * rx, a.y + t * ry))
        return None
    return fraction_segment_intersection(a, b, c, d)


def _reference_clip_segment_to_triangle(a, b, tri):
    t0, t1 = Fraction(0), Fraction(1)
    n = len(tri)
    for i in range(n):
        e1, e2 = tri[i], tri[(i + 1) % n]
        va = cross_value(e1, e2, a)
        vb = cross_value(e1, e2, b)
        dv = vb - va
        if dv == 0:
            if va < 0:
                return None
            continue
        t_hit = -va / dv
        if dv > 0:
            t0 = max(t0, t_hit)
        else:
            t1 = min(t1, t_hit)
        if t0 > t1:
            return None
    p0, p1 = (Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)) for t in (t0, t1))
    if p0 == p1:
        return ("point", p0)
    lo, hi = sorted((p0, p1), key=lambda q: (q.x, q.y))
    return ("seg", lo, hi)


def _reference_classify(points):
    """Collapse points to ``('poly'|'seg'|'point', ...)`` or None: a
    region, the segment between their lexicographic extremes, or one
    point."""
    distinct = []
    for p in points:
        if p not in distinct:
            distinct.append(p)
    if not distinct:
        return None
    if len(distinct) == 1:
        return ("point", distinct[0])
    if len(distinct) == 2 or polygon_area2(points) == 0:
        return ("seg", min(distinct, key=_lex), max(distinct, key=_lex))
    return ("poly", points)


def _reference_realize(cell, coords):
    """The point, segment or CCW triangle of ``cell`` at ``coords``, or None
    if a vertex has no coordinates; a collinear triangle is the segment
    between its extremes, or its one point."""
    pts = [coords.get(vid) for vid in cell.vertex_ids]
    if any(p is None for p in pts):
        return None
    if cell.kind is CellKind.VERTEX:
        return ("point", pts[0])
    if cell.kind is CellKind.EDGE:
        return ("seg", pts[0], pts[1])
    if polygon_area2(pts) == 0:
        return _reference_classify(pts)
    return ("tri", _ccw(pts))


def _reference_pair_intersection(r1, r2):
    order = {"point": 0, "seg": 1, "tri": 2}
    if order[r1[0]] > order[r2[0]]:
        r1, r2 = r2, r1
    kinds = (r1[0], r2[0])
    if kinds == ("point", "point"):
        return ("point", r1[1]) if r1[1] == r2[1] else None
    if kinds == ("point", "seg"):
        return ("point", r1[1]) if on_segment(r1[1], r2[1], r2[2]) else None
    if kinds == ("point", "tri"):
        return ("point", r1[1]) if _point_in_convex(r1[1], r2[1]) else None
    if kinds == ("seg", "seg"):
        inter = reference_segment_intersection(r1[1], r1[2], r2[1], r2[2])
        if inter is None or inter[0] == "point":
            return inter
        return ("seg", inter[1], inter[2])
    if kinds == ("seg", "tri"):
        return _reference_clip_segment_to_triangle(r1[1], r1[2], r2[1])
    return _reference_classify(convex_clip(r1[1], r2[1]))


def _segment_param(p, a, b):
    if b.x != a.x:
        return (p.x - a.x) / (b.x - a.x)
    return (p.y - a.y) / (b.y - a.y)


def _reference_segment_covered(k, lo, hi):
    intervals = []
    for cid, cell in k.cells.items():
        if cell.kind is not CellKind.EDGE:
            continue
        pts = k.cell_points(cid)
        if pts is None:
            continue
        s, t = pts
        if on_segment(s, lo, hi) and on_segment(t, lo, hi):
            ps, pt = _segment_param(s, lo, hi), _segment_param(t, lo, hi)
            intervals.append((min(ps, pt), max(ps, pt)))
    intervals.sort()
    cursor = Fraction(0)
    for s, t in intervals:
        if s > cursor:
            return False
        if t > cursor:
            cursor = t
    return cursor >= 1


def _reference_region_covered(k, poly):
    target = abs(polygon_area2(poly))
    ccw_poly = _ccw(poly)
    contained = []
    for cid, cell in k.cells.items():
        if cell.kind is not CellKind.TRIANGLE:
            continue
        pts = k.cell_points(cid)
        if pts is None or polygon_area2(pts) == 0:
            continue
        if all(_point_in_convex(p, ccw_poly) for p in pts):
            contained.append(_ccw(pts))
    total = Fraction(0)
    for i, t1 in enumerate(contained):
        total += abs(polygon_area2(t1))
        for t2 in contained[i + 1 :]:
            overlap = convex_clip(t1, t2)
            if len(overlap) >= 3 and polygon_area2(overlap) != 0:
                return False
    return total == target


def reference_validate_cw(k: CellComplex) -> ValidityReport:
    """The CW check on Fraction coordinates: every cell pair in sorted-id
    order through a box test, every edge scanned for a shared segment and
    every triangle of positive area for a shared region; a collinear
    triangle is met as its segment, or its one point."""
    realized = {}
    for cid, cell in k.cells.items():
        r = _reference_realize(cell, k.vertices)
        if r is not None:
            realized[cid] = r
    vertex_coords = {(p.x, p.y) for p in k.vertices.values()}
    boxes = {cid: bounding_box(r[1] if r[0] == "tri" else r[1:]) for cid, r in realized.items()}
    ids = sorted(realized)
    intersection = []
    for i, c1 in enumerate(ids):
        r1 = realized[c1]
        for c2 in ids[i + 1 :]:
            r2 = realized[c2]
            if not boxes_meet(boxes[c1], boxes[c2]):
                continue
            inter = _reference_pair_intersection(r1, r2)
            if inter is None:
                continue
            if inter[0] == "point":
                p = inter[1]
                if (p.x, p.y) not in vertex_coords:
                    intersection.append(
                        f"cells {c1!r},{c2!r} meet at {p} which is not a vertex"
                    )
            elif inter[0] == "seg":
                if not _reference_segment_covered(k, inter[1], inter[2]):
                    intersection.append(
                        f"cells {c1!r},{c2!r} share segment {inter[1]}-{inter[2]} not covered by edges"
                    )
            elif not _reference_region_covered(k, inter[1]):
                intersection.append(
                    f"cells {c1!r},{c2!r} share a region not covered by triangles"
                )
    return ValidityReport(
        name=k.name,
        cell_count=len(k.cells),
        containment_violations=tuple(_containment_violations(k, k.vertices)),
        intersection_violations=tuple(intersection),
    )


def reference_simple_polygon(loop) -> bool:
    """Simplicity by exact intersection of every segment pair."""
    if len({(p.x, p.y) for p in loop}) != len(loop):
        return False
    segs = loop_segments(loop)
    n = len(segs)
    for i in range(n):
        for j in range(i + 1, n):
            inter = fraction_segment_intersection(*segs[i], *segs[j])
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if adjacent:
                shared = segs[i][1] if j == i + 1 else segs[i][0]
                if inter != ("point", shared):
                    return False
            elif inter is not None:
                return False
    return True


def reference_is_nested(inner, outer) -> bool:
    """Nesting with every inner/outer segment pair intersected."""
    for p in inner.points:
        if outer.locate(p) is not PointLocation.INSIDE:
            return False
    for a, b in loop_segments(inner.points):
        for c, d in loop_segments(outer.points):
            if fraction_segment_intersection(a, b, c, d) is not None:
                return False
    return True


def reference_check_filament(r_outer: FilledCycle, r_inner: FilledCycle, fil: Filament) -> None:
    """Filament check with the filament intersected with every cycle segment."""
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
        for a, b in loop_segments(cycle.points):
            inter = fraction_segment_intersection(fa, fb, a, b)
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


def _sample_points(r: Ribbon, f: Frame, grid_density: int) -> List[Point2]:
    pts: List[Point2] = []
    if grid_density == 1:
        pts.append(Point2((f.lo.x + f.hi.x) / 2, (f.lo.y + f.hi.y) / 2))
    else:
        d = grid_density
        wx = f.hi.x - f.lo.x
        wy = f.hi.y - f.lo.y
        xs = [f.lo.x + Fraction(i, d - 1) * wx for i in range(d)]
        ys = [f.lo.y + Fraction(j, d - 1) * wy for j in range(d)]
        pts.extend(Point2(x, y) for y in ys for x in xs)
    for cycle in (r.outer, r.inner):
        pts.extend(cycle.points)
        for a, b in loop_segments(cycle.points):
            pts.append(Point2((a.x + b.x) / 2, (a.y + b.y) / 2))
    return pts


def _boundary_sets(r: Ribbon, f: Frame):
    outer = loop_segments(r.outer.points)
    inner = loop_segments(r.inner.points)
    return {
        RegionLabel.PI1_OUTSIDE: outer + f.border_segments(),
        RegionLabel.PI2_ANNULUS: outer + inner,
        RegionLabel.PI3_INNER: inner,
    }


def reference_verify_partition(r: Ribbon, f: Frame, grid_density: int) -> PartitionReport:
    """Classify a rational lattice plus loop vertices and edge midpoints.

    The report records the per-label sample counts, whether all three
    labels were realized, and for each label a sampled witness point whose
    exact clearance to the label's boundary set is strictly positive.
    """
    if grid_density < 1:
        raise ValueError("grid density must be at least 1")
    _require_frame(r, f)
    samples = _sample_points(r, f, grid_density)
    labelled: Dict[RegionLabel, List[Point2]] = {lab: [] for lab in RegionLabel}
    for p in samples:  # every sample lies in the frame
        labelled[_label(r, p)].append(p)
    boundaries = _boundary_sets(r, f)
    witnesses: Dict[str, Optional[Tuple[Point2, Fraction]]] = {}
    for lab in RegionLabel:
        found = None
        for p in labelled[lab]:
            clearance = min(
                segment_point_distance_sq(p, a, b) for a, b in boundaries[lab]
            )
            if clearance > 0:
                found = (p, clearance)
                break
        witnesses[lab.value] = found
    counts = {lab.value: len(labelled[lab]) for lab in RegionLabel}
    return PartitionReport(
        grid_density=grid_density,
        total_points=len(samples),
        label_counts=counts,
        each_point_single_label=True,  # _label returns exactly one label
        all_labels_realized=all(counts[lab.value] > 0 for lab in RegionLabel),
        bounded=all(f.contains(p) for p in samples),
        witnesses=witnesses,
    )
