"""Shared builders for randomized tests: rectangular annuli and families,
and the level-wise nerve enumerator kept as a reference."""
from fractions import Fraction
from itertools import combinations
from random import Random

from ribbonkit.complexes import CellComplex
from ribbonkit.geometry import Point2, point, segment_intersection
from ribbonkit.nerves import Region, SimplicialComplex
from ribbonkit.ribbons import (
    Filament,
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
            for a, b in r1.boundary_segments():
                for c, d in r2.boundary_segments():
                    inter = segment_intersection(a, b, c, d)
                    if inter is not None:
                        for p in inter[1:]:
                            push(p)
    for r in regions:
        for p in r.interior_samples():
            push(p)
    for p in candidates:
        if all(r.contains(p) for r in regions):
            return p
    return None


def reference_nerve(regions) -> SimplicialComplex:
    """Level-wise nerve: a candidate simplex whose facets are all in is
    kept iff its own regions have a common witness."""
    n = len(regions)
    simplices = {frozenset((i,)) for i in range(n)}
    level = [frozenset((i,)) for i in range(n)]
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
    return SimplicialComplex(
        vertex_labels=tuple(r.label for r in regions),
        simplices=frozenset(simplices),
    )


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
