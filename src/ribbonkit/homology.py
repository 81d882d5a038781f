"""Independent homology oracle: mod-2 simplicial ranks vs cubical counts.

Used to validate, at desk scale, that the nerve of a family of closed
convex regions and the union of that family carry the same (b0, b1).
Rank agreement over Z/2 stands in for homotopy equivalence, which is not
finitely checkable here.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .division import Frame
from .errors import (
    CollectionTooLarge,
    EmptyCollection,
    FrameTooSmall,
    NonConvexRegion,
)
from .geometry import (
    Lattice,
    Point2,
    as_scaled_loop,
    lattice_row_runs,
    segment_segment_distance_sq,
    simple_polygon,
)
from .nerves import Region, SimplicialComplex, boundary_meetings, family_lattice, nerve


@dataclass(frozen=True)
class BoundaryMatrix:
    """Incidence of d-simplices (columns) over (d-1)-simplices (rows), mod 2."""

    rows: Tuple[FrozenSet[int], ...]
    cols: Tuple[FrozenSet[int], ...]
    columns: Tuple[int, ...]  # bitmask per column over row indices


def boundary_matrix(sc: SimplicialComplex, d: int) -> BoundaryMatrix:
    rows = sc.simplices_of_dim(d - 1)
    cols = sc.simplices_of_dim(d)
    row_index = {s: i for i, s in enumerate(rows)}
    columns = []
    for col in cols:
        mask = 0
        for v in col:
            facet = col - {v}
            mask |= 1 << row_index[facet]
        columns.append(mask)
    return BoundaryMatrix(rows=rows, cols=cols, columns=tuple(columns))


def _gf2_rank(vectors: Sequence[int]) -> int:
    pivots: Dict[int, int] = {}
    rank = 0
    for vec in vectors:
        cur = vec
        while cur:
            lead = cur.bit_length() - 1
            if lead in pivots:
                cur ^= pivots[lead]
            else:
                pivots[lead] = cur
                rank += 1
                break
    return rank


def z2_betti(sc: SimplicialComplex) -> Tuple[int, int]:
    """(b0, b1) of the complex over Z/2, from boundary-matrix ranks.

    Only the 2-skeleton determines both ranks, and it is read off the
    facets: the full closure is never built.
    """
    d1 = boundary_matrix(sc, 1)
    rank1 = _gf2_rank(d1.columns)
    rank2 = _gf2_rank(boundary_matrix(sc, 2).columns)
    return (len(d1.rows) - rank1, len(d1.cols) - rank1 - rank2)


Run = Tuple[int, int]


@dataclass(frozen=True)
class Bitmap:
    """Raster of set pixels over a frame; pixel (i, j) is column i, row j.

    ``rows[j]`` holds the set pixels of row ``j`` as sorted closed column
    runs ``(first, last)``.  The runs are maximal: two runs of one row
    leave at least one unset pixel between them.
    """

    width: int
    height: int
    resolution: int
    frame: Frame
    rows: Tuple[Tuple[Run, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.height:
            raise ValueError(f"bitmap has {len(self.rows)} rows, expected {self.height}")
        for runs in self.rows:
            end = -2
            for a, b in runs:
                if not end + 1 < a <= b < self.width:
                    raise ValueError(f"row runs {runs} are not sorted, maximal and in range")
                end = b

    @property
    def bits(self) -> FrozenSet[Tuple[int, int]]:
        """The set pixels as ``(i, j)`` pairs, read-only."""
        return frozenset(
            (i, j) for j, runs in enumerate(self.rows) for a, b in runs for i in range(a, b + 1)
        )

    def pixel_center(self, i: int, j: int) -> Point2:
        return Point2(
            self.frame.lo.x + Fraction(2 * i + 1, 2 * self.resolution),
            self.frame.lo.y + Fraction(2 * j + 1, 2 * self.resolution),
        )


def _merge_runs(runs: List[Run]) -> Tuple[Run, ...]:
    """Sorted maximal runs covering the same pixels."""
    out: List[Run] = []
    for a, b in sorted(runs):
        if out and a <= out[-1][1] + 1:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return tuple(out)


def rasterize(regions: Sequence[Region], frame: Frame, resolution: int) -> Bitmap:
    """Set a pixel iff its center lies in the closed union of the regions.

    Exact and per row: :func:`lattice_row_runs` splits each row of pixel
    centres into stretches that lie inside, on or outside each loop of a
    region alike, so a stretch is set iff it is in or on one of the
    region's loops and strictly inside none of its excluded loops, as
    :meth:`Region.contains` decides for a point.
    """
    if resolution < 4:
        raise ValueError(f"resolution must be at least 4 pixels per unit, got {resolution}")
    for r in regions:
        for p in r.boundary_vertices():
            if not frame.contains(p):
                raise FrameTooSmall(f"region vertex {p} falls outside the frame")
    width = ceil((frame.hi.x - frame.lo.x) * resolution)
    height = ceil((frame.hi.y - frame.lo.y) * resolution)
    row_runs: List[List[Run]] = [[] for _ in range(height)]
    for r in regions:
        # Scaled once to integers, X = (x - lo.x) * 2 * resolution * den with
        # den the lcm of the denominators of the region and the frame corner,
        # the centre of pixel (i, j) is at ((2i + 1) * den, (2j + 1) * den).
        lattice = Lattice(r.boundary_vertices(), frame.lo, 2 * resolution)
        den = lattice.s // (2 * resolution)
        loops = [[lattice.ints(p) for p in loop.points] for loop in r.loops + r.excluded]
        stretches = lattice_row_runs(loops, (den, den), (2 * den, 2 * den), (width, height))
        held = (1 << len(r.loops)) - 1  # the loops' bits; the excluded loops' lie above
        for j, row in stretches.items():
            row_runs[j] += [(a, b) for a, b, inside, on in row if (inside | on) & held and inside <= held]
    rows = tuple(_merge_runs(runs) for runs in row_runs)
    return Bitmap(width=width, height=height, resolution=resolution, frame=frame, rows=rows)


def cubical_betti(b: Bitmap) -> Tuple[int, int]:
    """(components, bounded holes) of the raster, from one union-find.

    Set pixels connect 8-ways, unset pixels 4-ways (no checkerboard
    paradox); a hole is an unset component off the border.  Runs of
    adjacent rows are adjacent when they overlap once widened by one
    pixel, and no three runs meet, so the union of the pixels has the
    homotopy type of the planar graph of the R runs and their E adjacent
    pairs.  With U the pairs that join two union-find roots, b0 = R - U
    and b1 = E - U, the cycle rank: each independent cycle bounds exactly
    one 4-way hole off the border (Rosenfeld, "Digital topology", Amer.
    Math. Monthly 86(8), 1979; Kong and Rosenfeld, "Digital topology:
    introduction and survey", CVGIP 48, 1989).  A merge-like sweep of
    each pair of rows meets each adjacent pair once.
    """
    parent = list(range(sum(map(len, b.rows))))
    edges = unions = base = 0
    for upper, lower in zip(b.rows, b.rows[1:]):
        below = base + len(upper)
        i = k = 0
        while i < len(upper) and k < len(lower):
            (first, last), (lo, hi) = upper[i], lower[k]
            if lo <= last + 1 and first <= hi + 1:
                edges += 1
                x, y = base + i, below + k
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x != y:
                    parent[x] = y
                    unions += 1
            if last < hi:
                i += 1
            else:
                k += 1
        base = below
    return (len(parent) - unions, edges - unions)


def is_convex_loop(points: Sequence[Point2]) -> bool:
    """A simple closed loop whose turns all agree in sign (collinear runs allowed)."""
    n = len(points)
    if n < 3:
        return False
    loop = as_scaled_loop(points)
    xs, ys = loop.xs, loop.ys
    signs = set()
    for i in range(-2, n - 2):  # the turn at vertex i + 1
        det = (xs[i + 1] - xs[i]) * (ys[i + 2] - ys[i]) - (ys[i + 1] - ys[i]) * (xs[i + 2] - xs[i])
        if det:
            signs.add(det > 0)
    return len(signs) == 1 and simple_polygon(loop)


def _box_gap_sq(a, b) -> int:
    """Squared distance between the closed boxes ``(xmin, ymin, xmax, ymax)``."""
    dx = max(a[0] - b[2], b[0] - a[2], 0)
    dy = max(a[1] - b[3], b[1] - a[3], 0)
    return dx * dx + dy * dy


def min_boundary_clearance_sq(regions: Sequence[Region]) -> Optional[Fraction]:
    """Exact minimum squared distance between boundaries of distinct regions.

    Zero when two boundaries meet, as the nerve's :func:`boundary_meetings`
    finds; None for fewer than two regions.  Otherwise distances are taken
    on the family's integer lattice of scale ``s`` and divided by ``s**2``
    once.  A region pair or segment pair whose boxes are at least the best
    distance so far apart is skipped: the box gap bounds its distance from
    below, so the minimum is the one of the full double loop.
    """
    s, family = family_lattice(regions)
    if next(boundary_meetings(family), None) is not None:
        return Fraction(0)
    edges = [[(Point2(*g[:2]), Point2(*g[2:4]), g[4:]) for g in r.segments] for r in family]
    best = None
    for i, r1 in enumerate(family):
        for j in range(i + 1, len(family)):
            if best is not None and _box_gap_sq(r1.box, family[j].box) >= best:
                continue
            for a, b, box1 in edges[i]:
                for c, d, box2 in edges[j]:
                    if best is not None and _box_gap_sq(box1, box2) >= best:
                        continue
                    dist = segment_segment_distance_sq(a, b, c, d)
                    if best is None or dist < best:
                        best = dist
    return None if best is None else Fraction(best, s * s)


@dataclass(frozen=True)
class NerveCheckReport:
    region_count: int
    resolution: int
    nerve_betti: Tuple[int, int]
    union_betti: Tuple[int, int]
    min_clearance_sq: Optional[Fraction]

    @property
    def passed(self) -> bool:
        return self.nerve_betti == self.union_betti

    def lines(self) -> List[str]:
        return [
            f"regions={self.region_count} resolution={self.resolution} passed={str(self.passed).lower()}",
            f"  nerve  b0={self.nerve_betti[0]} b1={self.nerve_betti[1]}",
            f"  union  b0={self.union_betti[0]} b1={self.union_betti[1]}",
            f"  min_boundary_clearance_sq={self.min_clearance_sq}",
        ]


def nerve_theorem_check(
    regions: Sequence[Region], frame: Frame, resolution: int
) -> NerveCheckReport:
    """Compare nerve ranks with raster ranks of the union of convex regions."""
    if not regions:
        raise EmptyCollection("nothing to check")
    if len(regions) > 20:
        raise CollectionTooLarge(f"check capped at 20 regions, got {len(regions)}")
    for r in regions:
        if r.excluded or len(r.loops) != 1 or not is_convex_loop(r.loops[0]):
            raise NonConvexRegion(f"region {r.label or '?'} is not a closed convex polygon")
    sc = nerve(regions)
    nerve_ranks = z2_betti(sc)
    union_ranks = cubical_betti(rasterize(regions, frame, resolution))
    return NerveCheckReport(
        region_count=len(regions),
        resolution=resolution,
        nerve_betti=nerve_ranks,
        union_betti=union_ranks,
        min_clearance_sq=min_boundary_clearance_sq(regions),
    )
