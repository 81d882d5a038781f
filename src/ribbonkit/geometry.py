"""Exact rational primitives for planar geometry.

Coordinates are :class:`fractions.Fraction` values and every predicate is
decided by integer sign tests, so no floating point ever enters a
geometric decision.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import NonSimplePolygon, TooFewVertices

RationalLike = Union[int, str, float, Fraction]


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts ints, Fractions and strings such as ``"3/4"`` or ``"-2"``.
    Floats are accepted only when they denote an exact decimal (``0.25``
    yes, ``0.1`` no), so a lossy binary artefact can never silently leak
    into exact predicates.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if not isfinite(value) or Fraction(value) != Fraction(str(value)):
            raise ValueError(
                f"float {value!r} is not an exact decimal; pass a Fraction or string"
            )
        return Fraction(str(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational coordinate")


@dataclass(frozen=True)
class Point2:
    """Exact point of the rational plane."""

    x: Fraction
    y: Fraction

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


def point(x: RationalLike, y: RationalLike) -> Point2:
    """Build a :class:`Point2` from any exact rational representation."""
    return Point2(to_fraction(x), to_fraction(y))


class Orientation(Enum):
    CLOCKWISE = "clockwise"
    COUNTERCLOCKWISE = "counterclockwise"
    COLLINEAR = "collinear"


class PointLocation(Enum):
    INSIDE = "inside"
    ON_BOUNDARY = "on_boundary"
    OUTSIDE = "outside"


def cross_value(a: Point2, b: Point2, c: Point2) -> Fraction:
    """Signed doubled area of triangle abc."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def orientation(a: Point2, b: Point2, c: Point2) -> Orientation:
    det = cross_value(a, b, c)
    if det > 0:
        return Orientation.COUNTERCLOCKWISE
    if det < 0:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


SegmentIntersection = Optional[Tuple]
LatticePoint = Tuple[int, int, int]


def lattice_point(p: Point2, s: int) -> Tuple[int, int]:
    """``p`` times ``s`` as a pair of ``int``, for ``s`` a multiple of the
    denominators of its coordinates."""
    return (p.x.numerator * (s // p.x.denominator), p.y.numerator * (s // p.y.denominator))


def lattice_ring(xs: Sequence[int], ys: Sequence[int]) -> list:
    """The closed run of edges through the integer vertices ``(xs[i], ys[i])``,
    each an ``(x1, y1, x2, y2, xmin, ymin, xmax, ymax)`` tuple."""
    return [
        (x1, y1, x2, y2, min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        for x1, y1, x2, y2 in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1])
    ]


def lattice_meet(a: tuple, b: tuple) -> Optional[Tuple[LatticePoint, ...]]:
    """The meeting of the closed integer segments ``a`` and ``b``, given by
    their first four entries ``(x1, y1, x2, y2)``, or None.

    It is one point ``(X, Y, D)``, or the two ends of a collinear overlap in
    lexicographic order; a point stands for ``(X / D, Y / D)``, with
    ``D > 0`` and ``gcd(X, Y, D) == 1``.  This is the one test of whether
    two segments meet.
    """
    ax, ay, bx, by = a[:4]
    cx, cy, dx, dy = b[:4]
    rx, ry, sx, sy = bx - ax, by - ay, dx - cx, dy - cy
    acx, acy = cx - ax, cy - ay
    denom = rx * sy - ry * sx
    if denom:
        # The meeting is at parameters tn / denom along ab and un / denom
        # along cd, both in [0, 1].
        tn = acx * sy - acy * sx
        un = acx * ry - acy * rx
        if denom < 0:
            denom, tn, un = -denom, -tn, -un
        if not (0 <= tn <= denom and 0 <= un <= denom):
            return None
        x, y = ax * denom + tn * rx, ay * denom + tn * ry
        g = gcd(x, y, denom)
        return ((x // g, y // g, denom // g),)
    if acx * ry - acy * rx or acx * sy - acy * sx:
        return None  # not on one line; either test alone decides unless a segment is a point
    lo = max(min((ax, ay), (bx, by)), min((cx, cy), (dx, dy)))
    hi = min(max((ax, ay), (bx, by)), max((cx, cy), (dx, dy)))
    if lo > hi:
        return None
    return ((*lo, 1),) if lo == hi else ((*lo, 1), (*hi, 1))


def lattice_meetings(first: list, second: list) -> Iterator[Tuple[LatticePoint, ...]]:
    """:func:`lattice_meet` of each meeting pair of ``first[i]`` and
    ``second[j]``, in row-major order; pairs whose boxes, the last four
    entries of each tuple, are disjoint cannot meet and are skipped."""
    for a in first:
        for b in second:
            if a[4] <= b[6] and b[4] <= a[6] and a[5] <= b[7] and b[5] <= a[7]:
                meet = lattice_meet(a, b)
                if meet is not None:
                    yield meet


def segment_intersection(a: Point2, b: Point2, c: Point2, d: Point2) -> SegmentIntersection:
    """Exact intersection of the closed segments ``ab`` and ``cd``.

    Returns ``None``, ``("point", p)`` or ``("segment", p, q)`` where the
    overlap endpoints are in lexicographic order.  Exact for ``int`` as
    well as ``Fraction`` coordinates: the four points are scaled once to
    integers and met by :func:`lattice_meet`.
    """
    s = lcm(a.x.denominator, a.y.denominator, b.x.denominator, b.y.denominator,
            c.x.denominator, c.y.denominator, d.x.denominator, d.y.denominator)
    ab = (*lattice_point(a, s), *lattice_point(b, s))
    meet = lattice_meet(ab, (*lattice_point(c, s), *lattice_point(d, s)))
    if meet is None:
        return None
    kind = "point" if len(meet) == 1 else "segment"
    return (kind, *[Point2(Fraction(x, e * s), Fraction(y, e * s)) for x, y, e in meet])


def loop_segments(loop: Sequence[Point2]) -> list:
    """Closed run of edges of a polygon given by its vertex list."""
    n = len(loop)
    return [(loop[i], loop[(i + 1) % n]) for i in range(n)]


def simple_polygon(loop: Sequence[Point2]) -> bool:
    """True iff ``loop`` is a simple closed polygon.

    Adjacent edges may meet only in their shared vertex; non-adjacent
    edges may not meet at all, and vertices must be pairwise distinct.
    """
    shape = as_scaled_loop(loop)
    xs, ys, ring, n = shape.xs, shape.ys, shape.ring, len(shape)
    if len(set(zip(xs, ys))) != n:
        return False
    for i in range(n):
        # Edges p-q and q-r, q vertex i, overlap iff r folds back onto p's side of q.
        ux, uy = xs[i - 1] - xs[i], ys[i - 1] - ys[i]
        vx, vy = xs[i + 1 - n] - xs[i], ys[i + 1 - n] - ys[i]
        folds = ux * vy == uy * vx and ux * vx + uy * vy > 0
        # Edge i against the later edges that are not next to it.
        if folds or next(lattice_meetings(ring[i : i + 1], ring[i + 2 : i + n - 1]), None):
            return False
    return True


def bounding_box(points: Iterable[Point2]) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """Bounding box ``(xmin, ymin, xmax, ymax)`` of a nonempty point set."""
    points = list(points)  # read an iterator once
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return (min(xs), min(ys), max(xs), max(ys))


def boxes_meet(a, b) -> bool:
    """The closed boxes ``(xmin, ymin, xmax, ymax)`` share a point."""
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


class Lattice:
    """Exact rescale of rational points to an integer lattice.

    ``s`` is ``factor`` times the lcm of the coordinate denominators of
    ``points`` and ``origin``, so :meth:`ints` maps each of those points
    ``p`` to ``(p - origin) * s`` as a pair of ``int``; :meth:`point` is
    its exact inverse.
    """

    __slots__ = ("s", "ox", "oy")

    def __init__(self, points: Iterable[Point2], origin: Point2 = Point2(0, 0), factor: int = 1):
        den = lcm(origin.x.denominator, origin.y.denominator)
        for p in points:
            den = lcm(den, p.x.denominator, p.y.denominator)
        self.s = s = factor * den
        self.ox = origin.x.numerator * (s // origin.x.denominator)
        self.oy = origin.y.numerator * (s // origin.y.denominator)

    def ints(self, p: Point2) -> Tuple[int, int]:
        x, y = lattice_point(p, self.s)
        return (x - self.ox, y - self.oy)

    def point(self, x, y) -> Point2:
        return Point2(Fraction(x + self.ox, self.s), Fraction(y + self.oy, self.s))


class ScaledLoop:
    """Closed loop of three or more vertices, built once for every check on it.

    It holds its ``points``, their rescale by the least common denominator
    ``den`` to the integers ``xs`` and ``ys``, and the :func:`lattice_ring`
    of those, so each point classification and each meeting test needs only
    integer arithmetic.  It is the read-only sequence of its points.
    """

    __slots__ = ("points", "den", "xs", "ys", "ring")

    def __init__(self, points: Iterable[Point2]):
        self.points = points = tuple(points)
        if len(points) < 3:
            raise TooFewVertices(f"a polygon needs at least 3 vertices, got {len(points)}")
        self.den = s = Lattice(points).s
        self.xs = [p.x.numerator * (s // p.x.denominator) for p in points]
        self.ys = [p.y.numerator * (s // p.y.denominator) for p in points]
        self.ring = lattice_ring(self.xs, self.ys)

    def ring_at(self, s: int) -> list:
        """:attr:`ring` on the lattice of scale ``s``, a multiple of ``den``."""
        k = s // self.den
        return self.ring if k == 1 else [tuple(v * k for v in g) for g in self.ring]

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def classify(self, p: Point2) -> PointLocation:
        m = lcm(self.den, p.x.denominator, p.y.denominator)
        return lattice_location(self.xs, self.ys, *lattice_point(p, m), m // self.den)


def lattice_location(xs: List[int], ys: List[int], x: int, y: int, d: int) -> PointLocation:
    """Classify the point ``(x / d, y / d)``, ``d > 0``, against the closed
    loop with the integer vertices ``(xs[i], ys[i])``, by the parity of the
    loop's crossings of the point's row."""
    if d != 1:
        xs, ys = [v * d for v in xs], [v * d for v in ys]
    inside = False
    x1, y1 = xs[-1], ys[-1]
    for x2, y2 in zip(xs, ys):
        if (y1 > y) != (y2 > y):
            # The edge spans the query's row, so the point is on it iff on its line.
            cr = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            if cr == 0:
                return PointLocation.ON_BOUNDARY
            if (cr > 0) == (y2 > y1):
                inside = not inside
        elif (
            (y1 == y or y2 == y)
            and min(x1, x2) <= x <= max(x1, x2)
            and (x2 - x1) * (y - y1) == (y2 - y1) * (x - x1)
        ):
            # Otherwise the point can be on the edge only at an endpoint's row.
            return PointLocation.ON_BOUNDARY
        x1, y1 = x2, y2
    return PointLocation.INSIDE if inside else PointLocation.OUTSIDE


def as_scaled_loop(loop: Sequence[Point2]) -> ScaledLoop:
    """``loop`` itself if it is a :class:`ScaledLoop`, else one built from it."""
    return loop if isinstance(loop, ScaledLoop) else ScaledLoop(loop)


def _lattice_key(value: int, origin: int, step: int) -> int:
    """Position of ``value`` among ``origin + i * step``.

    The key is ``2i + 1`` when the value is lattice value ``i``, and ``2i``
    when it lies strictly between lattice values ``i - 1`` and ``i``.
    """
    q, rem = divmod(value - origin, step)
    return 2 * q + (2 if rem else 1)


def lattice_row_runs(
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
    events: List[List[Tuple[int, int, int]]] = [[] for _ in range(rows)]
    for b, loop in enumerate(loops):
        bit = 1 << b
        for (x1, y1), (x2, y2) in zip(loop, loop[1:] + loop[:1]):
            if y1 == y2:
                row = _lattice_key(y1, oy, sy)
                if row & 1 and 0 <= row // 2 < rows:
                    lo, hi = sorted((_lattice_key(x1, ox, sx), _lattice_key(x2, ox, sx)))
                    events[row // 2].extend(
                        (k, 0, bit) for k in range(max(lo | 1, 1), min(hi, top - 1) + 1, 2)
                    )
                continue
            if y1 > y2:
                x1, y1, x2, y2 = x2, y2, x1, y1
            dy, dx = y2 - y1, x2 - x1
            first = max(_lattice_key(y1, oy, sy) // 2, 0)
            last = min((_lattice_key(y2, oy, sy) - 1) // 2, rows - 1)
            # The edge meets row j at x = x1 + (oy + j * sy - y1) * dx / dy, whose
            # key is that of _lattice_key from (x - ox) * dy = q * unit + rem,
            # unit = sx * dy.  A row up adds sy * dx = dq * unit + carry: q gains
            # dq, rem gains carry and passes a unit on to q once it reaches unit.
            unit = sx * dy
            q, rem = divmod((x1 - ox) * dy + (oy + first * sy - y1) * dx, unit)
            dq, carry = divmod(sy * dx, unit)
            for j in range(first, last + 1):
                # Keys off the lattice keep their flips at its two ends.
                key = 2 * q + (2 if rem else 1)
                key = 0 if key < 0 else key if key < top else top
                events[j].append((key, bit, bit))
                q += dq
                rem += carry
                if rem >= unit:
                    rem -= unit
                    q += 1
            if first <= last and oy + last * sy == y2:  # a row on y2 does not cross
                events[last][-1] = (key, 0, bit)
    runs: Dict[int, List[Tuple[int, int, int, int]]] = {}
    for j, row in enumerate(events):
        if not row:
            continue
        row.sort()
        row.append((top + 1, 0, 0))  # closes the last group
        stretches = runs[j] = []
        inside = start = flip = on = 0  # loops crossed an odd number of times; next column
        key = row[0][0]
        for k, f, o in row:
            if k != key:
                i = key >> 1  # columns below i lie strictly left of the key
                if start < i:
                    stretches.append((start, i - 1, inside, 0))
                if key & 1:
                    stretches.append((i, i, inside & ~on, on))
                    i += 1
                inside ^= flip
                start, key, flip, on = i, k, 0, 0
            flip ^= f
            on |= o
        if start < columns:
            stretches.append((start, columns - 1, inside, 0))
    return runs


def point_in_polygon(
    p: Point2, loop: Sequence[Point2], *, assume_simple: bool = False
) -> PointLocation:
    """Classify ``p`` against a simple closed polygon, exactly."""
    loop = as_scaled_loop(loop)
    if not assume_simple and not simple_polygon(loop):
        raise NonSimplePolygon("polygon loop is self-intersecting or degenerate")
    return loop.classify(p)


def polygon_area2(loop: Sequence[Point2]) -> Fraction:
    """Signed doubled area (positive for counterclockwise loops)."""
    total = 0
    n = len(loop)
    for i in range(n):
        a, b = loop[i], loop[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total


def vertex_centroid(points: Iterable[Point2]) -> Point2:
    pts = list(points)
    n = len(pts)
    if n == 0:
        raise TooFewVertices("centroid of an empty point set")
    sx = sum((p.x for p in pts), Fraction(0))
    sy = sum((p.y for p in pts), Fraction(0))
    return Point2(sx / n, sy / n)


def segment_point_distance_sq(p: Point2, a: Point2, b: Point2) -> Fraction:
    """Exact squared distance from ``p`` to the closed segment ``ab``.

    The foot of the perpendicular is clamped to the segment by comparing
    the numerator of its parameter with the denominator, so ``int``
    coordinates give an ``int`` or a :class:`Fraction`, never a float.
    """
    abx, aby = b.x - a.x, b.y - a.y
    apx, apy = p.x - a.x, p.y - a.y
    den = abx * abx + aby * aby
    num = apx * abx + apy * aby
    if den == 0 or num <= 0:
        return apx * apx + apy * apy
    if num >= den:
        bpx, bpy = p.x - b.x, p.y - b.y
        return bpx * bpx + bpy * bpy
    cross = apx * aby - apy * abx
    return Fraction(cross * cross, den)


def segment_segment_distance_sq(a: Point2, b: Point2, c: Point2, d: Point2) -> Fraction:
    """Exact squared distance between two closed segments (0 when they meet)."""
    if segment_intersection(a, b, c, d) is not None:
        return Fraction(0)
    return min(
        segment_point_distance_sq(a, c, d),
        segment_point_distance_sq(b, c, d),
        segment_point_distance_sq(c, a, b),
        segment_point_distance_sq(d, a, b),
    )
