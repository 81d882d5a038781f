"""Exact rational primitives for planar geometry.

Coordinates are :class:`fractions.Fraction` values and every predicate is
decided by integer sign tests, so no floating point ever enters a
geometric decision.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Tuple, Union

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
        if Fraction(value) != Fraction(str(value)):
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


def on_segment(p: Point2, a: Point2, b: Point2) -> bool:
    """True iff ``p`` lies on the closed segment ``ab``."""
    if cross_value(a, b, p) != 0:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def _lex(p: Point2) -> Tuple[Fraction, Fraction]:
    return (p.x, p.y)


SegmentIntersection = Optional[Tuple]


def segment_intersection(a: Point2, b: Point2, c: Point2, d: Point2) -> SegmentIntersection:
    """Exact intersection of the closed segments ``ab`` and ``cd``.

    Returns ``None``, ``("point", p)`` or ``("segment", p, q)`` where the
    overlap endpoints are in lexicographic order.
    """
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


def loop_segments(loop: Sequence[Point2]) -> list:
    """Closed run of edges of a polygon given by its vertex list."""
    n = len(loop)
    return [(loop[i], loop[(i + 1) % n]) for i in range(n)]


def simple_polygon(loop: Sequence[Point2]) -> bool:
    """True iff ``loop`` is a simple closed polygon.

    Adjacent edges may meet only in their shared vertex; non-adjacent
    edges may not meet at all, and vertices must be pairwise distinct.
    """
    if len(loop) < 3:
        raise TooFewVertices(f"a polygon needs at least 3 vertices, got {len(loop)}")
    if len({_lex(p) for p in loop}) != len(loop):
        return False
    segs = loop_segments(loop)
    n = len(segs)
    for i in range(n):
        a1, a2 = segs[i]
        if a1 == a2:
            return False
        for j in range(i + 1, n):
            b1, b2 = segs[j]
            inter = segment_intersection(a1, a2, b1, b2)
            if j == i + 1:
                if inter != ("point", a2):
                    return False
            elif i == 0 and j == n - 1:
                if inter != ("point", a1):
                    return False
            elif inter is not None:
                return False
    return True


class ScaledLoop:
    """Polygon rescaled to integer coordinates for fast exact queries.

    Vertices are multiplied by the least common denominator once, so each
    point classification only needs integer arithmetic.
    """

    __slots__ = ("den", "xs", "ys")

    def __init__(self, points: Sequence[Point2]):
        den = 1
        for p in points:
            den = lcm(den, p.x.denominator, p.y.denominator)
        self.den = den
        self.xs = [p.x.numerator * (den // p.x.denominator) for p in points]
        self.ys = [p.y.numerator * (den // p.y.denominator) for p in points]

    def classify(self, p: Point2) -> PointLocation:
        m = lcm(self.den, p.x.denominator, p.y.denominator)
        k = m // self.den
        px = p.x.numerator * (m // p.x.denominator)
        py = p.y.numerator * (m // p.y.denominator)
        xs, ys = self.xs, self.ys
        n = len(xs)
        inside = False
        x1 = xs[-1] * k
        y1 = ys[-1] * k
        for i in range(n):
            x2 = xs[i] * k
            y2 = ys[i] * k
            cr = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
            if (
                cr == 0
                and min(x1, x2) <= px <= max(x1, x2)
                and min(y1, y2) <= py <= max(y1, y2)
            ):
                return PointLocation.ON_BOUNDARY
            if (y1 > py) != (y2 > py) and (cr > 0) == (y2 > y1):
                inside = not inside
            x1, y1 = x2, y2
        return PointLocation.INSIDE if inside else PointLocation.OUTSIDE


def point_in_polygon(
    p: Point2, loop: Sequence[Point2], *, assume_simple: bool = False
) -> PointLocation:
    """Classify ``p`` against a simple closed polygon, exactly."""
    if not assume_simple and not simple_polygon(loop):
        raise NonSimplePolygon("polygon loop is self-intersecting or degenerate")
    return ScaledLoop(loop).classify(p)


def polygon_area2(loop: Sequence[Point2]) -> Fraction:
    """Signed doubled area (positive for counterclockwise loops)."""
    total = Fraction(0)
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
    """Exact squared distance from ``p`` to the closed segment ``ab``."""
    abx, aby = b.x - a.x, b.y - a.y
    apx, apy = p.x - a.x, p.y - a.y
    den = abx * abx + aby * aby
    if den == 0:
        return apx * apx + apy * apy
    t = (apx * abx + apy * aby) / den
    if t < 0:
        t = Fraction(0)
    elif t > 1:
        t = Fraction(1)
    dx = apx - t * abx
    dy = apy - t * aby
    return dx * dx + dy * dy


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
