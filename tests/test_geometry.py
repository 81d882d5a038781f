from collections import Counter
from itertools import chain, combinations
from fractions import Fraction
from math import lcm
from random import Random

import pytest

from helpers import (
    fraction_segment_intersection,
    loop_segments,
    nudged_map,
    on_segment,
    random_slanted_family,
    reference_lattice_row_runs,
    reference_scaled_loop,
    reference_segment_intersection,
    reference_simple_polygon,
    segment_point_distance_sq,
    segment_segment_distance_sq,
)

from ribbonkit.complexes import CellComplex
from ribbonkit.errors import NonSimplePolygon, TooFewVertices
from ribbonkit.geometry import (
    Orientation,
    Point2,
    PointLocation,
    ScaledLoop,
    as_lattice_point,
    bounding_box,
    cross_value,
    frame_lattice,
    lattice_gap_sq,
    lattice_location,
    lattice_meet,
    lattice_meetings,
    lattice_point,
    lattice_ring,
    lattice_row_runs,
    orientation,
    point,
    point_in_polygon,
    segment_intersection,
    simple_polygon,
    to_fraction,
)
from ribbonkit.ribbons import FilledCycle

SQUARE = [point(0, 0), point(3, 0), point(3, 3), point(0, 3)]
BOWTIE = [point(0, 0), point(2, 2), point(2, 0), point(0, 2)]


def test_scaled_loop_matches_fraction_rescale():
    # A loop built from its points, from their lattice points, or through a
    # complex's stored integers has the den, xs, ys and ring of the rescale
    # from Fraction coordinates, at denominators 1, 2, 3 and 7 alone and mixed,
    # and with numerators or denominators at a 10**12 scale.
    rng = Random(2401)
    seen = Counter()
    for case in range(400):
        scale = rng.choice((1, 1, 10 ** 12, Fraction(1, 10 ** 12)))
        dens = rng.choice(((1,), (2,), (3,), (7,), (1, 2, 3, 7)))
        n = rng.randint(3, 9)
        pts = [
            Point2(Fraction(rng.randint(-20, 20), rng.choice(dens)) * scale,
                   Fraction(rng.randint(-20, 20), rng.choice(dens)) * scale)
            for _ in range(n)
        ]
        if rng.random() < 0.2:
            pts[rng.randrange(n)] = pts[0]  # twin points; a loop need not be simple
        want = reference_scaled_loop(pts)
        k = CellComplex()
        for i, p in enumerate(pts):
            k.add_vertex(f"v{i}", p)
        for loop in (
            ScaledLoop(pts),
            ScaledLoop(iter(pts), [as_lattice_point(p) for p in pts]),
            FilledCycle(k, [f"v{i}" for i in range(n)]).shape,
        ):
            assert (loop.den, loop.xs, loop.ys, loop.ring) == want, pts
            assert loop.points == tuple(pts)
        seen[want[0] > 10 ** 12] += 1
        seen["flat x" if any(g[0] == g[2] for g in want[3]) else "slanted"] += 1
    assert min(seen.values()) >= 60, seen


def test_to_fraction_accepts_exact_forms():
    assert to_fraction(3) == Fraction(3)
    assert to_fraction("3/4") == Fraction(3, 4)
    assert to_fraction(0.25) == Fraction(1, 4)
    assert to_fraction(Fraction(7, 2)) == Fraction(7, 2)


def test_to_fraction_rejects_exponents():
    # Fraction would read "1e2000000" as an integer of two million digits.
    for text in ("1e400", "1E400", "2.5e-3", "1e2000000"):
        with pytest.raises(ValueError):
            to_fraction(text)
    assert to_fraction(1e20) == 10**20  # a float, whose repr "1e+20" has one


def test_to_fraction_rejects_zero_denominator():
    with pytest.raises(ValueError, match="^'1/0' has a zero denominator$"):
        to_fraction("1/0")
    with pytest.raises(ValueError):
        point("1/0", 0)


def test_to_fraction_rejects_inexact_float():
    with pytest.raises(ValueError):
        to_fraction(0.1)
    with pytest.raises(TypeError):
        to_fraction(object())


def test_to_fraction_rejects_non_finite_float():
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="is not an exact decimal"):
            to_fraction(value)
    with pytest.raises(ValueError):
        point(float("inf"), 0)


def test_bounding_box_reads_an_iterator_once():
    assert bounding_box(p for p in SQUARE) == bounding_box(SQUARE) == (0, 0, 3, 3)


def test_scaled_loop_is_the_sequence_of_its_points():
    loop = ScaledLoop(iter(SQUARE))
    assert len(loop) == 4 and list(loop) == SQUARE and loop[-1] == SQUARE[-1]
    assert loop.points == tuple(SQUARE)
    assert loop.ring == lattice_ring(loop.xs, loop.ys) == [
        (0, 0, 3, 0, 0, 0, 3, 0), (3, 0, 3, 3, 3, 0, 3, 3), (3, 3, 0, 3, 0, 3, 3, 3), (0, 3, 0, 0, 0, 0, 0, 3)
    ]
    assert loop.at(1) is loop and loop.at(2).ring[1] == (6, 0, 6, 6, 6, 0, 6, 6)
    assert loop_segments(loop) == loop_segments(SQUARE)
    assert simple_polygon(loop) is True
    assert point_in_polygon(point(1, 1), loop) is PointLocation.INSIDE


def test_scaled_loop_at_rescales_without_a_rebuild(monkeypatch):
    # at(den) is the loop; at(k * den) shares its points and has den, xs, ys
    # and ring k times the loop's, on random loops at denominators 1, 2, 3
    # and 7, and locates random points as classify does.  No ScaledLoop is
    # built through __init__ on the way.
    rng = Random(71)

    def rational(den, size):
        return Fraction(rng.randint(-size * den, size * den), den)

    loops = []
    for _ in range(60):
        den = rng.choice((1, 2, 3, 7))
        loops.append(ScaledLoop([Point2(rational(den, 3), rational(den, 3)) for _ in range(rng.randint(3, 6))]))
    builds = []
    init = ScaledLoop.__init__
    monkeypatch.setattr(ScaledLoop, "__init__", lambda self, *args: builds.append(1) or init(self, *args))
    seen = set()
    for loop in loops:
        assert loop.at(loop.den) is loop
        k = rng.choice((2, 3, 7, 10**12))
        at = loop.at(k * loop.den)
        assert type(at) is ScaledLoop and at.points is loop.points and at.den == k * loop.den
        assert at.xs == [x * k for x in loop.xs] and at.ys == [y * k for y in loop.ys]
        assert at.ring == [tuple(v * k for v in g) for g in loop.ring] == lattice_ring(at.xs, at.ys)
        for _ in range(20):
            den = rng.choice((1, 2, 3, 7))
            p = Point2(rational(den, 4), rational(den, 4))
            if rng.random() < 0.2:
                p = rng.choice(loop.points)
            m = lcm(at.den, den)
            got = lattice_location(at, *lattice_point(p, m), m // at.den)
            assert got is loop.classify(p)
            seen.add(got)
    assert seen == set(PointLocation)
    assert builds == []


@pytest.mark.parametrize(
    "build",
    (ScaledLoop, simple_polygon, lambda pts: point_in_polygon(point(0, 0), pts)),
)
def test_two_vertex_loop_raises_too_few_vertices(build):
    with pytest.raises(TooFewVertices, match="^a polygon needs at least 3 vertices, got 2$"):
        build([point(0, 0), point(1, 0)])


def test_orientation_examples():
    assert orientation(point(0, 0), point(1, 0), point(0, 1)) is Orientation.COUNTERCLOCKWISE
    assert orientation(point(0, 0), point(1, 1), point(2, 2)) is Orientation.COLLINEAR
    # mirror case; by hand (b-a) x (c-a) = (0,1) x (1,0) = -1 < 0
    assert orientation(point(0, 0), point(0, 1), point(1, 0)) is Orientation.CLOCKWISE


def test_orientation_antisymmetric_under_swaps():
    rng = Random(7)
    flip = {
        Orientation.CLOCKWISE: Orientation.COUNTERCLOCKWISE,
        Orientation.COUNTERCLOCKWISE: Orientation.CLOCKWISE,
        Orientation.COLLINEAR: Orientation.COLLINEAR,
    }
    for _ in range(200):
        a, b, c = (point(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3))
        base = orientation(a, b, c)
        assert orientation(b, a, c) is flip[base]
        assert orientation(a, c, b) is flip[base]
        assert orientation(c, b, a) is flip[base]


def test_point_in_polygon_examples():
    assert point_in_polygon(point(1, 1), SQUARE) is PointLocation.INSIDE
    assert point_in_polygon(point(0, 0), SQUARE) is PointLocation.ON_BOUNDARY
    assert point_in_polygon(point(5, 5), SQUARE) is PointLocation.OUTSIDE


def test_point_in_polygon_requires_simple_loop():
    with pytest.raises(NonSimplePolygon):
        point_in_polygon(point(1, 1), BOWTIE)


def _ray_classify(p, loop):
    """Independent classifier: parity of proper crossings of a generic ray."""
    for a, b in loop_segments(loop):
        if on_segment(p, a, b):
            return PointLocation.ON_BOUNDARY
    far_x = max(q.x for q in loop) + 1
    for j in range(1, 200):
        far = Point2(far_x + j, p.y + Fraction(j, 7))
        if any(cross_value(p, far, v) == 0 for v in loop):
            continue  # ray hits a vertex; pick another
        crossings = 0
        for a, b in loop_segments(loop):
            inter = segment_intersection(p, far, a, b)
            if inter is not None:
                assert inter[0] == "point"
                crossings += 1
        return PointLocation.INSIDE if crossings % 2 else PointLocation.OUTSIDE
    raise AssertionError("no generic ray found")


def test_point_in_polygon_matches_ray_oracle():
    rng = Random(11)
    loops = [
        SQUARE,
        [point(0, 0), point(4, 0), point(4, 2), point(2, 1), point(0, 2)],  # dented
        [point(-2, -1), point(3, -2), point(5, 4), point(0, 5), point(-3, 2)],
    ]
    for loop in loops:
        for _ in range(150):
            p = Point2(Fraction(rng.randint(-12, 12), 2), Fraction(rng.randint(-12, 12), 2))
            assert point_in_polygon(p, loop) is _ray_classify(p, loop)


def test_simple_polygon_examples_and_oracle():
    square = [point(0, 0), point(2, 0), point(2, 2), point(0, 2)]
    assert simple_polygon(square) is True
    assert simple_polygon(BOWTIE) is False
    with pytest.raises(TooFewVertices):
        simple_polygon([point(0, 0), point(1, 0)])
    spike = [point(0, 0), point(4, 0), point(2, 0), point(2, 2)]
    cases = [square, BOWTIE, spike, SQUARE,
             [point(0, 0), point(1, 0), point(1, 1), point(0, 1), point(0, 0)][:-1]]
    for loop in cases:
        assert simple_polygon(loop) == reference_simple_polygon(loop)


def test_simple_polygon_allows_collinear_straight_runs():
    loop = [point(0, 0), point(2, 0), point(4, 0), point(4, 2), point(0, 2)]
    assert simple_polygon(loop) is True


def test_segment_intersection_cases():
    # proper crossing
    inter = segment_intersection(point(0, 0), point(2, 2), point(0, 2), point(2, 0))
    assert inter == ("point", point(1, 1))
    # endpoint touch
    inter = segment_intersection(point(0, 0), point(1, 1), point(1, 1), point(3, 0))
    assert inter == ("point", point(1, 1))
    # collinear overlap
    inter = segment_intersection(point(0, 0), point(4, 0), point(2, 0), point(6, 0))
    assert inter == ("segment", point(2, 0), point(4, 0))
    # parallel, apart
    assert segment_intersection(point(0, 0), point(4, 0), point(0, 1), point(4, 1)) is None
    # skew, apart
    assert segment_intersection(point(0, 0), point(1, 0), point(3, 1), point(3, 5)) is None
    # degenerate segment on and off the other carrier
    assert segment_intersection(point(1, 0), point(1, 0), point(0, 0), point(4, 0)) == (
        "point",
        point(1, 0),
    )
    assert segment_intersection(point(1, 2), point(1, 2), point(0, 0), point(4, 0)) is None


def _projection_distance_sq(p, a, b) -> Fraction:
    """Squared distance to the clamped foot of the perpendicular, in Fractions."""
    ab = (Fraction(b.x - a.x), Fraction(b.y - a.y))
    ap = (Fraction(p.x - a.x), Fraction(p.y - a.y))
    den = ab[0] ** 2 + ab[1] ** 2
    t = min(max((ap[0] * ab[0] + ap[1] * ab[1]) / den, 0), 1) if den else 0
    return (ap[0] - t * ab[0]) ** 2 + (ap[1] - t * ab[1]) ** 2


def _min_of_four(g, h):
    """Least end gap of two lattice segments, the distance of two that do not meet."""
    return min(
        lattice_gap_sq(*g[:2], h), lattice_gap_sq(*g[2:], h), lattice_gap_sq(*h[:2], g), lattice_gap_sq(*h[2:], g)
    )


def test_segment_distances():
    assert lattice_gap_sq(0, 1, (-2, 0, 2, 0)) == 1
    assert lattice_gap_sq(4, 0, (-2, 0, 2, 0)) == 4
    assert _min_of_four((0, 0, 1, 0), (0, 2, 1, 2)) == 4
    # Segments that meet are at distance 0, which the ends alone do not show.
    assert lattice_meet((0, 0, 2, 2), (0, 2, 2, 0)) is not None
    assert segment_segment_distance_sq(point(0, 0), point(2, 2), point(0, 2), point(2, 0)) == 0


def test_segment_distances_are_exact_on_ints():
    got = lattice_gap_sq(1, 1, (0, 0, 3, 1))
    assert got == Fraction(2, 5) and type(got) is Fraction
    # Points at denominators 1, 2, 3 and 7, scaled to their common lattice,
    # are as far from a segment, times the scale squared, as the helpers'
    # Fraction distance and the clamped projection find, with feet before,
    # inside and past each end and segments of length 0; an end or a point
    # gives an int.  Two segments that do not meet are at the least of their
    # four end gaps.
    rng = Random(43)
    feet = Counter()
    apart = 0
    for _ in range(2000):
        den = rng.choice((1, 2, 3, 7))
        p, a, b, c, d = (
            Point2(Fraction(rng.randint(-4 * den, 4 * den), rng.choice((1, den))),
                   Fraction(rng.randint(-4 * den, 4 * den), rng.choice((1, den))))
            for _ in range(5)
        )
        if rng.random() < 0.1:
            b = a
        s = lcm(*(v.denominator for q in (p, a, b, c, d) for v in (q.x, q.y)))
        x, y = lattice_point(p, s)
        g, h = (*lattice_point(a, s), *lattice_point(b, s)), (*lattice_point(c, s), *lattice_point(d, s))
        got = lattice_gap_sq(x, y, g)
        assert got == segment_point_distance_sq(p, a, b) * s * s == _projection_distance_sq(p, a, b) * s * s
        t = (p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)
        length = (b.x - a.x) ** 2 + (b.y - a.y) ** 2
        foot = "point" if length == 0 else "before" if t <= 0 else "past" if t >= length else "inside"
        feet[foot] += 1
        assert type(got) is (Fraction if foot == "inside" else int), (foot, got)
        if fraction_segment_intersection(a, b, c, d) is None:
            apart += 1
            assert _min_of_four(g, h) == segment_segment_distance_sq(a, b, c, d) * s * s
    assert min(feet[foot] for foot in ("point", "before", "inside", "past")) > 50, feet
    assert apart > 1000


def _lattice_point(rng: Random, side: int, den: int) -> Point2:
    return Point2(Fraction(rng.randint(0, side * den), den), Fraction(rng.randint(0, side * den), den))


def test_segment_intersection_matches_division_form():
    # Small lattices give endpoint touches, T-junctions, collinear overlaps
    # and degenerate segments; int coordinates must give the same points.
    rng = Random(29)
    kinds = set()
    for _ in range(3000):
        den = rng.choice((1, 1, 2, 3, 7))
        a, b, c, d = (_lattice_point(rng, 3, den) for _ in range(4))
        want = reference_segment_intersection(a, b, c, d)
        assert segment_intersection(a, b, c, d) == want
        kinds.add(None if want is None else want[0])
        if den == 1:
            ints = [Point2(p.x.numerator, p.y.numerator) for p in (a, b, c, d)]
            got = segment_intersection(*ints)
            assert got == want
            if got is not None:
                assert not any(isinstance(v, float) for q in got[1:] for v in (q.x, q.y))
    assert kinds == {None, "point", "segment"}


def _star_loop(rng: Random, n: int):
    """Simple loop: points at increasing angles around the origin."""
    dirs = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1),
            (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -2), (1, -1), (2, -1)]
    picks = sorted(rng.sample(range(len(dirs)), n))
    loop = []
    for i in picks:
        r = Fraction(rng.randint(2, 9), rng.choice((1, 2, 3, 5)))
        loop.append(Point2(dirs[i][0] * r, dirs[i][1] * r))
    return loop


def test_scaled_loop_classify_keeps_no_stale_rescale():
    # One long-lived loop answers queries whose denominators alternate, so a
    # rescale kept from the previous query would give wrong answers.
    rng = Random(31)
    seen = set()
    for _ in range(40):
        pts = _star_loop(rng, rng.randint(3, 8))
        loop = ScaledLoop(pts)
        for q in range(60):
            den = (1, 3, 2, 3, 7, 1024)[q % 6] * rng.choice((1, 5))
            p = Point2(Fraction(rng.randint(-10 * den, 10 * den), den), Fraction(rng.randint(-10 * den, 10 * den), den))
            if q % 10 == 0:
                p = rng.choice(pts)
            got = loop.classify(p)
            assert got is ScaledLoop(pts).classify(p)
            assert got is _ray_classify(p, pts)
            seen.add(got)
    assert seen == set(PointLocation)


def test_frame_lattice_scales_frame_and_loops():
    rng = Random(53)

    def rational():
        return Fraction(rng.randint(-5000, 5000), rng.randint(1, 1024))

    for factor in (1, 2, 2 * 120):
        for _ in range(60):
            lo = Point2(rational(), Fraction(rng.randint(1, 99), rng.randint(2, 60)))
            hi = Point2(lo.x + abs(rational()) + 1, lo.y + Fraction(rng.randint(1, 99), rng.randint(1, 7)))
            loops = []
            for _ in range(rng.randint(1, 3)):
                pts = [Point2(rational(), rational()) for _ in range(rng.randint(1, 5))]
                pts.append(point(rng.randint(-9, 9), rng.randint(-9, 9)))
                pts.append(Point2(rng.randint(-9, 9), rng.randint(-9, 9)))
                loops.append(ScaledLoop(pts))
            s, lo_s, hi_s, scaled = frame_lattice(lo, hi, loops, factor)
            dens = [c.denominator for p in (lo, hi, *chain(*loops)) for c in (p.x, p.y)]
            assert s == factor * lcm(*dens)
            assert all(at.den == s and at.points is loop.points for loop, at in zip(loops, scaled))
            vertices = ((p, (x, y)) for loop, at in zip(loops, scaled) for p, x, y in zip(loop, at.xs, at.ys))
            for p, q in ((lo, lo_s), (hi, hi_s), *vertices):
                assert type(q[0]) is int and type(q[1]) is int
                assert q == (p.x * s, p.y * s)
            assert [len(at.xs) for at in scaled] == [len(loop) for loop in loops]


def test_lattice_row_runs_contract():
    # Random integer loops, some leaving the lattice on the left, the right
    # or both sides, and above or below it; half of the vertices sit on
    # lattice points, so edges run along rows and through columns.  One case
    # in four adds a shallow triangle on a wider lattice: its two slanted
    # edges move more than five columns a row, one to the right and one to
    # the left, so each row steps the crossing's key by a whole quotient and
    # carries a remainder.  Another case in four is scaled by 10**12, origin
    # and step included.  The whole result also equals the scan with one
    # division per edge and row.
    rng = Random(59)
    masks = {PointLocation.INSIDE: (1, 0), PointLocation.ON_BOUNDARY: (0, 1), PointLocation.OUTSIDE: (0, 0)}
    seen = Counter()
    for case in range(400):
        shallow, scale = case % 4 == 1, 10**12 if case % 4 == 2 else 1
        columns, rows = (rng.randint(20, 40), rng.randint(2, 5)) if shallow else (rng.randint(1, 12), rng.randint(1, 12))
        ox, oy, sx, sy = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 5), rng.randint(1, 5)
        loops = []
        for _ in range(rng.randint(1, 3)):
            left, right = rng.choice(((0, 0), (4, 0), (0, 4), (4, 4)))
            loop = []
            for _ in range(rng.randint(3, 7)):
                i, j = rng.randint(-left, columns - 1 + right), rng.randint(-2, rows + 1)
                if rng.random() < 0.5:
                    loop.append((ox + i * sx, oy + j * sy))
                else:
                    loop.append((ox + i * sx + rng.randrange(sx), oy + j * sy + rng.randrange(sy)))
            loops.append(loop)
        if shallow:
            x0 = ox + rng.randint(columns // 4, 3 * columns // 4) * sx + rng.randrange(sx)
            loop = [(x0, oy + rng.randint(-1, 0) * sy + rng.randrange(sy))]
            for sign in (1, -1):
                dy = rng.randint(sy, rows * sy)
                loop.append((x0 + sign * rng.randint(5 * sx * dy + 1, 7 * sx * dy), loop[0][1] + dy))
            loops.append(loop)
        loops = [[(x * scale, y * scale) for x, y in loop] for loop in loops]
        ox, oy, sx, sy = ox * scale, oy * scale, sx * scale, sy * scale
        scaled = [ScaledLoop([Point2(x, y) for x, y in loop]) for loop in loops]
        runs = lattice_row_runs(scaled, (ox, oy), (sx, sy), (columns, rows))
        assert runs == reference_lattice_row_runs(loops, (ox, oy), (sx, sy), (columns, rows))
        assert set(runs) <= set(range(rows))
        for j in range(rows):
            y = oy + j * sy
            row = runs.get(j, [(0, columns - 1, 0, 0)])
            assert [i for first, last, _, _ in row for i in range(first, last + 1)] == list(range(columns))
            for first, last, inside, on in row:
                assert first <= last
                for i in range(first, last + 1):
                    for b, s in enumerate(scaled):
                        where = s.classify(Point2(ox + i * sx, y))
                        assert (inside >> b & 1, on >> b & 1) == masks[where]
                        seen[where] += 1
            # What the row meets: vertices, edges along it with a lattice
            # column strictly between their ends, edges crossing its line at
            # least one column step left or right of the lattice, and shallow
            # edges crossing it on the lattice with a remainder carried.
            for loop in loops:
                for (x1, y1), (x2, y2) in zip(loop, loop[1:] + loop[:1]):
                    if y1 == y:
                        seen["vertex on row"] += 1
                    if y1 == y2 == y and any(min(x1, x2) < ox + i * sx < max(x1, x2) for i in range(columns)):
                        seen["edge along row"] += 1
                    elif min(y1, y2) <= y <= max(y1, y2) and y1 != y2:
                        x = x1 + Fraction((y - y1) * (x2 - x1), y2 - y1)
                        if x <= ox - sx:
                            seen["clamped left"] += 1
                        if x >= ox + columns * sx:
                            seen["clamped right"] += 1
                        dx, dy = abs(x2 - x1), abs(y2 - y1)
                        if dx > 5 * sx * dy and sy * dx % (sx * dy) and ox <= x < ox + columns * sx:
                            seen["shallow " + ("right" if (x2 - x1) * (y2 - y1) > 0 else "left")] += 1
    assert min(seen.values()) > 20 and len(seen) == 9, seen


def test_simple_polygon_matches_unpruned_reference():
    rng, maps = Random(37), Random(61)
    outcomes, dens = [], Counter()
    for _ in range(600):
        shape = rng.random()
        if shape < 0.6:
            # lattice loops: self-touching, collinear overlaps, crossings
            loop = [point(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(3, 7))]
        elif shape < 0.8:
            loop = _star_loop(rng, rng.randint(3, 9))
        else:
            # a star loop with one vertex pushed onto, or across, another edge
            loop = _star_loop(rng, rng.randint(4, 9))
            i = rng.randrange(len(loop))
            a, b = loop[(i + 2) % len(loop)], loop[(i + 3) % len(loop)]
            t = Fraction(rng.randint(0, 4), 4)
            loop[i] = Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        want = reference_simple_polygon(loop)
        assert simple_polygon(loop) is want
        outcomes.append(want)
        # The loop under an exact map p -> p / q + t keeps its answer.
        moved = list(map(nudged_map(maps, maps.choice((1, 2, 3, 7))), loop))
        assert simple_polygon(moved) is reference_simple_polygon(moved) is want
        dens[ScaledLoop(moved).den > 1] += 1
    assert 100 < sum(outcomes) < 500
    assert dens[True] > 500, dens


def _meeting_kind(a, b, box1, c, d, box2, meet) -> str:
    if meet is None:
        # Boxes sharing exactly one point touch at a corner.
        xs = (max(box1[0], box2[0]), min(box1[2], box2[2]))
        ys = (max(box1[1], box2[1]), min(box1[3], box2[3]))
        return "corner" if xs[0] == xs[1] and ys[0] == ys[1] else "apart"
    if meet[0] == "segment":
        return "overlap"
    ends = (meet[1] in (a, b)) + (meet[1] in (c, d))
    return ("crossing", "t_junction", "shared_endpoint")[ends]


def test_segment_meetings_contract():
    # Loops through a coarse grid of one denominator, so shared endpoints,
    # collinear overlaps, T-junctions and boxes touching only at a corner
    # are common, and every fourth case through points whose coordinates
    # have their own denominators up to 1024; then every pair of loops of
    # slanted families, whose denominators 1, 2, 3 and 7 give loops on
    # different lattices.  Each case scales its loops once to their common
    # lattice, and lattice_meetings must give the meetings of the all-pairs
    # Fraction intersection it replaced, in row-major order, as must
    # segment_intersection pair by pair.
    rng = Random(47)
    kinds = Counter()

    def coordinate(case, den):
        if case % 4 == 0:
            den = rng.randint(1, 1024)
            return Fraction(rng.randint(0, 4 * den), den)
        return Fraction(rng.randint(0, 4), den)

    def edges(side):
        """The segments of ``(points, ring)`` loops as ``(a, b, lattice tuple)``."""
        return [(a, b, g) for loop, ring in side for (a, b), g in zip(loop_segments(loop), ring)]

    def check(first, second, s):
        """Compare the meetings of the loops ``first`` and ``second``, their
        rings on the lattice of scale ``s``; count the kinds of their pairs."""
        first, second = edges(first), edges(second)
        seen, want = Counter(), []
        for a, b, g in first:
            for c, d, h in second:
                meet = fraction_segment_intersection(a, b, c, d)
                assert segment_intersection(a, b, c, d) == meet
                seen[_meeting_kind(a, b, g[4:], c, d, h[4:], meet)] += 1
                if meet is not None:
                    want.append(meet[1:])
        got = [
            tuple(Point2(Fraction(x, e * s), Fraction(y, e * s)) for x, y, e in meet)
            for meet in lattice_meetings([g for _, _, g in first], [h for _, _, h in second])
        ]
        assert got == want
        return seen

    for case in range(400):
        den = rng.choice((1, 3, 1024))
        first, second = (
            [
                [Point2(coordinate(case, den), coordinate(case, den)) for _ in range(rng.randint(2, 5))]
                for _ in range(rng.randint(1, 3))
            ]
            for _ in range(2)
        )
        s = lcm(*(v.denominator for loop in first + second for p in loop for v in (p.x, p.y)))
        first, second = (
            [(loop, lattice_ring(*zip(*(lattice_point(p, s) for p in loop)))) for loop in side]
            for side in (first, second)
        )
        kinds += check(first, second, s)
    assert min(kinds.values()) > 20 and len(kinds) == 6, kinds

    slanted = Counter()
    rescaled = 0
    for _ in range(150):
        loops = [loop for r in random_slanted_family(rng) for loop in r.loops + r.excluded]
        for k, l in combinations(loops, 2):
            s = lcm(k.den, l.den)
            rescaled += s != k.den or s != l.den
            slanted += check([(k.points, k.at(s).ring)], [(l.points, l.at(s).ring)], s)
    assert min(slanted.values()) > 20 and len(slanted) == 6 and rescaled > 100, (slanted, rescaled)
