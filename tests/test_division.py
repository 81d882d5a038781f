from fractions import Fraction
from random import Random

import pytest

from helpers import add_rect_loop, loop_segments, random_rect_ribbon, reference_verify_partition, translate_ribbon

from ribbonkit import division, gallery
from ribbonkit.complexes import CellComplex
from ribbonkit.division import (
    Frame,
    RegionLabel,
    classify_region,
    frame_around,
    verify_partition,
)
from ribbonkit.errors import FrameTooSmall, PointOutsideFrame, RibbonError
from ribbonkit.geometry import Point2, point
from ribbonkit.ribbons import Ribbon, make_filled_cycle, make_ribbon


def _ring_and_frame():
    th = gallery.two_hole_ribbon()
    return th.ribbon, frame_around(th.ribbon, 1)


def test_classify_examples():
    r, f = _ring_and_frame()
    assert classify_region(r, f, f.lo) is RegionLabel.PI1_OUTSIDE
    assert classify_region(r, f, point("-4/5", "21/20")) is RegionLabel.PI2_ANNULUS
    assert classify_region(r, f, r.inner.points[0]) is RegionLabel.PI3_INNER
    assert classify_region(r, f, point(1, 1)) is RegionLabel.PI3_INNER


def test_boundary_ownership():
    r, f = _ring_and_frame()
    # outer loop belongs to the annulus region, inner loop to the inner region
    for p in r.outer.points:
        assert classify_region(r, f, p) is RegionLabel.PI2_ANNULUS
    for p in r.inner.points:
        assert classify_region(r, f, p) is RegionLabel.PI3_INNER
    for a, b in loop_segments(r.outer.points):
        mid = Point2((a.x + b.x) / 2, (a.y + b.y) / 2)
        assert classify_region(r, f, mid) is RegionLabel.PI2_ANNULUS


def test_frame_errors():
    r, f = _ring_and_frame()
    with pytest.raises(PointOutsideFrame):
        classify_region(r, f, point(100, 100))
    small = Frame(point(0, 0), point(1, 1))
    with pytest.raises(FrameTooSmall):
        classify_region(r, small, point("1/2", "1/2"))
    with pytest.raises(FrameTooSmall):
        verify_partition(r, small, 5)
    with pytest.raises(ValueError):
        Frame(point(2, 2), point(1, 1))


def test_verify_partition_on_gallery_ring():
    r, f = _ring_and_frame()
    report = verify_partition(r, f, 50)
    assert report.ok
    assert report.each_point_single_label
    assert report.all_labels_realized
    assert report.bounded
    assert report.clearance_ok
    for label, witness in report.witnesses.items():
        assert witness is not None
        _, clearance_sq = witness
        assert clearance_sq > 0
    assert report.total_points == 50 * 50 + 2 * (10 + 10)


def test_verify_partition_classifies_only_loop_samples(monkeypatch):
    # The row scan labels the lattice, so only the loop vertices and edge
    # midpoints are located, however dense the lattice.
    calls = []
    locate = division.lattice_location
    monkeypatch.setattr(division, "lattice_location", lambda *a: calls.append(a) or locate(*a))
    r, f = _ring_and_frame()
    counts = []
    for d in (15, 120):
        calls.clear()
        verify_partition(r, f, d)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_density_one_flags_unrealized_labels():
    r, f = _ring_and_frame()
    report = verify_partition(r, f, 1)
    assert not report.all_labels_realized  # too sparse; not an error
    assert report.label_counts[RegionLabel.PI1_OUTSIDE.value] == 0


def test_partition_counts_are_translation_invariant():
    rng = Random(31)
    r = random_rect_ribbon(rng)
    f = frame_around(r, 2)
    moved = translate_ribbon(r, 5, -7)
    f_moved = frame_around(moved, 2)
    rep = verify_partition(r, f, 12)
    rep_moved = verify_partition(moved, f_moved, 12)
    assert rep.label_counts == rep_moved.label_counts


def test_classify_translation_invariant_pointwise():
    rng = Random(37)
    r = random_rect_ribbon(rng)
    f = frame_around(r, 2)
    moved = translate_ribbon(r, 3, 11)
    f2 = frame_around(moved, 2)
    for p in [f.lo, r.outer.points[0], r.inner.points[0]]:
        q = Point2(p.x + 3, p.y + 11)
        assert classify_region(r, f, p) is classify_region(moved, f2, q)


def test_random_ribbons_partition():
    rng = Random(41)
    for _ in range(10):
        r = random_rect_ribbon(rng)
        f = frame_around(r, 2)
        report = verify_partition(r, f, 40)
        assert report.ok
        assert report.clearance_ok


def _ribbon(outer, inner):
    """A ribbon on two loops of ``(x, y)`` rationals, or None if they do not nest."""
    k = CellComplex("P")
    ids = {}
    for name, loop in (("o", outer), ("i", inner)):
        ids[name] = [k.add_vertex(f"{name}{n}", point(x, y)) for n, (x, y) in enumerate(loop)]
    try:
        return make_ribbon(
            make_filled_cycle(k, ids["o"]), make_filled_cycle(k, ids["i"]), allow_concentric=True
        )
    except RibbonError:
        return None


def _with_collinear_extras(rng, x0, y0, x1, y1, extras):
    """The rectangle's loop with ``extras`` more vertices along its sides."""
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    loop = []
    for s in range(4):
        (ax, ay), (bx, by) = corners[s], corners[(s + 1) % 4]
        loop.append((ax, ay))
        for t in sorted({Fraction(rng.randint(1, 11), 12) for _ in range(rng.randint(0, extras))}):
            loop.append((ax + t * (bx - ax), ay + t * (by - ay)))
    return loop


def _star(rng, cx, cy, rmin, rmax, n):
    """Loop of ``n`` vertices at increasing angles around ``(cx, cy)``."""
    dirs = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1),
            (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -2), (1, -1), (2, -1)]
    loop = []
    for i in sorted(rng.sample(range(16), n)):
        r = Fraction(rng.randint(rmin * 3, rmax * 3), 3)
        loop.append((cx + dirs[i][0] * r, cy + dirs[i][1] * r))
    return loop


def _dented(rng, x0, y0, x1, y1, floor):
    """Rectangle with rectangular notches cut from its top down to ``floor`` at most."""
    loop = [(x0, y0), (x1, y0), (x1, y1)]
    cuts = sorted(rng.sample(range(x0 + 1, x1), 2 * rng.randint(1, (x1 - x0 - 1) // 2)), reverse=True)
    for a, b in zip(cuts[::2], cuts[1::2]):
        depth = rng.randint(1, y1 - floor)
        loop += [(a, y1), (a, y1 - depth), (b, y1 - depth), (b, y1)]
    return loop + [(x0, y1)]


def _partition_cases():
    """(ribbon, frame, grid density) triples of every kind the check meets."""
    rng = Random(59)
    densities = (1, 2, 3, 5, 7, 11, 13, 17)
    margins = (1, 2, Fraction(1, 2), Fraction(5, 3), Fraction(7, 4))
    for _ in range(30):
        # rectangles with extra collinear vertices, integer and rational corners
        q = rng.choice((1, 2, 3, 4))
        x0, y0 = Fraction(rng.randint(-8, 8), q), Fraction(rng.randint(-8, 8), q)
        w, h = rng.randint(6, 16), rng.randint(6, 16)
        iw, ih = rng.randint(1, w - 4), rng.randint(1, h - 4)
        ix, iy = rng.randint(1, w - iw - 1), rng.randint(1, h - ih - 1)
        r = _ribbon(
            _with_collinear_extras(rng, x0, y0, x0 + w, y0 + h, 4),
            _with_collinear_extras(rng, x0 + ix, y0 + iy, x0 + ix + iw, y0 + iy + ih, 4),
        )
        yield r, frame_around(r, rng.choice(margins)), rng.choice(densities)
    stars = 0
    while stars < 30:
        # star-shaped loops, inner and outer around nearby centres
        c = (Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5))), Fraction(rng.randint(-6, 6), 3))
        outer = _star(rng, *c, 6, 9, rng.randint(5, 12))
        inner = _star(rng, c[0] + rng.choice((0, Fraction(1, 2))), c[1], 1, 2, rng.randint(3, 8))
        r = _ribbon(outer, inner)
        if r is not None:
            stars += 1
            yield r, frame_around(r, rng.choice(margins)), rng.choice(densities)
    dented = 0
    while dented < 20:
        # dented non-convex loops; a dent of the inner loop is hollow space
        outer = _dented(rng, 0, 0, 14, 12, rng.randint(1, 7))
        inner = _dented(rng, 4, 2, 10, 6, 3)
        r = _ribbon(outer, inner)
        if r is not None:
            dented += 1
            yield r, frame_around(r, rng.choice(margins)), rng.choice(densities)
    for k in (1, 2):
        # lattice-aligned: frame [-m, 14 + m]^2 and d - 1 = 2k(14 + 2m), so every
        # integer and half-integer point is a lattice point; vertices and
        # horizontal and vertical edges lie on lattice rows and columns.
        for m in (1, 2, Fraction(1, 2)):
            r = _ribbon(_dented(rng, 0, 0, 14, 14, 9), _dented(rng, 3, 2, 11, 8, 3))
            yield r, frame_around(r, m), int(2 * k * (14 + 2 * m)) + 1
    ribbons = [r for doc in gallery.sample_documents().values() for r in doc.ribbons.values()]
    for n, r in enumerate(ribbons):
        for d in (1, 2, 3, 13):
            yield r, frame_around(r, 2), d
        yield r, frame_around(r, Fraction(1, 3)), 31
        if n % 6 == 0:  # the CLI test runs every sample ribbon at 120
            yield r, frame_around(r, 2), 120
    # an asymmetric frame with rational corners
    r = gallery.two_hole_ribbon().ribbon
    yield r, Frame(point("-37/10", "-5/2"), point("11/3", "19/7")), 120
    # built without make_ribbon: the inner loop leaves the outer loop and the
    # frame, to the right, to the left and below
    k = CellComplex("K")
    outer = make_filled_cycle(k, add_rect_loop(k, "o", 0, 0, 4, 4))
    for n, corners in enumerate(((2, 1, 9, 3), (-5, 1, 2, 3), (1, -6, 3, 2))):
        r = Ribbon(outer=outer, inner=make_filled_cycle(k, add_rect_loop(k, f"i{n}", *corners)))
        for d in (1, 2, 5, 11, 40):
            yield r, frame_around(r, 1), d
    # built without make_ribbon: a thin inner loop across the outer loop's right
    # side, with vertices, then an edge midpoint, on the frame's border x = 5.
    # No row of the lattice at d = 4 passes strictly inside it, so the first
    # inner sample off the inner loop is the outer loop's midpoint (4, 2).
    for n, x1 in enumerate((5, 7)):
        inner = make_filled_cycle(k, add_rect_loop(k, f"t{n}", 3, Fraction(7, 4), x1, Fraction(9, 4)))
        r = Ribbon(outer=outer, inner=inner)
        for d in (1, 2, 4, 5, 11):
            yield r, frame_around(r, 1), d


def _loop_samples(r):
    """The vertices and edge midpoints of both loops, as the partition samples them."""
    for loop in (r.outer.points, r.inner.points):
        yield from loop
        yield from (Point2((a.x + b.x) / 2, (a.y + b.y) / 2) for a, b in loop_segments(loop))


def _on_lattice(f, d, p):
    """``p`` is a point of the partition's d x d lattice on the frame."""
    if d == 1:
        return p == Point2((f.lo.x + f.hi.x) / 2, (f.lo.y + f.hi.y) / 2)
    return all(
        (i := (c - lo) * (d - 1) / (hi - lo)).denominator == 1 and 0 <= i < d
        for c, lo, hi in ((p.x, f.lo.x, f.hi.x), (p.y, f.lo.y, f.hi.y))
    )


def test_verify_partition_matches_reference():
    kinds = set()
    for r, f, d in _partition_cases():
        want = reference_verify_partition(r, f, d)
        got = verify_partition(r, f, d)
        assert got.lines() == want.lines(), (r, f, d)
        assert got == want
        kinds.add(want.ok)
        for w in want.witnesses.values():
            kinds.add("witness" if w is not None else "none")
            if w is not None and not _on_lattice(f, d, w[0]):
                kinds.add("loop sample witness")
        if any(f.contains(p) and not f.strictly_contains(p) for p in _loop_samples(r)):
            kinds.add("loop sample on the border")
    assert kinds == {True, False, "witness", "none", "loop sample witness", "loop sample on the border"}


def test_frame_around_takes_exact_margins_only():
    r = gallery.two_hole_ribbon().ribbon
    for margins in ((2, "2", Fraction(2), 2.0), ("1/4", 0.25, Fraction(1, 4))):
        frames = {frame_around(r, m) for m in margins}
        assert len(frames) == 1
        (f,) = frames
        m = Fraction(margins[-1])
        assert f.lo == Point2(min(p.x for p in r.outer.points) - m, min(p.y for p in r.outer.points) - m)
    with pytest.raises(ValueError):
        frame_around(r, 0.1)
