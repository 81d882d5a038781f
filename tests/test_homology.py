from fractions import Fraction
from random import Random

import pytest

from helpers import (
    bitmap_from_bits,
    random_grid_rect_family,
    random_rect_family,
    reference_clearance_sq,
    reference_cubical_betti,
    reference_rasterize,
)

from ribbonkit import gallery, homology
from ribbonkit.division import Frame
from ribbonkit.errors import (
    CollectionTooLarge,
    EmptyCollection,
    FrameTooSmall,
    NonConvexRegion,
)
from ribbonkit.geometry import Point2, ScaledLoop, cross_value, point, simple_polygon
from ribbonkit.homology import (
    Bitmap,
    _gf2_rank,
    boundary_matrix,
    cubical_betti,
    is_convex_loop,
    min_boundary_clearance_sq,
    nerve_theorem_check,
    rasterize,
    z2_betti,
)
from ribbonkit.nerves import Region, SimplicialComplex, nerve


def _sc(labels, simplex_sets):
    return SimplicialComplex(
        vertex_labels=tuple(labels),
        facets=tuple(simplex_sets),
    )


def test_z2_betti_single_vertex():
    assert z2_betti(_sc("a", [{0}])) == (1, 0)


def test_z2_betti_hollow_triangle():
    sc = _sc("abc", [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}])
    assert z2_betti(sc) == (1, 1)


def test_z2_betti_full_triangle_with_hand_ranks():
    sc = _sc("abc", [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}])
    # by hand: rank d1 = 2 on three edges, rank d2 = 1, so b1 = 3 - 2 - 1 = 0
    assert _gf2_rank(boundary_matrix(sc, 1).columns) == 2
    assert _gf2_rank(boundary_matrix(sc, 2).columns) == 1
    assert z2_betti(sc) == (1, 0)


def test_z2_betti_two_components():
    sc = _sc("abcd", [{0}, {1}, {2}, {3}, {0, 1}, {2, 3}])
    assert z2_betti(sc) == (2, 0)


def test_z2_betti_reads_the_closure_of_open_generators():
    # An edge alone generates its two vertices as well.
    sc = _sc("ab", [{0, 1}])
    assert sc.simplices == {frozenset({0}), frozenset({1}), frozenset({0, 1})}
    assert z2_betti(sc) == (1, 0)
    assert z2_betti(_sc("abc", [{0, 1}, {1, 2}, {0, 2}])) == (1, 1)


def test_z2_betti_of_cone_is_trivial():
    rng = Random(3)
    for _ in range(15):
        n = rng.randint(2, 5)
        simplices = {frozenset({i}) for i in range(n)}
        for _ in range(rng.randint(1, 6)):
            i, j = rng.sample(range(n), 2)
            simplices.add(frozenset({i, j}))
        apex = n
        coned = set(simplices) | {frozenset({apex})}
        for s in simplices:
            if len(s) <= 2:
                coned.add(s | {apex})
        sc = SimplicialComplex(
            vertex_labels=tuple(f"v{i}" for i in range(n + 1)),
            facets=tuple(coned),
        )
        assert z2_betti(sc) == (1, 0)


def _rect_region(x0, y0, x1, y1, label=""):
    pts = (point(x0, y0), point(x1, y0), point(x1, y1), point(x0, y1))
    return Region(loops=(pts,), label=label)


def _frame(x0, y0, x1, y1):
    return Frame(point(x0, y0), point(x1, y1))


def test_rasterize_solid_block():
    frame = _frame(0, 0, 4, 4)
    bmp = rasterize([_rect_region(1, 1, 3, 3)], frame, 4)
    assert bmp.width == 16 and bmp.height == 16
    # oracle: integer comparison per pixel center (2i+1)/8 in [1, 3]
    expected = {
        (i, j)
        for i in range(16)
        for j in range(16)
        if 8 <= 2 * i + 1 <= 24 and 8 <= 2 * j + 1 <= 24
    }
    assert bmp.bits == expected
    assert cubical_betti(bmp) == (1, 0)


def test_rasterize_empty_list():
    bmp = rasterize([], _frame(0, 0, 2, 2), 4)
    assert bmp.bits == set()
    assert cubical_betti(bmp) == (0, 0)


def test_rasterize_annulus_ring():
    outer = (point(0, 0), point(4, 0), point(4, 4), point(0, 4))
    inner = (point(1, 1), point(3, 1), point(3, 3), point(1, 3))
    ring = Region(loops=(outer,), excluded=(inner,), label="ring")
    frame = _frame(-1, -1, 5, 5)
    bmp = rasterize([ring], frame, 16)
    # membership oracle per pixel center, written with plain comparisons
    for (i, j) in [(0, 0), (40, 40), (50, 50), (90, 90)]:
        c = bmp.pixel_center(i, j)
        in_outer = 0 <= c.x <= 4 and 0 <= c.y <= 4
        in_inner_open = 1 < c.x < 3 and 1 < c.y < 3
        assert ((i, j) in bmp.bits) == (in_outer and not in_inner_open)
    assert cubical_betti(bmp) == (1, 1)


def test_rasterize_guard_rails():
    with pytest.raises(ValueError):
        rasterize([_rect_region(0, 0, 1, 1)], _frame(0, 0, 2, 2), 2)
    with pytest.raises(FrameTooSmall):
        rasterize([_rect_region(0, 0, 9, 9)], _frame(0, 0, 2, 2), 4)


def test_cubical_betti_two_blocks():
    frame = _frame(0, 0, 8, 2)
    bmp = rasterize([_rect_region(1, 0, 3, 2), _rect_region(5, 0, 7, 2)], frame, 4)
    assert cubical_betti(bmp) == (2, 0)


def test_is_convex_loop():
    assert is_convex_loop([point(0, 0), point(2, 0), point(2, 2), point(0, 2)])
    assert is_convex_loop([point(0, 0), point(1, 0), point(2, 0), point(2, 2), point(0, 2)])
    dent = [point(0, 0), point(4, 0), point(4, 2), point(2, 1), point(0, 2)]
    assert not is_convex_loop(dent)


def test_is_convex_loop_rejects_self_intersecting_star():
    # Every turn of the pentagram has the same sign, but its edges cross.
    star = [point(0, 3), point(2, -3), point(-3, 1), point(3, 1), point(-2, -3)]
    assert not simple_polygon(star)
    assert not is_convex_loop(star)
    with pytest.raises(NonConvexRegion):
        nerve_theorem_check([Region(loops=(star,))], _frame(-4, -4, 4, 4), 16)


def test_rasterize_tests_no_point_membership(monkeypatch):
    # The row scan decides every pixel, so no loop classifies a point.
    ribbons = [Region.from_ribbon(r) for r in gallery.five_ribbon_complex().rbx.ribbons]
    rects = random_rect_family(Random(61))
    calls = []
    classify = ScaledLoop.classify
    monkeypatch.setattr(ScaledLoop, "classify", lambda s, p: calls.append(p) or classify(s, p))
    for regions, frame in ((ribbons, _frame(-1, -1, 10, 6)), (rects, _frame(-1, -1, 9, 9))):
        assert rasterize(regions, frame, 32).bits
    assert calls == []


def test_nerve_check_common_point():
    regions = [
        _rect_region(0, 0, 2, 2, "a"),
        _rect_region(1, 0, 3, 2, "b"),
        _rect_region(0, 1, 3, 2, "c"),
    ]
    report = nerve_theorem_check(regions, _frame(-1, -1, 4, 3), 16)
    assert report.nerve_betti == (1, 0)
    assert report.union_betti == (1, 0)
    assert report.passed


def test_nerve_check_disjoint_pair():
    regions = [_rect_region(0, 0, 1, 1, "a"), _rect_region(3, 0, 4, 1, "b")]
    report = nerve_theorem_check(regions, _frame(-1, -1, 5, 2), 16)
    assert report.nerve_betti == (2, 0)
    assert report.union_betti == (2, 0)
    assert report.passed


def test_nerve_check_pairwise_but_no_triple():
    # three convex bars rim a triangular hole: every pair meets, the
    # triple intersection is empty
    bars = [
        Region(loops=((point(0, 0), point(8, 0), point(8, 1), point(0, 1)),), label="bottom"),
        Region(loops=((point(0, 0), point(1, 0), point(1, 8), point(0, 8)),), label="side"),
        Region(loops=((point(8, 0), point(0, 8), point(0, 6), point(6, 0)),), label="cross"),
    ]
    sc = nerve(bars)
    assert frozenset({0, 1, 2}) not in sc.simplices
    assert all(frozenset(p) in sc.simplices for p in ((0, 1), (1, 2), (0, 2)))
    report = nerve_theorem_check(bars, _frame(-1, -1, 9, 9), 16)
    assert report.nerve_betti == (1, 1)
    assert report.union_betti == (1, 1)
    assert report.passed


def test_sixteen_stacked_squares_never_build_the_closure(monkeypatch):
    # 16 squares with a common point: 65 535 simplices, 696 up to dimension 2.
    regions = []
    for k in range(16):
        lo = Fraction(k, 8)
        regions.append(_rect_region(lo, lo, lo + 4, lo + 4))
    sc = nerve(regions)
    assert sc.facets == (tuple(range(16)),)
    assert len(sc.simplices_of_dim(2)) == 560
    assert z2_betti(sc) == (1, 0)
    assert "simplices" not in sc.__dict__
    built = []
    monkeypatch.setattr(homology, "nerve", lambda rs: built.append(nerve(rs)) or built[-1])
    assert nerve_theorem_check(regions, _frame(-1, -1, 7, 7), 4).passed
    assert len(built) == 1 and "simplices" not in built[0].__dict__


def test_nerve_check_rejects_nonconvex_and_oversize():
    dent = Region(
        loops=((point(0, 0), point(4, 0), point(4, 2), point(2, 1), point(0, 2)),),
        label="dent",
    )
    with pytest.raises(NonConvexRegion):
        nerve_theorem_check([dent], _frame(-1, -1, 5, 3), 16)
    with pytest.raises(EmptyCollection):
        nerve_theorem_check([], _frame(0, 0, 1, 1), 16)
    many = [_rect_region(3 * i, 0, 3 * i + 2, 2, f"r{i}") for i in range(21)]
    with pytest.raises(CollectionTooLarge):
        nerve_theorem_check(many, _frame(-1, -1, 80, 3), 16)


def test_random_families_nerve_agreement():
    rng = Random(51)
    frame = _frame("-1/2", "-1/2", "35/4", "35/4")
    for _ in range(12):
        regions = random_rect_family(rng)
        report = nerve_theorem_check(regions, frame, 16)
        assert report.passed


def test_resolution_stability_for_clear_families():
    rng = Random(53)
    frame = _frame("-1/2", "-1/2", "35/4", "35/4")
    checked = 0
    while checked < 6:
        regions = random_rect_family(rng)
        clearance = min_boundary_clearance_sq(regions)
        if clearance is not None and clearance <= Fraction(1, 64):  # 2 px at res 16
            continue
        b16 = nerve_theorem_check(regions, frame, 16)
        b32 = nerve_theorem_check(regions, frame, 32)
        assert b16.union_betti == b32.union_betti
        checked += 1


def _on_grid(rng, lo, hi, resolution):
    """A rational in [lo, hi] on the half-pixel grid; odd steps are pixel centres."""
    return Fraction(rng.randint(lo * 2 * resolution, hi * 2 * resolution), 2 * resolution)


def _pseudo_angle(x, y):
    """Exact stand-in for the angle of (x, y) != (0, 0): increasing, in [0, 4)."""
    t = Fraction(x, abs(x) + abs(y))
    return 1 - t if y > 0 or (y == 0 and x > 0) else 3 + t


def _random_polygon(rng, resolution, n):
    """A simple polygon on the half-pixel grid of [0, 4], its vertices in
    angle order around their centroid; None when that order is not simple."""
    pts = {(_on_grid(rng, 0, 4, resolution), _on_grid(rng, 0, 4, resolution)) for _ in range(n)}
    cx = sum(x for x, _ in pts) / len(pts)
    cy = sum(y for _, y in pts) / len(pts)
    pts.discard((cx, cy))
    loop = tuple(
        Point2(x, y) for x, y in sorted(pts, key=lambda p: _pseudo_angle(p[0] - cx, p[1] - cy))
    )
    if len(loop) < 3 or not simple_polygon(loop):
        return None
    return loop


def _rect(x0, y0, x1, y1):
    return (Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1))


def _raster_cases():
    """Seeded families for the raster oracle, tagged by kind."""
    rng = Random(3031)
    for _ in range(8):
        yield "quarter_rects", random_rect_family(rng, max_rects=5), _frame("-1/2", "-1/2", "35/4", "35/4"), 4
    for _ in range(12):
        # integer grid: shared vertices, collinear overlaps, touching edges
        yield "grid_rects", random_grid_rect_family(rng), _frame("-1/3", "-1/2", 5, 5), rng.choice((4, 5, 6))
    for _ in range(25):
        res = rng.choice((4, 5, 8))
        regions = []
        for k in range(rng.randint(1, 3)):
            loop = _random_polygon(rng, res, rng.randint(3, 7))
            if loop is not None:
                regions.append(Region(loops=(loop,), label=f"p{k}"))
        yield "polygons", regions, _frame(-1, -1, 5, 5), res
    for _ in range(15):
        # rectangles and annuli with edges on pixel-centre rows and columns
        res = rng.choice((4, 6, 8))
        regions = []
        for k in range(rng.randint(1, 3)):
            x0, x1 = sorted(rng.sample(range(0, 8 * res + 1), 2))
            y0, y1 = sorted(rng.sample(range(0, 8 * res + 1), 2))
            outer = _rect(*(Fraction(v, 2 * res) for v in (x0, y0, x1, y1)))
            excluded = ()
            if x1 - x0 > 4 and y1 - y0 > 4 and rng.random() < 0.7:
                a, b = sorted(rng.sample(range(x0 + 1, x1), 2))
                c, d = sorted(rng.sample(range(y0 + 1, y1), 2))
                if rng.random() < 0.5:
                    inner = _rect(*(Fraction(v, 2 * res) for v in (a, c, b, d)))
                else:
                    inner = tuple(Point2(Fraction(x, 2 * res), Fraction(y, 2 * res)) for x, y in ((a, c), (b, c), (a, d)))
                excluded = (inner,)
            regions.append(Region(loops=(outer,), excluded=excluded, label=f"a{k}"))
        yield "annuli", regions, _frame(0, 0, 4, 4), res
    for _ in range(10):
        # triangles with every vertex on a pixel centre
        res = rng.choice((4, 5))
        regions = []
        for k in range(rng.randint(1, 3)):
            loop = tuple(
                Point2(Fraction(2 * rng.randint(0, 4 * res - 1) + 1, 2 * res),
                       Fraction(2 * rng.randint(0, 4 * res - 1) + 1, 2 * res))
                for _ in range(3)
            )
            if cross_value(*loop) != 0:
                regions.append(Region(loops=(loop,), label=f"t{k}"))
        yield "centre_triangles", regions, _frame(0, 0, 4, 4), res
    # degenerate flat loops: a horizontal one on a centre row has no other
    # edge to report where it starts and ends; a diagonal one through centres
    flat = Fraction(5, 8)
    yield "flat_loops", [
        Region(loops=((Point2(Fraction(1, 4), flat), Point2(Fraction(9, 8), flat), Point2(3, flat)),)),
        Region(loops=(tuple(Point2(Fraction(k, 8), Fraction(k, 8)) for k in (1, 7, 15)),)),
    ], _frame(0, 0, 4, 4), 4
    gap = Fraction(1, 100)
    near_pair = [
        Region(loops=(_rect(0, 0, 1, 1),), label="a"),
        Region(loops=(_rect(1 + gap, 0, 2 + gap, 1),), label="b"),
    ]
    for res in (4, 16, 32):
        yield "near_pair", near_pair, _frame(-1, -1, 4, 2), res


def test_rasterize_matches_per_pixel_reference():
    kinds = set()
    for kind, regions, frame, res in _raster_cases():
        got = rasterize(regions, frame, res)
        want = reference_rasterize(regions, frame, res)
        assert (got.width, got.height) == (want.width, want.height)
        assert got.bits == want.bits, (kind, regions, res)
        assert got.rows == want.rows
        assert cubical_betti(got) == reference_cubical_betti(want), (kind, regions, res)
        kinds.add(kind)
    assert len(kinds) == 7


def test_rasterize_frame_check_matches_reference():
    # Frames with corners at denominators 1, 2, 3 and 7 around random
    # triangles and annuli whose vertices fall inside, on or just outside
    # each side: the same FrameTooSmall text for the same first vertex,
    # or the same raster.
    rng = Random(2403)
    outcomes = {"raster": 0, "raises": 0}

    def coord(lo, hi):
        if rng.random() < 0.4:  # on a side, or a little off it
            return rng.choice((lo, hi)) + Fraction(rng.choice((-1, 0, 0, 1)), rng.choice((1, 3, 7, 21)))
        return lo + (hi - lo) * Fraction(rng.randint(0, 6), 6)

    for _ in range(300):
        x0, y0 = (Fraction(rng.randint(-8, 0), rng.choice((1, 2, 3, 7))) for _ in range(2))
        x1, y1 = x0 + rng.randint(1, 3), y0 + rng.randint(1, 3)
        regions = []
        for k in range(rng.randint(1, 3)):
            loop = tuple(Point2(coord(x0, x1), coord(y0, y1)) for _ in range(3))
            if cross_value(*loop) == 0:
                continue
            excluded = ()
            if rng.random() < 0.3:  # a hole whose vertices the check reads too
                cx, cy = (sum(c) / 3 for c in zip(*((p.x, p.y) for p in loop)))
                excluded = ((Point2(cx, cy), Point2(cx + Fraction(1, 50), cy), Point2(cx, cy + Fraction(1, 50))),)
            regions.append(Region(loops=(loop,), excluded=excluded))
        frame, res = Frame(Point2(x0, y0), Point2(x1, y1)), rng.choice((4, 6))
        try:
            want = reference_rasterize(regions, frame, res)
        except FrameTooSmall as exc:
            with pytest.raises(FrameTooSmall) as info:
                rasterize(regions, frame, res)
            assert str(info.value) == str(exc)
            outcomes["raises"] += 1
        else:
            assert rasterize(regions, frame, res).rows == want.rows
            outcomes["raster"] += 1
    assert min(outcomes.values()) >= 60, outcomes
    # Corners whose denominators the loops lack: lo.y = 1/3 is off the loops'
    # lattice, which puts the top edge y = 2 a third of a unit below a row of
    # pixel centres, and with x = 1 the frame's upper bound is 30 * 100/101 =
    # 29.7 units, between two lattice columns.
    frame = Frame(Point2(0, Fraction(1, 3)), Point2(Fraction(100, 101), 3))
    for x in (Fraction(1, 2), Fraction(1)):
        regions = [Region(loops=((Point2(0, 2), Point2(x, 2), Point2(0, 1)),))]
        try:
            want = reference_rasterize(regions, frame, 5)
        except FrameTooSmall as exc:
            with pytest.raises(FrameTooSmall) as info:
                rasterize(regions, frame, 5)
            assert str(info.value) == str(exc) and x == 1
        else:
            assert rasterize(regions, frame, 5).rows == want.rows and x < 1


def _random_bitmaps():
    rng = Random(4041)
    frame = _frame(0, 0, 4, 4)
    for _ in range(150):
        w, h = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice((0.2, 0.45, 0.6, 0.85))
        bits = {(i, j) for i in range(w) for j in range(h) if rng.random() < density}
        yield bitmap_from_bits(w, h, 4, frame, bits)
    # larger and denser, where rings nest in other rings' holes
    rng = Random(4043)
    for _ in range(30):
        w, h = rng.randint(14, 24), rng.randint(14, 24)
        density = rng.uniform(0.5, 0.6)
        bits = {(i, j) for i in range(w) for j in range(h) if rng.random() < density}
        yield bitmap_from_bits(w, h, 4, frame, bits)
    for w, h in ((1, 1), (1, 7), (7, 1), (6, 6), (7, 5)):
        cells = [(i, j) for i in range(w) for j in range(h)]
        yield bitmap_from_bits(w, h, 4, frame, set())
        yield bitmap_from_bits(w, h, 4, frame, set(cells))
        # checkerboards of both phases
        yield bitmap_from_bits(w, h, 4, frame, {(i, j) for i, j in cells if (i + j) % 2 == 0})
        yield bitmap_from_bits(w, h, 4, frame, {(i, j) for i, j in cells if (i + j) % 2 == 1})
    # diagonal-only links: one 8-way component, its 4-way complement not split
    yield bitmap_from_bits(8, 8, 4, frame, {(k, k) for k in range(8)})
    yield bitmap_from_bits(8, 8, 4, frame, {(k, 7 - k) for k in range(8)} | {(k, k) for k in range(8)})
    # one-pixel holes, alone and in a row of rings
    ring = {(i, j) for i in range(3) for j in range(3)} - {(1, 1)}
    yield bitmap_from_bits(5, 5, 4, frame, {(i + 1, j + 1) for i, j in ring})
    yield bitmap_from_bits(9, 3, 4, frame, {(i + 3 * k, j) for i, j in ring for k in range(3)})
    # a diamond of diagonal links encloses a 4-way hole
    yield bitmap_from_bits(5, 5, 4, frame, {(2, 0), (1, 1), (3, 1), (0, 2), (4, 2), (1, 3), (3, 3), (2, 4)})
    # set pixels on the border that cut the background apart
    yield bitmap_from_bits(7, 5, 4, frame, {(3, j) for j in range(5)})
    yield bitmap_from_bits(7, 5, 4, frame, {(i, 2) for i in range(7)} | {(3, j) for j in range(5)})
    yield bitmap_from_bits(6, 6, 4, frame, {(i, j) for i in range(6) for j in range(6) if i in (0, 5) or j in (0, 5)})
    yield bitmap_from_bits(6, 6, 4, frame, {(i, j) for i in range(1, 6) for j in range(6) if i in (1, 5) or j in (0, 5)})


def test_cubical_betti_matches_breadth_first_reference():
    for bmp in _random_bitmaps():
        assert cubical_betti(bmp) == reference_cubical_betti(bmp), sorted(bmp.bits)


def test_cubical_betti_hand_cases():
    frame = _frame(0, 0, 4, 4)
    ring = {(i, j) for i in range(1, 4) for j in range(1, 4)} - {(2, 2)}
    assert cubical_betti(bitmap_from_bits(5, 5, 4, frame, ring)) == (1, 1)
    board = {(i, j) for i in range(4) for j in range(4) if (i + j) % 2 == 0}
    # diagonal links join the set pixels; the two inner unset pixels are
    # 4-way isolated from each other and from the border
    assert cubical_betti(bitmap_from_bits(4, 4, 4, frame, board)) == (1, 2)
    diamond = {(2, 0), (1, 1), (3, 1), (0, 2), (4, 2), (1, 3), (3, 3), (2, 4)}
    assert cubical_betti(bitmap_from_bits(5, 5, 4, frame, diamond)) == (1, 1)

    def square_ring(lo, hi):
        return {(i, j) for i in range(lo, hi + 1) for j in range(lo, hi + 1) if lo in (i, j) or hi in (i, j)}

    # a ring inside another ring's hole: two components, the gap between
    # them and the inner ring's own hole
    assert cubical_betti(bitmap_from_bits(9, 9, 4, frame, square_ring(1, 7) | square_ring(3, 5))) == (2, 2)
    # a pixel inside a ring's hole leaves one hole around it
    assert cubical_betti(bitmap_from_bits(7, 7, 4, frame, square_ring(1, 5) | {(3, 3)})) == (2, 1)
    # a ring closed only by a diagonal link at a missing corner still has its hole
    assert cubical_betti(bitmap_from_bits(5, 5, 4, frame, ring - {(1, 1)})) == (1, 1)
    # a one-pixel gap in a side lets the hole out 4-ways
    assert cubical_betti(bitmap_from_bits(5, 5, 4, frame, ring - {(2, 1)})) == (1, 0)
    # a ring lying on the bitmap border
    assert cubical_betti(bitmap_from_bits(3, 3, 4, frame, square_ring(0, 2))) == (1, 1)


def test_bitmap_rejects_runs_that_are_not_maximal():
    frame = _frame(0, 0, 4, 4)
    for rows in (
        (((0, 1), (2, 3)),),  # adjacent runs
        (((2, 3), (0, 0)),),  # unsorted
        (((0, 4),),),  # past the last column
        (((1, 0),),),  # empty run
    ):
        with pytest.raises(ValueError):
            Bitmap(width=4, height=1, resolution=4, frame=frame, rows=rows)
    with pytest.raises(ValueError):
        Bitmap(width=4, height=2, resolution=4, frame=frame, rows=((),))


def test_clearance_matches_unpruned_reference():
    rng = Random(6061)
    families = []
    for _ in range(30):
        families.append(random_rect_family(rng))
        families.append(random_grid_rect_family(rng, side=8))
    for _ in range(20):
        regions = []
        for k in range(rng.randint(2, 4)):
            loop = _random_polygon(rng, 4, rng.randint(3, 6))
            if loop is not None:
                x, y = rng.randint(-6, 6), rng.randint(-6, 6)
                regions.append(Region(loops=(tuple(Point2(p.x + x, p.y + y) for p in loop),)))
        families.append(regions)
    gap = Fraction(1, 100)
    families.append([Region(loops=(_rect(0, 0, 1, 1),)), Region(loops=(_rect(1 + gap, 0, 2 + gap, 1),))])
    positive = 0
    for regions in families:
        got = min_boundary_clearance_sq(regions)
        assert got == reference_clearance_sq(regions), regions
        positive += bool(got)
    assert positive > 20  # the pruning is exercised, not only the early return on 0


def test_clearance_reads_zero_off_the_nerves_meeting_scan(monkeypatch):
    # The first two regions are far apart, the last two cross: the meeting
    # scan answers 0 before any segment distance is taken.
    calls = []
    distance = homology.lattice_gap_sq
    monkeypatch.setattr(homology, "lattice_gap_sq", lambda *a: calls.append(a) or distance(*a))
    regions = [
        Region(loops=(_rect(0, 0, 1, 1),)),
        Region(loops=(_rect(20, 20, 21, 21),)),
        Region(loops=(_rect(5, 5, 8, 7),)),
        Region(loops=(_rect(6, 6, 10, 9),)),
    ]
    assert min_boundary_clearance_sq(regions) == 0
    assert calls == []
    assert min_boundary_clearance_sq(regions[:3]) == reference_clearance_sq(regions[:3]) > 0
    assert calls
