from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from helpers import (
    add_rect_loop,
    nudged_map,
    on_segment,
    random_rect_ribbon,
    reference_check_filament,
    reference_is_nested,
    translate_ribbon,
)

from ribbonkit import gallery
from ribbonkit.complexes import CellComplex
from ribbonkit.errors import (
    ConcentricCycles,
    FilamentEndpointOffBoundary,
    HoleOutsideRibbon,
    NonSimplePolygon,
    NotNested,
    TooFewCycles,
    TooFewVertices,
    UnknownVertex,
)
from ribbonkit.geometry import (
    Point2,
    PointLocation,
    loop_segments,
    point,
    point_in_polygon,
    segment_intersection,
    simple_polygon,
)
from ribbonkit.ribbons import (
    Filament,
    FilledCycle,
    RibbonMembership,
    VortexNerve,
    _check_filament,
    is_concentric,
    is_nested,
    make_filled_cycle,
    make_ribbon,
    ribbon_membership,
    ribbon_nerves_of_vortex_nerve,
    ribbons_of_vortex_nerve,
)


def _square_cycle(k, prefix, x0, y0, x1, y1, label=""):
    ids = add_rect_loop(k, prefix, x0, y0, x1, y1)
    return make_filled_cycle(k, ids, label or prefix)


def test_make_filled_cycle_registers_loop_edges():
    th = gallery.two_hole_ribbon()
    assert len(th.outer.loop) == 10
    for i in range(10):
        a, b = th.outer.loop[i], th.outer.loop[(i + 1) % 10]
        assert th.complex.edge_between(a, b) is not None


def test_make_filled_cycle_triangle_and_errors():
    k = CellComplex("K")
    for vid, (x, y) in (("a", (0, 0)), ("b", (2, 0)), ("c", (1, 2))):
        k.add_vertex(vid, point(x, y))
    cyc = make_filled_cycle(k, ["a", "b", "c"], "tri")
    assert len(cyc.loop) == 3
    k2 = CellComplex("K2")
    for vid, (x, y) in (("a", (0, 0)), ("b", (2, 2)), ("c", (2, 0)), ("d", (0, 2))):
        k2.add_vertex(vid, point(x, y))
    with pytest.raises(NonSimplePolygon):
        make_filled_cycle(k2, ["a", "b", "c", "d"], "bowtie")


def test_make_filled_cycle_rejects_short_loops_before_adding_edges():
    k = CellComplex("K")
    k.add_vertex("a", point(0, 0))
    k.add_vertex("b", point(1, 0))
    with pytest.raises(UnknownVertex):
        make_filled_cycle(k, ["a", "z"], "stray")
    for loop in ([], ["a", "b"]):
        with pytest.raises(TooFewVertices, match=f"^a polygon needs at least 3 vertices, got {len(loop)}$"):
            make_filled_cycle(k, loop, "short")
    assert k.edge_between("a", "b") is None


def test_is_nested_cases():
    th = gallery.two_hole_ribbon()
    assert is_nested(th.inner, th.outer)
    assert not is_nested(th.outer, th.outer)  # boundaries coincide
    k = CellComplex("K")
    left = _square_cycle(k, "l", 0, 0, 2, 2)
    right = _square_cycle(k, "r", 5, 0, 7, 2)
    assert not is_nested(left, right)


def test_is_concentric_cases():
    k = CellComplex("K")
    big = _square_cycle(k, "b", 0, 0, 4, 4)
    mid = _square_cycle(k, "m", 1, 1, 3, 3)
    small = _square_cycle(k, "s", 1, 1, 2, 2)
    assert is_concentric(big, mid)  # both centroids (2, 2)
    assert not is_concentric(big, small)  # centroid (3/2, 3/2) vs (2, 2)
    assert small.centroid() == point("3/2", "3/2")
    # A square and a triangle on one centroid (3, 3), with different vertex counts.
    ids = [k.add_vertex(f"t{i}", p) for i, p in enumerate((point(0, 0), point(9, 0), point(0, 9)))]
    assert is_concentric(_square_cycle(k, "q", 0, 0, 6, 6), make_filled_cycle(k, ids, "t"))
    th = gallery.two_hole_ribbon()
    # hand-computed centroids: outer (1, 1), inner (99/100, 43/50)
    assert th.outer.centroid() == point(1, 1)
    assert th.inner.centroid() == point("99/100", "43/50")
    assert not is_concentric(th.outer, th.inner)
    # Random loops of 3 to 6 vertices with denominators 1, 2, 3 and 7; in
    # every other case the second loop is moved onto the first one's centroid.
    rng = Random(67)
    outcomes = Counter()

    def cycle(name, points):
        return FilledCycle(k, [k.add_vertex(f"{name}{i}", p) for i, p in enumerate(points)])

    for case in range(300):
        a, b = (
            cycle(f"{case}{side}", [Point2(Fraction(rng.randint(-9, 9), d), Fraction(rng.randint(-9, 9), d))
                                    for _ in range(rng.randint(3, 6))])
            for side, d in (("a", rng.choice((1, 2, 3, 7))), ("b", rng.choice((1, 2, 3, 7))))
        )
        if case % 2:
            ca, cb = a.centroid(), b.centroid()
            b = cycle(f"{case}m", [Point2(p.x - cb.x + ca.x, p.y - cb.y + ca.y) for p in b.points])
        want = a.centroid() == b.centroid()
        assert is_concentric(a, b) is want and is_concentric(b, a) is want
        outcomes[want, len(a.points) == len(b.points), a.shape.den == b.shape.den] += 1
    assert outcomes[True, False, False] > 20 and outcomes[False, False, False] > 20, outcomes


def test_make_ribbon_rejects_bad_holes_and_nesting():
    k = CellComplex("K")
    outer = _square_cycle(k, "o", 0, 0, 6, 6)
    inner = _square_cycle(k, "i", 2, 2, 4, 4)
    with pytest.raises(HoleOutsideRibbon):
        make_ribbon(outer, inner, holes=[point(10, 10)], allow_concentric=True)
    with pytest.raises(HoleOutsideRibbon):
        make_ribbon(outer, inner, holes=[point(3, 3)], allow_concentric=True)
    with pytest.raises(NotNested):
        make_ribbon(inner, outer, allow_concentric=True)
    with pytest.raises(ConcentricCycles):
        make_ribbon(outer, inner)
    ribbon = make_ribbon(outer, inner, holes=[point(1, 1)], allow_concentric=True)
    assert len(ribbon.holes) == 1


def test_make_ribbon_rejects_boundary_markers():
    k = CellComplex("K")
    outer = _square_cycle(k, "o", 0, 0, 6, 6)
    inner = _square_cycle(k, "i", 2, 2, 4, 4)
    for marker in (point(0, 3), point(2, 3)):  # on outer loop, on inner loop
        with pytest.raises(HoleOutsideRibbon):
            make_ribbon(outer, inner, holes=[marker], allow_concentric=True)


def test_filament_validation():
    k = CellComplex("K")
    outer = _square_cycle(k, "o", 0, 0, 6, 6)
    inner = _square_cycle(k, "i", 2, 2, 4, 4)
    good = Filament(outer_vertex="o0", inner_vertex="i0")
    ribbon = make_ribbon(outer, inner, filaments=[good], allow_concentric=True)
    assert ribbon.filaments == (good,)
    assert k.edge_between("o0", "i0") is not None
    with pytest.raises(FilamentEndpointOffBoundary):
        make_ribbon(outer, inner, filaments=[Filament("o0", "o1")], allow_concentric=True)
    # crossing filament: opposite corners pass through the removed interior
    with pytest.raises(FilamentEndpointOffBoundary):
        make_ribbon(outer, inner, filaments=[Filament("o0", "i2")], allow_concentric=True)


def test_gallery_ribbon_counts():
    th = gallery.two_hole_ribbon()
    assert len(th.ribbon.holes) == 2
    fr = gallery.filament_ribbon()
    assert len(fr.ribbon.holes) == 3
    assert len(fr.ribbon.filaments) == 1


def test_ribbon_membership_examples():
    th = gallery.two_hole_ribbon()
    r = th.ribbon
    inner_vertex = r.inner.points[0]
    outer_vertex = r.outer.points[0]
    assert r.membership(inner_vertex) is RibbonMembership.ON_INNER_BOUNDARY
    assert r.membership(outer_vertex) is RibbonMembership.ON_OUTER_BOUNDARY
    assert r.membership(point(1, 1)) is RibbonMembership.IN_REMOVED_INTERIOR
    assert ribbon_membership(r, point("-4/5", "21/20")) is RibbonMembership.IN_RIBBON
    assert r.membership(point(50, 50)) is RibbonMembership.OUTSIDE


def test_hole_markers_classify_in_ribbon():
    for build in (gallery.two_hole_ribbon, gallery.filament_ribbon):
        r = build().ribbon
        for h in r.holes:
            assert r.membership(h.marker) is RibbonMembership.IN_RIBBON


def test_membership_matches_set_equation_on_grid():
    # oracle: direct evaluation of closure(outer) minus Int(inner) with the
    # raw polygon classifier
    r = gallery.two_hole_ribbon().ribbon
    outer_pts = list(r.outer.points)
    inner_pts = list(r.inner.points)
    for ix in range(-6, 14):
        for iy in range(-2, 9):
            p = Point2(Fraction(ix, 4), Fraction(iy, 4))
            in_outer = point_in_polygon(p, outer_pts, assume_simple=True)
            in_inner = point_in_polygon(p, inner_pts, assume_simple=True)
            in_ribbon_set = in_outer is not PointLocation.OUTSIDE and (
                in_inner is not PointLocation.INSIDE
            )
            got = r.membership(p)
            assert in_ribbon_set == (
                got
                in (
                    RibbonMembership.IN_RIBBON,
                    RibbonMembership.ON_OUTER_BOUNDARY,
                    RibbonMembership.ON_INNER_BOUNDARY,
                )
            )


def test_filament_points_classify_in_ribbon():
    fr = gallery.filament_ribbon()
    a = fr.complex.vertices[fr.outer_vertex]
    b = fr.complex.vertices[fr.inner_vertex]
    mid = Point2((a.x + b.x) / 2, (a.y + b.y) / 2)
    assert fr.ribbon.membership(mid) is RibbonMembership.IN_RIBBON


def test_vortex_nerve_counts():
    tv = gallery.triple_vortex()
    ribbons = ribbons_of_vortex_nerve(tv.nerve)
    assert len(ribbons) == 2
    nerves = ribbon_nerves_of_vortex_nerve(tv.nerve)
    assert len(nerves) == 1
    assert len(nerves[0].ribbons) == 2
    # adjacent ribbons share exactly one cycle object
    shared = {id(ribbons[0].outer), id(ribbons[0].inner)} & {
        id(ribbons[1].outer),
        id(ribbons[1].inner),
    }
    assert len(shared) == 1


def test_vortex_nerve_size_errors():
    k = CellComplex("K")
    only = _square_cycle(k, "o", 0, 0, 4, 4)
    with pytest.raises(TooFewCycles):
        VortexNerve(cycles=(only,))
    inner = _square_cycle(k, "i", 1, 1, 3, 3)
    two = VortexNerve(cycles=(inner, only))
    assert len(ribbons_of_vortex_nerve(two)) == 1
    with pytest.raises(TooFewCycles):
        ribbon_nerves_of_vortex_nerve(two)


def test_vortex_nerve_requires_nesting_chain():
    k = CellComplex("K")
    a = _square_cycle(k, "a", 0, 0, 2, 2)
    b = _square_cycle(k, "b", 5, 5, 7, 7)
    with pytest.raises(NotNested):
        VortexNerve(cycles=(a, b))


def test_random_nesting_chain_ribbon_count():
    rng = Random(5)
    for _ in range(20):
        k = CellComplex("chain")
        depth = rng.randint(2, 5)
        cycles = []
        for i in range(depth):
            pad = (depth - 1 - i) * 2
            cycles.append(_square_cycle(k, f"c{i}", pad, pad, 20 - pad, 20 - pad))
        nerve = VortexNerve(cycles=tuple(cycles))
        assert len(ribbons_of_vortex_nerve(nerve)) == depth - 1


def test_membership_invariant_for_random_ribbons():
    rng = Random(9)
    for _ in range(25):
        r = random_rect_ribbon(rng)
        assert is_nested(r.inner, r.outer)
        assert r.membership(r.inner.points[0]) is RibbonMembership.ON_INNER_BOUNDARY
        for h in r.holes:
            assert r.membership(h.marker) is RibbonMembership.IN_RIBBON


def test_membership_is_translation_invariant():
    rng = Random(13)
    r = random_rect_ribbon(rng)
    moved = translate_ribbon(r, 7, -3)
    probes = [point(0, 0), point(1, 1), r.inner.points[0], r.outer.points[2]]
    for p in probes:
        shifted = Point2(p.x + 7, p.y - 3)
        assert r.membership(p) is moved.membership(shifted)


def _random_cycle(rng: Random, k: CellComplex, prefix: str, lo: int, hi: int):
    """Simple loop through points at increasing angles around a lattice
    centre, often non-convex."""
    dirs = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    while True:
        cx, cy = rng.randint(-1, 1), rng.randint(-1, 1)
        pts = []
        for i in sorted(rng.sample(range(8), rng.randint(3, 8))):
            r = rng.randint(lo, hi)
            pts.append(point(cx + dirs[i][0] * r, cy + dirs[i][1] * r))
        if simple_polygon(pts):
            break
    ids = [k.add_vertex(f"{prefix}{n}", p) for n, p in enumerate(pts)]
    return make_filled_cycle(k, ids, prefix)


def _dented_square(rng: Random, k: CellComplex):
    """The square [0, 8]^2 with its top or bottom edge pulled in to a
    lattice point."""
    pts = [point(0, 0), point(8, 0), point(8, 8), point(rng.randint(1, 7), rng.randint(1, 7)), point(0, 8)]
    if rng.random() < 0.5:
        pts = [point(p.x, 8 - p.y) for p in reversed(pts)]
    return make_filled_cycle(k, [k.add_vertex(f"d{n}", p) for n, p in enumerate(pts)], "dented")


def _lattice_cycle(rng: Random, k: CellComplex):
    while True:
        pts = [point(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(rng.randint(3, 4))]
        if simple_polygon(pts):
            return make_filled_cycle(k, [k.add_vertex(f"l{n}", p) for n, p in enumerate(pts)], "lattice")


def _nudged_pair(rng, outer, inner):
    """The two cycles on a new complex, with their vertex ids, each under its
    own :func:`nudged_map` for one ``q`` in 1, 2, 3, 7; and whether their
    denominators differ, so one is rescaled to their common lattice."""
    k = CellComplex(f"{outer.complex.name}'")
    q = rng.choice((1, 2, 3, 7))
    pair = []
    for cycle in (outer, inner):
        m = nudged_map(rng, q)
        pair.append(make_filled_cycle(k, [k.add_vertex(v, m(p)) for v, p in zip(cycle.loop, cycle.points)]))
    return (*pair, pair[0].shape.den != pair[1].shape.den)


def test_is_nested_matches_unpruned_reference():
    # Star-shaped loops, and lattice loops in a dented square, where every
    # inner vertex may lie inside while an inner edge still crosses the
    # outer boundary or passes through its dent; each pair again with each
    # loop under its own exact map, so the two loops meet on a common
    # lattice finer than one of their own.
    rng, maps = Random(41), Random(53)
    outcomes, mapped = [], []
    edge_decided = mapped_edge_decided = rescaled = 0
    for case in range(400):
        k = CellComplex(f"N{case}")
        if case % 2:
            outer, inner = _dented_square(rng, k), _lattice_cycle(rng, k)
        else:
            outer, inner = _random_cycle(rng, k, "o", 3, 8), _random_cycle(rng, k, "i", 1, 5)
        want = reference_is_nested(inner, outer)
        assert is_nested(inner, outer) is want
        outcomes.append(want)
        edge_decided += not want and all(
            outer.locate(p) is PointLocation.INSIDE for p in inner.points
        )
        outer, inner, finer = _nudged_pair(maps, outer, inner)
        want = reference_is_nested(inner, outer)
        assert is_nested(inner, outer) is want
        mapped.append(want)
        rescaled += finer
        mapped_edge_decided += not want and all(
            outer.locate(p) is PointLocation.INSIDE for p in inner.points
        )
    assert 40 < sum(outcomes) < 360 and 40 < sum(mapped) < 360
    assert edge_decided >= 8 and mapped_edge_decided >= 8
    assert rescaled > 200


def _rect_cycle_with_extras(rng: Random, k: CellComplex, prefix: str, x0, y0, x1, y1):
    """Axis-aligned rectangle loop with up to two extra lattice vertices on
    each edge."""
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    pts = []
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        pts.append((ax, ay))
        steps = abs(bx - ax) + abs(by - ay)
        for t in sorted(rng.sample(range(1, steps), rng.randint(0, min(2, steps - 1)))):
            pts.append((ax + (bx - ax) * t // steps, ay + (by - ay) * t // steps))
    ids = [k.add_vertex(f"{prefix}{n}", point(x, y)) for n, (x, y) in enumerate(pts)]
    return make_filled_cycle(k, ids, prefix)


def _filament_outcome(check, outer, inner, fil):
    try:
        check(outer, inner, fil)
    except Exception as exc:  # the type and message are compared
        return (type(exc), str(exc))
    return None


def test_check_filament_matches_unpruned_reference():
    # Extra vertices on the rectangle edges line filaments up with edges and
    # vertices, so they cross a loop, run along an edge, pass through a
    # third vertex or are valid; a few name a vertex of the wrong loop.
    # The same filaments are checked again with each loop under its own
    # exact map, on a common lattice finer than one of their own.
    rng, maps = Random(43), Random(59)
    seen, mapped = Counter(), Counter()
    rescaled = 0
    for case in range(200):
        k = CellComplex(f"F{case}")
        x0, y0 = rng.randint(-6, 0), rng.randint(-6, 0)
        x1, y1 = x0 + rng.randint(6, 9), y0 + rng.randint(6, 9)
        outer = _rect_cycle_with_extras(rng, k, "o", x0, y0, x1, y1)
        gaps = [rng.randint(1, 2) for _ in range(4)]
        inner = _rect_cycle_with_extras(
            rng, k, "i", x0 + gaps[0], y0 + gaps[1], x1 - gaps[2], y1 - gaps[3]
        )
        loop_points = outer.points + inner.points
        fils = []
        for _ in range(6):
            fil = Filament(
                rng.choice(outer.loop + inner.loop[:1]), rng.choice(inner.loop + outer.loop[:1])
            )
            fils.append(fil)
            want = _filament_outcome(reference_check_filament, outer, inner, fil)
            assert _filament_outcome(_check_filament, outer, inner, fil) == want
            seen[want[1].split(" ", 2)[-1] if want else "valid"] += 1  # message past the filament
            if fil.outer_vertex in outer.loop and fil.inner_vertex in inner.loop:
                fa, fb = k.vertices[fil.outer_vertex], k.vertices[fil.inner_vertex]
                seen["along an edge"] += any(
                    (segment_intersection(fa, fb, a, b) or ("",))[0] == "segment"
                    for cycle in (outer, inner)
                    for a, b in loop_segments(cycle.points)
                )
                seen["through a third vertex"] += any(
                    p not in (fa, fb) and on_segment(p, fa, fb) for p in loop_points
                )
        outer, inner, finer = _nudged_pair(maps, outer, inner)
        rescaled += finer
        for fil in fils:
            want = _filament_outcome(reference_check_filament, outer, inner, fil)
            assert _filament_outcome(_check_filament, outer, inner, fil) == want
            mapped[want[1].split(" ", 2)[-1] if want else "valid"] += 1
    assert min(seen.values()) > 20 and len(seen) == 6, seen
    assert mapped["valid"] > 100 and mapped["crosses a cycle boundary"] > 100 and rescaled > 100, (mapped, rescaled)
