from fractions import Fraction
from itertools import combinations
from math import gcd
from random import Random

import pytest

from helpers import (
    add_rect_loop,
    boxed_segments,
    fraction_boundary_meetings,
    fraction_candidate_points,
    fraction_common_witness,
    fraction_nerve_facets,
    is_downward_closed,
    random_grid_rect_family,
    random_rect_family,
    random_rect_ribbon,
    random_slanted_family,
    reference_clearance_sq,
    reference_closure,
    reference_facets,
    reference_nerve,
    reference_simplices_of_dim,
    reference_witness,
    reference_z2_betti,
    segment_meetings,
)

from ribbonkit import gallery, nerves
from ribbonkit.complexes import CellComplex
from ribbonkit.errors import CollectionTooLarge, EmptyCollection, TooFewVertices
from ribbonkit.geometry import (
    Point2,
    PointLocation,
    ScaledLoop,
    point,
    polygon_area2,
    vertex_centroid,
)
from ribbonkit.homology import min_boundary_clearance_sq, z2_betti
from ribbonkit.nerves import (
    Region,
    SimplicialComplex,
    _held_sets,
    boundary_meetings,
    common_witness,
    family_lattice,
    nerve,
    ribbon_nerve,
)
from ribbonkit.ribbons import Ribbon, RibbonComplex, make_filled_cycle


def _square_region(k, prefix, x0, y0, x1, y1):
    ids = add_rect_loop(k, prefix, x0, y0, x1, y1)
    return Region.from_cycle(make_filled_cycle(k, ids, prefix))


def test_region_shares_its_cycles_loops():
    r = gallery.two_hole_ribbon().ribbon
    region = Region.from_ribbon(r)
    assert region.loops[0] is r.outer.shape and region.excluded[0] is r.inner.shape
    assert Region.from_cycle(r.outer).loops[0] is r.outer.shape
    with pytest.raises(TooFewVertices):
        Region(loops=((point(0, 0), point(1, 0)),))


def test_common_witness_nested_cycles():
    k = CellComplex("K")
    outer = _square_region(k, "o", 0, 0, 6, 6)
    inner = _square_region(k, "i", 2, 2, 4, 4)
    w = common_witness([outer, inner])
    assert w is not None
    assert outer.contains(w) and inner.contains(w)
    # nesting forces the witness onto the inner loop's candidate points
    assert w in inner.boundary_vertices()


def test_common_witness_disjoint_is_absent():
    k = CellComplex("K")
    a = _square_region(k, "a", 0, 0, 2, 2)
    b = _square_region(k, "b", 5, 5, 7, 7)
    assert common_witness([a, b]) is None
    with pytest.raises(EmptyCollection):
        common_witness([])


def test_common_witness_shared_vertex():
    fv = gallery.five_ribbon_complex()
    regions = [Region.from_ribbon(fv.ribbons[n]) for n in ("bottom", "upper")]
    assert common_witness(regions) == fv.junction


def test_common_witness_crossing_squares():
    # overlap corners come from pairwise boundary intersections only
    k = CellComplex("K")
    a = _square_region(k, "a", 0, 0, 4, 2)
    b = _square_region(k, "b", 3, 1, 7, 3)
    w = common_witness([a, b])
    assert w is not None
    assert a.contains(w) and b.contains(w)


def test_nerve_single_region():
    k = CellComplex("K")
    a = _square_region(k, "a", 0, 0, 2, 2)
    sc = nerve([a])
    assert sc.simplices == frozenset({frozenset({0})})


def test_nerve_of_nested_chain_is_full_simplex():
    k = CellComplex("K")
    regions = [
        _square_region(k, "a", 0, 0, 8, 8),
        _square_region(k, "b", 1, 1, 7, 7),
        _square_region(k, "c", 2, 2, 6, 6),
    ]
    sc = nerve(regions)
    assert frozenset({0, 1, 2}) in sc.simplices
    assert len(sc.simplices) == 7  # all nonempty subsets
    assert sc.facets == ((0, 1, 2),)


def test_nerve_caps_collection_size():
    k = CellComplex("K")
    regions = [_square_region(k, f"r{i}", 3 * i, 0, 3 * i + 2, 2) for i in range(21)]
    with pytest.raises(CollectionTooLarge):
        nerve(regions)
    with pytest.raises(EmptyCollection):
        nerve([])


def test_nerve_downward_closed_and_monotone_on_random_families():
    rng = Random(21)
    for _ in range(30):
        regions = random_rect_family(rng, max_rects=5)
        sc = nerve(regions)
        assert is_downward_closed(sc.simplices)
        if len(regions) >= 2:
            smaller = nerve(regions[:-1])
            assert smaller.simplices <= sc.simplices  # adding a region removes nothing


def test_ribbon_own_cycles_form_an_edge_in_cycle_nerve():
    th = gallery.two_hole_ribbon()
    regions = [Region.from_cycle(th.outer), Region.from_cycle(th.inner)]
    sc = nerve(regions)
    assert frozenset({0, 1}) in sc.simplices


def test_ribbon_nerve_groups_for_gallery():
    th = gallery.two_hole_ribbon()
    groups = ribbon_nerve(RibbonComplex((th.ribbon,), label="solo"))
    assert [[r.label for r in g.ribbons] for g in groups] == [["ring"]]

    sv = gallery.shared_vertex_pair()
    groups = ribbon_nerve(sv.rbx)
    assert [[r.label for r in g.ribbons] for g in groups] == [["lower", "upper"]]

    fv = gallery.five_ribbon_complex()
    groups = ribbon_nerve(fv.rbx)
    got = sorted(tuple(sorted(r.label for r in g.ribbons)) for g in groups)
    assert got == [("bottom", "left", "upper"), ("lower_right",), ("right",)]


def test_ribbon_nerve_groups_cover_and_witness():
    fv = gallery.five_ribbon_complex()
    groups = ribbon_nerve(fv.rbx)
    covered = {r for g in groups for r in g.ribbons}
    assert covered == set(fv.rbx.ribbons)
    for g in groups:
        assert common_witness([Region.from_ribbon(r) for r in g.ribbons]) is not None


def test_maximal_simplices():
    sc = SimplicialComplex(
        vertex_labels=("a", "b", "c"),
        facets=frozenset(
            {frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 1})}
        ),
    )
    assert sc.facets == ((0, 1), (2,))


def _oracle_families():
    rng = Random(1123)
    for _ in range(40):
        yield random_rect_family(rng, max_rects=6)
    for _ in range(15):
        ribbons = [
            random_rect_ribbon(rng, lo=0, hi=12, band=1, max_holes=0, max_filaments=0)
            for _ in range(rng.randint(1, 4))
        ]
        yield [Region.from_ribbon(r) for r in ribbons]
    for _ in range(50):
        yield random_grid_rect_family(rng, max_rects=5, side=4)
    th = gallery.two_hole_ribbon()
    yield [Region.from_cycle(th.outer), Region.from_cycle(th.inner)]
    pair = gallery.nerve_space_pair()
    for rbx in (
        gallery.shared_vertex_pair().rbx,
        gallery.five_ribbon_complex().rbx,
        pair.left.rbx,
        pair.right.rbx,
    ):
        yield [Region.from_ribbon(r) for r in rbx.ribbons]


def _check_against_closure(sc, simplices):
    """``sc`` agrees with the closure-based references over ``simplices``."""
    assert sc.simplices == simplices
    assert sc.facets == reference_facets(simplices)
    for d in range(4):
        assert sc.simplices_of_dim(d) == reference_simplices_of_dim(simplices, d), d
    assert z2_betti(sc) == reference_z2_betti(simplices)


def test_nerve_matches_level_wise_reference():
    for regions in _oracle_families():
        _check_against_closure(nerve(regions), reference_nerve(regions))
        assert common_witness(regions) == reference_witness(regions), regions


def _random_generators(rng, n):
    """Random vertex sets on ``range(n)``, with duplicates, nested sets and
    empty sets mixed in, or singletons only."""
    if rng.random() < 0.15:
        return [(i,) for i in rng.sample(range(n), rng.randint(1, n))]
    gens = [rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(0, 5))]
    for g in list(gens):
        if g and rng.random() < 0.3:
            gens.append(rng.sample(g, rng.randint(1, len(g))))  # a face of g, maybe g again
    rng.shuffle(gens)
    return gens


def test_maximal_simplices_match_definition_on_random_complexes():
    rng = Random(77)
    for _ in range(300):
        n = rng.randint(1, 7)
        gens = _random_generators(rng, n)
        labels = tuple(f"v{i}" for i in range(n))
        simplices = reference_closure(gens)
        sc = SimplicialComplex(labels, tuple(gens))
        _check_against_closure(sc, simplices)
        assert SimplicialComplex(labels, simplices) == sc  # the closure generates the same complex
    empty = SimplicialComplex(("a",), ())
    assert empty.facets == () and empty.simplices == frozenset() and z2_betti(empty) == (0, 0)


def test_maximal_simplices_of_twelve_nested_squares():
    k = CellComplex("K")
    regions = [_square_region(k, f"s{i}", i, i, 30 - i, 30 - i) for i in range(12)]
    sc = nerve(regions)
    assert len(sc.simplices) == 4095
    assert sc.facets == (tuple(range(12)),)


def test_empty_region_is_no_vertex():
    # The triangle lies in the closed rectangle, touching its boundary only
    # at (1, 4), which is inside the second excluded triangle: nothing is left.
    empty = Region(
        loops=(_loop((4, 7), (2, 6), (1, 4)),),
        excluded=(_loop((1, 3), (6, 3), (6, 8), (1, 8)), _loop((0, 4), (7, 1), (0, 6))),
    )
    square = Region(loops=(_loop((0, 0), (1, 0), (1, 1), (0, 1)),))
    assert common_witness([empty]) is None
    sc = nerve([square, empty])
    assert sc.facets == ((0,),)
    assert sc.simplices == reference_nerve([square, empty]) == frozenset({frozenset({0})})
    assert z2_betti(sc) == (1, 0)


def _loop(*xy):
    return [point(x, y) for x, y in xy]


def test_nerve_sees_a_piece_cornered_only_by_its_own_loops():
    # The strip minus the U-shaped loop keeps the square [4, 6] x [4, 6],
    # whose corners are all crossings of the strip with the U.  The triangle
    # holds that square, its edges and corners lie off the strip's region,
    # and neither loop's vertex centroid is in the square.
    strip = _loop((0, 4), (20, 4), (20, 6), (0, 6))
    u = _loop((2, 0), (8, 0), (8, 10), (6, 10), (6, 3), (4, 3), (4, 10), (2, 10))
    notched = Region(loops=(strip,), excluded=(u,))
    wedge = Region(loops=(_loop(("7/2", "7/2"), ("13/2", "7/2"), (5, 100)),))
    regions = [notched, wedge]
    assert notched.contains(point(5, 5)) and wedge.contains(point(5, 5))
    assert frozenset({0, 1}) in nerve(regions).simplices
    w = common_witness(regions)
    assert w is not None and notched.contains(w) and wedge.contains(w)


_QUARTER_GRID = [point(Fraction(i, 4), Fraction(j, 4)) for i in range(33) for j in range(33)]


def _grid_rect(rng):
    x0, x1 = sorted(rng.sample(range(9), 2))
    y0, y1 = sorted(rng.sample(range(9), 2))
    return _loop((x0, y0), (x1, y0), (x1, y1), (x0, y1))


def _grid_loop(rng):
    if rng.random() < 0.5:
        return _grid_rect(rng)
    while True:
        loop = _loop(*((rng.randint(0, 8), rng.randint(0, 8)) for _ in range(3)))
        if polygon_area2(loop):
            return loop


def _meeting_loop(rng, other):
    """A random loop whose boundary meets the boundary of ``other``."""
    while True:
        loop = ScaledLoop(_grid_loop(rng))
        if next(segment_meetings(boxed_segments(other), boxed_segments(loop)), None) is not None:
            return loop


def _grid_region(rng):
    """A plain rectangle, a loop minus one or two loops crossing it, or
    the union of two overlapping loops; never without a point of the grid."""
    kind = rng.randrange(3)
    if kind == 0:
        return Region(loops=(_grid_rect(rng),))
    outer = ScaledLoop(_grid_loop(rng))
    if kind == 1:
        holes = tuple(_meeting_loop(rng, outer) for _ in range(rng.randint(1, 2)))
        region = Region(loops=(outer,), excluded=holes)
        return region if any(map(region.contains, _QUARTER_GRID)) else _grid_region(rng)
    return Region(loops=(outer, _meeting_loop(rng, outer)))


def _channel_pair(rng):
    """A strip cut by two crossing holes, and a rectangle over the piece
    between them whose corners and edges lie in the holes or off the
    strip; all of it under one random symmetry of the square [0, 8]^2."""
    p0, c0, p1, q0, c1, q1 = sorted(rng.sample(range(9), 6))
    t0, s0, s1, t1 = sorted(rng.sample(range(9), 4))
    swap, fx, fy = (rng.random() < 0.5 for _ in range(3))

    def rect(x0, y0, x1, y1):
        out = []
        for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)):
            x, y = (y, x) if swap else (x, y)
            out.append((8 - x if fx else x, 8 - y if fy else y))
        return _loop(*out)

    holes = (rect(p0, 0, p1, 8), rect(q0, 0, q1, 8))
    return [Region(loops=(rect(0, s0, 8, s1),), excluded=holes), Region(loops=(rect(c0, t0, c1, t1),))]


def _exactness_failures(regions):
    """Ways in which ``nerve`` and ``common_witness`` miss what the points
    of the 1/4 grid over [0, 8]^2 show, checked by ``Region.contains``."""
    sc = nerve(regions)
    out = []
    for p in _QUARTER_GRID:
        held = frozenset(k for k, r in enumerate(regions) if r.contains(p))
        if held and held not in sc.simplices:
            out.append(("no simplex", p, held))
    for s in sc.simplices:
        w = common_witness([regions[k] for k in sorted(s)])
        if w is None or not all(regions[k].contains(w) for k in s):
            out.append(("no witness", s, w))
    return out


# An independent oracle: every set of regions that share a grid point is a
# simplex, and every simplex has a witness in all its regions.  About half the
# families hold a strip cut into pieces whose corners are all crossings of
# its own loops, and a rectangle over one of those pieces.
def test_nerve_is_exact_on_random_grid_families():
    rng = Random(4409)
    failures = []
    for family in range(60):
        regions = [_grid_region(rng) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            regions += _channel_pair(rng)
        rng.shuffle(regions)
        found = _exactness_failures(regions)
        if found:
            failures.append((family, found[:3]))
    assert failures == []


def _as_points(s, points):
    """Lattice points ``(X, Y, D)`` of scale ``s`` as :class:`Point2` values."""
    return tuple(Point2(Fraction(x, d * s), Fraction(y, d * s)) for x, y, d in points)


def _lattice_candidates(regions):
    """The nerve's candidate list as :class:`Point2` values."""
    s, family = family_lattice(regions)
    return list(_as_points(s, _held_sets(family)))


def test_five_ribbon_candidates_lie_on_boundaries():
    regions = [Region.from_ribbon(r) for r in gallery.five_ribbon_complex().rbx.ribbons]
    loops = [loop for r in regions for loop in r.loops + r.excluded]
    for p in _lattice_candidates(regions):
        assert any(loop.classify(p) is PointLocation.ON_BOUNDARY for loop in loops), p


def _check_against_fraction_oracle(regions):
    """The integer boundary meetings, candidates, facets and the witness of
    every subfamily are those of the ``Fraction`` code they replaced, in the
    same order, and the clearance reads 0 exactly when the unpruned
    reference does."""
    s, family = family_lattice(regions)
    meetings = [_as_points(s, meet) for _, _, meet in boundary_meetings(family)]
    assert meetings == fraction_boundary_meetings(regions), regions
    assert _lattice_candidates(regions) == fraction_candidate_points(regions), regions
    assert nerve(regions).facets == fraction_nerve_facets(regions), regions
    for k in range(1, len(regions) + 1):
        for sub in combinations(regions, k):
            assert common_witness(sub) == fraction_common_witness(sub), sub
    if len(regions) > 1:
        assert (min_boundary_clearance_sq(regions) == 0) == (reference_clearance_sq(regions) == 0)


def test_nerve_matches_fraction_oracle_on_slanted_families():
    rng = Random(1507)
    crossings = overlaps = own_meetings = 0
    for _ in range(150):
        regions = random_slanted_family(rng)
        _check_against_fraction_oracle(regions)
        s, family = family_lattice(regions)
        points = list(_held_sets(family))
        for x, y, d in points:
            assert d > 0 and gcd(x, y, d) == 1
        crossings += sum(d > 1 for _, _, d in points)
        overlaps += sum(len(meet) == 2 for _, _, meet in boundary_meetings(family))
        own_meetings += sum(
            next(segment_meetings(boxed_segments(k), boxed_segments(l)), None) is not None
            for r in regions
            for k, l in combinations(r.loops + r.excluded, 2)
        )
    # The families reach off-lattice crossings, collinear overlaps and
    # regions whose loops meet.
    assert crossings > 100 and overlaps > 20 and own_meetings > 30, (crossings, overlaps, own_meetings)


def test_nerve_matches_fraction_oracle_on_grid_families():
    for regions in _oracle_families():
        _check_against_fraction_oracle(regions)
    rng = Random(4410)
    for _ in range(30):
        _check_against_fraction_oracle([_grid_region(rng) for _ in range(rng.randint(1, 3))])


def _convex_loop(rng, q):
    """A triangle or a parallelogram of nonzero area on the ``1/q`` grid over [0, 4]."""
    while True:
        p, u, v = ((Fraction(rng.randint(0, 4 * q), q), Fraction(rng.randint(0, 4 * q), q)) for _ in range(3))
        if (u[0] - p[0]) * (v[1] - p[1]) != (u[1] - p[1]) * (v[0] - p[0]):
            corners = [p, u, v] if rng.random() < 0.5 else [p, u, (u[0] + v[0] - p[0], u[1] + v[1] - p[1]), v]
            return [Point2(x, y) for x, y in corners]


def _scaled(loop, t):
    """``loop`` scaled by ``t`` about its vertex centroid, inside it for a convex loop."""
    g = vertex_centroid(loop)
    return [Point2(g.x + t * (p.x - g.x), g.y + t * (p.y - g.y)) for p in loop]


def _crossed_ribbon(rng, q):
    """A ``Ribbon`` built without ``make_ribbon`` whose inner triangle runs
    from the outer loop's centroid out over its first vertex, so the outer
    loop's first vertex lies in the removed interior."""
    outer = _convex_loop(rng, q)
    g, a = vertex_centroid(outer), outer[0]
    dx, dy = a.x - g.x, a.y - g.y
    tip = Point2(3 * a.x - 2 * g.x, 3 * a.y - 2 * g.y)
    inner = [g, Point2(tip.x - dy, tip.y + dx), Point2(tip.x + dy, tip.y - dx)]
    k = CellComplex("D")
    outer_c, inner_c = (
        make_filled_cycle(k, [k.add_vertex(f"{name}{i}", p) for i, p in enumerate(loop)], name)
        for name, loop in (("o", outer), ("i", inner))
    )
    return Region.from_ribbon(Ribbon(outer_c, inner_c, label="crossed"))


def _excluding_region(rng, q):
    """A convex loop minus a loop whose boundary is off it: a shrunk copy
    (a ribbon), a grown copy (an empty region) or a copy moved clear of it;
    or a union of two loops, now and then minus a shrunk copy of the first."""
    loop = _convex_loop(rng, q)
    kind = rng.randrange(5)
    if kind == 0:
        return Region(loops=(loop,), excluded=(_scaled(loop, rng.choice((Fraction(1, 2), Fraction(2, 3)))),))
    if kind == 1:
        return Region(loops=(loop,), excluded=(_scaled(loop, rng.choice((Fraction(3, 2), 2))),))
    if kind == 2:
        shift = max(p.x for p in loop) - min(p.x for p in loop) + Fraction(1, q)
        return Region(loops=(loop,), excluded=([Point2(p.x + shift, p.y) for p in loop],))
    other = _convex_loop(rng, q)
    return Region(loops=(loop, other), excluded=(_scaled(loop, Fraction(1, 2)),) if kind == 3 else ())


def _excluding_families():
    rng = Random(2111)
    for _ in range(40):
        q = rng.choice((1, 2, 3, 7))
        regions = [_excluding_region(rng, q) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            regions.append(_crossed_ribbon(rng, q))
        rng.shuffle(regions)
        yield regions


# Regions whose excluded loop is off their loop, inside it or not, next to
# ones whose excluded loop crosses it: the candidates a region holds
# without a test are exactly those the Fraction code finds it holds.
def test_nerve_matches_fraction_oracle_on_excluding_families():
    kinds = set()
    for regions in _excluding_families():
        assert nerve(regions).facets == fraction_nerve_facets(regions), regions
        for k in range(1, len(regions) + 1):
            for sub in combinations(regions, k):
                assert common_witness(sub) == fraction_common_witness(sub), sub
        kinds.update((len(r.loops), len(r.excluded), r.label, fraction_common_witness([r]) is None) for r in regions)
    # Ribbons or moved holes, empty regions, unions, unions minus a hole, crossed ribbons.
    assert {(1, 1, "", False), (1, 1, "", True), (2, 0, "", False), (2, 1, "", False), (1, 1, "crossed", False)} <= kinds


def test_region_around_its_excluded_loop_is_empty():
    # The excluded loop surrounds the loop, so its boundary is off the loop
    # but the region is empty: its boundary points must be tested.
    square = Region(loops=(_loop((0, 0), (1, 0), (1, 1), (0, 1)),))
    empty = Region(loops=(_loop((3, 3), (4, 3), (4, 4), (3, 4)),), excluded=(_loop((2, 2), (5, 2), (5, 5), (2, 5)),))
    assert nerve([square, empty]).facets == ((0,),)
    assert common_witness([empty]) is None


def test_union_loop_in_its_excluded_loop_is_removed():
    # Both loops of the union lie off the excluded loop, the first around
    # it, but the second inside it, so the second is no part of the region.
    big, small = _loop((0, 0), (8, 0), (8, 8), (0, 8)), _loop((3, 3), (5, 3), (5, 5), (3, 5))
    union = Region(loops=(big, small), excluded=(_loop((2, 2), (6, 2), (6, 6), (2, 6)),))
    over_small = Region(loops=(_loop(("5/2", "5/2"), ("11/2", "5/2"), ("11/2", "11/2"), ("5/2", "11/2")),))
    assert nerve([union, over_small]).facets == ((0,), (1,))


def test_five_ribbon_nerve_tests_few_points(monkeypatch):
    # Each ribbon holds the points found on its boundary without a test, and
    # tests only the points in its box's x range.
    calls = {"holds": 0, "lattice_location": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(nerves.LatticeRegion, "holds", counted("holds", nerves.LatticeRegion.holds))
    monkeypatch.setattr(nerves, "lattice_location", counted("lattice_location", nerves.lattice_location))
    ribbon_nerve(gallery.five_ribbon_complex().rbx)
    assert calls["holds"] <= 100 and calls["lattice_location"] <= 40, calls
