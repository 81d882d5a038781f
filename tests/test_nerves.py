from itertools import combinations
from random import Random

import pytest

from helpers import (
    add_rect_loop,
    random_grid_rect_family,
    random_rect_family,
    random_rect_ribbon,
    reference_nerve,
    reference_witness,
)

from ribbonkit import gallery
from ribbonkit.complexes import CellComplex
from ribbonkit.errors import CollectionTooLarge, EmptyCollection, TooFewVertices
from ribbonkit.geometry import point
from ribbonkit.nerves import Region, SimplicialComplex, common_witness, nerve, ribbon_nerve
from ribbonkit.ribbons import RibbonComplex, make_filled_cycle


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
    assert sc.is_downward_closed()


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
        assert sc.is_downward_closed()
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
        simplices=frozenset(
            {frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 1})}
        ),
    )
    assert sc.maximal_simplices() == ((0, 1), (2,))


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


def test_nerve_matches_level_wise_reference():
    for regions in _oracle_families():
        assert nerve(regions).simplices == reference_nerve(regions).simplices, regions
        assert common_witness(regions) == reference_witness(regions), regions


def _brute_force_maximal(sc):
    maximal = [s for s in sc.simplices if not any(s < t for t in sc.simplices)]
    return tuple(sorted(tuple(sorted(s)) for s in maximal))


def test_maximal_simplices_match_definition_on_random_complexes():
    rng = Random(77)
    for _ in range(200):
        n = rng.randint(1, 7)
        tops = [
            frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 5))
        ]
        simplices = frozenset(
            frozenset(c) for t in tops for k in range(1, len(t) + 1) for c in combinations(sorted(t), k)
        )
        sc = SimplicialComplex(tuple(f"v{i}" for i in range(n)), simplices)
        assert sc.is_downward_closed()
        assert sc.maximal_simplices() == _brute_force_maximal(sc)


def test_maximal_simplices_of_twelve_nested_squares():
    k = CellComplex("K")
    regions = [_square_region(k, f"s{i}", i, i, 30 - i, 30 - i) for i in range(12)]
    sc = nerve(regions)
    assert len(sc.simplices) == 4095
    assert sc.maximal_simplices() == (tuple(range(12)),)
