"""Acceptance suite: one criterion per test, one pass/fail line each."""
import time
from fractions import Fraction
from pathlib import Path
from random import Random

from helpers import random_rect_family, random_rect_ribbon, random_universe

from ribbonkit import gallery
from ribbonkit.betti import betti_rb, betti_rbx, betti_triple
from ribbonkit.cli import main
from ribbonkit.division import Frame, frame_around, verify_partition
from ribbonkit.document import parse_document, serialize_document
from ribbonkit.fixedpoint import CellMap, filament_retraction_map, fixed_cells
from ribbonkit.geometry import point
from ribbonkit.homology import nerve_theorem_check
from ribbonkit.nerves import Region, ribbon_nerve
from ribbonkit.proximity import check_axioms, dx_intersection, dx_near
from ribbonkit.ribbons import ribbon_nerves_of_vortex_nerve, ribbons_of_vortex_nerve

SAMPLES = Path(gallery.__file__).parent / "samples"


def _report(n, name, started, budget=None):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {n} ({name}): PASS [{elapsed:.2f}s]")
    if budget is not None:
        assert elapsed <= budget, f"criterion {n} exceeded its {budget}s budget"


def test_criterion_1_worked_example_reproduction():
    started = time.monotonic()

    fr = gallery.filament_ribbon()
    assert betti_rb(fr.ribbon) == 6  # 1 filament + 2 cycles + 3 holes

    th = gallery.two_hole_ribbon()
    assert betti_triple(th.ribbon).b2 == 2
    sv = gallery.shared_vertex_pair()
    assert betti_triple(sv.lower).b2 == 2
    assert betti_triple(sv.upper).b2 == 3
    pair_groups = ribbon_nerve(sv.rbx)
    assert len(pair_groups) == 1
    assert betti_triple(pair_groups[0]).b2 == 5

    fv = gallery.five_ribbon_complex()
    assert betti_rbx(fv.rbx).count_variant == 5

    tv = gallery.triple_vortex()
    assert len(ribbons_of_vortex_nerve(tv.nerve)) == 2
    assert len(ribbon_nerves_of_vortex_nerve(tv.nerve)) == 1

    groups = ribbon_nerve(fv.rbx)
    got = sorted(tuple(sorted(r.label for r in g.ribbons)) for g in groups)
    assert got == [("bottom", "left", "upper"), ("lower_right",), ("right",)]

    _report(1, "worked example reproduction", started, budget=1.0)


def test_criterion_2_proximity_examples():
    started = time.monotonic()
    th = gallery.two_hole_ribbon()
    sv = gallery.shared_vertex_pair()
    assert dx_near(th.ribbon, sv.lower, ["b1_cycles"], 1) is True
    assert dx_near(th.ribbon, sv.upper, ["b2_holes"], 1) is False

    pair = gallery.nerve_space_pair()
    left_groups = ribbon_nerve(pair.left.rbx)
    right_groups = ribbon_nerve(pair.right.rbx)
    for th_value in (Fraction(1, 10), Fraction(1), Fraction(10)):
        pairs = dx_intersection(left_groups, right_groups, ["b2_holes"], th_value)
        assert pairs, f"nerve pair should be near at threshold {th_value}"
    _report(2, "proximity examples", started)


def test_criterion_3_axiom_suite():
    started = time.monotonic()
    rng = Random(2024)
    probes = ["b0_filaments", "b1_cycles", "b2_holes"]
    for _ in range(500):
        universe = random_universe(rng, max_ribbons=8)
        th = Fraction(rng.randint(1, 50), 10)  # random threshold in (0, 5]
        report = check_axioms(universe, probes, th, trials=5, seed=rng.randint(0, 10**6))
        assert report.passed, report.lines()
    _report(3, "axiom suite, 500 universes", started, budget=30.0)


def test_criterion_4_plane_division():
    started = time.monotonic()
    rng = Random(4040)
    for _ in range(200):
        ribbon = random_rect_ribbon(rng)
        frame = frame_around(ribbon, 2)
        report = verify_partition(ribbon, frame, 40)
        assert report.each_point_single_label
        assert report.all_labels_realized
        assert report.bounded
        assert report.clearance_ok, report.lines()
        for witness in report.witnesses.values():
            assert witness is not None and witness[1] > 0
    _report(4, "plane division, 200 ribbons at grid 40", started, budget=60.0)


def test_criterion_5_nerve_homotopy_check():
    started = time.monotonic()

    # hand case: three rectangles with a common point
    common = [
        Region(loops=((point(0, 0), point(2, 0), point(2, 2), point(0, 2)),), label="a"),
        Region(loops=((point(1, 0), point(3, 0), point(3, 2), point(1, 2)),), label="b"),
        Region(loops=((point(0, 1), point(3, 1), point(3, 2), point(0, 2)),), label="c"),
    ]
    report = nerve_theorem_check(common, Frame(point(-1, -1), point(4, 3)), 16)
    assert report.passed and report.nerve_betti == (1, 0)

    # hand case: two disjoint squares
    apart = [
        Region(loops=((point(0, 0), point(1, 0), point(1, 1), point(0, 1)),), label="a"),
        Region(loops=((point(3, 0), point(4, 0), point(4, 1), point(3, 1)),), label="b"),
    ]
    report = nerve_theorem_check(apart, Frame(point(-1, -1), point(5, 2)), 16)
    assert report.passed and report.nerve_betti == (2, 0)

    # hand case: pairwise intersections, empty triple, one enclosed hole
    bars = [
        Region(loops=((point(0, 0), point(8, 0), point(8, 1), point(0, 1)),), label="a"),
        Region(loops=((point(0, 0), point(1, 0), point(1, 8), point(0, 8)),), label="b"),
        Region(loops=((point(8, 0), point(0, 8), point(0, 6), point(6, 0)),), label="c"),
    ]
    report = nerve_theorem_check(bars, Frame(point(-1, -1), point(9, 9)), 16)
    assert report.passed and report.nerve_betti == (1, 1)

    rng = Random(5050)
    frame = Frame(point("-1/2", "-1/2"), point("35/4", "35/4"))
    passes = 0
    for _ in range(100):
        regions = random_rect_family(rng, max_rects=6)
        report = nerve_theorem_check(regions, frame, 16)
        assert report.passed, report.lines()
        passes += 1
    assert passes == 100
    _report(5, "nerve vs union ranks, 100 families", started, budget=120.0)


def test_criterion_6_fixed_points():
    started = time.monotonic()
    fr = gallery.filament_ribbon()
    retraction = filament_retraction_map(fr.ribbon, fr.filament)
    assert fixed_cells(retraction) == frozenset({fr.inner_vertex})

    identity = CellMap.identity(fr.complex)
    assert fixed_cells(identity) == frozenset(fr.complex.cells)

    from ribbonkit.complexes import CellComplex

    k = CellComplex("tri")
    for vid, (x, y) in (("a", (0, 0)), ("b", (2, 0)), ("c", (1, 2))):
        k.add_vertex(vid, point(x, y))
    k.add_triangle("a", "b", "c")
    rotation = CellMap(k, {"a": "b", "b": "c", "c": "a"})
    # a finite vertex rotation has no fixed cell: detection reports the
    # empty set rather than assuming existence
    assert fixed_cells(rotation) == frozenset()
    _report(6, "fixed point detection", started)


def test_criterion_7_formula_consistency():
    started = time.monotonic()
    rng = Random(7070)
    ribbons = [random_rect_ribbon(rng) for _ in range(300)]
    for r in ribbons:
        t = betti_triple(r)
        assert betti_rb(r) == t.b0 + t.b2 + 2
    from ribbonkit.ribbons import RibbonComplex

    idx = 0
    while idx < len(ribbons):
        size = rng.randint(1, 8)
        members = tuple(ribbons[idx : idx + size])
        idx += size
        if not members:
            break
        x = RibbonComplex(members)
        assert betti_rbx(x).sum_variant == sum(betti_rb(r) for r in members)
    _report(7, "counter formula consistency, 300 ribbons", started)


def test_criterion_8_io_round_trip_and_cli(capsys, tmp_path):
    started = time.monotonic()
    samples = sorted(SAMPLES.glob("*.rcx"))
    assert len(samples) == 7
    for path in samples:
        text = path.read_text(encoding="utf-8")
        assert serialize_document(parse_document(text)) == text

    sample = str(SAMPLES / "filament_ribbon.rcx")
    assert main(["betti", sample, "--target", "ring"]) == 0
    first = capsys.readouterr().out
    assert main(["betti", sample, "--target", "ring"]) == 0
    second = capsys.readouterr().out
    assert first == second and "betti_rb=6" in first
    capsys.disabled()
    _report(8, "sample round trips and CLI determinism", started)
