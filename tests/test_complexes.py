from fractions import Fraction
from random import Random

import pytest

from helpers import reference_validate_cw

from ribbonkit import complexes, gallery
from ribbonkit.complexes import (
    CellComplex,
    CellKind,
    _Buckets,
    _Shape,
    boundary,
    closure,
    interior,
    validate_cw,
)
from ribbonkit.errors import DegenerateCell, UnknownCellId
from ribbonkit.geometry import (
    Lattice,
    Orientation,
    Point2,
    PointLocation,
    bounding_box,
    orientation,
    point,
    point_in_polygon,
    segment_intersection,
)


def test_single_vertex_complex_is_valid():
    k = CellComplex("K")
    k.add_vertex("a", point(0, 0))
    report = validate_cw(k)
    assert report.valid
    assert report.nonempty


def test_empty_complex_is_not_valid():
    assert not validate_cw(CellComplex("empty")).valid


def test_missing_endpoint_is_containment_violation():
    k = CellComplex("K")
    k.add_vertex("a", point(0, 0))
    k.add_edge("a", "ghost")
    report = validate_cw(k)
    assert not report.valid
    assert any("ghost" in v for v in report.containment_violations)


def test_crossing_edges_are_intersection_violation():
    k = CellComplex("K")
    for vid, (x, y) in (("a", (0, 0)), ("b", (2, 2)), ("c", (0, 2)), ("d", (2, 0))):
        k.add_vertex(vid, point(x, y))
    k.add_edge("a", "b")
    k.add_edge("c", "d")
    # oracle: the exact crossing point is (1,1), which is not a vertex
    inter = segment_intersection(point(0, 0), point(2, 2), point(0, 2), point(2, 0))
    assert inter == ("point", point(1, 1))
    assert point(1, 1) not in k.vertices.values()
    report = validate_cw(k)
    assert not report.valid
    assert len(report.intersection_violations) == 1


def test_edges_meeting_at_shared_vertex_are_fine():
    k = CellComplex("K")
    for vid, (x, y) in (("a", (0, 0)), ("b", (2, 2)), ("c", (4, 0))):
        k.add_vertex(vid, point(x, y))
    k.add_edge("a", "b")
    k.add_edge("b", "c")
    assert validate_cw(k).valid


def test_triangle_requires_noncollinear_vertices():
    k = CellComplex("K")
    for vid, (x, y) in (("a", (0, 0)), ("b", (1, 1)), ("c", (2, 2))):
        k.add_vertex(vid, point(x, y))
    with pytest.raises(DegenerateCell):
        k.add_triangle("a", "b", "c")
    with pytest.raises(DegenerateCell):
        k.add_edge("a", "a")


def _square_two_triangles():
    k = CellComplex("sq")
    for vid, (x, y) in (("a", (0, 0)), ("b", (2, 0)), ("c", (2, 2)), ("d", (0, 2))):
        k.add_vertex(vid, point(x, y))
    t1 = k.add_triangle("a", "b", "c")
    t2 = k.add_triangle("a", "c", "d")
    return k, t1, t2


def test_square_complex_is_valid():
    k, _, _ = _square_two_triangles()
    assert validate_cw(k).valid


def test_closure_of_triangle():
    k, t1, _ = _square_two_triangles()
    closed = closure(k, [t1])
    kinds = sorted(k.cells[c].kind.value for c in closed)
    assert kinds == ["edge"] * 3 + ["triangle"] + ["vertex"] * 3


def test_boundary_of_lone_edge_is_its_endpoints():
    k = CellComplex("K")
    k.add_vertex("a", point(0, 0))
    k.add_vertex("b", point(1, 0))
    eid = k.add_edge("a", "b")
    assert boundary(k, [eid]) == frozenset({"a", "b"})
    assert interior(k, [eid]) == frozenset({eid})


def test_interior_of_square_matches_geometric_oracle():
    k, t1, t2 = _square_two_triangles()
    square_loop = [point(0, 0), point(2, 0), point(2, 2), point(0, 2)]
    # oracle: a cell is interior iff its realization midpoint is strictly
    # inside the square region
    expected = set()
    for cid, cell in k.cells.items():
        pts = k.cell_points(cid)
        mid = point(
            sum(p.x for p in pts) / len(pts), sum(p.y for p in pts) / len(pts)
        )
        if (
            cell.kind is CellKind.TRIANGLE
            or point_in_polygon(mid, square_loop) is PointLocation.INSIDE
        ):
            expected.add(cid)
    got = interior(k, [t1, t2])
    assert got == frozenset(expected)
    assert got == {t1, t2, k.edge_between("a", "c")}


def test_closure_is_idempotent_on_random_subsets():
    rng = Random(3)
    fv = gallery.five_ribbon_complex()
    ids = sorted(fv.complex.cells)
    for _ in range(50):
        subset = rng.sample(ids, rng.randint(1, 12))
        once = closure(fv.complex, subset)
        assert closure(fv.complex, once) == once


def test_closure_rejects_unknown_ids():
    k, t1, _ = _square_two_triangles()
    with pytest.raises(UnknownCellId):
        closure(k, ["nope"])


def test_gallery_complexes_validate():
    for build in (
        gallery.two_hole_ribbon,
        gallery.shared_vertex_pair,
        gallery.triple_vortex,
        gallery.five_ribbon_complex,
        gallery.filament_ribbon,
    ):
        assert validate_cw(build().complex).valid


def test_isolated_cells_are_allowed():
    # a complex may hold cells unattached to any cycle
    th = gallery.two_hole_ribbon()
    th.complex.add_vertex("stray", point(10, 10))
    assert validate_cw(th.complex).valid


MIXED_DENOMINATORS = (1, 2, 3, 7, 16, 1024)


def _perturbed_triangulation(rng: Random, n: int, m: int) -> CellComplex:
    """n x m squares cut into triangles; interior vertices move by up to a
    quarter unit with mixed denominators, so some triangles may flip."""
    k = CellComplex("T")
    for i in range(n + 1):
        for j in range(m + 1):
            x, y = Fraction(i), Fraction(j)
            if 0 < i < n and 0 < j < m:
                d = rng.choice(MIXED_DENOMINATORS)
                x += Fraction(rng.randint(-d, d), 4 * d)
                y += Fraction(rng.randint(-d, d), 4 * d)
            k.add_vertex(f"v{i}_{j}", Point2(x, y))
    for i in range(n):
        for j in range(m):
            for tri in (
                (f"v{i}_{j}", f"v{i + 1}_{j}", f"v{i + 1}_{j + 1}"),
                (f"v{i}_{j}", f"v{i + 1}_{j + 1}", f"v{i}_{j + 1}"),
            ):
                try:
                    k.add_triangle(*tri)
                except DegenerateCell:
                    pass
    return k


def _drop_edge(k: CellComplex, a: str, b: str) -> None:
    eid = k.edge_between(a, b)
    if eid is not None:
        del k.cells[eid]
        del k._edge_index[frozenset((a, b))]


def _inject(rng: Random, k: CellComplex, n: int, m: int) -> None:
    """Add one or more violations, or near-violations, at random."""
    i, j = rng.randrange(n), rng.randrange(m)
    corner = lambda di, dj: f"v{i + di}_{j + dj}"
    kinds = rng.sample(("cross", "missing", "overlap", "collinear", "zero", "ghost"), rng.randint(1, 3))
    for kind in kinds:
        if kind == "cross":
            k.add_edge(corner(0, 1), corner(1, 0), f"x_cross{i}_{j}")
        elif kind == "missing":
            _drop_edge(k, corner(0, 0), rng.choice((corner(1, 0), corner(1, 1), corner(0, 1))))
        elif kind == "overlap":
            try:
                k.add_triangle(corner(0, 0), corner(1, 0), corner(0, 1), f"x_tri{i}_{j}")
            except (DegenerateCell, ValueError):
                pass
        elif kind == "collinear":
            # a piece of the line through an edge, from its midpoint to past
            # its far end, with the endpoints in either order
            a, b = corner(0, 0), rng.choice((corner(1, 0), corner(1, 1), corner(0, 1)))
            pa, pb = k.vertices[a], k.vertices[b]
            mid = f"x_mid{i}_{j}"
            far = f"x_far{i}_{j}"
            k.add_vertex(mid, Point2((pa.x + pb.x) / 2, (pa.y + pb.y) / 2))
            k.add_vertex(far, Point2(pb.x + (pb.x - pa.x) / 3, pb.y + (pb.y - pa.y) / 3))
            ends = [mid, far]
            rng.shuffle(ends)
            k.add_edge(*ends)
        elif kind == "zero":
            twin = f"x_twin{i}_{j}"
            k.add_vertex(twin, k.vertices[corner(1, 1)])
            k.add_edge(twin, corner(1, 1))
            k.add_edge(twin, corner(0, 0))
        else:
            k.add_edge(corner(0, 0), "ghost")
            k.add_triangle(corner(1, 0), corner(1, 1), "ghost2")


def _random_soup(rng: Random) -> CellComplex:
    """Vertices, edges and triangles on a small lattice: crossings,
    collinear overlaps, shared vertices and touching boxes abound."""
    k = CellComplex("S")
    d = rng.choice(MIXED_DENOMINATORS) if rng.random() < 0.5 else 1
    side = rng.randint(2, 5)
    ids = []
    for v in range(rng.randint(3, 9)):
        vid = f"p{v}"
        k.add_vertex(vid, Point2(Fraction(rng.randint(0, side * d), d), Fraction(rng.randint(0, side * d), d)))
        ids.append(vid)
    for _ in range(rng.randint(0, 6)):
        a, b = rng.sample(ids, 2)
        try:
            k.add_edge(a, b)
        except ValueError:
            pass
    for _ in range(rng.randint(0, 4)):
        try:
            k.add_triangle(*rng.sample(ids, 3))
        except (DegenerateCell, ValueError):
            pass
    return k


def _late_soup(rng: Random, d: int) -> CellComplex:
    """Edges and triangles on ids first, their vertices bound after on a
    small lattice at denominator ``d``: collinear and one-point triangles,
    which ``add_triangle`` cannot reject before the binding, abound."""
    k = CellComplex(f"L/{d}")
    ids = [f"p{v}" for v in range(rng.randint(3, 7))]
    for _ in range(rng.randint(1, 4)):
        try:
            k.add_triangle(*rng.sample(ids, 3))
        except ValueError:
            pass
    for _ in range(rng.randint(0, 3)):
        k.add_edge(*rng.sample(ids, 2))
    side = rng.randint(1, 3) * d
    for vid in ids:
        k.add_vertex(vid, point(Fraction(rng.randint(0, side), d), Fraction(rng.randint(0, side), d)))
    return k


def _has_flat_triangle(k: CellComplex) -> bool:
    return any(
        cell.kind is CellKind.TRIANGLE and orientation(*k.cell_points(cid)) is Orientation.COLLINEAR
        for cid, cell in k.cells.items()
    )


def _touching_on_bucket_boundary() -> CellComplex:
    """Two triangles whose boxes meet only on the line x = 3, which is a
    bucket boundary; their edges on that line overlap without being
    covered."""
    k = CellComplex("touch")
    for vid, (x, y) in (
        ("a0", (0, 0)), ("a1", (3, 0)), ("a2", (3, 4)),
        ("b0", (3, 2)), ("b1", (6, 3)), ("b2", (3, 6)),
    ):
        k.add_vertex(vid, point(x, y))
    k.add_triangle("a0", "a1", "a2")
    k.add_triangle("b0", "b1", "b2")
    return k


def test_touching_boxes_case_sits_on_a_bucket_boundary():
    k = _touching_on_bucket_boundary()
    lattice = Lattice(k.vertices.values())
    scale = lattice.s
    coords = {vid: Point2(*lattice.ints(p)) for vid, p in k.vertices.items()}
    boxes = [bounding_box(_Shape(cell.vertex_ids, [coords[v] for v in cell.vertex_ids]).hull)
             for cell in k.cells.values()]
    grid = _Buckets(boxes)
    assert (3 * scale - grid.x0) % grid.wx == 0 and 3 * scale > grid.x0
    lines = validate_cw(k).lines()
    assert any("share segment (3, 2)-(3, 4)" in line for line in lines)


def _incidence_case(name, d, vertices, cells, late=(), drop=()) -> CellComplex:
    """A complex at coordinates ``(x / d, y / d)``: ``cells`` are edges or
    triangles (with an optional id), ``late`` vertices are bound after the
    cells, so a triangle on them may be collinear, and ``drop`` edges are
    removed last."""
    k = CellComplex(f"{name}/{d}")
    bind = lambda vid, x, y: k.add_vertex(vid, point(Fraction(x, d), Fraction(y, d)))
    for vid, (x, y) in vertices.items():
        bind(vid, x, y)
    for cell in cells:
        if len(cell) == 2:
            k.add_edge(*cell)
        else:
            k.add_triangle(*cell)
    for vid, (x, y) in late:
        bind(vid, x, y)
    for a, b in drop:
        _drop_edge(k, a, b)
    return k


def _incidence_cases(d: int):
    """Complexes aimed at each incidence rule of validate_cw, and at the
    degenerate pairs that must fall back to clipping."""
    tri = {"a": (0, 0), "b": (6, 0), "c": (0, 6)}
    return [
        # two triangles on one edge, third vertices on the same side,
        # crossing or nested, and on opposite sides with the edge missing
        _incidence_case("same-side", d, {**tri, "e": (4, 3)}, [("a", "b", "c"), ("a", "b", "e")]),
        _incidence_case("nested", d, {**tri, "e": (2, 1)}, [("a", "b", "c"), ("a", "b", "e")]),
        _incidence_case("opposite", d, {**tri, "e": (3, -2)}, [("a", "b", "c"), ("b", "a", "e")],
                        drop=[("a", "b")]),
        # a triangle poking into a neighbour's wedge at a shared vertex,
        # one lying in the opposite wedge, one along a side's ray
        _incidence_case("wedge", d, {**tri, "p": (4, 1), "q": (1, -3), "r": (-2, -1), "s": (-1, -2),
                                     "t": (9, 0), "u": (8, -2)},
                        [("a", "b", "c"), ("a", "p", "q"), ("a", "r", "s"), ("a", "t", "u"), ("a", "p")]),
        # edges leaving a shared vertex along a triangle side: past its
        # end, short of it, backwards, and along a side whose edge is gone
        _incidence_case("along", d, {**tri, "w": (9, 0), "m": (0, 2), "n": (0, -4), "z": (-3, 3)},
                        [("a", "b", "c"), ("a", "w"), ("c", "m"), ("c", "n"), ("a", "z")]),
        _incidence_case("along-missing", d, {**tri, "w": (9, 0)}, [("a", "b", "c"), ("a", "w")],
                        drop=[("a", "b")]),
        # collinear triangles, their third vertex bound after add_triangle:
        # past the shared edge, inside it, and beside cells that touch
        # only the carrier line, in both id orders
        _incidence_case("flat", d, {"a": (0, 0), "b": (2, 0), "f": (1, 2)},
                        [("a", "b", "c", "t1"), ("a", "b", "e", "t2"), ("a", "b", "f", "t3")],
                        late=[("c", (4, 0)), ("e", (1, 0))], drop=[("a", "c"), ("b", "c")]),
        _incidence_case("flat-line", d,
                        {"a": (0, 0), "b": (2, 0), "g": (6, -1), "h": (6, 1), "z": (8, 0),
                         "m": (-2, 1), "n": (-2, -1), "p": (5, 2), "q": (3, 3)},
                        [("a", "b", "c", "t1"), ("g", "h"), ("a", "m", "n", "t0"), ("c", "p", "q", "t2")],
                        late=[("c", (4, 0))]),
        # edges overlapping along a collinear triangle, whose own edges
        # are gone: only edge cells cover a shared segment
        _incidence_case("flat-cover", d, {"a": (2, 0), "b": (4, 0), "p": (1, 0), "s": (5, 0)},
                        [("a", "b", "c", "t1"), ("p", "b"), ("a", "s")],
                        late=[("c", (3, 0))], drop=[("a", "b"), ("a", "c"), ("b", "c")]),
        # two triangle cells on the same three ids, in both orientations
        _incidence_case("twice", d, tri, [("a", "b", "c"), ("a", "b", "c", "dup"), ("c", "b", "a", "dup2")]),
        # cells that touch without sharing an id: a vertex on a side, sides
        # overlapping on one line, an edge ending on a side
        _incidence_case("touch", d, {**tri, "p": (3, 3), "q": (6, 4), "r": (4, 6), "s": (3, 0),
                                     "t": (8, 0), "u": (5, -2), "v": (1, -1), "w": (2, 0)},
                        [("a", "b", "c"), ("p", "q", "r"), ("s", "t", "u"), ("v", "w")]),
    ]


def test_collinear_triangle_is_met_as_its_segment():
    """The flat triangle t1 = a-b-c lies on y = 0 from a to c; t0 touches
    that line only at a, so the two meet in the vertex a."""
    for d in (1, 2, 3, 7):
        flat_line = next(k for k in _incidence_cases(d) if k.name == f"flat-line/{d}")
        lines = validate_cw(flat_line).lines()
        assert lines[1:] == ["  containment: triangle 't1' is collinear"], lines
        assert not any("'t0','t1'" in line for line in lines)


def test_one_point_triangle_is_met_as_its_point():
    k = CellComplex("one-point")
    k.add_triangle("p0", "p1", "p2")
    k.add_triangle("p1", "p3", "p4")
    for vid, (x, y) in (("p0", (3, 4)), ("p1", (1, 1)), ("p2", (4, 4)), ("p3", (1, 1)), ("p4", (1, 1))):
        k.add_vertex(vid, point(x, y))
    assert validate_cw(k).lines() == [
        "complex=one-point cells=13 valid=false",
        "  containment: triangle 'p1--p3--p4' is collinear",
    ]


def test_validate_cw_matches_reference():
    rng = Random(4417)
    cases = []
    for build in (
        gallery.two_hole_ribbon,
        gallery.shared_vertex_pair,
        gallery.triple_vortex,
        gallery.five_ribbon_complex,
        gallery.filament_ribbon,
    ):
        cases.append(build().complex)
    for doc in gallery.sample_documents().values():
        cases.extend(doc.complexes.values())
    cases.append(_touching_on_bucket_boundary())
    for _ in range(24):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        k = _perturbed_triangulation(rng, n, m)
        if rng.random() < 0.75:
            _inject(rng, k, n, m)
        cases.append(k)
    cases.extend(_random_soup(rng) for _ in range(120))
    for d in (1, 2, 3, 7):
        cases.extend(_incidence_cases(d))
    late = [_late_soup(rng, d) for _ in range(50) for d in (1, 2, 3, 7)]
    assert sum(map(_has_flat_triangle, late)) >= 30
    invalid = 0
    for k in cases + late:
        got = validate_cw(k)
        assert got.lines() == reference_validate_cw(k).lines(), k.name
        invalid += not got.valid
    assert invalid >= 60


def test_valid_complexes_are_settled_without_clipping(monkeypatch):
    """On a valid triangulation with no flipped triangle, and on the gallery,
    integer signs settle every pair of a triangle with an edge or triangle."""
    calls = []
    clip = complexes.convex_clip
    monkeypatch.setattr(complexes, "convex_clip", lambda *a: calls.append(a) or clip(*a))
    rng = Random(8)
    while True:
        grid = _perturbed_triangulation(rng, 8, 8)
        triangles = [cid for cid, cell in grid.cells.items() if cell.kind is CellKind.TRIANGLE]
        if len(triangles) == 128 and all(
            orientation(*grid.cell_points(cid)) is Orientation.COUNTERCLOCKWISE for cid in triangles
        ):
            break
    for k in (grid, *(build().complex for build in (
        gallery.two_hole_ribbon,
        gallery.shared_vertex_pair,
        gallery.triple_vortex,
        gallery.five_ribbon_complex,
        gallery.filament_ribbon,
    ))):
        assert validate_cw(k).valid, k.name
    assert calls == []
