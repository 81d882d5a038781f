import json
from fractions import Fraction
from pathlib import Path

import pytest

from ribbonkit import cli, gallery
from ribbonkit.cli import main
from ribbonkit.complexes import CellComplex
from ribbonkit.document import (
    ComplexDocument,
    format_rational,
    parse_document,
    parse_rational,
    serialize_document,
)
from ribbonkit.errors import (
    NonCanonicalRational,
    SchemaViolation,
    UnknownTarget,
    UnresolvedReference,
)
from ribbonkit.geometry import Point2, ScaledLoop
from ribbonkit.svgrender import render_svg

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_STEMS = (
    "two_hole_ribbon",
    "shared_vertex_pair",
    "triple_vortex",
    "five_ribbon_complex",
    "filament_ribbon",
)


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_golden_round_trip_byte_identity(stem):
    text = (GOLDEN / f"{stem}.rcx").read_text(encoding="utf-8")
    doc = parse_document(text)
    assert serialize_document(doc) == text


def test_golden_files_match_gallery():
    docs = gallery.sample_documents()
    for stem in GOLDEN_STEMS:
        expected = serialize_document(docs[stem])
        assert (GOLDEN / f"{stem}.rcx").read_text(encoding="utf-8") == expected


def test_parse_rational_canonical_forms():
    assert parse_rational("3/4", "$") == parse_rational(0.75, "$")
    assert format_rational(parse_rational("-2", "$")) == "-2"
    for bad in ("2/4", "2/1", "-0", "+1", " 2", "0/3", "1e3"):
        with pytest.raises(NonCanonicalRational):
            parse_rational(bad, "$")
    with pytest.raises(NonCanonicalRational):
        parse_rational(0.1, "$")
    for bad, message in (
        ("-0", "'-0' is not canonical (expected '0')"),
        ("0/5", "'0/5' is not canonical (expected '0')"),
        ("007", "'007' is not canonical (expected '7')"),
        ("-6/1", "'-6/1' is not canonical (expected '-6')"),
        ("3/04", "'3/04' is not canonical (expected '3/4')"),
        ("1/0", "'1/0' is not a rational"),
    ):
        with pytest.raises(NonCanonicalRational) as info:
            parse_rational(bad, "$.x")
        assert str(info.value) == f"$.x: {message}"
    with pytest.raises(SchemaViolation):
        parse_rational(True, "$")


def _doc_dict():
    return {
        "format_version": 1,
        "complexes": {
            "K": {
                "vertices": {"a": ["0", "0"], "b": ["2", "0"], "c": ["1", "2"]},
                "edges": {"a--b": ["a", "b"]},
                "cycles": {"tri": ["a", "b", "c"]},
            }
        },
    }


def test_parse_minimal_document():
    doc = parse_document(json.dumps(_doc_dict()))
    assert set(doc.cycles) == {"tri"}
    assert doc.target("tri") is doc.cycles["tri"]
    with pytest.raises(UnknownTarget):
        doc.target("nope")


def test_unresolved_vertex_reference():
    payload = _doc_dict()
    payload["complexes"]["K"]["edges"]["a--z"] = ["a", "z"]
    with pytest.raises(UnresolvedReference):
        parse_document(json.dumps(payload))


def test_non_canonical_coordinate():
    payload = _doc_dict()
    payload["complexes"]["K"]["vertices"]["a"] = ["2/4", "0"]
    with pytest.raises(NonCanonicalRational):
        parse_document(json.dumps(payload))


def test_unknown_keys_and_bad_version():
    payload = _doc_dict()
    payload["mystery"] = 1
    with pytest.raises(SchemaViolation):
        parse_document(json.dumps(payload))
    payload = _doc_dict()
    payload["format_version"] = 99
    with pytest.raises(SchemaViolation):
        parse_document(json.dumps(payload))
    with pytest.raises(SchemaViolation):
        parse_document("not json")


def test_duplicate_names_rejected():
    payload = _doc_dict()
    payload["complexes"]["K"]["ribbon_complexes"] = {"tri": []}
    with pytest.raises(SchemaViolation):
        parse_document(json.dumps(payload))
    # A cycle named like its complex clashes with an entry of another table.
    payload = _doc_dict()
    payload["complexes"]["K"]["cycles"] = {"K": ["a", "b", "c"]}
    with pytest.raises(SchemaViolation) as info:
        parse_document(json.dumps(payload))
    assert str(info.value) == "$.complexes.K.cycles.K: name 'K' is already in use"


def test_threshold_and_probes_validation():
    payload = _doc_dict()
    payload["probes"] = ["b2_holes"]
    payload["threshold"] = "1/2"
    doc = parse_document(json.dumps(payload))
    assert doc.probes == ("b2_holes",)
    assert doc.threshold == parse_rational("1/2", "$")
    payload["threshold"] = "-1"
    with pytest.raises(SchemaViolation):
        parse_document(json.dumps(payload))
    payload["threshold"] = "1"
    payload["probes"] = ["no_such_probe"]
    with pytest.raises(SchemaViolation):
        parse_document(json.dumps(payload))


def test_render_deterministic_and_structured():
    text = (GOLDEN / "two_hole_ribbon.rcx").read_text(encoding="utf-8")
    doc1 = parse_document(text)
    doc2 = parse_document(text)
    svg1 = render_svg(doc1, "ring")
    svg2 = render_svg(doc2, "ring")
    assert svg1 == svg2
    assert svg1.count("<polygon") == 2
    assert svg1.count("<circle") == 2
    with pytest.raises(UnknownTarget):
        render_svg(doc1, "nope")


def test_cli_round_trip_outputs(capsys, tmp_path):
    golden = str(GOLDEN / "filament_ribbon.rcx")
    assert main(["betti", golden, "--target", "ring"]) == 0
    out1 = capsys.readouterr().out
    assert "betti_rb=6" in out1
    assert main(["betti", golden, "--target", "ring"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2  # determinism across invocations


def test_cli_near_and_validate(capsys):
    demo = str(GOLDEN / "proximity_demo.rcx")
    assert main(["near", demo, "--a", "ring", "--b", "lower", "--probes", "b1_cycles", "--th", "1"]) == 0
    assert "near=true distance_sq=0" in capsys.readouterr().out
    assert main(["near", demo, "--a", "ring", "--b", "upper", "--probes", "b2_holes", "--th", "1"]) == 0
    assert "near=false distance_sq=1" in capsys.readouterr().out
    assert main(["validate", demo]) == 0


def test_cli_exit_codes(tmp_path, capsys):
    empty = tmp_path / "empty.rcx"
    empty.write_text('{"complexes":{"K":{}},"format_version":1}\n', encoding="utf-8")
    assert main(["validate", str(empty)]) == 2
    capsys.readouterr()

    broken = tmp_path / "broken.rcx"
    broken.write_text("{нет}", encoding="utf-8")
    assert main(["validate", str(broken)]) == 3
    capsys.readouterr()

    golden = str(GOLDEN / "two_hole_ribbon.rcx")
    assert main(["betti", golden, "--target", "missing"]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("spelling", ("1e999", "Infinity", "-Infinity", "NaN"))
def test_cli_rejects_non_finite_coordinate(spelling, tmp_path, capsys):
    path = tmp_path / "non_finite.rcx"
    path.write_text(
        '{"complexes":{"K":{"vertices":{"a":[%s,"0"]}}},"format_version":1}\n' % spelling,
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)
    assert error["error"] == "NonCanonicalRational"
    assert "is not an exact decimal" in error["message"]


_BIG = "1" + "0" * 4999  # past the int-to-string digit limit of Python


# Oversized numbers are schema errors: an exponent is rejected unread, and an
# integer literal past the digit limit is invalid JSON.  The error line quotes
# no more than a prefix of the number.
@pytest.mark.parametrize(
    "old, new, error",
    (
        ('"format_version":1', '"format_version":1,"threshold":"1e5000"', "NonCanonicalRational"),
        ('["-4/5","21/20"]', '["1e5000","21/20"]', "NonCanonicalRational"),
        ('"i0":["0",', '"i0":["1e5000",', "NonCanonicalRational"),
        ('"i0":["0",', '"i0":[%s,' % _BIG, "SchemaViolation"),
        ('"i0":["0",', '"i0":["%s",' % _BIG, "NonCanonicalRational"),
    ),
    ids=("threshold", "hole", "vertex", "integer_literal", "digit_string"),
)
def test_cli_rejects_oversized_numbers(old, new, error, tmp_path, capsys):
    text = (GOLDEN / "two_hole_ribbon.rcx").read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "big.rcx"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert main(["validate", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == error
    assert len(line) < 300


def test_cli_two_vertex_cycle_exits_schema(tmp_path, capsys):
    path = tmp_path / "short.rcx"
    path.write_text(
        '{"complexes":{"K":{"cycles":{"c":["a","b"]},'
        '"vertices":{"a":["0","0"],"b":["1","0"]}}},"format_version":1}\n',
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "SchemaViolation",
        "message": "$.complexes.K.cycles.c: a polygon needs at least 3 vertices, got 2",
    }


RECTS = (
    '{"complexes":{"K":{"cycles":{"a":["a0","a1","a2","a3"],"b":["b0","b1","b2","b3"],'
    '"c":["c0","c1","c2","c3"]},"vertices":{"a0":["0","0"],"a1":["2","0"],"a2":["2","2"],'
    '"a3":["0","2"],"b0":["1","1"],"b1":["3","1"],"b2":["3","3"],"b3":["1","3"],'
    '"c0":["4","0"],"c1":["9/2","0"],"c2":["9/2","1/2"],"c3":["4","1/2"]}}},"format_version":1}\n'
)


def _count_loop_builds(monkeypatch) -> list:
    builds = []
    init = ScaledLoop.__init__
    monkeypatch.setattr(ScaledLoop, "__init__", lambda self, pts: builds.append(1) or init(self, pts))
    return builds


# Parsing builds each cycle's ScaledLoop once; the nerve regions and the
# convexity check reuse it.
def test_cli_nerve_builds_one_loop_per_cycle(capsys, monkeypatch):
    five = GOLDEN / "five_ribbon_complex.rcx"
    assert len(parse_document(five.read_text(encoding="utf-8")).cycles) == 10
    builds = _count_loop_builds(monkeypatch)
    assert main(["nerve", str(five)]) == 0
    assert capsys.readouterr().out == NERVE_STDOUT["five_ribbon_complex"]
    assert len(builds) == 10


def test_cli_nervecheck_builds_one_loop_per_cycle(tmp_path, capsys, monkeypatch):
    rects = tmp_path / "rects.rcx"
    rects.write_text(RECTS, encoding="utf-8")
    builds = _count_loop_builds(monkeypatch)
    assert main(["nervecheck", str(rects)]) == 0
    assert capsys.readouterr().out == (
        "regions=3 resolution=16 passed=true\n"
        "  nerve  b0=2 b1=0\n"
        "  union  b0=2 b1=0\n"
        "  min_boundary_clearance_sq=0\n"
    )
    assert len(builds) == 3


# Four rectangles that form a ring around the square (1, 2) x (1, 2): the
# nerve is a 4-cycle and the union an annulus, so both lines read b1=1.
RING = (
    '{"complexes":{"K":{"cycles":{"e":["e0","e1","e2","e3"],"n":["n0","n1","n2","n3"],'
    '"s":["s0","s1","s2","s3"],"w":["w0","w1","w2","w3"]},"vertices":{"e0":["2","0"],'
    '"e1":["3","0"],"e2":["3","3"],"e3":["2","3"],"n0":["0","2"],"n1":["3","2"],"n2":["3","3"],'
    '"n3":["0","3"],"s0":["0","0"],"s1":["3","0"],"s2":["3","1"],"s3":["0","1"],"w0":["0","0"],'
    '"w1":["1","0"],"w2":["1","3"],"w3":["0","3"]}}},"format_version":1}\n'
)


@pytest.mark.parametrize("resolution", (16, 32))
def test_cli_nervecheck_ring_stdout_is_byte_exact(tmp_path, capsys, resolution):
    ring = tmp_path / "ring.rcx"
    ring.write_text(RING, encoding="utf-8")
    assert main(["nervecheck", str(ring), "--resolution", str(resolution)]) == 0
    assert capsys.readouterr().out == (
        f"regions=4 resolution={resolution} passed=true\n"
        "  nerve  b0=1 b1=1\n"
        "  union  b0=1 b1=1\n"
        "  min_boundary_clearance_sq=0\n"
    )


def test_cli_main_reuses_one_parser_across_calls(capsys, monkeypatch):
    golden = str(GOLDEN / "two_hole_ribbon.rcx")
    argv = ["divide", golden, "--target", "ring", "--grid", "15"]
    first = (main(argv), capsys.readouterr().out)
    assert first[0] == 0 and "ok=true" in first[1]

    def rebuilt():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    with pytest.raises(SystemExit) as exc:
        main(["divide", golden, "--target", "ring", "--grid", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert (main(argv), capsys.readouterr().out) == first


def test_cli_render_writes_identical_files(tmp_path, capsys):
    golden = str(GOLDEN / "five_ribbon_complex.rcx")
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert main(["render", golden, "--target", "five", "-o", str(out1)]) == 0
    assert main(["render", golden, "--target", "five", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_divide_and_nerve(capsys):
    golden = str(GOLDEN / "two_hole_ribbon.rcx")
    assert main(["divide", golden, "--target", "ring", "--grid", "15"]) == 0
    out = capsys.readouterr().out
    assert "ok=true" in out
    five = str(GOLDEN / "five_ribbon_complex.rcx")
    assert main(["nerve", five]) == 0
    out = capsys.readouterr().out
    assert "{bottom,left,upper}" in out


# Exact `ribbonkit nerve` stdout of every golden file holding ribbon complexes.
NERVE_STDOUT = {
    "five_ribbon_complex": (
        "five groups: {bottom,left,upper} {right} {lower_right}\n"
        "five simplices: {bottom} {bottom,left} {bottom,left,upper} {bottom,upper} {left} {left,upper} {lower_right} {right} {upper}\n"
    ),
    "nerve_space_pair": (
        "left_group groups: {bottom,left,upper}\n"
        "left_group simplices: {bottom} {bottom,left} {bottom,left,upper} {bottom,upper} {left} {left,upper} {upper}\n"
        "right_group groups: {base,top}\n"
        "right_group simplices: {base} {base,top} {top}\n"
    ),
    "proximity_demo": (
        "pair groups: {lower,upper}\n"
        "pair simplices: {lower} {lower,upper} {upper}\n"
    ),
    "shared_vertex_pair": (
        "pair groups: {lower,upper}\n"
        "pair simplices: {lower} {lower,upper} {upper}\n"
    ),
}


@pytest.mark.parametrize("stem", sorted(NERVE_STDOUT))
def test_cli_nerve_stdout_is_byte_exact(stem, capsys):
    assert main(["nerve", str(GOLDEN / f"{stem}.rcx")]) == 0
    assert capsys.readouterr().out == NERVE_STDOUT[stem]


# Exact `ribbonkit nervecheck` outcome of every golden file, at two
# resolutions.  Each golden file holds a non-convex cycle (a ribbon's inner
# loop), so the check stops there: exit 4, nothing on stdout.
NERVECHECK_NONCONVEX = {
    "filament_ribbon": "inner",
    "five_ribbon_complex": "bottom_inner",
    "nerve_space_pair": "base_inner",
    "proximity_demo": "inner",
    "shared_vertex_pair": "lower_inner",
    "triple_vortex": "inner",
    "two_hole_ribbon": "inner",
}


@pytest.mark.parametrize("resolution", (16, 32))
@pytest.mark.parametrize("stem", sorted(NERVECHECK_NONCONVEX))
def test_cli_nervecheck_stdout_is_byte_exact(stem, resolution, capsys):
    path = str(GOLDEN / f"{stem}.rcx")
    assert main(["nervecheck", path, "--resolution", str(resolution)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    name = NERVECHECK_NONCONVEX[stem]
    assert captured.err == (
        '{"error": "NonConvexRegion", "message": '
        f'"region {name} is not a closed convex polygon"}}\n'
    )


def test_serializer_requires_named_references():
    th = gallery.two_hole_ribbon()
    doc = ComplexDocument()
    doc.complexes["K"] = th.complex
    doc.ribbons["ring"] = th.ribbon  # cycles left unnamed on purpose
    with pytest.raises(ValueError):
        serialize_document(doc)


def _violation_grid(kind: str) -> ComplexDocument:
    """A perturbed grid triangulation with one kind of injected violation.

    Interior vertices move by fractions with denominators 3, 7 and 16, so
    the document mixes denominators."""
    n, m = {"cross": (3, 3), "overlap": (3, 2), "collinear": (2, 2)}[kind]
    k = CellComplex(f"grid_{kind}")
    for i in range(n + 1):
        for j in range(m + 1):
            x, y = Fraction(i), Fraction(j)
            if 0 < i < n and 0 < j < m:
                x += Fraction((i + 2 * j) % 3 - 1, 3 * (1 + (i + j) % 2))
                y += Fraction((2 * i + j) % 5 - 2, 7 if (i * j) % 2 else 16)
            k.add_vertex(f"v{i}_{j}", Point2(x, y))
    for i in range(n):
        for j in range(m):
            k.add_triangle(f"v{i}_{j}", f"v{i + 1}_{j}", f"v{i + 1}_{j + 1}")
            k.add_triangle(f"v{i}_{j}", f"v{i + 1}_{j + 1}", f"v{i}_{j + 1}")
    if kind == "cross":
        k.add_edge("v1_2", "v2_1", "x_cross")
    elif kind == "overlap":
        k.add_triangle("v1_0", "v2_0", "v1_1", "x_tri")
    else:
        # an edge ending inside a boundary edge, overlapping it in part,
        # and a zero-length edge between two ids at one point
        k.add_vertex("mid", Point2(Fraction(3, 2), Fraction(0)))
        k.add_edge("v0_0", "mid", "x_long")
        k.add_vertex("twin", k.vertices["v1_1"])
        k.add_edge("v1_1", "twin", "x_zero")
    doc = ComplexDocument()
    doc.complexes[k.name] = k
    return doc


# Exact `ribbonkit validate` exit code and stdout of every golden file and
# of three grids with injected violations.
VALIDATE_STDOUT = {
    "filament_ribbon": (0, "complex=Kf cells=41 valid=true\n"),
    "five_ribbon_complex": (0, "complex=Kx cells=126 valid=true\n"),
    "nerve_space_pair": (0, "complex=Kl cells=88 valid=true\ncomplex=Kr cells=61 valid=true\n"),
    "proximity_demo": (0, "complex=K cells=40 valid=true\ncomplex=Kp cells=63 valid=true\n"),
    "shared_vertex_pair": (0, "complex=Kp cells=63 valid=true\n"),
    "triple_vortex": (0, "complex=Kv cells=60 valid=true\n"),
    "two_hole_ribbon": (0, "complex=K cells=40 valid=true\n"),
    "grid_cross": (2, (
        "complex=grid_cross cells=68 valid=false\n"
        "  intersection: cells 'v1_1--v1_2--v2_2','x_cross' share segment (7/6, 17/8)-(1096/771, 3583/2056) not covered by edges\n"
        "  intersection: cells 'v1_1--v2_1--v2_2','x_cross' share segment (1096/771, 3583/2056)-(2, 7/8) not covered by edges\n"
        "  intersection: cells 'v1_1--v2_2','x_cross' meet at (1096/771, 3583/2056) which is not a vertex\n"
    )),
    "grid_overlap": (2, (
        "complex=grid_overlap cells=49 valid=false\n"
        "  intersection: cells 'v1_0--v1_1--v2_1','v1_1--v2_0' share segment (2/3, 8/7)-(145/97, 42/97) not covered by edges\n"
        "  intersection: cells 'v1_0--v1_1--v2_1','x_tri' share a region not covered by triangles\n"
        "  intersection: cells 'v1_0--v2_0--v2_1','v1_1--v2_0' share segment (145/97, 42/97)-(2, 0) not covered by edges\n"
        "  intersection: cells 'v1_0--v2_0--v2_1','x_tri' share a region not covered by triangles\n"
        "  intersection: cells 'v1_0--v2_1','v1_1--v2_0' meet at (145/97, 42/97) which is not a vertex\n"
        "  intersection: cells 'v1_0--v2_1','x_tri' share segment (1, 0)-(145/97, 42/97) not covered by edges\n"
    )),
    "grid_collinear": (2, (
        "complex=grid_collinear cells=37 valid=false\n"
        "  intersection: cells 'v1_0--v2_0','x_long' share segment (1, 0)-(3/2, 0) not covered by edges\n"
        "  intersection: cells 'v1_0--v2_0--v2_1','x_long' share segment (1, 0)-(3/2, 0) not covered by edges\n"
    )),
}


@pytest.mark.parametrize("stem", sorted(VALIDATE_STDOUT))
def test_cli_validate_stdout_is_byte_exact(stem, tmp_path, capsys):
    if stem.startswith("grid_"):
        path = tmp_path / f"{stem}.rcx"
        path.write_text(serialize_document(_violation_grid(stem[5:])), encoding="utf-8")
    else:
        path = GOLDEN / f"{stem}.rcx"
    assert sorted(p.stem for p in GOLDEN.glob("*.rcx")) == sorted(
        s for s in VALIDATE_STDOUT if not s.startswith("grid_")
    )
    code = main(["validate", str(path)])
    assert (code, capsys.readouterr().out) == VALIDATE_STDOUT[stem]


# Exact `ribbonkit divide` stdout of every ribbon target of the golden
# files at five grid densities, recorded before the row-scan labelling.
DIVIDE_STDOUT = json.loads((GOLDEN / "divide_stdout.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("grid", ("1", "2", "15", "40", "120"))
@pytest.mark.parametrize("stem", sorted(p.stem for p in GOLDEN.glob("*.rcx")))
def test_cli_divide_stdout_is_byte_exact(stem, grid, capsys):
    path = GOLDEN / f"{stem}.rcx"
    targets = DIVIDE_STDOUT.get(stem, {})
    assert sorted(targets) == sorted(parse_document(path.read_text(encoding="utf-8")).ribbons)
    for target, by_grid in targets.items():
        assert main(["divide", str(path), "--target", target, "--grid", grid]) == 0
        assert capsys.readouterr() == (by_grid[grid], "")


@pytest.mark.parametrize(
    "argv, error",
    (
        (("--target", "ring", "--grid", "0"), ("ValueError", "grid density must be at least 1")),
        (("--target", "inner", "--grid", "15"), ("RibbonError", "target 'inner' is not a ribbon")),
        (("--target", "K", "--grid", "15"), ("RibbonError", "target 'K' is not a ribbon")),
    ),
)
def test_cli_divide_error_exits(argv, error, capsys):
    assert main(["divide", str(GOLDEN / "two_hole_ribbon.rcx"), *argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": error[0], "message": error[1]}
