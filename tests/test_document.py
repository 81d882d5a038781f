import json
from pathlib import Path

import pytest

from ribbonkit import gallery
from ribbonkit.cli import main
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


def test_serializer_requires_named_references():
    th = gallery.two_hole_ribbon()
    doc = ComplexDocument()
    doc.complexes["K"] = th.complex
    doc.ribbons["ring"] = th.ribbon  # cycles left unnamed on purpose
    with pytest.raises(ValueError):
        serialize_document(doc)
