"""Tests for the structure spec file format."""

from __future__ import annotations

import pytest

from ppst import specfile
from ppst.spaceforms import model_catalog
from ppst.specfile import (
    SpecFileError,
    export_spec,
    export_text,
    import_spec,
    import_text,
)

from _models import chart_corrected, flat_cosymplectic, frame_example


def test_export_frame_example_canonical_text():
    text = export_text(frame_example())
    assert text.splitlines() == [
        "# ppst structure spec v1",
        "",
        "[manifold]",
        "name = example-frame",
        "mode = frame",
        "dim = 3",
        "labels = e1, e2, xi",
        "signature = +1, -1, +1",
        "",
        "[brackets]",
        "e1, e2 = 4*xi",
        "",
        "[g]",
        "row1 = 1, 0, 0",
        "row2 = 0, -1, 0",
        "row3 = 0, 0, 1",
        "",
        "[phi]",
        "row1 = 0, 1, 0",
        "row2 = 1, 0, 0",
        "row3 = 0, 0, 0",
        "",
        "[xi]",
        "components = 0, 0, 1",
        "",
        "[eta]",
        "components = 0, 0, 1",
        "",
        "[frame]",
        "field1 = 1, 0, 0",
        "field2 = 0, 1, 0",
        "field3 = 0, 0, 1",
    ]


def test_export_chart_includes_constraints_and_frame():
    text = export_text(chart_corrected())
    assert "mode = chart" in text
    assert "coordinates = x, y, z" in text
    assert "constraints = z" in text
    assert "[frame]" in text
    assert "field1 = 4*y, 0, z" in text


def test_flat_round_trip_is_structurally_equal():
    s = flat_cosymplectic()
    s2 = import_text(export_text(s))
    assert type(s2.model) is type(s.model)
    assert s2.model.coordinates == s.model.coordinates
    assert s2.g.data == s.g.data
    assert s2.phi.data == s.phi.data
    assert s2.xi.data == s.xi.data
    assert s2.eta.data == s.eta.data
    assert s2.eta_derived == s.eta_derived
    assert s2.name == s.name
    assert s2.classification().label == s.classification().label


@pytest.mark.parametrize("name", [e.name for e in model_catalog()])
def test_catalog_round_trips_bit_identically(name):
    entry = next(e for e in model_catalog() if e.name == name)
    text = export_text(entry.build())
    again = export_text(import_text(text))
    assert again == text


def test_file_round_trip(tmp_path):
    path = tmp_path / "example.spec"
    export_spec(frame_example(), path)
    s = import_spec(path)
    assert s.name == "example-frame"
    assert s.model.bracket_vector(0, 1)[2] == 4
    assert export_text(s) == path.read_text(encoding="utf-8")


def test_missing_file():
    with pytest.raises(SpecFileError, match="cannot read"):
        import_spec("/nonexistent/structure.spec")


MINIMAL_CHART = """\
[manifold]
mode = chart
dim = 3
coordinates = x, y, z

[g]
row1 = 1, 0, 0
row2 = 0, -1, 0
row3 = 0, 0, 1

[phi]
row1 = 0, 1, 0
row2 = 1, 0, 0
row3 = 0, 0, 0

[xi]
components = 0, 0, 1
"""


def test_import_parses_each_distinct_entry_once(monkeypatch):
    """The 21 entries of MINIMAL_CHART hold three distinct texts, so its
    import parses three times; a second import parses them afresh."""
    texts = []
    parse = specfile.parse_expr
    monkeypatch.setattr(specfile, "parse_expr", lambda text, variables: (
        texts.append(text) or parse(text, variables)))
    import_text(MINIMAL_CHART)
    assert sorted(texts) == ["-1", "0", "1"]
    import_text(MINIMAL_CHART)
    assert sorted(texts[3:]) == ["-1", "0", "1"]


def test_omitted_eta_is_derived():
    s = import_text(MINIMAL_CHART)
    assert s.eta_derived
    assert [str(c) for c in s.eta.vec()] == ["0", "0", "1"]
    assert s.classification().label == "paracosymplectic"


def test_derived_marker_round_trips():
    s = import_text(MINIMAL_CHART)
    text = export_text(s)
    assert "derived = true" in text
    s2 = import_text(text)
    assert s2.eta_derived
    assert export_text(s2) == text


def test_explicit_eta_not_derived():
    text = MINIMAL_CHART + "\n[eta]\ncomponents = 0, 0, 1\n"
    s = import_text(text)
    assert not s.eta_derived


def test_comments_and_reordering_canonicalize():
    shuffled = """\
# a comment line
[xi]
components = 0, 0, 1   # trailing comment

[phi]
row2 = 1, 0, 0
row1 = 0, 1, 0
row3 = 0, 0, 0

[manifold]
dim = 3
mode = chart
coordinates = x, y, z

[g]
row1 = 1, 0, 0
row2 = 0, -1, 0
row3 = 0, 0, 1
"""
    assert export_text(import_text(shuffled)) == export_text(import_text(MINIMAL_CHART))


def _replace_section(text: str, header: str, body: str) -> str:
    lines = text.splitlines()
    out: list[str] = []
    skipping = False
    for line in lines:
        if line.startswith("["):
            skipping = line == header
            if skipping:
                out.append(header)
                out.extend(body.splitlines())
                continue
        if not skipping:
            out.append(line)
    return "\n".join(out) + "\n"


def test_g_shape_mismatch_reports_field():
    bad = _replace_section(MINIMAL_CHART, "[g]",
                           "row1 = 1, 0\nrow2 = 0, -1")
    with pytest.raises(SpecFileError, match="g shape mismatch") as info:
        import_text(bad)
    assert info.value.field == "g"


def test_row_length_mismatch_reports_row_field():
    bad = _replace_section(MINIMAL_CHART, "[g]",
                           "row1 = 1, 0\nrow2 = 0, -1, 0\nrow3 = 0, 0, 1")
    with pytest.raises(SpecFileError, match="g shape mismatch") as info:
        import_text(bad)
    assert info.value.field == "g.row1"


def test_bad_expression_reports_component_field():
    bad = MINIMAL_CHART.replace("row1 = 1, 0, 0", "row1 = 1, 0, 3*^2", 1)
    with pytest.raises(SpecFileError, match="bad expression") as info:
        import_text(bad)
    assert info.value.field == "g.row1[3]"


def test_unknown_variable_in_expression():
    bad = MINIMAL_CHART.replace("row1 = 0, 1, 0", "row1 = 0, w, 0", 1)
    with pytest.raises(SpecFileError) as info:
        import_text(bad)
    assert info.value.field == "phi.row1[2]"


def test_unknown_section_rejected():
    with pytest.raises(SpecFileError, match="unknown section"):
        import_text(MINIMAL_CHART + "\n[extra]\nkey = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(SpecFileError, match="unknown key") as info:
        import_text(MINIMAL_CHART.replace("[xi]\n", "[xi]\nspin = 1\n"))
    assert info.value.field == "xi.spin"


def test_duplicate_section_rejected():
    with pytest.raises(SpecFileError, match="duplicate section"):
        import_text(MINIMAL_CHART + "\n[manifold]\nmode = chart\n")


def test_duplicate_key_rejected():
    with pytest.raises(SpecFileError, match="duplicate key"):
        import_text(MINIMAL_CHART.replace("dim = 3\n", "dim = 3\ndim = 3\n"))


def test_entry_outside_section_rejected():
    with pytest.raises(SpecFileError, match="outside any section"):
        import_text("mode = chart\n" + MINIMAL_CHART)


def test_malformed_lines_rejected():
    with pytest.raises(SpecFileError, match="malformed section header"):
        import_text("[manifold\nmode = chart\n")
    with pytest.raises(SpecFileError, match="key = value"):
        import_text("[manifold]\njust words\n")


def test_missing_mode_and_bad_mode():
    with pytest.raises(SpecFileError, match="missing key 'mode'") as info:
        import_text(MINIMAL_CHART.replace("mode = chart\n", ""))
    assert info.value.field == "manifold.mode"
    with pytest.raises(SpecFileError, match="mode must be"):
        import_text(MINIMAL_CHART.replace("mode = chart", "mode = global"))


def test_dim_must_match_coordinates():
    with pytest.raises(SpecFileError, match="3 coordinates listed"):
        import_text(MINIMAL_CHART.replace("dim = 3", "dim = 5"))
    with pytest.raises(SpecFileError, match="expected an integer"):
        import_text(MINIMAL_CHART.replace("dim = 3", "dim = three"))


def test_coordinate_names_validated():
    with pytest.raises(SpecFileError, match="identifiers"):
        import_text(MINIMAL_CHART.replace("coordinates = x, y, z",
                                          "coordinates = x, y, 2z"))
    with pytest.raises(SpecFileError, match="distinct"):
        import_text(MINIMAL_CHART.replace("coordinates = x, y, z",
                                          "coordinates = x, y, x"))


def test_xi_component_count():
    bad = _replace_section(MINIMAL_CHART, "[xi]", "components = 0, 1")
    with pytest.raises(SpecFileError, match="expected 3 components"):
        import_text(bad)


def test_brackets_require_frame_mode():
    with pytest.raises(SpecFileError, match="requires frame mode"):
        import_text(MINIMAL_CHART + "\n[brackets]\nx, y = 0\n")


MINIMAL_FRAME = """\
[manifold]
mode = frame
dim = 3
labels = e1, e2, xi
signature = +1, -1, +1

[brackets]
e1, e2 = 4*xi

[g]
row1 = 1, 0, 0
row2 = 0, -1, 0
row3 = 0, 0, 1

[phi]
row1 = 0, 1, 0
row2 = 1, 0, 0
row3 = 0, 0, 0

[xi]
components = 0, 0, 1
"""


def test_frame_mode_import():
    s = import_text(MINIMAL_FRAME)
    assert s.model.labels == ("e1", "e2", "xi")
    assert s.model.signature == (1, -1, 1)
    assert [str(c) for c in s.model.bracket_vector(0, 1)] == ["0", "0", "4"]
    assert s.classification().label == "proper quasi-para-Sasakian"


def test_bracket_combination_syntax():
    text = MINIMAL_FRAME.replace("e1, e2 = 4*xi", "e1, e2 = 2*e2 + 2*xi")
    s = import_text(text)
    assert [str(c) for c in s.model.bracket_vector(0, 1)] == ["0", "2", "2"]
    assert "e1, e2 = 2*e2 + 2*xi" in export_text(s)


def test_bracket_errors():
    with pytest.raises(SpecFileError, match="frame order"):
        import_text(MINIMAL_FRAME.replace("e1, e2 = 4*xi", "e2, e1 = 4*xi"))
    with pytest.raises(SpecFileError, match="two frame labels"):
        import_text(MINIMAL_FRAME.replace("e1, e2 = 4*xi", "e1, e9 = 4*xi"))
    with pytest.raises(SpecFileError, match="linear combination") as info:
        import_text(MINIMAL_FRAME.replace("e1, e2 = 4*xi", "e1, e2 = xi*xi"))
    assert info.value.field == "brackets.e1, e2"
    with pytest.raises(SpecFileError, match="linear combination"):
        import_text(MINIMAL_FRAME.replace("e1, e2 = 4*xi", "e1, e2 = 1 + xi"))
    with pytest.raises(SpecFileError, match="linear combination"):
        import_text(MINIMAL_FRAME.replace("e1, e2 = 4*xi", "e1, e2 = e1/xi"))


def test_jacobi_violation_reported():
    text = MINIMAL_FRAME.replace(
        "e1, e2 = 4*xi", "e1, e2 = xi\ne1, xi = e2\ne2, xi = e2")
    with pytest.raises(SpecFileError, match="Jacobi"):
        import_text(text)


def test_signature_validation():
    with pytest.raises(SpecFileError, match="must be \\+1 or -1"):
        import_text(MINIMAL_FRAME.replace("signature = +1, -1, +1",
                                          "signature = +1, -2, +1"))
    with pytest.raises(SpecFileError, match="signature"):
        import_text(MINIMAL_FRAME.replace("signature = +1, -1, +1",
                                          "signature = +1, -1"))
    with pytest.raises(SpecFileError, match="plus"):
        import_text(MINIMAL_FRAME.replace("signature = +1, -1, +1",
                                          "signature = +1, +1, +1"))


def test_eta_section_validation():
    with pytest.raises(SpecFileError, match="not both"):
        import_text(MINIMAL_CHART
                    + "\n[eta]\nderived = true\ncomponents = 0, 0, 1\n")
    with pytest.raises(SpecFileError, match="derived must be 'true'"):
        import_text(MINIMAL_CHART + "\n[eta]\nderived = false\n")
    with pytest.raises(SpecFileError, match="needs 'components'"):
        import_text(MINIMAL_CHART + "\n[eta]\n")


def test_frame_section_shape():
    bad = MINIMAL_CHART + "\n[frame]\nfield1 = 1, 0, 0\n"
    with pytest.raises(SpecFileError, match="frame shape mismatch"):
        import_text(bad)


def test_declared_frame_from_file_is_verified():
    text = (MINIMAL_CHART
            + "\n[frame]\nfield1 = 1, 1, 0\nfield2 = 0, 1, 0\nfield3 = 0, 0, 1\n")
    s = import_text(text)
    report = s.axiom_report()
    assert any(c.name == "declared_frame_phi_basis" for c in report.failures())
