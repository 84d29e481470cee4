"""Tests for the command line interface and report format."""

from __future__ import annotations

import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from ppst.cli import main, run_command
from ppst.report import digest_text
from ppst.spaceforms import model_catalog
from ppst.specfile import export_text, import_spec


def _schema() -> dict:
    text = (resources.files("ppst") / "schema" / "report-v1.json").read_text()
    return json.loads(text)


def _validated(argv: list[str]) -> dict:
    report = run_command(argv)
    payload = json.loads(report.to_json())
    jsonschema.validate(payload, _schema())
    return payload


def test_curvature_example_frame_json():
    payload = _validated(["curvature", "--model", "example-frame"])
    assert payload["status"] == "pass"
    assert payload["exit_code"] == 0
    assert payload["input"]["source"] == "catalog:example-frame"
    assert payload["data"]["r"] == "8"
    assert payload["data"]["curvature"]["R(e1,e2)e2"] == "-12*e1"
    assert payload["data"]["curvature"]["R(e1,e2)e1"] == "-12*e2"
    assert payload["data"]["curvature"]["R(e1,xi)xi"] == "-4*e1"
    assert payload["data"]["curvature"]["R(e1,xi)e1"] == "4*xi"
    assert payload["data"]["connection"]["nabla_e1 e2"] == "2*xi"
    assert payload["data"]["S(xi,xi)"] == "-8"
    assert payload["data"]["r_star"] == "-24"
    assert payload["data"]["trace_phi_A"] == "4"
    names = [c["name"] for c in payload["checks"]]
    assert names == ["torsion_free", "metric_compatibility",
                     "curvature_antisymmetry", "first_bianchi"]
    assert all(c["passed"] for c in payload["checks"])


def test_check_printed_chart_fails_with_witnesses():
    report = run_command(["check", "--model", "example-chart-printed"])
    assert report.exit_code == 1
    assert report.status == "fail"
    text = report.to_text()
    assert "eta != g(.,xi)" in text
    assert "28*y^2" in text
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"metric_phi_compatibility", "eta_is_g_xi",
                      "declared_frame_phi_basis"}


def test_deform_then_classify_round_trip(tmp_path):
    out = tmp_path / "out.spec"
    report = run_command(["deform", "--model", "example-frame",
                          "--alpha", "-2", "--beta", "4", "-o", str(out)])
    assert report.exit_code == 0
    assert report.data["deformed_classification"] == "para-Sasakian"
    assert out.exists()
    report2 = run_command(["classify", str(out)])
    assert report2.exit_code == 0
    assert report2.data["classification"] == "para-Sasakian"
    assert "para-Sasakian" in report2.to_text()


def test_deform_homothetic_parameters():
    report = run_command(["deform", "--model", "example-frame",
                          "--alpha", "2", "--beta", "4"])
    assert report.exit_code == 0
    assert report.data["homothetic"] is True
    assert report.data["deformed_classification"] == "proper quasi-para-Sasakian"
    keys = [c.name for c in report.checks]
    assert keys == ["axioms", "i00", "i5", "i6", "i777"]


def test_deform_fractional_parameters():
    report = run_command(["deform", "--model", "example-frame",
                          "--alpha", "3/2", "--beta", "1/2"])
    assert report.exit_code == 0
    assert report.data["alpha"] == "3/2"
    assert report.data["beta"] == "1/2"


def test_schema_error_exit_2(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("""\
[manifold]
mode = chart
dim = 3
coordinates = x, y, z

[g]
row1 = 1, 0
row2 = 0, -1

[phi]
row1 = 0, 1, 0
row2 = 1, 0, 0
row3 = 0, 0, 0

[xi]
components = 0, 0, 1
""", encoding="utf-8")
    payload = _validated(["check", str(bad)])
    assert payload["exit_code"] == 2
    assert payload["status"] == "error"
    assert "g shape mismatch" in payload["error"]
    # a schema violation is an input error, never a mathematical failure
    assert payload["exit_code"] != 1


def test_mathematical_failure_never_exit_2():
    report = run_command(["classify", "--model", "example-chart-printed"])
    assert report.exit_code == 1
    assert any(not c.passed for c in report.checks)


@pytest.mark.parametrize("argv", [
    ["check"],
    ["check", "--model", "no-such-model"],
    ["check", "--model", "example-frame", "--point", "x=1,y=2,z=0"],
    ["check", "--model", "flat-paracosymplectic", "--point", "x=1,q=2,z=1"],
    ["check", "--model", "flat-paracosymplectic", "--point", "x=1"],
    ["deform", "--model", "example-frame", "--alpha", "0", "--beta", "4"],
    ["deform", "--model", "example-frame", "--alpha", "2", "--beta", "-4"],
    ["models", "--export", "example-frame"],
    ["models", "--export", "no-such-model", "-o", "/dev/null"],
])
def test_input_errors_exit_2(argv):
    report = run_command(argv)
    assert report.exit_code == 2
    assert report.status == "error"


def _hostile_frame_spec(tmp_path, value: str):
    entry = next(e for e in model_catalog() if e.name == "example-frame")
    text = export_text(entry.build()).replace("e1, e2 = 4*xi", f"e1, e2 = {value}")
    assert value in text
    spec = tmp_path / "hostile.spec"
    spec.write_text(text, encoding="utf-8")
    return spec


def test_division_by_zero_in_spec_exits_2(tmp_path, capsys):
    spec = _hostile_frame_spec(tmp_path, "1/0*xi")
    assert main(["check", str(spec)]) == 2
    out = capsys.readouterr().out
    assert "status: error" in out
    assert "division by zero" in out


@pytest.mark.parametrize("value, message", [
    ("2^100000000*xi", "exponent exceeds"),
    ("1" + "0" * 5000 + "*xi", "too many digits"),
], ids=["huge-exponent", "long-literal"])
def test_oversized_numbers_in_spec_exit_2(tmp_path, value, message):
    spec = _hostile_frame_spec(tmp_path, value)
    proc = subprocess.run([sys.executable, "-m", "ppst.cli", "check", str(spec)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "status: error" in proc.stdout
    assert message in proc.stdout
    assert "Traceback" not in proc.stderr


def test_point_on_frame_model_rejected():
    report = run_command(["check", "--model", "example-frame",
                          "--point", "x=1,y=1,z=1"])
    assert report.exit_code == 2
    assert "chart-mode" in report.error


def test_check_at_custom_point():
    report = run_command(["check", "--model", "example-chart-corrected",
                          "--point", "x=2,y=-1,z=1/3"])
    assert report.exit_code == 0
    assert report.data["sample_point"] == {"x": "2", "y": "-1", "z": "1/3"}


def test_both_spec_and_model_rejected(tmp_path):
    spec = tmp_path / "s.spec"
    spec.write_text("x", encoding="utf-8")
    report = run_command(["check", str(spec), "--model", "example-frame"])
    assert report.exit_code == 2


def test_missing_file_exit_2():
    report = run_command(["classify", "/nonexistent/in.spec"])
    assert report.exit_code == 2
    assert "cannot read" in report.error


def test_usage_errors_from_argparse():
    with pytest.raises(SystemExit) as info:
        run_command(["deform", "--model", "example-frame"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run_command(["no-such-command"])
    assert info.value.code == 2


def test_theorem_branches():
    payload = _validated(["theorem", "--model", "constant-negative-curvature"])
    assert payload["exit_code"] == 0
    assert payload["data"]["theorem_status"] == "pass"
    assert payload["data"]["K"] == "-1"
    assert len(payload["checks"]) == 8

    payload = _validated(["theorem", "--model", "example-frame"])
    assert payload["exit_code"] == 0
    assert payload["data"]["theorem_status"] == "not-applicable"
    assert "hypotheses not met" in payload["data"]["reason"]

    payload = _validated(["theorem", "--model", "flat-paracosymplectic"])
    assert payload["exit_code"] == 0
    assert payload["data"]["theorem_status"] == "pass"
    assert payload["data"]["K"] == "0"

    report = run_command(["theorem", "--model", "example-chart-printed"])
    assert report.exit_code == 1


def test_identities_command_and_modes():
    payload = _validated(["identities", "--model", "example-frame"])
    assert payload["exit_code"] == 0
    assert len(payload["checks"]) == 15
    assert payload["data"]["mode"] == "symbolic"

    payload = _validated(["identities", "--model", "example-chart-corrected",
                          "--mode", "sampled"])
    assert payload["exit_code"] == 0
    assert payload["data"]["mode"] == "sampled"
    assert len(payload["data"]["sample_points"]) == 5


def test_identities_refuses_non_qps(tmp_path):
    spec = tmp_path / "nq.spec"
    spec.write_text("""\
[manifold]
mode = frame
dim = 3
labels = e1, e2, xi
signature = +1, -1, +1

[brackets]
e2, xi = e2

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
""", encoding="utf-8")
    report = run_command(["identities", str(spec)])
    assert report.exit_code == 1
    assert report.checks[0].name == "hypothesis_quasi_para_sasakian"
    assert not report.checks[0].passed


def test_models_listing():
    payload = _validated(["models"])
    assert payload["exit_code"] == 0
    names = set(payload["data"]["models"])
    assert names == {e.name for e in model_catalog()}
    assert payload["data"]["models"]["example-chart-printed"]["known_inconsistent"]
    assert not payload["data"]["models"]["example-frame"]["known_inconsistent"]


def test_models_export_writes_canonical_spec(tmp_path):
    out = tmp_path / "ef.spec"
    report = run_command(["models", "--export", "example-frame",
                          "-o", str(out)])
    assert report.exit_code == 0
    s = import_spec(out)
    assert s.name == "example-frame"
    assert report.digest == digest_text(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", ["check", "classify", "curvature", "theorem"])
@pytest.mark.parametrize("entry", [e.name for e in model_catalog()])
def test_catalog_reports_validate_against_schema(command, entry):
    report = run_command([command, "--model", entry])
    payload = json.loads(report.to_json())
    jsonschema.validate(payload, _schema())
    assert payload["exit_code"] in (0, 1)


def test_text_output_is_deterministic(capsys):
    code1 = main(["classify", "--model", "example-frame"])
    out1 = capsys.readouterr().out
    code2 = main(["classify", "--model", "example-frame"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert "data classification: proper quasi-para-Sasakian" in out1


def test_digest_matches_canonical_export():
    report = run_command(["classify", "--model", "flat-paracosymplectic"])
    entry = next(e for e in model_catalog() if e.name == "flat-paracosymplectic")
    assert report.digest == digest_text(export_text(entry.build()))


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ppst.cli", "curvature", "--model",
         "example-frame", "--format", "json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["data"]["r"] == "8"
