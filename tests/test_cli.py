"""Tests for the command line interface and report format."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest

import ppst.cli
from ppst.cli import main, run_command
from ppst.models import TensorField
from ppst.parser import MAX_DIGITS
from ppst.report import digest_text
from ppst.spaceforms import get_model, model_catalog
from ppst.specfile import export_text, import_spec

from _models import GOLDEN, PHI_SWAP, chart_spec


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


def test_curvature_residual_witness_names_basis_labels(monkeypatch):
    monkeypatch.setattr(
        ppst.cli, "torsion_residual",
        lambda conn: TensorField.from_entries(conn.model, (1, 2), {(0, 1, 2): 3}))
    report = run_command(["curvature", "--model", "example-frame"])
    assert report.exit_code == 1
    torsion = report.checks[0]
    assert (torsion.name, torsion.passed) == ("torsion_free", False)
    assert torsion.witness == "residual at (e1,e2,xi): 3"
    assert torsion.details is None
    assert all(c.passed for c in report.checks[1:])
    assert "  witness: residual at (e1,e2,xi): 3\n" in report.to_text()
    jsonschema.validate(json.loads(report.to_json()), _schema())


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
    ["check", "--model", "example-frame", "other.spec"],
    ["classify", "/nonexistent/in.spec"],
    ["deform", "--model", "example-frame", "--alpha", "1/0", "--beta", "4"],
    ["deform", "--model", "example-frame", "--alpha", "0", "--beta", "4"],
    ["deform", "--model", "example-frame", "--alpha", "2", "--beta", "-4"],
    ["models", "--export", "example-frame"],
    ["models", "-o", "out.spec"],
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


@pytest.mark.parametrize("command", ["check", "curvature"])
@pytest.mark.parametrize("value, message", [
    ("(e1+e2+xi)^100*xi", "would exceed 1000 terms"),
    ("(2^100)^100*xi", "would exceed 500 digits"),
    ("1" + "0" * 2500 + "*xi", "too many digits"),
    (" + ".join(["0*(e1+e2+xi)^40"] * 20) + " + 4*xi",
     "would build more than 4000 terms in all"),
], ids=["many-terms", "nested-power", "2501-digit-literal", "many-discarded-powers"])
def test_oversized_values_in_spec_exit_2_quickly(tmp_path, command, value, message):
    spec = _hostile_frame_spec(tmp_path, value)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ppst.cli", command, str(spec)],
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2
    assert "status: error" in proc.stdout
    assert message in proc.stdout
    assert "Traceback" not in proc.stderr


def test_largest_admitted_literal_runs_curvature(tmp_path):
    spec = _hostile_frame_spec(tmp_path, "9" * MAX_DIGITS + "*xi")
    proc = subprocess.run([sys.executable, "-m", "ppst.cli", "curvature", str(spec)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "status: pass" in proc.stdout


def test_point_on_frame_model_rejected():
    """No verdict depends on a point, so there is no --point option."""
    with pytest.raises(SystemExit) as info:
        run_command(["check", "--model", "example-frame",
                     "--point", "x=1,y=1,z=1"])
    assert info.value.code == 2


def _spec(tmp_path, text: str, name: str = "probe.spec"):
    spec = tmp_path / name
    spec.write_text(text, encoding="utf-8")
    return spec


# flat-paracosymplectic with g = diag(x, -x, 1): every identical axiom
# holds, but g is degenerate on x = 0, which lies in the domain
DEGENERATE_ON_X_0 = chart_spec(g=("x, 0, 0", "0, -x, 0", "0, 0, 1"),
                               phi=PHI_SWAP, name="flat-g-x")


@pytest.mark.parametrize("command", ["check", "classify"])
def test_metric_degenerate_inside_the_domain_fails(tmp_path, command):
    """The pivot x of g changes sign on x = 0, so no signature holds on
    the whole domain: exit 1, with the pivot as the witness."""
    report = run_command([command, str(_spec(tmp_path, DEGENERATE_ON_X_0))])
    assert report.exit_code == 1
    assert [(c.name, c.witness) for c in report.checks if not c.passed] == [
        ("metric_signature", "pivot x has no fixed sign on the domain")]
    if command == "check":
        assert "metric_inertia" not in report.data


def _undefined_constraint_spec(tmp_path):
    """chart-1+z2 with a constraint 1/(x-1) that is undefined at x = 1,
    so the domain leaves out x = 1."""
    text = (GOLDEN / "chart-1+z2.spec").read_text(encoding="utf-8")
    text = text.replace("constraints = (1+z^2)", "constraints = z, 1/(x-1)")
    assert "1/(x-1)" in text
    spec = tmp_path / "undefined.spec"
    spec.write_text(text, encoding="utf-8")
    return spec


@pytest.mark.parametrize("command",
                         ["check", "classify", "identities", "curvature", "theorem"])
def test_constraint_undefined_at_a_candidate_point_is_skipped(tmp_path, command):
    """A constraint undefined on x = 1 only shrinks the domain, and the
    structure is sound on all of it."""
    report = run_command([command, str(_undefined_constraint_spec(tmp_path))])
    assert report.exit_code == 0
    if command == "check":
        _assert_domain_checks_pass(report)


def _assert_domain_checks_pass(report):
    """Both domain checks pass, and the report names no point."""
    checks = {c.name: c.passed for c in report.checks}
    assert checks["metric_signature"] and checks["eigendistributions"]
    assert report.data == {"metric_inertia": [2, 1, 0],
                           "phi_eigen_dims": [1, 1]}


def test_point_where_a_constraint_is_undefined_rejected(tmp_path):
    """The domain leaves out x = 1, where the constraint 1/(x-1) is
    undefined, so a metric dividing by (x-1)^2 passes; without the
    constraint x = 1 lies in the domain and the check fails there."""
    g = ("1/(x-1)^2, 0, 0", "0, -1/(x-1)^2, 0", "0, 0, 1")
    report = run_command(["check", str(_spec(tmp_path, chart_spec(
        g=g, phi=PHI_SWAP, constraints="1/(x-1)")))])
    assert report.exit_code == 0
    _assert_domain_checks_pass(report)
    report = run_command(["check", str(_spec(tmp_path, chart_spec(
        g=g, phi=PHI_SWAP)))])
    assert report.exit_code == 1
    assert [c.name for c in report.checks if not c.passed] == ["metric_signature"]


@pytest.mark.parametrize("command", ["check", "curvature"])
def test_identically_zero_constraint_is_an_input_error(tmp_path, command):
    """A constraint that vanishes identically leaves no domain: exit 2."""
    text = (GOLDEN / "chart-1+z2.spec").read_text(encoding="utf-8")
    spec = tmp_path / "empty.spec"
    spec.write_text(text.replace("constraints = (1+z^2)", "constraints = x-x"),
                    encoding="utf-8")
    report = run_command([command, str(spec)])
    assert report.exit_code == 2
    assert report.error == ("domain constraint 0 != 0 holds nowhere: "
                            "the domain is empty (field manifold)")


@pytest.mark.parametrize("command", ["check", "curvature"])
def test_constraint_vanishing_at_every_first_candidate_is_sampled(tmp_path, command):
    """A constraint with ten rational roots still leaves a domain, and no
    verdict depends on where they lie: g and phi divide only by 1 + z^2,
    which vanishes nowhere."""
    roots = "(x-1)*(x-2)*(2*x-1)*(x-3)*(x+1)*(x-5)*(x+2)*(2*x-7)*(x-4)*(x+3)"
    text = (GOLDEN / "chart-1+z2.spec").read_text(encoding="utf-8")
    spec = tmp_path / "roots.spec"
    spec.write_text(text.replace("constraints = (1+z^2)", f"constraints = {roots}"),
                    encoding="utf-8")
    report = run_command([command, str(spec)])
    assert report.exit_code == 0
    if command == "check":
        _assert_domain_checks_pass(report)


@pytest.mark.parametrize("command", ["check", "curvature"])
def test_constraint_vanishing_at_every_candidate_is_sampled_on_a_grid(
        tmp_path, command):
    """A constraint that vanishes on eight planes y - x = c still leaves a
    domain, and the structure is sound on all of it."""
    differences = ("y-x+5", "y-x+3", "2*y-2*x+5", "y-x+2", "y-x+1", "y-x-2",
                   "2*y-2*x-7", "2*y-2*x-9")
    text = (GOLDEN / "chart-1+z2.spec").read_text(encoding="utf-8")
    spec = tmp_path / "differences.spec"
    spec.write_text(text.replace(
        "constraints = (1+z^2)",
        "constraints = (1+z^2), " + "*".join(f"({d})" for d in differences)),
        encoding="utf-8")
    report = run_command([command, str(spec)])
    assert report.exit_code == 0
    if command == "check":
        _assert_domain_checks_pass(report)


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


def test_cached_parser_gives_the_reports_of_a_fresh_one(tmp_path, capsys):
    """run_command reuses one parser; a sequence of commands on it, a usage
    error included, reports what a freshly built parser reports."""
    assert ppst.cli._build_parser() is ppst.cli._build_parser()
    spec = tmp_path / "frame.spec"
    spec.write_text(export_text(get_model("example-frame")), encoding="utf-8")
    argvs = [["check", "--model", "example-chart-corrected", "--point",
              "x=2,y=-1,z=1/3"],
             ["classify", str(spec), "--format", "json"],
             ["deform", "--model", "example-frame"],
             ["identities", "--model", "example-frame", "--mode", "sampled"],
             ["no-such-command"],
             ["deform", str(spec), "--alpha", "-2", "--beta", "4"],
             ["check", "--model", "example-chart-corrected"],
             ["models", "--format", "json"]]

    def outcome(run, argv):
        try:
            report = run(argv)
        except SystemExit as exc:
            return exc.code, capsys.readouterr().err
        return report.exit_code, report.to_json(), report.render("text")

    def fresh(argv):
        return ppst.cli._execute(
            ppst.cli._build_parser.__wrapped__().parse_args(argv))

    outcomes = [outcome(run_command, argv) for argv in argvs]
    assert outcomes == [outcome(fresh, argv) for argv in argvs]
    assert [o[0] for o in outcomes] == [2, 0, 2, 2, 2, 0, 0, 0]
    assert "unrecognized arguments: --point" in outcomes[0][1]
    assert "required: --alpha, --beta" in outcomes[2][1]
    # --mode is not read as a prefix of --model
    assert "unrecognized arguments: --mode" in outcomes[3][1]


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
    """One mode: every residual is judged symbolically, and the report
    carries no mode or point.  There is no --mode option (see
    test_abbreviated_options_are_usage_errors)."""
    payload = _validated(["identities", "--model", "example-frame"])
    assert payload["exit_code"] == 0
    assert len(payload["checks"]) == 15
    assert payload["data"] == {}


@pytest.mark.parametrize("argv, unknown", [
    (["identities", "--model", "example-frame", "--mode", "symbolic"], "--mode"),
    (["check", "--model", "example-frame", "--form", "json"], "--form"),
], ids=["mode-for-model", "form-for-format"])
def test_abbreviated_options_are_usage_errors(argv, unknown, capsys):
    """An option is matched by its full name only: a prefix of --model or
    --format is an unrecognized argument, exit 2, not that option."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {unknown}" in captured.err
    assert captured.out == ""


def test_identities_on_failing_axioms_lists_every_axiom_check():
    identities = _validated(["identities", "--model", "example-chart-printed"])
    classify = _validated(["classify", "--model", "example-chart-printed"])
    assert identities["exit_code"] == 1
    assert identities["checks"] == classify["checks"]
    failed = [c for c in identities["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == [
        "metric_phi_compatibility", "eta_is_g_xi", "declared_frame_phi_basis"]
    assert all(c["witness"] and c["details"]["residual"] for c in failed)


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


def test_catalog_check_and_classify_import_no_sympy():
    """The domain rule certifies the catalog charts' pivots and
    denominators by trial division over monomial constraint factors, so
    check and classify never load sympy (a cold import takes about half
    a second).  One process runs them in turn and reports after each."""
    argvs = [[command, "--model", name]
             for name in ("flat-paracosymplectic", "example-chart-printed",
                          "example-chart-corrected", "example-frame")
             for command in ("check", "classify")]
    code = ("import sys\n"
            "from ppst.cli import run_command\n"
            f"for argv in {argvs!r}:\n"
            "    run_command(argv)\n"
            "    print(' '.join(argv), 'sympy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{' '.join(argv)} False"
                                        for argv in argvs]
