"""Tests for structure axioms, derived tensors, classification, phi-basis."""

from __future__ import annotations

from fractions import Fraction

import pytest

from _models import (
    chart_corrected,
    chart_printed,
    flat_cosymplectic,
    frame_example,
    negative_curvature_frame,
)
from ppst.cli import run_command
from ppst.identities import run_suite
from ppst.models import ChartModel, FrameModel, TensorField
from ppst.specfile import import_text
from ppst.structures import (
    ParacontactStructure,
    StructureError,
    build_phi_basis,
    classify,
    phi_basis_eps,
    validate_structure,
)


def _check_map(report):
    return {c.name: c for c in report.checks}


# -- axioms -------------------------------------------------------------------

def test_frame_example_passes_all_axioms():
    report = frame_example().axiom_report()
    assert report.passed, [c.name for c in report.failures()]
    assert report.inertia == (2, 1, 0)
    assert report.eigen_dims == (1, 1)
    names = {c.name for c in report.checks}
    assert {"phi_squared", "eta_xi", "metric_phi_compatibility", "eta_is_g_xi",
            "phi_xi", "eta_phi", "metric_signature", "eigendistributions",
            "declared_frame_phi_basis"} <= names


def test_chart_corrected_passes_all_axioms():
    report = chart_corrected().axiom_report()
    assert report.passed, [(c.name, c.witness) for c in report.failures()]
    assert report.inertia == (2, 1, 0)


def test_chart_printed_fails_with_witnesses():
    report = chart_printed().axiom_report()
    assert not report.passed
    checks = _check_map(report)
    # eta is not g(., xi) under the printed metric
    eta_check = checks["eta_is_g_xi"]
    assert not eta_check.passed
    assert "eta != g(.,xi)" in eta_check.witness
    assert eta_check.details["residual"] == "(-2*y)/(z)"
    # the declared orthonormal frame is not orthonormal: g(e1,e1) = 1 + 28y^2
    frame_check = checks["declared_frame_phi_basis"]
    assert not frame_check.passed
    assert "g(e1,e1)" in frame_check.witness
    assert frame_check.details["residual"] == "28*y^2"
    assert "28*y^2 + 1" in frame_check.witness
    # compatibility fails; first failing slot is (dx, dz) with residual 2y/z
    compat = checks["metric_phi_compatibility"]
    assert not compat.passed
    assert compat.details["residual"] == "(2*y)/(z)"
    # the zz slot carries the quadratic residual 12y^2/z^2
    s = chart_printed()
    ph, grows, ev = s.phi.rows(), s.g.rows(), s.eta.data
    acc = s.model.zero
    for a in range(3):
        for b in range(3):
            acc = acc + ph[a][2] * ph[b][2] * grows[a][b]
    zz = acc + grows[2][2] - ev[2] * ev[2]
    assert str(zz) == "(12*y^2)/(z^2)"
    # the pointwise axioms that do not involve g still hold
    for name in ("phi_squared", "eta_xi", "phi_xi", "eta_phi"):
        assert checks[name].passed, name


def test_validate_structure_at_custom_point():
    s = chart_corrected()
    report = validate_structure(s, {"x": Fraction(0), "y": Fraction(1),
                                    "z": Fraction(3)})
    assert report.passed
    assert report.sample_point == {"x": 0, "y": 1, "z": 3}


def test_validate_structure_at_constraint_violating_point():
    # z != 0 is a domain constraint of the chart; the pointwise checks fail
    # with the violation as witness instead of raising
    report = validate_structure(chart_corrected(), {"x": Fraction(1),
                                                    "y": Fraction(1),
                                                    "z": Fraction(0)})
    checks = _check_map(report)
    for name in ("metric_signature", "eigendistributions"):
        assert not checks[name].passed
        assert "constraint" in checks[name].witness
    assert report.inertia is None and report.eigen_dims is None


def test_signature_failure_detected():
    model = ChartModel(("x", "y", "z"))
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    g = TensorField.from_rows(model, (0, 2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    s = ParacontactStructure(model, phi, xi, g)
    report = s.axiom_report()
    checks = _check_map(report)
    assert not checks["metric_signature"].passed
    assert not checks["metric_phi_compatibility"].passed


ASYMMETRIC_METRIC_SPEC = """\
[manifold]
name = asymmetric-metric
mode = frame
dim = 3
labels = e1, e2, xi
signature = +1, -1, +1

[brackets]
e1, e2 = 4*xi

[g]
row1 = 1, 2, 0
row2 = -2, -1, 0
row3 = 0, 0, 1

[phi]
row1 = 0, 1, 0
row2 = 1, 0, 0
row3 = 0, 0, 0

[xi]
components = 0, 0, 1

[eta]
components = 0, 0, 1
"""


def test_asymmetric_metric_fails_signature_with_the_pair(tmp_path):
    """The symmetric part diag(1, -1, 1) has the right inertia, so only the
    asymmetric pair can witness the failure; every other axiom holds."""
    report = import_text(ASYMMETRIC_METRIC_SPEC).axiom_report()
    assert [c.name for c in report.failures()] == ["metric_signature"]
    assert (_check_map(report)["metric_signature"].witness
            == "g(e1,e2) = 2, g(e2,e1) = -2")
    assert report.inertia is None
    spec = tmp_path / "asymmetric.spec"
    spec.write_text(ASYMMETRIC_METRIC_SPEC, encoding="utf-8")
    cli_report = run_command(["check", str(spec)])
    assert cli_report.exit_code == 1
    assert "metric_inertia" not in cli_report.data


# -- derived tensors ----------------------------------------------------------

def test_derived_eta_matches_explicit():
    s = frame_example()
    t = ParacontactStructure(s.model, s.phi, s.xi, s.g, name="derived-eta")
    assert t.eta_derived
    assert t.eta == s.eta
    assert t.axiom_report().passed


def test_fundamental_form_example():
    s = frame_example()
    # Phi(e1, e2) = g(e1, phi e2) = g(e1, e1) = 1, antisymmetric, xi-degenerate
    assert s.Phi[(0, 1)] == 1
    assert s.Phi[(1, 0)] == -1
    for j in range(3):
        assert s.Phi[(2, j)] == 0 and s.Phi[(j, 2)] == 0
    assert s.Phi[(0, 0)] == 0 and s.Phi[(1, 1)] == 0


def test_A_is_2phi_on_frame_example():
    s = frame_example()
    expected = TensorField.from_rows(s.model, (1, 1),
                                     [[0, 2, 0], [2, 0, 0], [0, 0, 0]])
    assert s.A == expected


def test_A_is_minus_2phi_on_corrected_chart():
    s = chart_corrected()
    assert (s.A - s.phi * Fraction(-2)).is_zero


def test_h_vanishes_on_examples():
    assert frame_example().h.is_zero
    assert chart_corrected().h.is_zero
    assert flat_cosymplectic().h.is_zero


def test_N1_vanishes_on_examples():
    assert frame_example().N1.is_zero
    assert chart_corrected().N1.is_zero
    assert flat_cosymplectic().N1.is_zero


# -- classification -----------------------------------------------------------

def test_frame_example_is_proper_quasi_para_sasakian():
    cls = frame_example().classification()
    assert cls.label == "proper quasi-para-Sasakian"
    assert cls.flags == {
        "paracontact_metric": False,
        "K_paracontact": False,
        "para_sasakian": False,
        "paracosymplectic": False,
        "normal": True,
        "quasi_para_sasakian": True,
        "proper_quasi_para_sasakian": True,
    }
    # witness for the failed paracontact condition carries the residual slot
    assert "Phi - deta" in cls.witnesses["paracontact_metric"]


def test_classification_witness_texts():
    assert frame_example().classification().witnesses == {
        "paracontact_metric": "Phi - deta at (e1,e2): 3",
        "K_paracontact": "Phi - deta at (e1,e2): 3",
        "para_sasakian": "Phi - deta at (e1,e2): 3",
        "paracosymplectic": "deta at (e1,e2): -2",
    }
    # [e2, xi] = e2: neither normal nor dPhi-closed
    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1), {(1, 2): (0, 1, 0)})
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    s = ParacontactStructure(model, phi, xi, model.orthonormal_metric())
    assert s.classification().witnesses == {
        "paracontact_metric": "Phi - deta at (e1,e2): 1",
        "K_paracontact": "Phi - deta at (e1,e2): 1",
        "normal": "N1 at (e1,e1,xi): -1",
        "para_sasakian": "N1 at (e1,e1,xi): -1",
        "paracosymplectic": "dPhi at (e1,e2,xi): 1/3",
        "quasi_para_sasakian": "N1 at (e1,e1,xi): -1",
    }


def test_corrected_chart_is_proper_quasi_para_sasakian():
    cls = chart_corrected().classification()
    assert cls.label == "proper quasi-para-Sasakian"
    assert cls.flags["quasi_para_sasakian"]
    assert not cls.flags["para_sasakian"]


def test_flat_model_is_paracosymplectic():
    cls = flat_cosymplectic().classification()
    assert cls.label == "paracosymplectic"
    assert cls.flags["paracosymplectic"]
    assert cls.flags["quasi_para_sasakian"]
    assert not cls.flags["proper_quasi_para_sasakian"]
    assert not cls.flags["paracontact_metric"]


def test_negative_curvature_frame_is_proper_qps():
    cls = negative_curvature_frame().classification()
    assert cls.label == "proper quasi-para-Sasakian"


def test_classify_refuses_axiom_failure():
    with pytest.raises(StructureError) as err:
        classify(chart_printed())
    assert err.value.report is not None
    failed = {c.name for c in err.value.report.failures()}
    assert "eta_is_g_xi" in failed
    assert "declared_frame_phi_basis" in failed


def test_to_dict_roundtrip_shapes():
    cls = frame_example().classification()
    d = cls.to_dict()
    assert d["label"] == "proper quasi-para-Sasakian"
    assert set(d["flags"]) == {
        "paracontact_metric", "K_paracontact", "para_sasakian",
        "paracosymplectic", "normal", "quasi_para_sasakian",
        "proper_quasi_para_sasakian"}
    rep = frame_example().axiom_report().to_dict()
    assert rep["passed"] is True
    assert isinstance(rep["checks"], list)


# -- phi-basis ----------------------------------------------------------------

def _gram_entry(s, u, v):
    grows = s.g.rows()
    acc = s.model.zero
    for i in range(s.model.dim):
        for j in range(s.model.dim):
            acc = acc + u.vec()[i] * v.vec()[j] * grows[i][j]
    return acc


def test_declared_frame_is_used_as_phi_basis():
    s = frame_example()
    basis = s.phi_basis
    assert basis == s.declared_frame
    assert phi_basis_eps(s) == (1, -1, 1)


def test_phi_basis_constructed_without_declared_frame():
    s = flat_cosymplectic()
    basis = build_phi_basis(s)
    assert len(basis) == 3
    eps = phi_basis_eps(s)
    for a in range(3):
        for b in range(3):
            expected = eps[a] if a == b else 0
            assert _gram_entry(s, basis[a], basis[b]) == expected
    # Y1 = phi X1 and the last element is xi
    ph = s.phi.rows()
    x = basis[0].vec()
    img = [sum((ph[k][m] * x[m] for m in range(3)), s.model.zero)
           for k in range(3)]
    assert tuple(img) == basis[1].vec()
    assert basis[2] == s.xi


def test_phi_basis_on_chart_with_function_coefficients():
    s = ParacontactStructure(chart_corrected().model, chart_corrected().phi,
                             chart_corrected().xi, chart_corrected().g,
                             chart_corrected().eta, name="no-declared-frame")
    basis = build_phi_basis(s)
    eps = phi_basis_eps(s)
    for a in range(3):
        for b in range(3):
            expected = eps[a] if a == b else 0
            assert _gram_entry(s, basis[a], basis[b]) == expected


def test_phi_basis_on_deformed_metric_is_rational():
    # a rescaled metric (as produced by deformations) must still admit an
    # exact square-root-free phi-basis: 4g - 3 eta(x)eta = diag(4,-4,1)
    s = frame_example()
    g2 = TensorField.from_rows(s.model, (0, 2),
                               [[4, 0, 0], [0, -4, 0], [0, 0, 1]])
    t = ParacontactStructure(s.model, s.phi, s.xi, g2, name="scaled")
    basis = build_phi_basis(t)
    assert basis[0].vec() == (Fraction(17, 16), Fraction(15, 16), 0)
    eps = phi_basis_eps(t)
    for a in range(3):
        for b in range(3):
            expected = eps[a] if a == b else 0
            assert _gram_entry(t, basis[a], basis[b]) == expected
    assert basis[0].vec()[2] == 0  # X1 stays inside ker eta


def test_build_phi_basis_rejects_bad_declared_frame():
    s = chart_printed()
    with pytest.raises(StructureError) as err:
        build_phi_basis(s)
    assert "declared frame" in str(err.value)


def test_eigendistribution_failure_reported():
    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1))
    # phi = Id - eta(x)xi satisfies phi^2 = Id - eta(x)xi but has a
    # 2-dimensional +1 eigenspace: not almost paracontact
    phi = TensorField.from_rows(model, (1, 1), [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    s = ParacontactStructure(model, phi, xi, model.orthonormal_metric())
    checks = _check_map(s.axiom_report())
    assert checks["phi_squared"].passed
    assert not checks["eigendistributions"].passed
    assert "expected (1, 1)" in checks["eigendistributions"].witness
    assert not checks["metric_phi_compatibility"].passed


def test_null_frame_structure():
    # g pairs e1 with e2 (both null), so every diagonal entry of g but the
    # last is zero; phi = diag(1, -1, 0) and [e1, e2] = 2 xi
    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1), {(0, 1): (0, 0, 2)})
    g = TensorField.from_rows(model, (0, 2), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    phi = TensorField.from_rows(model, (1, 1), [[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    eta = TensorField.covector(model, (0, 0, 1))
    s = ParacontactStructure(model, phi, xi, g, eta, name="null-frame")
    report = s.axiom_report()
    assert report.passed and report.inertia == (2, 1, 0)
    assert s.classification().label == "para-Sasakian"
    suite = run_suite(s)
    assert suite.passed and len(suite.results) == 15


def test_structure_repr_and_valence_guards():
    s = frame_example()
    assert "example-frame" in repr(s)
    with pytest.raises(Exception):
        ParacontactStructure(s.model, s.xi, s.xi, s.g)  # phi has wrong valence
