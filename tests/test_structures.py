"""Tests for structure axioms, derived tensors, classification, phi-basis."""

from __future__ import annotations

from fractions import Fraction

import pytest

from _models import (
    PHI_SWAP,
    chart_corrected,
    chart_spec,
    chart_printed,
    flat_cosymplectic,
    frame_example,
    golden_structure,
    negative_curvature_frame,
    para_heisenberg,
    recharted_corrected,
)
from ppst import identities
from ppst.cli import run_command
from ppst.identities import run_suite
from ppst.models import ChartModel, FrameModel, TensorField
from ppst.spaceforms import get_model
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
    acc = 0
    for a in range(3):
        for b in range(3):
            acc = acc + ph[a][2] * ph[b][2] * grows[a][b]
    zz = acc + grows[2][2] - ev[2] * ev[2]
    assert str(zz) == "(12*y^2)/(z^2)"
    # the pointwise axioms that do not involve g still hold
    for name in ("phi_squared", "eta_xi", "phi_xi", "eta_phi"):
        assert checks[name].passed, name


# -- the domain rule ------------------------------------------------------------
#
# A chart's domain is R^3 minus the zeros of every constraint's numerator
# and denominator.  metric_signature needs every pivot of g to have a
# fixed sign there, eigendistributions needs no denominator of phi to
# vanish there.


def _failures(text: str) -> list[tuple[str, str]]:
    report = validate_structure(import_text(text))
    return [(c.name, c.witness) for c in report.failures()]


def test_validate_structure_at_constraint_violating_point():
    """example-chart-corrected divides by z, and z = 0 violates its
    constraint z != 0: no check looks there, so the structure passes on
    its domain.  Without the constraint z = 0 lies in the domain, and both
    domain checks name the denominator z."""
    report = validate_structure(import_text(recharted_corrected("z", "z")))
    assert report.passed
    assert report.inertia == (2, 1, 0) and report.eigen_dims == (1, 1)
    assert _failures(recharted_corrected("z")) == [
        ("metric_signature", "denominator of g(d/dx,d/dz) = (-4*y)/(z) "
                             "is not certified nonzero on the domain"),
        ("eigendistributions", "denominator of phi(d/dy,d/dz) = (1)/(z) "
                               "is not certified nonzero on the domain")]


def test_odd_power_of_a_constraint_factor_has_no_fixed_sign():
    """z != 0 on the domain, but z changes sign across z = 0."""
    text = chart_spec(g=("z, 0, 0", "0, -1, 0", "0, 0, 1"), phi=PHI_SWAP,
                      constraints="z")
    assert ("metric_signature", "pivot z has no fixed sign on the domain"
            ) in _failures(text)


def test_even_power_of_a_constraint_factor_has_a_fixed_sign():
    text = chart_spec(g=("z^2, 0, 0", "0, -1, 0", "0, 0, 1"),
                      phi=("0, 1/z, 0", "z, 0, 0", "0, 0, 0"), constraints="z")
    report = validate_structure(import_text(text))
    assert report.passed
    assert report.inertia == (2, 1, 0) and report.eigen_dims == (1, 1)


def test_zero_free_denominator_needs_no_constraint():
    """1 + z^2 is a positive constant plus an even square: it vanishes
    nowhere on R^3, so no constraint has to declare it."""
    text = chart_spec(g=("1/(1+z^2), 0, 0", "0, -1/(1+z^2), 0", "0, 0, 1"),
                      phi=PHI_SWAP)
    assert _failures(text) == []


def test_factors_of_a_product_constraint_cover_a_denominator():
    """(1+y)*(1+z) != 0 makes 1 + y a domain factor: g and phi divide by
    it, and the pivot 1/(1+y)^2 takes it out twice.  Without the
    constraint both checks fail on y = -1."""
    assert _failures(recharted_corrected("1+y", "(1+y)*(1+z)")) == []
    assert _failures(recharted_corrected("1+y")) == [
        ("metric_signature", "denominator of g(d/dx,d/dz) = (-4*y)/(y + 1) "
                             "is not certified nonzero on the domain"),
        ("eigendistributions", "denominator of phi(d/dy,d/dz) = (1)/(y + 1) "
                               "is not certified nonzero on the domain")]


def test_undeclared_denominator_of_phi_fails_eigendistributions():
    """phi with eigenvectors e1 + e2 (+1) and a null vector in ker eta
    (-1) around xi = e3 + (e1 + e2)/x, against the constant g: every
    identical axiom holds and g is fine, but phi is undefined on x = 0."""
    text = chart_spec(g=("1, 0, 0", "0, -1, 0", "0, 0, 1"),
                      phi=("0, 1, -1/x", "1, 0, -1/x", "1/x, -1/x, 0"),
                      xi="1/x, 1/x, 1", eta="1/x, -1/x, 1")
    assert _failures(text) == [
        ("eigendistributions", "denominator of phi(d/dx,d/dz) = (-1)/(x) "
                               "is not certified nonzero on the domain")]


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


# -- phi-basis ----------------------------------------------------------------

def _gram_entry(s, u, v):
    grows = s.g.rows()
    acc = 0
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
    img = [sum((ph[k][m] * x[m] for m in range(3)), 0)
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
    assert basis[0].vec() == (Fraction(5, 8), Fraction(3, 8), 0)
    eps = phi_basis_eps(t)
    for a in range(3):
        for b in range(3):
            expected = eps[a] if a == b else 0
            assert _gram_entry(t, basis[a], basis[b]) == expected
    assert basis[0].vec()[2] == 0  # X1 stays inside ker eta


def _orthonormal_frame(name: str) -> ParacontactStructure:
    """A frame whose g is diag(+1 x n, -1 x n, +1) and whose phi swaps e_i
    and e_{n+i}, with no declared frame, so build_phi_basis constructs one."""
    if name.endswith(".spec"):
        return golden_structure(name)
    if name == "para-heisenberg-7-c4":
        return para_heisenberg(7, 4)
    s = get_model(name)
    return ParacontactStructure(s.model, s.phi, s.xi, s.g, s.eta, name=s.name)


@pytest.mark.parametrize("name", [
    "heisenberg5-c4.spec", "heisenberg5-c-2.spec", "para-heisenberg-7-c4",
    "example-frame", "constant-negative-curvature"])
def test_phi_basis_of_an_orthonormal_frame_is_the_frame(name):
    # u+ = e_i + e_{n+i}, u- = e_{n+i} - e_i and p = -2 give
    # X_i = u+/2 + u-/p = e_i and Y_i = u+/2 - u-/p = e_{n+i}
    s = _orthonormal_frame(name)
    assert s.declared_frame is None
    basis = build_phi_basis(s)
    d = s.model.dim
    assert [b.vec() for b in basis] == [
        tuple(int(a == i) for i in range(d)) for a in range(d)]
    assert all(type(c) is int for b in basis for c in b.vec())
    assert identities._Context(s).labels == s.model.labels


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
