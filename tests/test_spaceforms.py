"""Tests for constant-curvature analysis, the catalog, and the search."""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest

from _models import (
    chart_corrected,
    chart_printed,
    flat_cosymplectic,
    frame_example,
    negative_curvature_frame,
)
from ppst import spaceforms
from ppst.models import ChartModel, FrameModel, TensorField
from ppst.spaceforms import (
    check_constant_curvature_theorem,
    constant_curvature_of,
    get_model,
    model_catalog,
    search_constant_negative_curvature,
)
from ppst.structures import ParacontactStructure, StructureError


# -- constant curvature -------------------------------------------------------

def test_constant_curvature_values():
    assert constant_curvature_of(negative_curvature_frame()) == -1
    assert constant_curvature_of(flat_cosymplectic()) == 0
    assert constant_curvature_of(frame_example()) is None
    assert constant_curvature_of(chart_corrected()) is None


def test_constant_curvature_of_deformed_example():
    assert constant_curvature_of(get_model("parasasakian-deformed")) is None


def _curvature_stub(model, metric_rows, K, extra=()):
    """A stand-in structure with R(e_i,e_j)e_k = K(g_jk e_i - g_ik e_j),
    plus the (i, j, k, l) -> value entries of ``extra``."""
    d, zero = model.dim, model.zero
    g = TensorField.from_rows(model, (0, 2), metric_rows)
    rows, K, extra = g.rows(), model.scalar(K), dict(extra)

    def apply(i, j, k):
        return tuple(K * ((rows[j][k] if l == i else zero)
                          - (rows[i][k] if l == j else zero))
                     + model.scalar(extra.get((i, j, k, l), 0))
                     for l in range(d))

    return SimpleNamespace(model=model, g=g,
                           curvature=SimpleNamespace(apply=apply))


def test_constant_curvature_of_none_paths():
    frame = FrameModel(("e1", "e2", "xi"), (1, -1, 1))
    chart = ChartModel(("x", "y", "z"))
    g = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    assert constant_curvature_of(_curvature_stub(frame, g, -1)) == -1
    assert constant_curvature_of(_curvature_stub(chart, g, 3)) == 3
    # no nonzero coefficient to read K off
    assert constant_curvature_of(_curvature_stub(frame, [[0] * 3] * 3, 0)) is None
    # a ratio that is not constant
    assert constant_curvature_of(_curvature_stub(chart, g, "x")) is None
    # R(e1,e1)e1 has no coefficient, and comes before the first nonzero one
    assert constant_curvature_of(
        _curvature_stub(frame, g, -1, {(0, 0, 0, 0): 1})) is None
    # after K = -1 is read off (e1,e2,e1,e2), a later coefficient breaks it
    assert constant_curvature_of(
        _curvature_stub(frame, g, -1, {(2, 1, 1, 2): 5})) is None
    assert constant_curvature_of(
        _curvature_stub(frame, g, -1, {(2, 2, 2, 2): 5})) is None


# -- theorem ------------------------------------------------------------------

def test_theorem_negative_curvature_all_assertions():
    report = check_constant_curvature_theorem(negative_curvature_frame())
    assert report.status == "pass"
    assert report.K == -1
    names = [a.name for a in report.assertions]
    assert names == ["K_nonpositive", "A_proportional_to_phi",
                     "K_equals_minus_lambda_squared", "trace_phi_A",
                     "ricci_form", "star_ricci_form", "shape_phi_pairing",
                     "homothetic_origin_recovered"]
    assert all(a.passed for a in report.assertions)
    lam_assert = report.assertions[1]
    assert lam_assert.witness == "lambda = 1"


def test_theorem_flat_branch():
    report = check_constant_curvature_theorem(flat_cosymplectic())
    assert report.status == "pass"
    assert report.K == 0
    names = [a.name for a in report.assertions]
    assert names == ["K_nonpositive", "A_vanishes", "nabla_phi_vanishes",
                     "paracosymplectic"]
    assert all(a.passed for a in report.assertions)


def test_theorem_not_applicable_non_constant():
    report = check_constant_curvature_theorem(frame_example())
    assert report.status == "not-applicable"
    assert report.quasi_para_sasakian
    assert report.K is None
    assert report.reason == "hypotheses not met: not of constant curvature"
    assert report.assertions == []


def test_theorem_not_applicable_non_qps():
    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1), {(1, 2): (0, 1, 0)})
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    s = ParacontactStructure(model, phi, xi, model.orthonormal_metric())
    report = check_constant_curvature_theorem(s)
    assert report.status == "not-applicable"
    assert not report.quasi_para_sasakian
    assert "not quasi-para-Sasakian" in report.reason


def test_theorem_raises_on_axiom_failure():
    with pytest.raises(StructureError):
        check_constant_curvature_theorem(chart_printed())


def test_theorem_violation_branch(monkeypatch):
    # A positive constant K cannot coexist with the hypotheses, so the
    # violation branch is exercised by stubbing the curvature extraction.
    monkeypatch.setattr(spaceforms, "constant_curvature_of",
                        lambda s: Fraction(1))
    report = check_constant_curvature_theorem(frame_example())
    assert report.status == "violation"
    assert report.assertions[0].name == "K_nonpositive"
    assert not report.assertions[0].passed
    assert report.assertions[0].witness == "K = 1 > 0"


def test_theorem_residual_witnesses():
    s = negative_curvature_frame()
    curv = s.curvature
    curv.ricci = curv.ricci + TensorField.from_rows(
        s.model, (0, 2), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    report = check_constant_curvature_theorem(s)
    assert report.status == "violation"
    failed = [(a.name, a.witness) for a in report.assertions if not a.passed]
    assert failed == [("ricci_form", "residual at (e1,e2): 1")]
    # the K = 0 branch reads the tensor residual A itself
    s = flat_cosymplectic()
    s.A = TensorField.from_rows(
        s.model, (1, 1), [[0, 0, 0], [0, 0, "y"], [0, 0, 0]])
    report = check_constant_curvature_theorem(s)
    failed = [(a.name, a.witness) for a in report.assertions if not a.passed]
    assert failed == [("A_vanishes", "residual at (d/dy,d/dz): y")]


def test_theorem_report_serialization():
    d = check_constant_curvature_theorem(negative_curvature_frame()).to_dict()
    assert d["status"] == "pass"
    assert d["K"] == "-1"
    assert d["quasi_para_sasakian"] is True
    assert d["constant_curvature"] is True
    assert len(d["assertions"]) == 8


# -- catalog ------------------------------------------------------------------

def test_catalog_names_and_order():
    names = [e.name for e in model_catalog()]
    assert names == ["flat-paracosymplectic", "example-frame",
                     "example-chart-printed", "example-chart-corrected",
                     "parasasakian-deformed", "constant-negative-curvature"]


def test_catalog_expected_classes():
    for entry in model_catalog():
        s = entry.build()
        if entry.known_inconsistent:
            assert not s.axiom_report().passed
            continue
        assert s.axiom_report().passed, entry.name
        assert s.classification().label == entry.expected_class, entry.name


def test_catalog_matches_reference_constructions():
    pairs = (
        ("flat-paracosymplectic", flat_cosymplectic()),
        ("example-frame", frame_example()),
        ("example-chart-printed", chart_printed()),
        ("example-chart-corrected", chart_corrected()),
        ("constant-negative-curvature", negative_curvature_frame()),
    )
    for name, ref in pairs:
        s = get_model(name)
        # separate model instances: compare components, not tensor identity
        assert s.phi.data == ref.phi.data, name
        assert s.g.data == ref.g.data, name
        assert s.xi.data == ref.xi.data, name
        assert s.eta.data == ref.eta.data, name


def test_get_model_unknown():
    with pytest.raises(KeyError) as err:
        get_model("nope")
    assert "available" in str(err.value)


def test_deformed_catalog_entry():
    s = get_model("parasasakian-deformed")
    assert s.name == "parasasakian-deformed"
    assert s.classification().label == "para-Sasakian"
    assert s.g.rows()[0][0] == 4


# -- search -------------------------------------------------------------------

def test_search_default_grid():
    hits = search_constant_negative_curvature()
    assert len(hits) == 6
    assert all(h.K == -1 for h in hits)
    assert all(h.lam in (1, -1) for h in hits)
    target = (((0, 1), (Fraction(0), Fraction(2), Fraction(2))),)
    assert any(h.brackets == target for h in hits)


def test_search_limit():
    hits = search_constant_negative_curvature(limit=1)
    assert len(hits) == 1


def test_search_prefilter_is_conservative():
    fast = search_constant_negative_curvature(values=(0, 2), prefilter=True)
    slow = search_constant_negative_curvature(values=(0, 2), prefilter=False)
    assert [(h.brackets, h.K, h.lam) for h in fast] \
        == [(h.brackets, h.K, h.lam) for h in slow]
    assert len(fast) == 2


def test_search_hit_build_roundtrip():
    hits = search_constant_negative_curvature(limit=1)
    s = hits[0].build()
    assert s.axiom_report().passed
    assert s.classification().flags["quasi_para_sasakian"]
    assert constant_curvature_of(s) == hits[0].K
    report = check_constant_curvature_theorem(s)
    assert report.status == "pass"
