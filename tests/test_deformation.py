"""Tests for structure deformations and parameter recovery."""

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
from ppst import deformation
from ppst.deformation import (
    DeformationParams,
    apply_deformation,
    detect_homothetic_origin,
    proportionality_constant,
    verify_deformation_relations,
)
from ppst.models import ChartModel, FrameModel, TensorField
from ppst.structures import ParacontactStructure, StructureError


def test_params_validation():
    p = DeformationParams(Fraction(-2), Fraction(4))
    assert p.homothetic
    assert not DeformationParams(3, 2).homothetic
    with pytest.raises(ValueError):
        DeformationParams(0, 1)
    with pytest.raises(ValueError):
        DeformationParams(1, 0)
    with pytest.raises(ValueError):
        DeformationParams(1, -4)
    assert str(DeformationParams(-2, 4)) == "(alpha=-2, beta=4)"


def test_params_compose():
    p = DeformationParams(2, 3).compose(DeformationParams(Fraction(1, 2), 5))
    assert p == DeformationParams(1, 15)


def test_apply_deformation_components():
    s = frame_example()
    t = apply_deformation(s, DeformationParams(-2, 4))
    assert t.phi == s.phi
    assert t.xi.vec() == (0, 0, Fraction(-1, 2))
    assert t.eta.data == (0, 0, -2)
    assert t.g.rows() == TensorField.from_rows(
        s.model, (0, 2), [[4, 0, 0], [0, -4, 0], [0, 0, 4]]).rows()
    assert t.axiom_report().passed


def test_deformed_example_is_para_sasakian():
    t = apply_deformation(frame_example(), DeformationParams(-2, 4))
    cls = t.classification()
    assert cls.label == "para-Sasakian"
    assert cls.flags["paracontact_metric"]
    assert cls.flags["normal"]
    assert cls.flags["K_paracontact"]
    assert not cls.flags["proper_quasi_para_sasakian"]


def test_spec_sign_pair_would_not_be_para_sasakian():
    # the same magnitudes with alpha positive land on the opposite sign of
    # deta and do not produce a para-Sasakian structure
    t = apply_deformation(frame_example(), DeformationParams(2, 4))
    cls = t.classification()
    assert cls.label != "para-Sasakian"
    assert not cls.flags["paracontact_metric"]


def test_deformation_preserves_qps_class():
    t = apply_deformation(frame_example(), DeformationParams(3, 2))
    cls = t.classification()
    assert cls.flags["quasi_para_sasakian"]


def test_composition_law():
    s = frame_example()
    p1 = DeformationParams(-2, 4)
    p2 = DeformationParams(3, 2)
    once = apply_deformation(s, p1.compose(p2))
    twice = apply_deformation(apply_deformation(s, p1), p2)
    assert once.g == twice.g
    assert once.eta == twice.eta
    assert once.xi == twice.xi
    assert once.phi == twice.phi


def test_relations_frame_example():
    for params in (DeformationParams(-2, 4), DeformationParams(3, 2),
                   DeformationParams(Fraction(1, 2), Fraction(5, 3))):
        report = verify_deformation_relations(frame_example(), params)
        assert report.passed, [(k, r.witness) for k, r in report.results.items()
                               if not r.passed]
        assert set(report.results) == {"i00", "i5", "i6", "i777"}


def test_relations_chart_mode():
    report = verify_deformation_relations(chart_corrected(),
                                          DeformationParams(3, 2))
    assert report.passed, [(k, r.witness) for k, r in report.results.items()
                           if not r.passed]


def test_relations_flat_model():
    report = verify_deformation_relations(flat_cosymplectic(),
                                          DeformationParams(-1, 7))
    assert report.passed


def test_failed_law_witnesses(monkeypatch):
    # shift nabla_{e1} e2 of the deformed structure by e1 + e2 + xi
    def corrupted(s, params):
        st = apply_deformation(s, params)
        conn = st.connection
        shift = TensorField.from_entries(
            conn.model, (1, 2), {(k, 0, 1): 1 for k in range(3)})
        st.connection = conn + shift
        return st

    monkeypatch.setattr(deformation, "apply_deformation", corrupted)
    report = verify_deformation_relations(frame_example(),
                                          DeformationParams(-2, 4))
    assert {k: (r.passed, r.witness) for k, r in report.results.items()} == {
        "i00": (False, "residual at (e1,e2): 1"),
        "i5": (True, None),
        "i6": (True, None),
        "i777": (False, "residual at (e1,e2,e2): -2"),
    }


def test_proportionality_constant():
    assert proportionality_constant(frame_example()) == 2
    assert proportionality_constant(chart_corrected()) == -2
    assert proportionality_constant(flat_cosymplectic()) == 0
    assert proportionality_constant(negative_curvature_frame()) == 1
    # A not proportional to phi: h != 0 breaks proportionality
    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1),
                       {(0, 2): (1, 0, 0)})
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    s = ParacontactStructure(model, phi, xi, model.orthonormal_metric())
    assert proportionality_constant(s) is None


def _shape_stub(model, phi_rows, a_rows):
    """A stand-in structure carrying only phi and A."""
    return SimpleNamespace(model=model,
                           phi=TensorField.from_rows(model, (1, 1), phi_rows),
                           A=TensorField.from_rows(model, (1, 1), a_rows))


def test_proportionality_constant_none_paths():
    frame = FrameModel(("e1", "e2", "xi"), (1, -1, 1))
    chart = ChartModel(("x", "y", "z"))
    phi = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    two_phi = [[0, 2, 0], [2, 0, 0], [0, 0, 0]]
    assert proportionality_constant(_shape_stub(frame, phi, two_phi)) == 2
    # no nonzero phi entry to read lambda off
    zero = [[0] * 3] * 3
    assert proportionality_constant(_shape_stub(frame, zero, zero)) is None
    # a ratio that is not constant
    x_phi = [[0, "x", 0], ["x", 0, 0], [0, 0, 0]]
    assert proportionality_constant(_shape_stub(chart, phi, x_phi)) is None
    # A(e1)^1 != 0 where phi has no entry, before phi's first nonzero entry
    early = [[1, 2, 0], [2, 0, 0], [0, 0, 0]]
    assert proportionality_constant(_shape_stub(frame, phi, early)) is None
    # after lambda = 2 is read off, a later entry breaks it
    late = [[0, 2, 0], [3, 0, 0], [0, 0, 0]]
    assert proportionality_constant(_shape_stub(frame, phi, late)) is None
    late = [[0, 2, 0], [2, 0, 0], [0, 0, 1]]
    assert proportionality_constant(_shape_stub(frame, phi, late)) is None


def test_detect_homothetic_origin_frame():
    lam, params = detect_homothetic_origin(frame_example())
    assert lam == 2
    assert params == DeformationParams(-2, 4)
    assert params.homothetic


def test_detect_homothetic_origin_chart():
    lam, params = detect_homothetic_origin(chart_corrected())
    assert lam == -2
    assert params == DeformationParams(2, 4)


def test_detect_homothetic_origin_negative_curvature():
    lam, params = detect_homothetic_origin(negative_curvature_frame())
    assert lam == 1
    assert params == DeformationParams(-1, 1)


def test_detect_returns_none_for_flat():
    assert detect_homothetic_origin(flat_cosymplectic()) is None


def test_detect_refuses_non_qps():
    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1), {(1, 2): (0, 1, 0)})
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    s = ParacontactStructure(model, phi, xi, model.orthonormal_metric())
    with pytest.raises(StructureError):
        detect_homothetic_origin(s)
    with pytest.raises(StructureError):
        detect_homothetic_origin(chart_printed())
