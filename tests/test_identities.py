"""Tests for the quasi-para-Sasakian identity suite."""

from __future__ import annotations

import pytest

from _models import (
    chart_corrected,
    chart_printed,
    flat_cosymplectic,
    frame_example,
    negative_curvature_frame,
)
from ppst import identities
from ppst.identities import IDENTITY_KEYS, check_single, run_suite
from ppst.models import FrameModel, TensorField
from ppst.structures import ParacontactStructure, StructureError


def test_identity_keys_canonical_order():
    assert IDENTITY_KEYS == ("p1", "P5", "P6a", "P6b", "P6c", "P2", "P3", "P4",
                             "R1", "R1.1", "R1.2", "R1.3", "RXYY", "S1", "S2")


def test_frame_example_full_suite_symbolic():
    report = run_suite(frame_example())
    assert report.mode == "symbolic"
    assert report.passed
    assert list(report.results) == list(IDENTITY_KEYS)
    for key, res in report.results.items():
        assert res.passed, (key, res.witness)
        assert res.mode == "symbolic"
    assert report.results["R1.3"].details == {"S(xi,xi)": "-8", "tr(A^2)": "8"}
    assert report.results["S2"].details == {
        "r": "8", "r*": "-24", "tr(phi A)": "4"}


def test_frame_example_full_suite_sampled_agrees_with_symbolic():
    # frame scalars are constants, so sampling evaluates them as themselves
    sampled = run_suite(frame_example(), mode="sampled")
    symbolic = run_suite(frame_example(), mode="symbolic")
    assert sampled.mode == "sampled" and len(sampled.sample_points) == 5
    assert sampled.passed
    assert list(sampled.results) == list(IDENTITY_KEYS)
    assert ({k: (r.passed, r.details) for k, r in sampled.results.items()}
            == {k: (r.passed, r.details) for k, r in symbolic.results.items()})


def test_corrected_chart_full_suite_symbolic():
    report = run_suite(chart_corrected())
    assert report.passed, [(k, r.witness) for k, r in report.results.items()
                           if not r.passed]
    assert report.results["S2"].details["r"] == "8"
    assert report.results["S2"].details["r*"] == "-24"
    assert report.results["S2"].details["tr(phi A)"] == "-4"


def test_flat_model_full_suite():
    report = run_suite(flat_cosymplectic())
    assert report.passed
    assert report.results["S2"].details == {"r": "0", "r*": "0", "tr(phi A)": "0"}


def test_negative_curvature_full_suite():
    report = run_suite(negative_curvature_frame())
    assert report.passed
    assert report.results["S2"].details == {
        "r": "-6", "r*": "2", "tr(phi A)": "2"}
    assert report.results["R1.3"].details == {"S(xi,xi)": "-2", "tr(A^2)": "2"}


def test_sampled_mode_on_chart():
    report = run_suite(chart_corrected(), mode="sampled")
    assert report.mode == "sampled"
    assert report.passed
    assert len(report.sample_points) >= 5
    # every point satisfies the chart constraint z != 0
    assert all(p["z"] != 0 for p in report.sample_points)
    for res in report.results.values():
        assert res.mode == "sampled"


def test_sampled_mode_rejects_too_few_points():
    with pytest.raises(ValueError):
        run_suite(frame_example(), mode="sampled", points=[{}, {}])


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run_suite(frame_example(), mode="numeric")


def test_check_single():
    res = check_single(frame_example(), "S2")
    assert res.passed
    assert res.details["tr(phi A)"] == "4"
    res = check_single(frame_example(), "p1")
    assert res.passed and res.key == "p1"
    with pytest.raises(KeyError):
        check_single(frame_example(), "S3")


def test_suite_refuses_non_qps_structure():
    # [e2, xi] = e2 makes dPhi(e1,e2,xi) nonzero: not quasi-para-Sasakian
    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1), {(1, 2): (0, 1, 0)})
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    s = ParacontactStructure(model, phi, xi, model.orthonormal_metric())
    assert s.axiom_report().passed
    assert not s.classification().flags["quasi_para_sasakian"]
    with pytest.raises(StructureError) as err:
        run_suite(s)
    assert "quasi-para-Sasakian" in str(err.value)


def test_suite_refuses_axiom_failure():
    with pytest.raises(StructureError) as err:
        run_suite(chart_printed())
    assert err.value.report is not None


def test_failure_witness_formatting():
    # corrupt a precomputed pairing to exercise the failure reporting path
    ctx = identities._Context(frame_example())
    ctx.gA[0][1] = ctx.model.one
    res = identities._judge(ctx, "p1", "symbolic", [])
    assert not res.passed
    assert res.witness == "residual at (e1,e2): 3"
    res = identities._judge(ctx, "p1", "sampled", [{}])
    assert not res.passed
    assert "point" in res.witness and ": 3" in res.witness


def test_report_serialization():
    report = run_suite(frame_example())
    d = report.to_dict()
    assert d["structure"] == "example-frame"
    assert d["passed"] is True
    keys = [e["key"] for e in d["identities"]]
    assert keys == sorted(IDENTITY_KEYS)
    for entry in d["identities"]:
        assert entry["passed"] is True
        assert entry["mode"] == "symbolic"


def test_basis_labels_in_context():
    ctx = identities._Context(frame_example())
    assert ctx.labels == ("e1", "e2", "xi")
    ctx_chart = identities._Context(chart_corrected())
    assert ctx_chart.labels == ("X1", "Y1", "xi")
