"""Tests for the quasi-para-Sasakian identity suite."""

from __future__ import annotations

import random
import sys
from itertools import combinations, product

import pytest

from _models import (
    chart_corrected,
    chart_printed,
    flat_cosymplectic,
    frame_example,
    golden_structure,
    negative_curvature_frame,
)
from ppst import identities, linalg
from ppst.identities import IDENTITY_KEYS, run_suite
from ppst.linalg import bilinear, dot, invert_matrix, mat_vec, nullspace
from ppst.models import FrameModel, TensorField
from ppst.spaceforms import check_constant_curvature_theorem, get_model
from ppst.structures import ParacontactStructure, StructureError


@pytest.mark.parametrize("spec", ["heisenberg5-c4.spec", "heisenberg5-c-2.spec",
                                  "chart-1+z2.spec", "chart-1+y2+z.spec"])
def test_curvature_tables_match_the_operator(spec):
    """gR and gRphi against g(R(b_a, b_b) u, w), with the operator
    R(b_a, b_b) summed from the Riemann components, and A_phi_b and gAphi
    against A and g applied to the computed phi b_c: the tables read
    through the phi permutation are the ones computed at phi b_c."""
    s = golden_structure(spec)
    ctx = identities._Context(s)
    g, ph, A = s.g.rows(), s.phi.rows(), s.A.rows()
    cols = [b.vec() for b in s.phi_basis]
    phi_cols = [mat_vec(ph, c) for c in cols]
    d = len(cols)
    for c in range(d):
        assert list(ctx.A_phi_b[c]) == list(mat_vec(A, phi_cols[c]))
        for a in range(d):
            assert ctx.gAphi[a][c] == bilinear(g, mat_vec(A, cols[a]),
                                               phi_cols[c])
    R = s.curvature
    for a, b in product(range(d), repeat=2):
        op = [[sum((R[(l, k, i, j)] * cols[a][i] * cols[b][j]
                    for i, j in product(range(d), repeat=2)), 0)
               for k in range(d)] for l in range(d)]
        for c, e in product(range(d), repeat=2):
            assert ctx.gR[a][b][c][e] == bilinear(
                g, mat_vec(op, cols[c]), cols[e])
            assert ctx.gRphi[a][b][c][e] == bilinear(
                g, mat_vec(op, phi_cols[c]), phi_cols[e])


@pytest.mark.parametrize("field, change, message", [
    (0, lambda f, basis: f * 2, r"^phi-basis: phi\(X1\) != Y1$"),
    (-1, lambda f, basis: f + basis[0], r"^phi-basis: phi\(xi\) != 0$"),
], ids=["X1-doubled", "xi-plus-X1"])
def test_context_refuses_a_basis_that_phi_does_not_permute(field, change,
                                                           message):
    """The phi-tables are read through sigma only once phi b_c = b_sigma(c)
    and phi xi = 0 hold as computed; a basis that breaks either is
    refused, naming the field."""
    s = golden_structure("heisenberg5-c4.spec")
    basis = list(s.phi_basis)
    basis[field] = change(basis[field], basis)
    s.phi_basis = tuple(basis)  # replaces the cached property's value
    with pytest.raises(StructureError, match=message):
        identities._Context(s)


def test_identity_suite_kernel_calls(monkeypatch):
    """Pinned contraction-kernel work of one run_suite on heisenberg5-c4
    past the structure's own lazy data: 380 dot and 520 mat_vec calls.
    Each row of gR is one mat_vec, gRphi is gR read through the phi
    permutation, and RXYY builds its A- and eta-terms once per (a, b)
    block by mat_vec (3,505 dot and 280 mat_vec calls when gR and gRphi
    took d^4 dots each and RXYY three dots per argument tuple)."""
    s = golden_structure("heisenberg5-c4.spec")
    s.classification(), s.phi_basis, s.ricci, s.star_ricci
    calls = {"dot": 0, "mat_vec": 0}
    for name in calls:
        fn = getattr(linalg, name)

        def counted(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)
        for key, module in list(sys.modules.items()):
            if key.startswith("ppst") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    assert run_suite(s).passed
    assert calls == {"dot": 380, "mat_vec": 520}


def test_identity_keys_canonical_order():
    assert IDENTITY_KEYS == ("p1", "P5", "P6a", "P6b", "P6c", "P2", "P3", "P4",
                             "R1", "R1.1", "R1.2", "R1.3", "RXYY", "S1", "S2")


def test_frame_example_full_suite_symbolic():
    report = run_suite(frame_example())
    assert report.passed
    assert list(report.results) == list(IDENTITY_KEYS)
    for key, res in report.results.items():
        assert res.passed, (key, res.witness)
    assert report.results["R1.3"].details == {"S(xi,xi)": "-8", "tr(A^2)": "8"}
    assert report.results["S2"].details == {
        "r": "8", "r*": "-24", "tr(phi A)": "4"}


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
    ctx.gA[0][1] = 1
    res = identities._judge(ctx, "p1")
    assert not res.passed
    assert res.witness == "residual at (e1,e2): 3"


def test_sampled_witness_names_the_point():
    # on a chart the witness names the phi-basis arguments and gives the
    # nonzero residual itself as a function of the coordinates, so every
    # point where the identity fails can be read off it
    ctx = identities._Context(chart_corrected())
    ctx.gA[1][0] = ctx.gA[1][0] + ctx.model.scalar("x")
    res = identities._judge(ctx, "p1")
    assert not res.passed
    assert res.witness == "residual at (X1,Y1): x"


def test_vector_identity_witness_drops_the_component():
    # P5 entries are indexed (X, Y, component); the witness names (X, Y)
    ctx = identities._Context(frame_example())
    ctx.nabla_phi_b[0][1] = tuple(c + 1 for c in ctx.nabla_phi_b[0][1])
    res = identities._judge(ctx, "P5")
    assert not res.passed
    assert res.witness == "residual at (e1,e2): 1"


def test_p6b_witness_names_scalar():
    ctx = identities._Context(frame_example())
    xi = ctx.xi_index
    ctx.A_b[xi] = (1,) + tuple(ctx.A_b[xi][1:])
    res = identities._judge(ctx, "P6b")
    assert not res.passed
    assert res.witness == "residual at (scalar): 1"


def test_basis_labels_in_context():
    ctx = identities._Context(frame_example())
    assert ctx.labels == ("e1", "e2", "xi")
    ctx_chart = identities._Context(chart_corrected())
    assert ctx_chart.labels == ("X1", "Y1", "xi")


# -- basis independence ------------------------------------------------------

def _change_frame(s: ParacontactStructure, P) -> ParacontactStructure:
    """s written in the frame e'_a = sum_b P[b][a] e_b, P invertible.

    Column a of P holds e'_a in the old frame, so g' = P^T g P, phi' =
    P^-1 phi P, xi' = P^-1 xi, eta' = eta P, and [e'_a, e'_b] is the
    bracket of two constant combinations of the old frame, read in the new.
    The declared frame is dropped, so build_phi_basis picks the phi-basis.
    """
    old = s.model
    d = old.dim
    cols = list(zip(*P))
    Pinv = invert_matrix(P)
    brackets = {(a, b): mat_vec(Pinv, [
                    sum(old.bracket_vector(i, j)[k] * cols[a][i] * cols[b][j]
                        for i, j in product(range(d), repeat=2))
                    for k in range(d)])
                for a, b in combinations(range(d), 2)}
    model = FrameModel(old.labels, old.signature, brackets)
    g, ph = s.g.rows(), s.phi.rows()
    phi_cols = [mat_vec(Pinv, mat_vec(ph, c)) for c in cols]
    return ParacontactStructure(
        model,
        TensorField.from_rows(model, (1, 1), [list(r) for r in zip(*phi_cols)]),
        TensorField.vector(model, mat_vec(Pinv, s.xi.vec())),
        TensorField.from_rows(model, (0, 2), [
            [bilinear(g, u, v) for v in cols] for u in cols]),
        TensorField.covector(model, [dot(s.eta.data, c) for c in cols]),
        name=f"{s.name}-P")


def _invariants(s: ParacontactStructure):
    """Everything a report states that no choice of frame may move."""
    suite = run_suite(s)
    theorem = check_constant_curvature_theorem(s)
    return (s.classification().label, s.ricci[1], s.star_ricci[1],
            {key: (r.passed, r.details) for key, r in suite.results.items()},
            theorem.status, theorem.K)


@pytest.mark.parametrize("name", ["heisenberg5-c4.spec", "example-frame",
                                  "constant-negative-curvature"])
def test_verdicts_do_not_depend_on_the_frame(name):
    s = golden_structure(name) if name.endswith(".spec") else get_model(name)
    expected = _invariants(s)
    d = s.model.dim
    rng = random.Random(f"frame-change-{name}")
    drawn = 0
    while drawn < 4:
        P = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        if nullspace(P):  # P is singular
            continue
        drawn += 1
        t = _change_frame(s, P)
        assert t.g.rows() != s.g.rows()
        assert _invariants(t) == expected, P
