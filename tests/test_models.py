"""Model and differential-operator tests."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from ppst import expr
from ppst.deformation import DeformationParams, verify_deformation_relations
from ppst.expr import RationalExpr
from ppst.identities import run_suite
from ppst.models import (
    ChartModel,
    FrameModel,
    GeometryError,
    TensorField,
    exterior_derivative,
    lie_bracket,
    lie_derivative,
    realize_frame,
    sample_points,
)
from ppst.spaceforms import check_constant_curvature_theorem
from ppst.specfile import import_text

GOLDEN = Path(__file__).parent / "golden"


def chart3() -> ChartModel:
    return ChartModel(("x", "y", "z"), constraints=("z",))


def example_frame() -> FrameModel:
    return FrameModel(("e1", "e2", "xi"), (1, -1, 1), {(0, 1): (0, 0, 4)})


# -- model construction ------------------------------------------------------

def test_dimension_must_be_odd():
    with pytest.raises(GeometryError):
        ChartModel(("x", "y"))
    with pytest.raises(GeometryError):
        FrameModel(("a", "b", "c", "d"), (1, 1, -1, -1), {})


def test_signature_counts_enforced():
    with pytest.raises(GeometryError):
        FrameModel(("a", "b", "c"), (1, 1, 1), {})


def test_bracket_antisymmetry_is_built_in():
    m = example_frame()
    assert m.bracket_vector(1, 0) == tuple(-c for c in m.bracket_vector(0, 1))
    assert all(c == 0 for c in m.bracket_vector(2, 2))


def test_jacobi_violation_rejected():
    # [a,b] = c, [a,c] = b is fine; adding [b,c] = b breaks Jacobi
    FrameModel(("a", "b", "c"), (1, 1, -1), {(0, 1): (0, 0, 1), (0, 2): (0, 1, 0)})
    with pytest.raises(GeometryError):
        FrameModel(("a", "b", "c"), (1, 1, -1),
                   {(0, 1): (0, 0, 1), (0, 2): (0, 1, 0), (1, 2): (0, 1, 0)})


def test_jacobi_violation_message_names_the_triple():
    # a dim-5 table that breaks Jacobi on (e2, e3, e4) and nowhere before it
    labels = ("e1", "e2", "e3", "e4", "xi")
    brackets = {(1, 2): (0, 0, 0, 1, 0), (1, 3): (0, 0, 1, 0, 0),
                (2, 3): (0, 0, 1, 0, 0)}
    with pytest.raises(GeometryError) as info:
        FrameModel(labels, (1, 1, -1, -1, 1), brackets)
    assert str(info.value) == ("bracket table violates the Jacobi identity "
                               "at (e2,e3,e4)")


def test_scalar_coercion():
    m = chart3()
    assert m.scalar("4*y/z") == m.scalar(4) * m.scalar("y") / m.scalar("z")
    f = FrameModel(("e1", "e2", "xi"), (1, -1, 1), {})
    assert f.scalar("-1/2") == Fraction(-1, 2)
    with pytest.raises(GeometryError):
        f.scalar(m.scalar("y"))


def test_frame_scalars_are_fractions():
    f = example_frame()
    assert type(f.zero) is Fraction and type(f.one) is Fraction
    assert f.zero is f.zero and f.diff(0, f.one) is f.zero
    for value in (3, "3", Fraction(3), RationalExpr.constant(3, ("x",))):
        assert type(f.scalar(value)) is Fraction and f.scalar(value) == 3
    assert all(type(c) is Fraction for c in f.bracket_vector(1, 0))
    assert all(type(c) is Fraction for c in f.orthonormal_metric().data)


def test_frame_pipeline_builds_no_rational_function(monkeypatch):
    """Past parsing, a frame structure never enters the RationalExpr kernel."""
    s = import_text((GOLDEN / "heisenberg5-c4.spec").read_text(encoding="utf-8"))
    calls = []
    canonical = expr._canonical

    def counted(*args):
        calls.append(args)
        return canonical(*args)

    monkeypatch.setattr(expr, "_canonical", counted)
    s.connection
    curv = s.curvature
    assert s.classification().label == "proper quasi-para-Sasakian"
    assert run_suite(s).passed
    check_constant_curvature_theorem(s)
    assert verify_deformation_relations(s, DeformationParams(-2, 4)).passed
    assert len(calls) == 0
    assert type(curv.scalar) is Fraction and curv.scalar == 16


# -- tensor fields -----------------------------------------------------------

def test_tensor_indexing_and_rows():
    m = chart3()
    g = TensorField.from_rows(m, (0, 2),
                              [["1", "0", "-4*y/z"],
                               ["0", "-1", "0"],
                               ["-4*y/z", "0", "(1 + 16*y^2)/(z^2)"]])
    assert g[(0, 2)] == m.scalar("-4*y/z")
    assert g.rows()[2][2] == m.scalar("(1+16*y^2)/z^2")
    assert (g - g).is_zero
    w = (2 * g).nonzero_witness()
    assert w == ((0, 0), m.scalar(2))


def test_tensor_valence_checks():
    m = chart3()
    v = TensorField.vector(m, ("1", "0", "0"))
    with pytest.raises(GeometryError):
        v.rows()
    with pytest.raises(GeometryError):
        TensorField(m, (0, 0), [])


# -- brackets ----------------------------------------------------------------

def test_lie_bracket_chart():
    m = chart3()
    e1 = TensorField.vector(m, ("4*y", "0", "z"))
    e2 = TensorField.vector(m, ("0", "1", "0"))
    b = lie_bracket(e1, e2)
    assert b.vec() == (m.scalar(-4), m.zero, m.zero)


def test_lie_bracket_frame():
    m = example_frame()
    e1 = TensorField.vector(m, (1, 0, 0))
    e2 = TensorField.vector(m, (0, 1, 0))
    assert lie_bracket(e1, e2).vec() == (m.zero, m.zero, m.scalar(4))
    assert lie_bracket(e2, e1).vec() == (m.zero, m.zero, m.scalar(-4))


def test_lie_bracket_bilinear_seeded():
    rng = random.Random(777)
    m = chart3()

    def rand_vec():
        return TensorField.vector(
            m, [m.scalar(Fraction(rng.randint(-3, 3))) * m.scalar(rng.choice("xyz"))
                + m.scalar(rng.randint(-2, 2)) for _ in range(3)])

    for _ in range(25):
        X, Y, Z = rand_vec(), rand_vec(), rand_vec()
        assert lie_bracket(X, Y).vec() == tuple(
            -c for c in lie_bracket(Y, X).vec())
        lhs = lie_bracket(X, lie_bracket(Y, Z))
        mid = lie_bracket(lie_bracket(X, Y), Z)
        rhs = lie_bracket(Y, lie_bracket(X, Z))
        jac = lhs - mid - rhs  # Jacobi in Leibniz form
        assert jac.is_zero


# -- exterior derivative -----------------------------------------------------

def test_exterior_derivative_one_form_chart():
    m = chart3()
    # eta = dx - (4y/z) dz
    eta = TensorField.covector(m, ("1", "0", "-4*y/z"))
    deta = exterior_derivative(eta)
    # 2 deta(d/dy, d/dz) = d/dy(-4y/z) => deta = (2/z) dz^dy component form
    assert deta[(1, 2)] == m.scalar("-2/z")
    assert deta[(2, 1)] == m.scalar("2/z")
    assert deta[(0, 1)].is_zero and deta[(0, 2)].is_zero


def test_exterior_derivative_frame():
    m = example_frame()
    eta = TensorField.covector(m, (0, 0, 1))
    deta = exterior_derivative(eta)
    # 2 deta(e1,e2) = -eta([e1,e2]) = -4
    assert deta[(0, 1)] == -2
    assert deta[(1, 0)] == 2


def test_d_squared_is_zero():
    m = chart3()
    rng = random.Random(31337)
    for _ in range(10):
        comps = []
        for _ in range(3):
            e = m.scalar(rng.randint(-3, 3))
            e = e * m.scalar(rng.choice("xyz")) + m.scalar(rng.randint(-2, 2))
            if rng.random() < 0.4:
                e = e / m.scalar("z")
            comps.append(e)
        omega = TensorField.covector(m, comps)
        assert exterior_derivative(exterior_derivative(omega)).is_zero


def test_d_squared_is_zero_frame():
    m = example_frame()
    omega = TensorField.covector(m, (3, Fraction(-1, 2), 1))
    assert exterior_derivative(exterior_derivative(omega)).is_zero


def test_exterior_derivative_requires_antisymmetry():
    m = chart3()
    sym = TensorField.from_rows(m, (0, 2), [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    with pytest.raises(GeometryError):
        exterior_derivative(sym)


# -- Lie derivative ----------------------------------------------------------

def test_lie_derivative_metric_translation_killing():
    m = chart3()
    g = TensorField.from_rows(m, (0, 2), [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    X = TensorField.vector(m, (1, 0, 0))
    assert lie_derivative(g, X).is_zero


def test_lie_derivative_metric_dilation():
    m = chart3()
    g = TensorField.from_rows(m, (0, 2), [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    X = TensorField.vector(m, ("x", "0", "0"))
    lg = lie_derivative(g, X)
    assert lg[(0, 0)] == 2
    assert lg[(1, 1)].is_zero


def test_lie_derivative_one_form():
    m = chart3()
    w = TensorField.covector(m, ("y", "0", "0"))
    X = TensorField.vector(m, ("0", "1", "0"))
    lw = lie_derivative(w, X)
    assert lw[0] == 1
    assert lw[1].is_zero and lw[2].is_zero


def test_lie_derivative_endomorphism_frame():
    m = example_frame()
    phi = TensorField.from_rows(m, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(m, (0, 0, 1))
    # [xi, phi e_j] = 0 and phi[xi, e_j] = 0 for this table
    assert lie_derivative(phi, xi).is_zero


# -- chart <-> frame bridge --------------------------------------------------

def corrected_chart_data():
    m = chart3()
    g = TensorField.from_rows(m, (0, 2),
                              [["1", "0", "-4*y/z"],
                               ["0", "-1", "0"],
                               ["-4*y/z", "0", "(1+16*y^2)/(z^2)"]])
    vectors = [TensorField.vector(m, ("4*y", "0", "z")),
               TensorField.vector(m, ("0", "1", "0")),
               TensorField.vector(m, ("1", "0", "0"))]
    return m, g, vectors


def test_realize_frame_corrected_chart():
    m, g, vectors = corrected_chart_data()
    frame, fg = realize_frame(m, vectors, g, ("e1", "e2", "xi"))
    assert frame.signature == (1, -1, 1)
    assert frame.bracket_vector(0, 1) == (frame.zero, frame.zero, frame.scalar(-4))
    assert fg.rows()[0][0] == 1 and fg.rows()[1][1] == -1 and fg.rows()[2][2] == 1


def test_realize_frame_rejects_non_constant():
    m = chart3()
    g = TensorField.from_rows(m, (0, 2), [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    vectors = [TensorField.vector(m, ("x", "0", "0")),
               TensorField.vector(m, ("0", "1", "0")),
               TensorField.vector(m, ("0", "0", "1"))]
    with pytest.raises(GeometryError):
        realize_frame(m, vectors, g, ("a", "b", "c"))


# -- sample points -----------------------------------------------------------

def test_sample_points_respect_constraints():
    m = ChartModel(("x", "y", "z"), constraints=("z", "x - 1"))
    pts = sample_points(m, 7)
    assert len(pts) == 7
    assert len({tuple(sorted(p.items())) for p in pts}) == 7
    for p in pts:
        assert p["z"] != 0 and p["x"] != 1
