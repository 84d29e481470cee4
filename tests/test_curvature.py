"""Connection/curvature tests against frozen exact values for the
homogeneous frame example and its chart realization."""

from __future__ import annotations

from itertools import product

import pytest

from ppst import linalg
from ppst.models import (
    ChartModel,
    DegenerateMetricError,
    FrameModel,
    GeometryError,
    TensorField,
)
from ppst.curvature import (
    covariant_derivative,
    curvature_antisymmetry_residual,
    first_bianchi_residual,
    levi_civita,
    metric_compatibility_residual,
    nabla_field,
    ricci_scalar,
    ricci_symmetry_residual,
    riemann,
    star_ricci_scalar,
    torsion_residual,
)


def example_frame():
    m = FrameModel(("e1", "e2", "xi"), (1, -1, 1), {(0, 1): (0, 0, 4)})
    return m, m.orthonormal_metric()


def corrected_chart():
    m = ChartModel(("x", "y", "z"), constraints=("z",))
    g = TensorField.from_rows(m, (0, 2),
                              [["1", "0", "-4*y/z"],
                               ["0", "-1", "0"],
                               ["-4*y/z", "0", "(1+16*y^2)/(z^2)"]])
    frame_vectors = [TensorField.vector(m, ("4*y", "0", "z")),
                     TensorField.vector(m, ("0", "1", "0")),
                     TensorField.vector(m, ("1", "0", "0"))]
    return m, g, frame_vectors


# frozen expected values for the frame example (lambda = +2 variant):
# connection table nabla_{e_i} e_j and curvature table R(e_i,e_j)e_k
CONNECTION_TABLE = {
    (0, 0): (0, 0, 0), (0, 1): (0, 0, 2), (0, 2): (0, 2, 0),
    (1, 0): (0, 0, -2), (1, 1): (0, 0, 0), (1, 2): (2, 0, 0),
    (2, 0): (0, 2, 0), (2, 1): (2, 0, 0), (2, 2): (0, 0, 0),
}
CURVATURE_TABLE = {
    (0, 1, 0): (0, -12, 0), (0, 1, 1): (-12, 0, 0), (0, 1, 2): (0, 0, 0),
    (0, 2, 0): (0, 0, 4), (0, 2, 1): (0, 0, 0), (0, 2, 2): (-4, 0, 0),
    (1, 2, 0): (0, 0, 0), (1, 2, 1): (0, 0, -4), (1, 2, 2): (0, -4, 0),
}


def test_frame_connection_table():
    m, g = example_frame()
    conn = levi_civita(g)
    for (i, j), expected in CONNECTION_TABLE.items():
        assert conn.nabla_basis(i, j) == tuple(m.scalar(c) for c in expected), (i, j)


def test_frame_connection_residuals_vanish():
    m, g = example_frame()
    conn = levi_civita(g)
    assert torsion_residual(conn).is_zero
    assert metric_compatibility_residual(conn, g).is_zero


def test_frame_curvature_table():
    m, g = example_frame()
    curv = riemann(levi_civita(g))
    for (i, j, k), expected in CURVATURE_TABLE.items():
        assert curv.apply(i, j, k) == tuple(m.scalar(c) for c in expected), (i, j, k)
    assert curvature_antisymmetry_residual(curv).is_zero
    assert first_bianchi_residual(curv).is_zero


def test_frame_ricci_and_scalar():
    m, g = example_frame()
    curv = riemann(levi_civita(g))
    S, r = ricci_scalar(curv, g)
    assert S.rows() == tuple(
        tuple(m.scalar(v) for v in row)
        for row in ((8, 0, 0), (0, -8, 0), (0, 0, -8)))
    assert r == 8
    assert ricci_symmetry_residual(curv, g).is_zero


def test_frame_star_ricci_and_scalar():
    m, g = example_frame()
    phi = TensorField.from_rows(m, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    curv = riemann(levi_civita(g))
    Sstar, rstar = star_ricci_scalar(curv, g, phi)
    assert Sstar.rows() == tuple(
        tuple(m.scalar(v) for v in row)
        for row in ((-12, 0, 0), (0, 12, 0), (0, 0, 0)))
    assert rstar == -24
    # epsilon-weighted frame sum agrees with the trace formulation
    eps = m.signature
    direct = m.zero
    for i in range(3):
        direct = direct + eps[i] * Sstar[(i, i)]
    assert direct == rstar


def test_flat_chart_is_flat():
    m = ChartModel(("x", "y", "z"))
    g = TensorField.from_rows(m, (0, 2), [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    curv = riemann(levi_civita(g))
    assert curv.riemann.is_zero
    S, r = ricci_scalar(curv, g)
    assert S.is_zero and r.is_zero


def test_degenerate_metric_rejected():
    m = ChartModel(("x", "y", "z"))
    g = TensorField.from_rows(m, (0, 2), [[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    with pytest.raises(DegenerateMetricError):
        levi_civita(g)


def test_asymmetric_metric_rejected():
    m = ChartModel(("x", "y", "z"))
    g = TensorField.from_rows(m, (0, 2), [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(GeometryError):
        levi_civita(g)


# -- chart pipeline ----------------------------------------------------------

def test_corrected_chart_connection_residuals():
    m, g, _ = corrected_chart()
    conn = levi_civita(g)
    assert torsion_residual(conn).is_zero
    assert metric_compatibility_residual(conn, g).is_zero


def test_corrected_chart_scalar_curvature():
    m, g, _ = corrected_chart()
    curv = riemann(levi_civita(g))
    _, r = ricci_scalar(curv, g)
    assert r == 8


def test_chart_frame_agreement():
    """Frame Koszul coefficients equal the chart computation re-expressed."""
    m, g, vectors = corrected_chart()
    cols = [v.vec() for v in vectors]
    mat = tuple(tuple(cols[a][i] for a in range(3)) for i in range(3))
    inv = linalg.invert_matrix(mat, m.one)

    from ppst.models import realize_frame
    frame, fg = realize_frame(m, vectors, g, ("e1", "e2", "xi"))
    frame_conn = levi_civita(fg)

    chart_conn = levi_civita(g)
    for a, b in product(range(3), repeat=2):
        w = nabla_field(chart_conn, cols[a], cols[b])
        coords = tuple(
            sum((inv[c][i] * w[i] for i in range(1, 3)), inv[c][0] * w[0])
            for c in range(3))
        assert coords == frame_conn.nabla_basis(a, b), (a, b)


def test_chart_frame_curvature_table_agreement():
    """The realized-frame curvature table matches the frozen exact table."""
    m, g, vectors = corrected_chart()
    cols = [v.vec() for v in vectors]
    mat = tuple(tuple(cols[a][i] for a in range(3)) for i in range(3))
    inv = linalg.invert_matrix(mat, m.one)
    curv = riemann(levi_civita(g))

    def R_of(a, b, c):
        # contract the (1,3) tensor with three frame fields (tensorial slots)
        out = []
        for l in range(3):
            acc = m.zero
            for i, j, k in product(range(3), repeat=3):
                coeff = curv.apply(i, j, k)[l]
                if not coeff.is_zero:
                    acc = acc + coeff * cols[a][i] * cols[b][j] * cols[c][k]
            out.append(acc)
        return tuple(
            sum((inv[cc][i] * out[i] for i in range(1, 3)), inv[cc][0] * out[0])
            for cc in range(3))

    for (i, j, k), expected in CURVATURE_TABLE.items():
        assert R_of(i, j, k) == tuple(m.scalar(c) for c in expected), (i, j, k)


def test_covariant_derivative_of_scalar_like_tensor():
    """nabla of the metric's inverse-compatible pairing: (0,1) example."""
    m, g = example_frame()
    conn = levi_civita(g)
    eta = TensorField.covector(m, (0, 0, 1))
    nabla_eta = covariant_derivative(eta, conn)
    # (nabla_{e1} eta)(e1) = -eta(nabla_{e1} e1) = 0;
    # (nabla_{e1} eta)(e2) = -eta(nabla_{e1} e2) = -2
    assert nabla_eta[(0, 0)] == 0
    assert nabla_eta[(0, 1)] == -2
    assert nabla_eta[(1, 0)] == 2
