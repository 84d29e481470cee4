"""Connection/curvature tests against frozen exact values for the
homogeneous frame example and its chart realization."""

from __future__ import annotations

from itertools import product

import pytest

from _models import GOLDEN_FIELDS, feed, golden_structure
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
    metric_inverse,
    ricci_scalar,
    riemann,
    star_ricci_scalar,
    torsion_residual,
)


def connection(g):
    return levi_civita(g, metric_inverse(g))


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
    conn = connection(g)
    assert conn.valence == (1, 2)
    for (i, j), expected in CONNECTION_TABLE.items():
        assert conn.vector_at(i, j) == tuple(m.scalar(c) for c in expected), (i, j)


def test_frame_connection_residuals_vanish():
    m, g = example_frame()
    conn = connection(g)
    assert torsion_residual(conn).is_zero
    assert covariant_derivative(g, conn).is_zero


def test_frame_curvature_table():
    m, g = example_frame()
    curv = riemann(connection(g))
    assert curv.valence == (1, 3)
    for (i, j, k), expected in CURVATURE_TABLE.items():
        assert curv.vector_at(k, i, j) == tuple(m.scalar(c) for c in expected), (i, j, k)
    assert curvature_antisymmetry_residual(curv).is_zero
    assert first_bianchi_residual(curv).is_zero


def test_frame_ricci_and_scalar():
    m, g = example_frame()
    S, r = ricci_scalar(riemann(connection(g)), metric_inverse(g))
    assert S.rows() == tuple(
        tuple(m.scalar(v) for v in row)
        for row in ((8, 0, 0), (0, -8, 0), (0, 0, -8)))
    assert r == 8
    assert S.rows() == tuple(zip(*S.rows()))


def test_frame_star_ricci_and_scalar():
    m, g = example_frame()
    phi = TensorField.from_rows(m, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    curv = riemann(connection(g))
    Sstar, rstar = star_ricci_scalar(curv, phi, metric_inverse(g))
    assert Sstar.rows() == tuple(
        tuple(m.scalar(v) for v in row)
        for row in ((-12, 0, 0), (0, 12, 0), (0, 0, 0)))
    assert rstar == -24
    # epsilon-weighted frame sum agrees with the trace formulation
    eps = m.signature
    direct = 0
    for i in range(3):
        direct = direct + eps[i] * Sstar[(i, i)]
    assert direct == rstar


def test_flat_chart_is_flat():
    m = ChartModel(("x", "y", "z"))
    g = TensorField.from_rows(m, (0, 2), [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    curv = riemann(connection(g))
    assert curv.is_zero
    S, r = ricci_scalar(curv, metric_inverse(g))
    assert S.is_zero and type(r) is int and r == 0


def test_degenerate_metric_rejected():
    m = ChartModel(("x", "y", "z"))
    g = TensorField.from_rows(m, (0, 2), [[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    with pytest.raises(DegenerateMetricError):
        metric_inverse(g)


def test_asymmetric_metric_rejected():
    m = ChartModel(("x", "y", "z"))
    g = TensorField.from_rows(m, (0, 2), [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(GeometryError, match="metric must be symmetric"):
        metric_inverse(g)
    with pytest.raises(GeometryError, match="metric must have valence"):
        metric_inverse(TensorField(m, (1, 1), g.data))


def test_riemann_refuses_a_table_that_is_not_a_connection():
    m = ChartModel(("x", "y", "z"))
    with pytest.raises(GeometryError, match="connection must have valence"):
        riemann(TensorField(m, (0, 3), [0] * 27))


# -- chart pipeline ----------------------------------------------------------

def test_corrected_chart_connection_residuals():
    m, g, _ = corrected_chart()
    conn = connection(g)
    assert torsion_residual(conn).is_zero
    assert covariant_derivative(g, conn).is_zero


def test_corrected_chart_scalar_curvature():
    m, g, _ = corrected_chart()
    _, r = ricci_scalar(riemann(connection(g)), metric_inverse(g))
    assert r == 8


def test_chart_frame_agreement():
    """Frame Koszul coefficients equal the chart computation re-expressed."""
    m, g, vectors = corrected_chart()
    cols = [v.vec() for v in vectors]
    mat = tuple(tuple(cols[a][i] for a in range(3)) for i in range(3))
    inv = linalg.invert_matrix(mat)

    from ppst.models import realize_frame
    frame, fg = realize_frame(m, vectors, g, ("e1", "e2", "xi"))
    frame_conn = connection(fg)

    chart_conn = connection(g)
    for a, b in product(range(3), repeat=2):
        w = linalg.mat_vec(covariant_derivative(vectors[b], chart_conn).rows(), cols[a])
        coords = tuple(
            sum((inv[c][i] * w[i] for i in range(1, 3)), inv[c][0] * w[0])
            for c in range(3))
        assert coords == frame_conn.vector_at(a, b), (a, b)


def test_chart_frame_curvature_table_agreement():
    """The realized-frame curvature table matches the frozen exact table."""
    m, g, vectors = corrected_chart()
    cols = [v.vec() for v in vectors]
    mat = tuple(tuple(cols[a][i] for a in range(3)) for i in range(3))
    inv = linalg.invert_matrix(mat)
    curv = riemann(connection(g))

    def R_of(a, b, c):
        # contract the (1,3) tensor with three frame fields (tensorial slots)
        out = []
        for l in range(3):
            acc = 0
            for i, j, k in product(range(3), repeat=3):
                coeff = curv[(l, k, i, j)]
                if coeff:
                    acc = acc + coeff * cols[a][i] * cols[b][j] * cols[c][k]
            out.append(acc)
        return tuple(
            sum((inv[cc][i] * out[i] for i in range(1, 3)), inv[cc][0] * out[0])
            for cc in range(3))

    for (i, j, k), expected in CURVATURE_TABLE.items():
        assert R_of(i, j, k) == tuple(m.scalar(c) for c in expected), (i, j, k)


@pytest.mark.parametrize("spec, fields", GOLDEN_FIELDS,
                         ids=["chart-1+z2", "heisenberg5-c4"])
def test_covariant_derivative_matches_its_definition(spec, fields):
    """(nabla_X eta)Y, (nabla_X Phi)(Y,Z), (nabla_X phi)Y and a (1,2) tensor
    against the Leibniz rule, with nabla_X Y = X(Y) + Gamma(X, Y)."""
    s = golden_structure(spec)
    m, conn = s.model, s.connection
    d = m.dim
    X, Y, Z = ([m.scalar(c) for c in comps] for comps in fields)
    # gamma[k][i][j] = Gamma^k_ij
    gamma = [[[conn[(k, i, j)] for j in range(d)] for i in range(d)]
             for k in range(d)]

    def along(V, f):
        return linalg.dot(V, [m.diff(i, f) for i in range(d)])

    def nabla(V, W):
        return [along(V, w) + linalg.bilinear(gk, V, W)
                for w, gk in zip(W, gamma)]

    XY, XZ = nabla(X, Y), nabla(X, Z)
    ph, g, ev = s.phi.rows(), s.g.rows(), s.eta.data
    T = TensorField.from_entries(m, (1, 2), {
        (k, i, j): ph[k][i] * ev[j] + g[k][j] * (k + 2 * i - j)
        for k, i, j in product(range(d), repeat=3)})

    def D(tensor):
        return covariant_derivative(tensor, conn)

    eta, Phi, phi = s.eta, s.Phi, s.phi
    assert (feed(D(eta), X, Y)
            == [along(X, feed(eta, Y)[0]) - feed(eta, XY)[0]])
    expected = (along(X, feed(Phi, Y, Z)[0]) - feed(Phi, XY, Z)[0]
                - feed(Phi, Y, XZ)[0])
    assert feed(D(Phi), X, Y, Z) == [expected] and expected
    expected = [a - b for a, b in zip(nabla(X, feed(phi, Y)), feed(phi, XY))]
    assert feed(D(phi), X, Y) == expected and any(expected)
    expected = [a - b - c for a, b, c in zip(
        nabla(X, feed(T, Y, Z)), feed(T, XY, Z), feed(T, Y, XZ))]
    assert feed(D(T), X, Y, Z) == expected and any(expected)


def test_covariant_derivative_of_scalar_like_tensor():
    """nabla of the metric's inverse-compatible pairing: (0,1) example."""
    m, g = example_frame()
    conn = connection(g)
    eta = TensorField.covector(m, (0, 0, 1))
    nabla_eta = covariant_derivative(eta, conn)
    # (nabla_{e1} eta)(e1) = -eta(nabla_{e1} e1) = 0;
    # (nabla_{e1} eta)(e2) = -eta(nabla_{e1} e2) = -2
    assert nabla_eta[(0, 0)] == 0
    assert nabla_eta[(0, 1)] == -2
    assert nabla_eta[(1, 0)] == 2
