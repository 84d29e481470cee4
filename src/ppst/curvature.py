"""Levi-Civita connection, curvature, Ricci and star-Ricci data.

Conventions (fixed throughout the package):

* Koszul:  2 g(nabla_X Y, Z) = X g(Y,Z) + Y g(X,Z) - Z g(X,Y)
           + g([X,Y],Z) + g([Z,X],Y) + g([Z,Y],X)
* Curvature: R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y]; on basis fields
  R(e_i, e_j) e_k = R^l_kij e_l.
* Ricci: S(X,Y) = trace of Z -> R(Z,X)Y, i.e. S_jk = sum_i R^i_kij; the
  scalar r = g^{jk} S_jk.  In an orthonormal frame this equals the
  epsilon-weighted sum over the frame.
* Star-Ricci: S*(X,Y) = sum_i eps_i g(R(e_i,X) phi Y, phi e_i) over an
  orthonormal frame; computed basis-free as -trace(Z -> phi R(Z,X) phi Y),
  which agrees whenever phi is g-skew-adjoint (a consequence of the
  structure axioms); r* = g^{ab} S*_ab.

Every table is a TensorField in the package's one layout (flat, upper
slots first): the metric inverse g^{ij} has valence (2,0), the connection
Gamma[(k, i, j)] = Gamma^k_ij with nabla_{e_i} e_j = Gamma^k_ij e_k has
valence (1,2), and the Riemann tensor R[(l, k, i, j)] = R^l_kij has
valence (1,3).  A reader takes nabla_{e_i} e_j = Gamma.vector_at(i, j) and
R(e_i, e_j) e_k = R.vector_at(k, i, j), or contracts the last two slots
with two vectors through ``linalg.block_bilinear``.  Like every component,
both scalar curvatures are stored through ``model.scalar``: a constant
one is an int when integral and a Fraction otherwise, on both fields.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from . import linalg
from .linalg import mat_vec, signed_sum, trace_product
from .models import (
    DegenerateMetricError,
    GeometryError,
    Scalar,
    TensorField,
    _derivation,
)


def metric_inverse(g: TensorField) -> TensorField:
    """g^{ij} as a (2,0) tensor; refuses a metric that is not a symmetric,
    nondegenerate (0,2) tensor."""
    if g.valence != (0, 2):
        raise GeometryError("metric must have valence (0,2)")
    rows = g.rows()
    if rows != tuple(zip(*rows)):
        raise GeometryError("metric must be symmetric")
    try:
        inv = linalg.invert_matrix(rows)
    except linalg.SingularMatrixError:
        raise DegenerateMetricError("metric determinant is identically zero") from None
    return TensorField(g.model, (2, 0), [c for row in inv for c in row])


def levi_civita(g: TensorField, ginv: TensorField) -> TensorField:
    """Gamma[(k, i, j)] of the unique torsion-free metric connection of g;
    ginv is ``metric_inverse(g)``."""
    model = g.model
    d = model.dim
    grows, inv = g.rows(), ginv.rows()
    # gc[i][j][l] = g([e_i, e_j], e_l)
    gc = [[mat_vec(grows, model.bracket_vector(i, j)) for j in range(d)]
          for i in range(d)]
    nabla = {}  # nabla[i, j] = nabla_{e_i} e_j
    for i, j in product(range(d), repeat=2):
        rhs = []
        for l in range(d):
            val = signed_sum(
                (model.diff(i, grows[j][l]), model.diff(j, grows[i][l]),
                 gc[i][j][l]),
                (model.diff(l, grows[i][j]), gc[i][l][j], gc[j][l][i]))
            rhs.append(linalg.quotient(val, 2) if val else val)
        nabla[i, j] = mat_vec(inv, rhs)
    return TensorField(model, (1, 2), [nabla[i, j][k] for k, i, j
                                       in product(range(d), repeat=3)])


def covariant_derivative(T: TensorField, conn: TensorField) -> TensorField:
    """nabla T with the direction as the first lower slot.

    For valence (r, s) input the output has valence (r, s+1) and index
    order (uppers..., direction, lowers...).  nabla_{e_k} is the derivation
    with e_k(f) on scalars and nabla_{e_k} e_m on basis fields.
    """
    model = conn.model
    if T.model is not model:
        raise GeometryError("tensor and connection live on different models")
    d = model.dim
    r, s = T.valence
    along = [_derivation(T, partial(model.diff, k),
                         [conn.vector_at(k, m) for m in range(d)])
             for k in range(d)]
    block = d ** s
    data = [c for u in range(0, d ** (r + s), block) for k in range(d)
            for c in along[k][u:u + block]]
    return TensorField(model, (r, s + 1), data)


def riemann(conn: TensorField) -> TensorField:
    """Curvature of the connection, R(X,Y) = [nabla_X,nabla_Y] - nabla_[X,Y]."""
    if conn.valence != (1, 2):
        raise GeometryError("connection must have valence (1,2)")
    model = conn.model
    d = model.dim
    G, dd = conn.data, d * d
    # nabla_op[i][l][m] = Gamma^l_im, the matrix of nabla_{e_i};
    # gamma_k[k][l][m] = Gamma^l_mk, whose column m is nabla_{e_m} e_k;
    # col[i * d + k] = nabla_{e_i} e_k, what Gamma.vector_at(i, k) reads
    nabla_op = [[G[l * dd + i * d:l * dd + i * d + d] for l in range(d)]
                for i in range(d)]
    gamma_k = [[G[l * dd + k:(l + 1) * dd:d] for l in range(d)]
               for k in range(d)]
    col = [G[o::dd] for o in range(dd)]
    rv = {}  # rv[i, j, k] = R(e_i, e_j) e_k
    for i, j in product(range(d), repeat=2):
        cij = model.bracket_vector(i, j)
        for k in range(d):
            Gjk, Gik = col[j * d + k], col[i * d + k]
            ij = mat_vec(nabla_op[i], Gjk)
            ji = mat_vec(nabla_op[j], Gik)
            br = mat_vec(gamma_k[k], cij)
            rv[i, j, k] = tuple(
                signed_sum((model.diff(i, Gjk[l]), ij[l]),
                           (model.diff(j, Gik[l]), ji[l], br[l]))
                for l in range(d))
    return TensorField(model, (1, 3), [rv[i, j, k][l] for l, k, i, j
                                       in product(range(d), repeat=4)])


def ricci_scalar(curv: TensorField, ginv: TensorField,
                 ) -> tuple[TensorField, Scalar]:
    """(Ricci tensor, scalar curvature)."""
    model = curv.model
    d = model.dim
    R = curv.vector_at
    S = TensorField(model, (0, 2), [
        signed_sum((R(k, a, j)[a] for a in range(d)), ())
        for j, k in product(range(d), repeat=2)])
    return S, model.scalar(trace_product(ginv.rows(), S.rows()))


def star_ricci_scalar(curv: TensorField, phi: TensorField, ginv: TensorField,
                      ) -> tuple[TensorField, Scalar]:
    """(star-Ricci tensor, star scalar); assumes phi is g-skew-adjoint."""
    model = curv.model
    d = model.dim
    R, dd = curv.data, d * d
    ph = phi.rows()
    phicols = tuple(zip(*ph))
    data = []
    for a in range(d):
        # ops[m] = matrix of R(e_m, e_a): row l is a stride slice of R
        ops = [[R[l * d * dd + m * d + a:(l + 1) * d * dd:dd] for l in range(d)]
               for m in range(d)]
        for b in range(d):
            # column m of Z -> R(Z, e_a) phi e_b
            img = [mat_vec(op, phicols[b]) for op in ops]
            data.append(-trace_product(ph, tuple(zip(*img))))
    S = TensorField(model, (0, 2), data)
    return S, model.scalar(trace_product(ginv.rows(), S.rows()))


# ---------------------------------------------------------------------------
# residuals for the structural invariants (all identically zero when exact)

def torsion_residual(conn: TensorField) -> TensorField:
    model = conn.model
    d = model.dim
    G = conn.vector_at
    T = {(i, j): [a - b - c for a, b, c in
                  zip(G(i, j), G(j, i), model.bracket_vector(i, j))]
         for i, j in product(range(d), repeat=2)}
    return TensorField(model, (1, 2), [T[i, j][k] for k, i, j
                                       in product(range(d), repeat=3)])


def curvature_antisymmetry_residual(curv: TensorField) -> TensorField:
    d = curv.model.dim
    R = curv.data
    # b runs over the offsets of the (l, k) blocks of R[(l, k, i, j)]
    return TensorField(curv.model, (1, 3), [
        R[b + i * d + j] + R[b + j * d + i]
        for b in range(0, d ** 4, d * d) for i, j in product(range(d), repeat=2)])


def first_bianchi_residual(curv: TensorField) -> TensorField:
    d = curv.model.dim
    R, dd = curv.data, d * d
    # L runs over the offsets of the l blocks of R[(l, k, i, j)]
    return TensorField(curv.model, (1, 3), [
        R[L + k * dd + i * d + j] + R[L + i * dd + j * d + k]
        + R[L + j * dd + k * d + i]
        for L in range(0, d ** 4, d * dd) for k, i, j in product(range(d), repeat=3)])
