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

Connection coefficients are stored as coeffs[i][j][k] = Gamma^k_ij with
nabla_{e_i} e_j = Gamma^k_ij e_k.  Like a TensorField's components, every
entry of the metric inverse and of the connection and curvature tables,
and both scalar curvatures, is stored through ``model.scalar``: on a
frame each is an int when integral and a Fraction otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product

from . import linalg
from .linalg import bilinear, mat_vec, signed_sum, trace_product
from .models import (
    DegenerateMetricError,
    GeometryError,
    ManifoldModel,
    Scalar,
    TensorField,
    Vec,
    _derivation,
)

Coeffs = tuple[tuple[Vec, ...], ...]


@dataclass
class ConnectionData:
    """Levi-Civita connection coefficients plus the metric pair used."""

    model: ManifoldModel
    coeffs: Coeffs
    metric: TensorField
    metric_inverse: tuple[tuple[Scalar, ...], ...]

    def nabla_basis(self, i: int, j: int) -> Vec:
        """Components of nabla_{e_i} e_j."""
        return self.coeffs[i][j]


@dataclass
class CurvatureData:
    """Riemann components and (once computed) their traces.

    ``riemann`` has valence (1,3) with index order (l, k, i, j) so that
    R(e_i, e_j) e_k = riemann[l,k,i,j] e_l.  The components are kept once,
    as nested tuples _nested[l][k][i][j] in that index order; no module
    but this one reads them.
    """

    connection: ConnectionData
    _nested: tuple = field(repr=False)
    ricci: TensorField | None = None
    scalar: Scalar | None = None
    star_ricci: TensorField | None = None
    star_scalar: Scalar | None = None

    @property
    def model(self) -> ManifoldModel:
        return self.connection.model

    @cached_property
    def riemann(self) -> TensorField:
        """The (1,3) tensor, built from the nested table on first access."""
        flat = [c for lk in self._nested for m in lk for row in m for c in row]
        return TensorField(self.model, (1, 3), flat)

    def apply(self, i: int, j: int, k: int) -> Vec:
        """Components of R(e_i, e_j) e_k."""
        return tuple(rl[k][i][j] for rl in self._nested)

    def operator(self, u: Vec, v: Vec) -> tuple[Vec, ...]:
        """Matrix of the endomorphism R(u, v), rows indexed by the output."""
        zero = self.model.zero
        return tuple(tuple(bilinear(m, u, v, zero) for m in rl)
                     for rl in self._nested)


def metric_inverse(g: TensorField) -> tuple[tuple[Scalar, ...], ...]:
    rows = g.rows()
    if rows != tuple(zip(*rows)):
        raise GeometryError("metric must be symmetric")
    try:
        inv = linalg.invert_matrix(rows, g.model.one)
    except linalg.SingularMatrixError:
        raise DegenerateMetricError("metric determinant is identically zero") from None
    return tuple(tuple(map(g.model.scalar, row)) for row in inv)


def levi_civita(g: TensorField) -> ConnectionData:
    """The unique torsion-free metric connection of an exact metric."""
    model = g.model
    if g.valence != (0, 2):
        raise GeometryError("metric must have valence (0,2)")
    d = model.dim
    grows = g.rows()
    ginv = metric_inverse(g)  # also checks that g is symmetric
    zero = model.zero
    # gc[i][j][l] = g([e_i, e_j], e_l)
    gc = [[mat_vec(grows, model.bracket_vector(i, j), zero) for j in range(d)]
          for i in range(d)]
    coeffs = []
    for i in range(d):
        row = []
        for j in range(d):
            rhs = []
            for l in range(d):
                val = signed_sum(
                    (model.diff(i, grows[j][l]), model.diff(j, grows[i][l]),
                     gc[i][j][l]),
                    (model.diff(l, grows[i][j]), gc[i][l][j], gc[j][l][i]),
                    zero)
                rhs.append(linalg.quotient(val, 2) if val else val)
            row.append(tuple(map(model.scalar, mat_vec(ginv, rhs, zero))))
        coeffs.append(tuple(row))
    return ConnectionData(model, tuple(coeffs), g, ginv)


def covariant_derivative(T: TensorField, conn: ConnectionData) -> TensorField:
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
    along = [_derivation(T, partial(model.diff, k), conn.coeffs[k])
             for k in range(d)]
    block = d ** s
    data = [c for u in range(0, d ** (r + s), block) for k in range(d)
            for c in along[k][u:u + block]]
    return TensorField(model, (r, s + 1), data)


def riemann(conn: ConnectionData) -> CurvatureData:
    """Curvature of the connection, R(X,Y) = [nabla_X,nabla_Y] - nabla_[X,Y]."""
    model = conn.model
    d = model.dim
    zero = model.zero
    G = conn.coeffs
    # nabla_op[i][l][m] = Gamma^l_im, the matrix of nabla_{e_i};
    # gamma_k[k][l][m] = Gamma^l_mk, whose column m is nabla_{e_m} e_k
    nabla_op = [tuple(zip(*G[i])) for i in range(d)]
    gamma_k = [tuple(zip(*(G[m][k] for m in range(d)))) for k in range(d)]
    rv = {}  # rv[i, j, k] = R(e_i, e_j) e_k
    for i, j in product(range(d), repeat=2):
        cij = model.bracket_vector(i, j)
        for k in range(d):
            ij = mat_vec(nabla_op[i], G[j][k], zero)
            ji = mat_vec(nabla_op[j], G[i][k], zero)
            br = mat_vec(gamma_k[k], cij, zero)
            rv[i, j, k] = tuple(
                model.scalar(signed_sum((model.diff(i, G[j][k][l]), ij[l]),
                                        (model.diff(j, G[i][k][l]), ji[l], br[l]),
                                        zero))
                for l in range(d))
    nested = tuple(tuple(tuple(tuple(rv[i, j, k][l] for j in range(d))
                               for i in range(d)) for k in range(d))
                   for l in range(d))
    return CurvatureData(connection=conn, _nested=nested)


def ricci_scalar(curv: CurvatureData) -> tuple[TensorField, Scalar]:
    """(Ricci tensor, scalar curvature); also cached on the CurvatureData."""
    model = curv.model
    d = model.dim
    zero = model.zero
    R = curv._nested
    entries = {(j, k): signed_sum((R[a][k][a][j] for a in range(d)), (), zero)
               for j, k in product(range(d), repeat=2)}
    S = TensorField.from_entries(model, (0, 2), entries)
    r = model.scalar(trace_product(curv.connection.metric_inverse, S.rows(), zero))
    curv.ricci, curv.scalar = S, r
    return S, r


def star_ricci_scalar(curv: CurvatureData, phi: TensorField,
                      ) -> tuple[TensorField, Scalar]:
    """(star-Ricci tensor, star scalar); assumes phi is g-skew-adjoint."""
    model = curv.model
    d = model.dim
    zero = model.zero
    R = curv._nested
    ph = phi.rows()
    phicols = tuple(zip(*ph))
    entries = {}
    for a in range(d):
        # ops[m] = matrix of R(e_m, e_a)
        ops = [tuple(tuple(rlk[m][a] for rlk in rl) for rl in R)
               for m in range(d)]
        for b in range(d):
            # column m of Z -> R(Z, e_a) phi e_b
            img = [mat_vec(op, phicols[b], zero) for op in ops]
            entries[(a, b)] = -trace_product(ph, tuple(zip(*img)), zero)
    S = TensorField.from_entries(model, (0, 2), entries)
    r = model.scalar(trace_product(curv.connection.metric_inverse, S.rows(), zero))
    curv.star_ricci, curv.star_scalar = S, r
    return S, r


# ---------------------------------------------------------------------------
# residuals for the structural invariants (all identically zero when exact)

def torsion_residual(conn: ConnectionData) -> TensorField:
    model = conn.model
    d = model.dim
    entries = {}
    for i, j in product(range(d), repeat=2):
        cij = model.bracket_vector(i, j)
        for k in range(d):
            entries[(k, i, j)] = conn.coeffs[i][j][k] - conn.coeffs[j][i][k] - cij[k]
    return TensorField.from_entries(model, (1, 2), entries)


def metric_compatibility_residual(conn: ConnectionData, g: TensorField) -> TensorField:
    return covariant_derivative(g, conn)


def curvature_antisymmetry_residual(curv: CurvatureData) -> TensorField:
    model = curv.model
    d = model.dim
    entries = {}
    R = curv._nested
    for l, k, i, j in product(range(d), repeat=4):
        entries[(l, k, i, j)] = R[l][k][i][j] + R[l][k][j][i]
    return TensorField.from_entries(model, (1, 3), entries)


def first_bianchi_residual(curv: CurvatureData) -> TensorField:
    model = curv.model
    d = model.dim
    entries = {}
    R = curv._nested
    for l, k, i, j in product(range(d), repeat=4):
        entries[(l, k, i, j)] = R[l][k][i][j] + R[l][i][j][k] + R[l][j][k][i]
    return TensorField.from_entries(model, (1, 3), entries)


def ricci_symmetry_residual(curv: CurvatureData) -> TensorField:
    S = curv.ricci if curv.ricci is not None else ricci_scalar(curv)[0]
    model = curv.model
    d = model.dim
    entries = {(j, k): S[(j, k)] - S[(k, j)] for j, k in product(range(d), repeat=2)}
    return TensorField.from_entries(model, (0, 2), entries)
