"""Homothetic-type deformations of almost paracontact metric structures.

A deformation with parameters (alpha, beta), alpha != 0, beta > 0, sends
(phi, xi, eta, g) to

    phi~ = phi,   xi~ = xi / alpha,   eta~ = alpha eta,
    g~   = beta g + (alpha^2 - beta) eta (x) eta,

and is called homothetic when alpha^2 = beta.  The family composes by
multiplying parameters: (a1, b1) then (a2, b2) equals (a1 a2, b1 b2).

verify_deformation_relations recomputes the deformed Levi-Civita data
independently from g~ and checks the transformation laws as exact residuals:

  i00   nabla~_X Y = nabla_X Y + t (eta(Y) A X + eta(X) A Y),
        with t = alpha^2/beta - 1 and A = nabla xi
  i5    A~ = (alpha/beta) A
  i6    g~(A~ X, Y) = alpha g(A X, Y)
  i777  R~(X,Y)Z = R(X,Y)Z + (nabla_X B)(Y,Z) - (nabla_Y B)(X,Z)
        + B(X, B(Y,Z)) - B(Y, B(X,Z)),  B(X,Y) = t (eta(Y) A X + eta(X) A Y)

detect_homothetic_origin inverts the theorem for quasi-para-Sasakian
structures with A = lambda phi, lambda a nonzero constant: the parameters
(-lambda, lambda^2) deform the structure to a para-Sasakian one, and the
recovery is verified by applying them and classifying the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .curvature import covariant_derivative
from .linalg import dot, mat_vec, quotient, signed_sum
from .models import TensorField, constant_ratio
from .report import CheckResult, residual_check
from .structures import ParacontactStructure, StructureError


@dataclass(frozen=True)
class DeformationParams:
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.alpha == 0:
            raise ValueError("deformation needs alpha != 0")
        if self.beta <= 0:
            raise ValueError("deformation needs beta > 0")

    @property
    def homothetic(self) -> bool:
        return self.alpha ** 2 == self.beta

    def compose(self, other: "DeformationParams") -> "DeformationParams":
        return DeformationParams(self.alpha * other.alpha, self.beta * other.beta)

    def __str__(self) -> str:
        return f"(alpha={self.alpha}, beta={self.beta})"


@dataclass
class DeformationReport:
    params: DeformationParams
    results: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())


DEFORMATION_KEYS = ("i00", "i5", "i6", "i777")


def apply_deformation(s: ParacontactStructure,
                      params: DeformationParams) -> ParacontactStructure:
    """Return the deformed structure; derived data is recomputed lazily."""
    model = s.model
    alpha, beta = model.scalar(params.alpha), model.scalar(params.beta)
    xi2 = s.xi * quotient(1, alpha)
    eta2 = s.eta * alpha
    ev = s.eta.data
    d = model.dim
    entries = {}
    for i, j in product(range(d), repeat=2):
        entries[(i, j)] = s.g[(i, j)] * beta + ev[i] * ev[j] * (alpha ** 2 - beta)
    g2 = TensorField.from_entries(model, (0, 2), entries)
    base = s.name or "structure"
    return ParacontactStructure(
        model, s.phi, xi2, g2, eta2,
        name=f"{base}-deformed({params.alpha},{params.beta})")


def verify_deformation_relations(s: ParacontactStructure,
                                 params: DeformationParams) -> DeformationReport:
    """Check the connection/shape/metric/curvature transformation laws.

    The deformed side is computed independently from g~ (its own Koszul
    formula and curvature), never from the laws being verified.
    """
    model = s.model
    d = model.dim
    labels = model.basis_labels
    st = apply_deformation(s, params)
    alpha, beta = model.scalar(params.alpha), model.scalar(params.beta)
    t = quotient(alpha ** 2, beta) - 1
    conn, conn2 = s.connection, st.connection  # also checks g, g~ symmetric
    A_cols, A2_cols = tuple(zip(*s.A.rows())), tuple(zip(*st.A.rows()))
    # Bv[i][j] = B(e_i, e_j) = t (eta(e_j) A e_i + eta(e_i) A e_j)
    tev = [t * e if t and e else 0 for e in s.eta.data]
    Bv = [[tuple(dot((tev[j], tev[i]), (A_cols[i][l], A_cols[j][l]))
                 for l in range(d)) for j in range(d)] for i in range(d)]
    report = DeformationReport(params=params)

    def i00_entries():
        for i, j in product(range(d), repeat=2):
            lhs = conn2.vector_at(i, j)
            rhs = conn.vector_at(i, j)
            for l in range(d):
                yield (i, j), signed_sum((lhs[l],), (rhs[l], Bv[i][j][l]))

    report.results["i00"] = residual_check("i00", i00_entries(), labels)

    def i5_entries():
        f = quotient(alpha, beta)
        for i in range(d):
            for l in range(d):
                a = A_cols[i][l]
                yield (i,), signed_sum((A2_cols[i][l],), (a * f if a else a,))

    report.results["i5"] = residual_check("i5", i5_entries(), labels)

    # g(A e_i, .) and g~(A~ e_i, .); g, g~ are symmetric
    gA = [mat_vec(s.g.rows(), A_cols[i]) for i in range(d)]
    gA2 = [mat_vec(st.g.rows(), A2_cols[i]) for i in range(d)]

    def i6_entries():
        for i, j in product(range(d), repeat=2):
            yield (i, j), gA2[i][j] - gA[i][j] * alpha

    report.results["i6"] = residual_check("i6", i6_entries(), labels)

    # B as a (1,2) tensor, its covariant derivative taken with the
    # undeformed connection; B_op[i] is the matrix of B(e_i, .)
    B = TensorField(model, (1, 2), [Bv[i][j][l] for l, i, j
                                    in product(range(d), repeat=3)])
    B_op = [tuple(zip(*Bv[i])) for i in range(d)]
    # nB.vector_at(i, j, k) = (nabla_{e_i} B)(e_j, e_k)
    nB = covariant_derivative(B, conn)
    curv, curv2 = s.curvature, st.curvature

    def i777_entries():
        for i, j, k in product(range(d), repeat=3):
            lhs = curv2.vector_at(k, i, j)
            rhs = curv.vector_at(k, i, j)
            nBji, nBij = nB.vector_at(j, i, k), nB.vector_at(i, j, k)
            t1 = mat_vec(B_op[i], Bv[j][k])
            t2 = mat_vec(B_op[j], Bv[i][k])
            for l in range(d):
                yield (i, j, k), signed_sum((lhs[l], nBji[l], t2[l]),
                                            (rhs[l], nBij[l], t1[l]))

    report.results["i777"] = residual_check("i777", i777_entries(), labels)
    return report


def proportionality_constant(s: ParacontactStructure) -> Fraction | None:
    """The constant lambda with A = lambda phi, or None when there is none."""
    return constant_ratio(zip(s.A.data, s.phi.data))


def detect_homothetic_origin(
        s: ParacontactStructure) -> tuple[Fraction, DeformationParams] | None:
    """Recover deformation parameters carrying s to a para-Sasakian structure.

    Requires a quasi-para-Sasakian structure.  When A = lambda phi for a
    nonzero constant lambda, returns (lambda, params) with params =
    (-lambda, lambda^2); the recovery is verified by applying the parameters
    and classifying the result.  Returns None when no such lambda exists
    (e.g. the paracosymplectic case A = 0).
    """
    cls = s.classification()
    if not cls.flags["quasi_para_sasakian"]:
        raise StructureError(
            f"homothetic-origin detection requires a quasi-para-Sasakian "
            f"structure; classified as {cls.label!r}")
    lam = proportionality_constant(s)
    if lam is None or lam == 0:
        return None
    params = DeformationParams(-lam, lam ** 2)
    recovered = apply_deformation(s, params)
    rcls = recovered.classification()
    if not rcls.flags["para_sasakian"]:
        raise StructureError(
            f"recovered parameters {params} do not yield a para-Sasakian "
            f"structure (got {rcls.label!r})")
    return lam, params
