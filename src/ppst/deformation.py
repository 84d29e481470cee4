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
from .linalg import mat_vec
from .models import TensorField, constant_value
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
class DeformationResult:
    key: str
    passed: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        out = {"key": self.key, "passed": self.passed}
        if self.witness:
            out["witness"] = self.witness
        return out


@dataclass
class DeformationReport:
    structure_name: str | None
    params: DeformationParams
    results: dict[str, DeformationResult] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def to_dict(self) -> dict:
        return {
            "structure": self.structure_name,
            "alpha": str(self.params.alpha),
            "beta": str(self.params.beta),
            "homothetic": self.params.homothetic,
            "passed": self.passed,
            "relations": [self.results[k].to_dict() for k in sorted(self.results)],
        }


DEFORMATION_KEYS = ("i00", "i5", "i6", "i777")


def apply_deformation(s: ParacontactStructure,
                      params: DeformationParams) -> ParacontactStructure:
    """Return the deformed structure; derived data is recomputed lazily."""
    model = s.model
    alpha, beta = params.alpha, params.beta
    xi2 = s.xi * (Fraction(1) / alpha)
    eta2 = s.eta * alpha
    ev = s.eta.data
    d = model.dim
    entries = {}
    for i, j in product(range(d), repeat=2):
        entries[(i, j)] = s.g[(i, j)] * beta + ev[i] * ev[j] * (alpha ** 2 - beta)
    g2 = TensorField.from_entries(model, (0, 2), entries)
    base = s.name or "structure"
    return ParacontactStructure(model, s.phi, xi2, g2, eta2,
                                name=f"{base}-deformed({alpha},{beta})")


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
    alpha, beta = params.alpha, params.beta
    t = model.scalar(alpha ** 2 / beta - 1)
    zero = model.zero
    conn, conn2 = s.connection, st.connection  # also checks g, g~ symmetric
    A_cols, A2_cols = tuple(zip(*s.A.rows())), tuple(zip(*st.A.rows()))
    ev = s.eta.data
    # Bv[i][j] = B(e_i, e_j) = t (eta(e_j) A e_i + eta(e_i) A e_j)
    Bv = [[tuple(t * (ev[j] * A_cols[i][l] + ev[i] * A_cols[j][l])
                 for l in range(d)) for j in range(d)] for i in range(d)]
    report = DeformationReport(structure_name=s.name, params=params)

    def record(key: str, entries) -> None:
        for idx, value in entries:
            if value:
                args = ",".join(labels[i] for i in idx)
                report.results[key] = DeformationResult(
                    key, False, witness=f"residual at ({args}): {value}")
                return
        report.results[key] = DeformationResult(key, True)

    def i00_entries():
        for i, j in product(range(d), repeat=2):
            lhs = conn2.nabla_basis(i, j)
            rhs = conn.nabla_basis(i, j)
            for l in range(d):
                yield (i, j), lhs[l] - rhs[l] - Bv[i][j][l]

    record("i00", i00_entries())

    def i5_entries():
        f = alpha / beta
        for i in range(d):
            for l in range(d):
                yield (i,), A2_cols[i][l] - A_cols[i][l] * f

    record("i5", i5_entries())

    # g(A e_i, .) and g~(A~ e_i, .); g, g~ are symmetric
    gA = [mat_vec(s.g.rows(), A_cols[i], zero) for i in range(d)]
    gA2 = [mat_vec(st.g.rows(), A2_cols[i], zero) for i in range(d)]

    def i6_entries():
        for i, j in product(range(d), repeat=2):
            yield (i, j), gA2[i][j] - gA[i][j] * alpha

    record("i6", i6_entries())

    # B as a (1,2) tensor, its covariant derivative taken with the
    # undeformed connection; B_op[i] is the matrix of B(e_i, .)
    B = TensorField.from_entries(model, (1, 2), {
        (l, i, j): Bv[i][j][l] for i, j, l in product(range(d), repeat=3)})
    B_op = [tuple(zip(*Bv[i])) for i in range(d)]
    nB = covariant_derivative(B, conn)
    curv, curv2 = s.curvature, st.curvature

    def i777_entries():
        for i, j, k in product(range(d), repeat=3):
            lhs = curv2.apply(i, j, k)
            rhs = curv.apply(i, j, k)
            t1 = mat_vec(B_op[i], Bv[j][k], zero)
            t2 = mat_vec(B_op[j], Bv[i][k], zero)
            for l in range(d):
                corr = (nB[(l, i, j, k)] - nB[(l, j, i, k)] + t1[l] - t2[l])
                yield (i, j, k), lhs[l] - rhs[l] - corr

    record("i777", i777_entries())
    return report


def proportionality_constant(s: ParacontactStructure) -> Fraction | None:
    """The constant lambda with A = lambda phi, or None when there is none."""
    ph = s.phi.rows()
    A = s.A.rows()
    d = s.model.dim
    lam = None
    for k, i in product(range(d), repeat=2):
        if ph[k][i]:
            lam = constant_value(A[k][i] / ph[k][i])
            if lam is None:
                return None
            break
    if lam is None:
        return None
    if not (s.A - s.phi * lam).is_zero:
        return None
    return lam


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
