"""Almost paracontact metric structures (phi, xi, eta, g).

The axioms, with dim M = 2n+1 and signature (n+1, n):

    phi^2 = Id - eta (x) xi,   eta(xi) = 1,
    g(phi X, phi Y) = -g(X, Y) + eta(X) eta(Y),   eta = g(., xi),

which force phi xi = 0, eta o phi = 0 and make the +1/-1 eigendistributions
of phi on ker eta both n-dimensional.  validate_structure checks each axiom
as an exact residual, and the signature and the eigendistributions on the
whole domain, and reports witnesses for failures.

Derived objects: the fundamental 2-form Phi(X,Y) = g(X, phi Y), the
normality tensor N1 = [phi,phi] - 2 deta (x) xi, the shape-like operator
A = nabla xi and h = (1/2) L_xi phi.  classify() evaluates the standard
classes (paracontact metric, K-paracontact, para-Sasakian, paracosymplectic,
quasi-para-Sasakian and its proper subclass) from exact residuals.

A phi-basis (X_1..X_n, Y_i = phi X_i, xi) with g(X_i,X_j) = delta_ij,
g(Y_i,Y_j) = -delta_ij is constructed rationally (no square roots) by
biorthogonalizing the totally isotropic eigendistributions: for u+ in D+,
u- in D- with p = g(u+,u-) != 0, the combinations X, Y = u+/2 +- u-/p
are unit spacelike/timelike, g(X,Y) = 0 and phi X = Y.  On a frame that is
already orthonormal with phi swapping e_i and e_{n+i}, the nullspace gives
u+ = e_i + e_{n+i} and u- = e_{n+i} - e_i, so p = -2 and (X, Y) is exactly
(e_i, e_{n+i}): the phi-basis is the frame, with int entries, and every
contraction over it is integer work.  Pivoting only ever divides by field
elements that are nonzero by nondegeneracy, so the construction stays
inside exact rational arithmetic in both chart and frame modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product
from typing import Mapping, Sequence

from . import linalg
from .curvature import (
    covariant_derivative,
    levi_civita,
    metric_inverse,
    ricci_scalar,
    riemann,
    star_ricci_scalar,
)
from .linalg import bilinear, dot, mat_vec, signed_sum
from .models import (
    ChartModel,
    FrameModel,
    GeometryError,
    ManifoldModel,
    Scalar,
    TensorField,
    _bracket_comps,
    exterior_derivative,
    lie_derivative,
)
from .report import CheckResult, first_nonzero, residual_check


class StructureError(Exception):
    """A structure fails its axioms or a construction precondition.

    Carries the AxiomReport (when one exists) for witness reporting.
    """

    def __init__(self, message: str, report: "AxiomReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass
class AxiomReport:
    checks: list[CheckResult]
    eigen_dims: tuple[int, int] | None = None
    inertia: tuple[int, int, int] | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


_CLASS_FLAGS = (
    "paracontact_metric",
    "K_paracontact",
    "para_sasakian",
    "paracosymplectic",
    "normal",
    "quasi_para_sasakian",
    "proper_quasi_para_sasakian",
)

_LABELS = (
    ("para_sasakian", "para-Sasakian"),
    ("paracosymplectic", "paracosymplectic"),
    ("proper_quasi_para_sasakian", "proper quasi-para-Sasakian"),
    ("quasi_para_sasakian", "quasi-para-Sasakian"),
    ("K_paracontact", "K-paracontact"),
    ("paracontact_metric", "paracontact metric"),
    ("normal", "normal almost paracontact metric"),
)


@dataclass
class Classification:
    """Exact class membership flags plus witnesses for the failed ones."""

    flags: dict[str, bool]
    witnesses: dict[str, str] = field(default_factory=dict)

    @property
    def label(self) -> str:
        for flag, name in _LABELS:
            if self.flags.get(flag):
                return name
        return "almost paracontact metric"


class ParacontactStructure:
    """An almost paracontact metric structure over a chart or frame model.

    ``declared_frame`` optionally lists 2n+1 vector fields claimed to form a
    phi-basis in the order (X_1..X_n, Y_1..Y_n, xi); it is verified, never
    trusted.  If ``eta`` is omitted it is derived as g(., xi) and flagged.
    All derived data (metric inverse, connection, curvature, the Ricci and
    star-Ricci pairs, Phi, deta, dPhi, N1, A, h, phi-basis) is computed
    lazily once; instances are treated as immutable.
    """

    def __init__(self, model: ManifoldModel, phi: TensorField, xi: TensorField,
                 g: TensorField, eta: TensorField | None = None,
                 declared_frame: Sequence[TensorField] | None = None,
                 name: str | None = None):
        if phi.valence != (1, 1) or xi.valence != (1, 0) or g.valence != (0, 2):
            raise GeometryError("phi, xi, g must have valences (1,1), (1,0), (0,2)")
        self.model = model
        self.phi = phi
        self.xi = xi
        self.g = g
        self.eta_derived = eta is None
        if eta is None:
            eta = TensorField.covector(model, mat_vec(g.rows(), xi.vec()))
        elif eta.valence != (0, 1):
            raise GeometryError("eta must have valence (0,1)")
        self.eta = eta
        self.declared_frame = tuple(declared_frame) if declared_frame else None
        self.name = name

    # -- lazy derived data ----------------------------------------------------

    @cached_property
    def metric_inverse(self) -> TensorField:
        return metric_inverse(self.g)

    @cached_property
    def connection(self) -> TensorField:
        """Gamma[(k, i, j)], with nabla_{e_i} e_j = Gamma^k_ij e_k."""
        return levi_civita(self.g, self.metric_inverse)

    @cached_property
    def curvature(self) -> TensorField:
        """R[(l, k, i, j)], with R(e_i, e_j) e_k = R^l_kij e_l."""
        return riemann(self.connection)

    @cached_property
    def ricci(self) -> tuple[TensorField, Scalar]:
        """(S, r): the Ricci tensor and the scalar curvature."""
        return ricci_scalar(self.curvature, self.metric_inverse)

    @cached_property
    def star_ricci(self) -> tuple[TensorField, Scalar]:
        """(S*, r*): the star-Ricci tensor and the star scalar curvature."""
        return star_ricci_scalar(self.curvature, self.phi, self.metric_inverse)

    @cached_property
    def Phi(self) -> TensorField:
        return fundamental_form(self)

    @cached_property
    def deta(self) -> TensorField:
        return exterior_derivative(self.eta)

    @cached_property
    def dPhi(self) -> TensorField:
        return exterior_derivative(self.Phi)

    @cached_property
    def N1(self) -> TensorField:
        return nijenhuis_N1(self)

    @cached_property
    def A(self) -> TensorField:
        """A = nabla xi as a (1,1) tensor: column i holds nabla_{e_i} xi."""
        return covariant_derivative(self.xi, self.connection)

    @cached_property
    def h(self) -> TensorField:
        """h = (1/2) L_xi phi."""
        return lie_derivative(self.phi, self.xi) * Fraction(1, 2)

    @cached_property
    def eigenspaces(self) -> tuple[list[tuple[Scalar, ...]], list[tuple[Scalar, ...]]]:
        """Bases of D+ and D-, the nullspaces of phi - Id and phi + Id over
        the model's field."""
        ph, d = self.phi.rows(), self.model.dim

        def shifted(c: int) -> tuple[tuple[Scalar, ...], ...]:  # phi - c Id
            return tuple(tuple(ph[i][j] - (c if i == j else 0)
                               for j in range(d)) for i in range(d))
        return linalg.nullspace(shifted(1)), linalg.nullspace(shifted(-1))

    @cached_property
    def phi_basis(self) -> tuple[TensorField, ...]:
        return build_phi_basis(self)

    @cached_property
    def _axioms(self) -> AxiomReport:
        return validate_structure(self)

    @cached_property
    def _classification(self) -> Classification:
        return classify(self)

    def axiom_report(self) -> AxiomReport:
        return self._axioms

    def classification(self) -> Classification:
        return self._classification

    def __repr__(self) -> str:
        kind = "chart" if isinstance(self.model, ChartModel) else "frame"
        return f"ParacontactStructure(name={self.name!r}, mode={kind!r}, dim={self.model.dim})"


# ---------------------------------------------------------------------------
# derived tensors

def fundamental_form(s: ParacontactStructure) -> TensorField:
    """Phi(X,Y) = g(X, phi Y); antisymmetric by the compatibility axiom."""
    grows = s.g.rows()
    return TensorField.from_rows(s.model, (0, 2), [
        [dot(row, col) for col in zip(*s.phi.rows())] for row in grows])


def nijenhuis_N1(s: ParacontactStructure) -> TensorField:
    """N1(X,Y) = [phi,phi](X,Y) - 2 deta(X,Y) xi, with
    [phi,phi](X,Y) = phi^2 [X,Y] + [phi X, phi Y] - phi[phi X, Y] - phi[X, phi Y].
    Vanishing is normality."""
    model = s.model
    d = model.dim
    ph = s.phi.rows()
    xv = s.xi.vec()
    deta = s.deta
    phicols = tuple(zip(*ph))
    entries = {}
    for i, j in product(range(d), repeat=2):
        br = model.bracket_vector(i, j)
        t1 = mat_vec(ph, mat_vec(ph, br))
        t2 = _bracket_comps(model, phicols[i], phicols[j])
        t3 = mat_vec(ph, _bracket_comps(model, phicols[i], model.delta(j)))
        t4 = mat_vec(ph, _bracket_comps(model, model.delta(i), phicols[j]))
        dij = deta[(i, j)]
        for k in range(d):
            entries[(k, i, j)] = signed_sum(
                (t1[k], t2[k]),
                (t3[k], t4[k], 2 * dij * xv[k] if dij and xv[k] else 0))
    return TensorField.from_entries(model, (1, 2), entries)


# ---------------------------------------------------------------------------
# axioms

def validate_structure(s: ParacontactStructure) -> AxiomReport:
    """Check every structure axiom as an exact residual, on the whole domain.

    The identities are residuals that must vanish identically.  The two
    pointwise facts are decided over the model's field and hold at every
    point of the domain (see ``ManifoldModel.sign`` and
    ``defined_on_domain``), never at a chosen point.

    ``metric_signature``: g is symmetric, no denominator of g vanishes on
    the domain, and congruence diagonalization over the field gives pivots
    p_1..p_d, each of fixed sign on the domain, with inertia (n+1, n, 0).
    At a domain point q, g(q) is defined, and the same elimination runs on
    g(q): each step divides only by an earlier pivot, nonzero at q, so g(q)
    is congruent to diag(p_1(q), .., p_d(q)), and by Sylvester's law its
    signature is (n+1, n) at q as well.

    ``eigendistributions``: no denominator of phi vanishes on the domain,
    and the nullspaces of phi -+ Id over the field have dimensions (n, n).
    When every other check passes, the dimensions are (n, n) at every
    domain point q too.  g(q) and phi(q) are defined, and g(q) is
    nondegenerate.  So g^-1 and, from eta (x) eta = g(phi., phi.) + g, eta
    are defined at q, hence xi = g^-1 eta is too, and the axioms hold at q.
    Let P = phi(q) and V = ker eta(q), the g(q)-orthogonal complement of
    xi(q), nondegenerate because g(xi, xi) = eta(xi) = 1.  P maps V into V
    (eta o phi = 0) and P^2 = Id on V, so V = D+ + D- with dim D+ + dim D- =
    2n.  For X, Y in D+, g(X, Y) = g(PX, PY) = -g(X, Y), so D+ is totally
    isotropic in V, and so is D-: each has dimension at most n, hence
    exactly n.
    """
    model = s.model
    d, n = model.dim, model.n
    ph, grows = s.phi.rows(), s.g.rows()
    phicols = tuple(zip(*ph))
    xv, ev = s.xi.vec(), s.eta.data
    labels = model.basis_labels
    checks: list[CheckResult] = []

    def axiom(name: str, entries: Mapping[tuple[int, ...], Scalar],
              what: str) -> None:
        check = residual_check(name, entries.items(), labels, what)
        if not check.passed:  # the report also keeps the residual value
            value = first_nonzero(entries.items())[1]
            check = replace(check, details={"residual": str(value)})
        checks.append(check)

    def undefined(name: str, rows) -> str | None:
        """A witness for the first entry whose denominator is not
        certified nonzero on the domain, or None."""
        at = next(((i, j) for i, j in product(range(d), repeat=2)
                   if not model.defined_on_domain(rows[i][j])), None)
        if at is None:
            return None
        i, j = at
        return (f"denominator of {name}({labels[i]},{labels[j]}) = "
                f"{rows[i][j]} is not certified nonzero on the domain")

    # phi^2 = Id - eta (x) xi
    ent = {}
    for k, j in product(range(d), repeat=2):
        ent[(k, j)] = dot(ph[k], phicols[j]) - int(k == j) + xv[k] * ev[j]
    axiom("phi_squared", ent, "phi^2 - Id + eta(x)xi")

    # eta(xi) = 1
    axiom("eta_xi", {(): dot(ev, xv) - 1}, "eta(xi) - 1")

    # g(phi X, phi Y) + g(X, Y) - eta(X) eta(Y) = 0
    ent = {}
    for i, j in product(range(d), repeat=2):
        ent[(i, j)] = (bilinear(grows, phicols[i], phicols[j])
                       + grows[i][j] - ev[i] * ev[j])
    axiom("metric_phi_compatibility", ent, "g(phi.,phi.) + g - eta(x)eta")

    # eta = g(., xi)
    g_xi = mat_vec(grows, xv)
    axiom("eta_is_g_xi", {(j,): ev[j] - g_xi[j] for j in range(d)},
          "eta != g(.,xi); residual")

    # phi xi = 0
    phi_xi = mat_vec(ph, xv)
    axiom("phi_xi", {(k,): phi_xi[k] for k in range(d)}, "phi(xi)")

    # eta o phi = 0
    axiom("eta_phi", {(j,): dot(ev, phicols[j]) for j in range(d)},
          "eta(phi .)")

    # metric signature (n+1, n) on the whole domain; inertia is defined
    # for a symmetric g only, so an asymmetric pair is the witness
    inertia: tuple[int, int, int] | None = None
    asym = next(((i, j) for i, j in combinations(range(d), 2)
                 if grows[i][j] != grows[j][i]), None)
    if asym is not None:
        i, j = asym
        witness = (f"g({labels[i]},{labels[j]}) = {grows[i][j]}, "
                   f"g({labels[j]},{labels[i]}) = {grows[j][i]}")
    else:
        witness = undefined("g", grows)
        if witness is None:
            inertia, unsigned = linalg.symmetric_signature(grows, model.sign)
            if unsigned is not None:
                witness = f"pivot {unsigned} has no fixed sign on the domain"
            elif inertia != (n + 1, n, 0):
                witness = f"inertia {inertia}, expected {(n + 1, n, 0)}"
    checks.append(CheckResult("metric_signature", witness is None, witness))

    # eigendistributions of phi: dim D+ = dim D- = n
    eigen: tuple[int, int] | None = None
    witness = undefined("phi", ph)
    if witness is None:
        eigen = tuple(map(len, s.eigenspaces))
        if eigen != (n, n):
            witness = f"dim(D+, D-) = {eigen}, expected {(n, n)}"
    checks.append(CheckResult("eigendistributions", witness is None, witness))

    # declared frame, when given, must be an honest phi-basis
    if s.declared_frame is not None:
        checks.append(_declared_frame_check(s))

    return AxiomReport(checks=checks, eigen_dims=eigen, inertia=inertia)


def _declared_frame_check(s: ParacontactStructure) -> CheckResult:
    name = "declared_frame_phi_basis"
    model = s.model
    d, n = model.dim, model.n
    frame = s.declared_frame
    if len(frame) != d:
        return CheckResult(name, False,
                           witness=f"expected {d} frame fields, got {len(frame)}")
    ph = s.phi.rows()
    cols = [f.vec() for f in frame]
    frame_names = (["e" + str(i + 1) for i in range(d - 1)] + ["xi"]
                   if not isinstance(model, FrameModel) else list(model.labels))
    mismatch = _gram_mismatch(s, cols)
    if mismatch:
        a, b, value, expected = mismatch
        return CheckResult(
            name, False,
            witness=(f"g({frame_names[a]},{frame_names[b]}) = {value} "
                     f"(should be {expected})"),
            details={"residual": str(value - expected)})
    # Y_i = phi X_i and the last field is xi
    for i in range(n):
        img = mat_vec(ph, cols[i])
        diff = [a - b for a, b in zip(img, cols[n + i])]
        if any(diff):
            return CheckResult(
                name, False, witness=f"phi({frame_names[i]}) != {frame_names[n + i]}")
    xdiff = [a - b for a, b in zip(cols[d - 1], s.xi.vec())]
    if any(xdiff):
        return CheckResult(name, False, witness="last declared frame field is not xi")
    return CheckResult(name, True)


# ---------------------------------------------------------------------------
# phi-basis construction

def build_phi_basis(s: ParacontactStructure) -> tuple[TensorField, ...]:
    """Return (X_1..X_n, Y_1..Y_n, xi) with the standard Gram matrix.

    Uses the declared frame when the axiom report verified it; otherwise
    biorthogonalizes exact bases of the phi-eigendistributions and sets
    X_i, Y_i = u+/2 +- u-/p = (p u+ +- 2 u-) / (2p), one exact quotient per
    entry, so an orthonormal frame with phi swapping e_i and e_{n+i} comes
    back as itself, in ints.  Raises
    StructureError when the eigendistributions do not split n/n, which is
    an axiom failure.
    """
    model = s.model
    n = model.n
    if s.declared_frame is not None:
        check = next(c for c in s.axiom_report().checks
                     if c.name == "declared_frame_phi_basis")
        if check.passed:
            return s.declared_frame
        raise StructureError(f"declared frame is not a phi-basis: {check.witness}")
    vplus, vminus = s.eigenspaces
    if len(vplus) != n or len(vminus) != n:
        raise StructureError(
            f"eigendistributions have dimensions ({len(vplus)}, {len(vminus)}), "
            f"expected ({n}, {n})")
    grows = s.g.rows()
    up = [list(v) for v in vplus]
    um = [list(v) for v in vminus]
    for i in range(n):
        # pivot: a nonzero pairing g(u+_a, u-_b); exists by nondegeneracy
        pivot = next(((a, b) for a in range(i, n) for b in range(i, n)
                      if bilinear(grows, up[a], um[b])), None)
        if pivot is None:
            raise StructureError("degenerate pairing between eigendistributions")
        a, b = pivot
        up[i], up[a] = up[a], up[i]
        um[i], um[b] = um[b], um[i]
        p = bilinear(grows, up[i], um[i])
        for r in range(i + 1, n):
            f = linalg.quotient(bilinear(grows, up[r], um[i]), p)
            up[r] = [c - f * ci for c, ci in zip(up[r], up[i])]
            f = linalg.quotient(bilinear(grows, up[i], um[r]), p)
            um[r] = [c - f * ci for c, ci in zip(um[r], um[i])]
    xs, ys = [], []
    for i in range(n):
        p = bilinear(grows, up[i], um[i])
        pairs = tuple(zip(up[i], um[i]))
        xvec = tuple(linalg.quotient(p * c + 2 * m, 2 * p) for c, m in pairs)
        yvec = tuple(linalg.quotient(p * c - 2 * m, 2 * p) for c, m in pairs)
        xs.append(TensorField.vector(model, xvec))
        ys.append(TensorField.vector(model, yvec))
    basis = tuple(xs) + tuple(ys) + (s.xi,)
    mismatch = _gram_mismatch(s, [f.vec() for f in basis])
    if mismatch:
        a, b, value, _ = mismatch
        raise StructureError(f"phi-basis verification failed: g(b{a},b{b}) = {value}")
    return basis


def _gram_mismatch(s: ParacontactStructure, cols: Sequence[Sequence[Scalar]],
                   ) -> tuple[int, int, Scalar, int] | None:
    """The first (a, b, g(b_a, b_b), expected), a <= b, where the Gram
    matrix of the fields differs from the phi-basis's diag(+1 x n, -1 x n,
    +1), or None.  a <= b suffices for a symmetric metric, the only kind
    levi_civita accepts.
    """
    grows = s.g.rows()
    eps = phi_basis_eps(s)
    for a, b in combinations_with_replacement(range(len(cols)), 2):
        expected = eps[a] if a == b else 0
        value = bilinear(grows, cols[a], cols[b])
        if value - expected:
            return a, b, value, expected
    return None


def phi_basis_eps(s: ParacontactStructure) -> tuple[int, ...]:
    """Causal characters of the phi-basis in its standard order."""
    n = s.model.n
    return tuple([1] * n + [-1] * n + [1])


# ---------------------------------------------------------------------------
# classification

def classify(s: ParacontactStructure) -> Classification:
    """Exact class membership; refuses with the axiom report on failure."""
    report = s.axiom_report()
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        raise StructureError(f"structure fails axioms: {names}", report)
    labels = s.model.basis_labels
    deta, dPhi, N1 = s.deta, s.dPhi, s.N1
    lxi_g = lie_derivative(s.g, s.xi)

    flags: dict[str, bool] = {}
    witnesses: dict[str, str] = {}

    def record(flag: str, residual: TensorField, what: str) -> bool:
        check = residual_check(flag, residual.items(), labels, what)
        flags[flag] = check.passed
        if not check.passed:
            witnesses[flag] = check.witness
        return check.passed

    pcm = record("paracontact_metric", s.Phi - deta, "Phi - deta")
    if pcm:
        record("K_paracontact", lxi_g, "L_xi g")
    else:
        flags["K_paracontact"] = False
        witnesses["K_paracontact"] = witnesses["paracontact_metric"]
    normal = record("normal", N1, "N1")
    flags["para_sasakian"] = normal and pcm
    if not flags["para_sasakian"]:
        witnesses["para_sasakian"] = witnesses.get("normal",
                                                   witnesses.get("paracontact_metric", ""))
    closed_dPhi = residual_check("dPhi", dPhi.items(), labels, "dPhi")
    closed_deta = residual_check("deta", deta.items(), labels, "deta")
    flags["paracosymplectic"] = closed_dPhi.passed and closed_deta.passed
    if not flags["paracosymplectic"]:
        witnesses["paracosymplectic"] = closed_dPhi.witness or closed_deta.witness
    flags["quasi_para_sasakian"] = normal and closed_dPhi.passed
    if not flags["quasi_para_sasakian"]:
        witnesses["quasi_para_sasakian"] = witnesses.get("normal",
                                                         closed_dPhi.witness)
    flags["proper_quasi_para_sasakian"] = (flags["quasi_para_sasakian"]
                                           and not flags["para_sasakian"]
                                           and not flags["paracosymplectic"])
    ordered = {k: flags[k] for k in _CLASS_FLAGS}
    return Classification(flags=ordered,
                          witnesses={k: v for k, v in witnesses.items() if v})
