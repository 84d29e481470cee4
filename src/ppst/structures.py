"""Almost paracontact metric structures (phi, xi, eta, g).

The axioms, with dim M = 2n+1 and signature (n+1, n):

    phi^2 = Id - eta (x) xi,   eta(xi) = 1,
    g(phi X, phi Y) = -g(X, Y) + eta(X) eta(Y),   eta = g(., xi),

which force phi xi = 0, eta o phi = 0 and make the +1/-1 eigendistributions
of phi on ker eta both n-dimensional.  validate_structure checks each axiom
as an exact residual and reports witnesses for failures.

Derived objects: the fundamental 2-form Phi(X,Y) = g(X, phi Y), the
normality tensor N1 = [phi,phi] - 2 deta (x) xi, the shape-like operator
A = nabla xi and h = (1/2) L_xi phi.  classify() evaluates the standard
classes (paracontact metric, K-paracontact, para-Sasakian, paracosymplectic,
quasi-para-Sasakian and its proper subclass) from exact residuals.

A phi-basis (X_1..X_n, Y_i = phi X_i, xi) with g(X_i,X_j) = delta_ij,
g(Y_i,Y_j) = -delta_ij is constructed rationally (no square roots) by
biorthogonalizing the totally isotropic eigendistributions: for u+ in D+,
u- in D- with p = g(u+,u-) != 0, the combinations u+ +- u-/(2p) are unit
spacelike/timelike.  Pivoting only ever divides by field elements that are
nonzero by nondegeneracy, so the construction stays inside exact rational
arithmetic in both chart and frame modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product
from typing import Mapping, Sequence

from . import linalg
from .curvature import (
    ConnectionData,
    CurvatureData,
    covariant_derivative,
    levi_civita,
    ricci_scalar,
    riemann,
    star_ricci_scalar,
)
from .expr import EvaluationError
from .linalg import bilinear, dot, mat_vec, signed_sum
from .models import (
    ChartModel,
    FrameModel,
    GeometryError,
    ManifoldModel,
    Scalar,
    TensorField,
    _bracket_comps,
    evaluate_at,
    exterior_derivative,
    lie_derivative,
    sample_points,
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
    sample_point: dict[str, Fraction]
    eigen_dims: tuple[int, int] | None = None
    inertia: tuple[int, int, int] | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "sample_point": {k: str(v) for k, v in self.sample_point.items()},
            "eigen_dims": list(self.eigen_dims) if self.eigen_dims else None,
            "inertia": list(self.inertia) if self.inertia else None,
            "checks": [c.to_dict() for c in self.checks],
        }


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

    def to_dict(self) -> dict:
        return {"label": self.label, "flags": dict(self.flags),
                "witnesses": dict(self.witnesses)}


class ParacontactStructure:
    """An almost paracontact metric structure over a chart or frame model.

    ``declared_frame`` optionally lists 2n+1 vector fields claimed to form a
    phi-basis in the order (X_1..X_n, Y_1..Y_n, xi); it is verified, never
    trusted.  If ``eta`` is omitted it is derived as g(., xi) and flagged.
    All derived data (connection, curvature, Phi, deta, dPhi, N1, A, h,
    phi-basis) is computed lazily once; instances are treated as immutable.
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
            eta = TensorField.covector(model, mat_vec(g.rows(), xi.vec(), model.zero))
        elif eta.valence != (0, 1):
            raise GeometryError("eta must have valence (0,1)")
        self.eta = eta
        self.declared_frame = tuple(declared_frame) if declared_frame else None
        self.name = name

    # -- lazy derived data ----------------------------------------------------

    @cached_property
    def connection(self) -> ConnectionData:
        return levi_civita(self.g)

    @cached_property
    def curvature(self) -> CurvatureData:
        curv = riemann(self.connection)
        ricci_scalar(curv)
        star_ricci_scalar(curv, self.phi)
        return curv

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
        return tensor_A(self)

    @cached_property
    def h(self) -> TensorField:
        return tensor_h(self)

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
    zero = s.model.zero
    return TensorField.from_rows(s.model, (0, 2), [
        [dot(row, col, zero) for col in zip(*s.phi.rows())] for row in grows])


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
    zero = model.zero
    entries = {}
    for i, j in product(range(d), repeat=2):
        br = model.bracket_vector(i, j)
        t1 = mat_vec(ph, mat_vec(ph, br, zero), zero)
        t2 = _bracket_comps(model, phicols[i], phicols[j])
        t3 = mat_vec(ph, _bracket_comps(model, phicols[i], model.delta(j)), zero)
        t4 = mat_vec(ph, _bracket_comps(model, model.delta(i), phicols[j]), zero)
        dij = deta[(i, j)]
        for k in range(d):
            entries[(k, i, j)] = signed_sum(
                (t1[k], t2[k]),
                (t3[k], t4[k], 2 * dij * xv[k] if dij and xv[k] else zero),
                zero)
    return TensorField.from_entries(model, (1, 2), entries)


def tensor_A(s: ParacontactStructure) -> TensorField:
    """A = nabla xi as a (1,1) tensor: column i holds nabla_{e_i} xi."""
    return covariant_derivative(s.xi, s.connection)


def tensor_h(s: ParacontactStructure) -> TensorField:
    """h = (1/2) L_xi phi."""
    return lie_derivative(s.phi, s.xi) * Fraction(1, 2)


# ---------------------------------------------------------------------------
# axioms

def _evaluate_matrix(s: ParacontactStructure, T: TensorField,
                     point: Mapping[str, Fraction]) -> list[list[Fraction]]:
    d = s.model.dim
    rows = T.rows()
    cons = s.model.constraints
    return [[evaluate_at(rows[i][j], point, cons) for j in range(d)]
            for i in range(d)]


def validate_structure(s: ParacontactStructure,
                       point: Mapping[str, Fraction] | None = None) -> AxiomReport:
    """Check every structure axiom as an exact residual.

    Pointwise linear-algebra facts (metric signature, eigendistribution
    dimensions) are checked at an exact rational sample point in chart mode
    and symbolically (constant data) in frame mode.
    """
    model = s.model
    d, n = model.dim, model.n
    ph, grows = s.phi.rows(), s.g.rows()
    phicols = tuple(zip(*ph))
    xv, ev = s.xi.vec(), s.eta.data
    zero = model.zero
    pt = dict(point) if point is not None else sample_points(model, 1)[0]
    checks: list[CheckResult] = []

    def axiom(name: str, entries: Mapping[tuple[int, ...], Scalar],
              what: str) -> None:
        check = residual_check(name, entries.items(), model.basis_labels, what)
        if not check.passed:  # the report also keeps the residual value
            value = first_nonzero(entries.items())[1]
            check = replace(check, details={"residual": str(value)})
        checks.append(check)

    # phi^2 = Id - eta (x) xi
    ent = {}
    for k, j in product(range(d), repeat=2):
        delta = model.one if k == j else zero
        ent[(k, j)] = dot(ph[k], phicols[j], zero) - delta + xv[k] * ev[j]
    axiom("phi_squared", ent, "phi^2 - Id + eta(x)xi")

    # eta(xi) = 1
    axiom("eta_xi", {(): dot(ev, xv, zero) - model.one}, "eta(xi) - 1")

    # g(phi X, phi Y) + g(X, Y) - eta(X) eta(Y) = 0
    ent = {}
    for i, j in product(range(d), repeat=2):
        ent[(i, j)] = (bilinear(grows, phicols[i], phicols[j], zero)
                       + grows[i][j] - ev[i] * ev[j])
    axiom("metric_phi_compatibility", ent, "g(phi.,phi.) + g - eta(x)eta")

    # eta = g(., xi)
    g_xi = mat_vec(grows, xv, zero)
    axiom("eta_is_g_xi", {(j,): ev[j] - g_xi[j] for j in range(d)},
          "eta != g(.,xi); residual")

    # phi xi = 0
    phi_xi = mat_vec(ph, xv, zero)
    axiom("phi_xi", {(k,): phi_xi[k] for k in range(d)}, "phi(xi)")

    # eta o phi = 0
    axiom("eta_phi", {(j,): dot(ev, phicols[j], zero) for j in range(d)},
          "eta(phi .)")

    # metric signature (n+1, n) at the sample point; inertia is defined
    # for a symmetric g only, so an asymmetric pair is the witness
    inertia: tuple[int, int, int] | None = None
    asym = next(((i, j) for i, j in combinations(range(d), 2)
                 if grows[i][j] != grows[j][i]), None)
    if asym is not None:
        i, j = asym
        li, lj = model.basis_labels[i], model.basis_labels[j]
        checks.append(CheckResult(
            "metric_signature", False,
            witness=f"g({li},{lj}) = {grows[i][j]}, g({lj},{li}) = {grows[j][i]}"))
    else:
        try:
            inertia = linalg.symmetric_signature(_evaluate_matrix(s, s.g, pt))
            ok = inertia == (n + 1, n, 0)
            checks.append(CheckResult(
                "metric_signature", ok, witness=None if ok else
                f"inertia {inertia} at {pt}, expected {(n + 1, n, 0)}"))
        except EvaluationError as exc:  # e.g. a constraint violated at a custom point
            inertia = None
            checks.append(CheckResult("metric_signature", False, witness=str(exc)))

    # eigendistributions of phi: dim D+ = dim D- = n
    eigen: tuple[int, int] | None
    try:
        pmat = _evaluate_matrix(s, s.phi, pt)
        dims = []
        for sign in (1, -1):
            m = [[pmat[i][j] - (sign if i == j else 0) for j in range(d)]
                 for i in range(d)]
            dims.append(d - linalg.rank(m))
        eigen = (dims[0], dims[1])
        ok = eigen == (n, n)
        checks.append(CheckResult("eigendistributions", ok,
                                  witness=None if ok else
                                  f"dim(D+, D-) = {eigen}, expected {(n, n)}"))
    except EvaluationError as exc:
        eigen = None
        checks.append(CheckResult("eigendistributions", False, witness=str(exc)))

    # declared frame, when given, must be an honest phi-basis
    if s.declared_frame is not None:
        checks.append(_declared_frame_check(s))

    return AxiomReport(checks=checks, sample_point=pt, eigen_dims=eigen,
                       inertia=inertia)


def _declared_frame_check(s: ParacontactStructure) -> CheckResult:
    name = "declared_frame_phi_basis"
    model = s.model
    d, n = model.dim, model.n
    frame = s.declared_frame
    if len(frame) != d:
        return CheckResult(name, False,
                           witness=f"expected {d} frame fields, got {len(frame)}")
    ph = s.phi.rows()
    zero = model.zero
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
        img = mat_vec(ph, cols[i], zero)
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
    biorthogonalizes exact bases of the phi-eigendistributions.  Raises
    StructureError when the eigendistributions do not split n/n, which is
    an axiom failure.
    """
    model = s.model
    d, n = model.dim, model.n
    if s.declared_frame is not None:
        check = next(c for c in s.axiom_report().checks
                     if c.name == "declared_frame_phi_basis")
        if check.passed:
            return s.declared_frame
        raise StructureError(f"declared frame is not a phi-basis: {check.witness}")
    ph = s.phi.rows()
    one, zero = model.one, model.zero
    plus_mat = tuple(tuple(ph[i][j] - (one if i == j else zero)
                           for j in range(d)) for i in range(d))
    minus_mat = tuple(tuple(ph[i][j] + (one if i == j else zero)
                            for j in range(d)) for i in range(d))
    vplus = linalg.nullspace(plus_mat, one)
    vminus = linalg.nullspace(minus_mat, one)
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
                      if bilinear(grows, up[a], um[b], zero)), None)
        if pivot is None:
            raise StructureError("degenerate pairing between eigendistributions")
        a, b = pivot
        up[i], up[a] = up[a], up[i]
        um[i], um[b] = um[b], um[i]
        p = bilinear(grows, up[i], um[i], zero)
        for r in range(i + 1, n):
            f = bilinear(grows, up[r], um[i], zero) / p
            up[r] = [c - f * ci for c, ci in zip(up[r], up[i])]
            f = bilinear(grows, up[i], um[r], zero) / p
            um[r] = [c - f * ci for c, ci in zip(um[r], um[i])]
    xs, ys = [], []
    for i in range(n):
        p2 = 2 * bilinear(grows, up[i], um[i], zero)
        xvec = tuple(c + cm / p2 for c, cm in zip(up[i], um[i]))
        yvec = tuple(c - cm / p2 for c, cm in zip(up[i], um[i]))
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
    zero = s.model.zero
    eps = phi_basis_eps(s)
    for a, b in combinations_with_replacement(range(len(cols)), 2):
        expected = eps[a] if a == b else 0
        value = bilinear(grows, cols[a], cols[b], zero)
        if value - s.model.scalar(expected):
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
