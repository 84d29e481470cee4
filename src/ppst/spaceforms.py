"""Constant-curvature analysis, the model catalog, and a search harness.

The central executable statement: a quasi-para-Sasakian manifold of constant
curvature K has K <= 0; K = 0 forces A = nabla xi = 0, nabla phi = 0 and the
paracosymplectic class, while K < 0 forces A = lambda phi for a nonzero
constant lambda with

    K = -lambda^2,        tr(phi A) = 2 n lambda,
    S = 2 n K g,          S* = K (-g + eta (x) eta),
    g(A Y, phi Z) = -lambda (g(Y,Z) - eta(Y) eta(Z)),

and the structure is recovered from a para-Sasakian one by the homothetic
deformation with parameters (-lambda, lambda^2).  Every clause is checked as
an exact residual by check_constant_curvature_theorem.

model_catalog() bundles the reference structures used across the test suite,
including one whose printed chart data is known to be internally inconsistent
(kept for inconsistency-detection coverage).  search_constant_negative_
curvature enumerates frame bracket tables over a small rational grid and
returns those whose standard structure is quasi-para-Sasakian of constant
negative curvature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from .curvature import covariant_derivative
from .deformation import (
    DeformationParams,
    apply_deformation,
    detect_homothetic_origin,
    proportionality_constant,
)
from .linalg import bilinear, mat_vec, trace_product
from .models import (
    ChartModel,
    FrameModel,
    GeometryError,
    TensorField,
    constant_value,
    exterior_derivative,
)
from .structures import ParacontactStructure, StructureError, nijenhuis_N1


def constant_curvature_of(s: ParacontactStructure) -> Fraction | None:
    """The constant K with R(X,Y)Z = K(g(Y,Z)X - g(X,Z)Y), or None."""
    model = s.model
    d = model.dim
    R = s.curvature.apply
    grows = s.g.rows()
    zero = model.zero
    K = None
    for i, j, k, l in product(range(d), repeat=4):
        coeff = (grows[j][k] if l == i else zero) - (grows[i][k] if l == j else zero)
        if coeff:
            K = constant_value(R(i, j, k)[l] / coeff)
            if K is None:
                return None
            break
    if K is None:  # degenerate metric cannot reach here; defensive
        return None
    for i, j, k, l in product(range(d), repeat=4):
        coeff = (grows[j][k] if l == i else zero) - (grows[i][k] if l == j else zero)
        if R(i, j, k)[l] - coeff * K:
            return None
    return K


@dataclass(frozen=True)
class TheoremAssertion:
    name: str
    passed: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.witness:
            out["witness"] = self.witness
        return out


@dataclass
class TheoremReport:
    structure_name: str | None
    quasi_para_sasakian: bool
    K: Fraction | None
    assertions: list[TheoremAssertion] = field(default_factory=list)
    reason: str | None = None

    @property
    def applicable(self) -> bool:
        return self.quasi_para_sasakian and self.K is not None

    @property
    def status(self) -> str:
        if not self.applicable:
            return "not-applicable"
        return "pass" if all(a.passed for a in self.assertions) else "violation"

    def to_dict(self) -> dict:
        return {
            "structure": self.structure_name,
            "status": self.status,
            "quasi_para_sasakian": self.quasi_para_sasakian,
            "constant_curvature": self.K is not None,
            "K": None if self.K is None else str(self.K),
            "reason": self.reason,
            "assertions": [a.to_dict() for a in self.assertions],
        }


def check_constant_curvature_theorem(s: ParacontactStructure) -> TheoremReport:
    """Verify every conclusion of the constant-curvature statement exactly.

    Not-applicable (hypotheses unmet) is reported as such, never as a pass
    of the conclusions; axiom failures raise StructureError.
    """
    cls = s.classification()
    if not cls.flags["quasi_para_sasakian"]:
        return TheoremReport(
            s.name, False, None,
            reason=f"hypotheses not met: not quasi-para-Sasakian "
                   f"(classified as {cls.label!r})")
    K = constant_curvature_of(s)
    if K is None:
        return TheoremReport(
            s.name, True, None,
            reason="hypotheses not met: not of constant curvature")
    report = TheoremReport(s.name, True, K)
    add = report.assertions.append
    if K > 0:
        add(TheoremAssertion("K_nonpositive", False, witness=f"K = {K} > 0"))
        return report
    add(TheoremAssertion("K_nonpositive", True))
    model = s.model
    d, n = model.dim, model.n
    if K == 0:
        add(_residual_assertion("A_vanishes", s.A, model))
        nphi = covariant_derivative(s.phi, s.connection)
        add(_residual_assertion("nabla_phi_vanishes", nphi, model))
        ok = cls.flags["paracosymplectic"]
        add(TheoremAssertion("paracosymplectic", ok,
                             witness=None if ok else cls.witnesses.get(
                                 "paracosymplectic")))
        return report

    # K < 0: a nonzero constant lambda with A = lambda phi must exist
    lam = proportionality_constant(s)
    if lam is None or lam == 0:
        add(TheoremAssertion("A_proportional_to_phi", False,
                             witness="no nonzero constant lambda with A = lambda phi"))
        return report
    add(TheoremAssertion("A_proportional_to_phi", True, witness=f"lambda = {lam}"))
    add(TheoremAssertion("K_equals_minus_lambda_squared", K == -lam ** 2,
                         witness=f"K = {K}, lambda = {lam}"))
    ph, A = s.phi.rows(), s.A.rows()
    zero = model.zero
    tr = trace_product(ph, A, zero)
    add(TheoremAssertion("trace_phi_A", tr == 2 * n * lam,
                         witness=f"tr(phi A) = {tr}, 2n lambda = {2 * n * lam}"))
    grows = s.g.rows()
    ev = s.eta.data
    ricci = s.curvature.ricci
    ent = {}
    for i, j in product(range(d), repeat=2):
        ent[(i, j)] = ricci[(i, j)] - grows[i][j] * (2 * n * K)
    add(_entries_assertion("ricci_form", ent, model))
    star = s.curvature.star_ricci
    ent = {}
    for i, j in product(range(d), repeat=2):
        ent[(i, j)] = star[(i, j)] - (ev[i] * ev[j] - grows[i][j]) * K
    add(_entries_assertion("star_ricci_form", ent, model))
    A_cols, phicols = tuple(zip(*A)), tuple(zip(*ph))
    ent = {}
    for i, j in product(range(d), repeat=2):
        ent[(i, j)] = (bilinear(grows, A_cols[i], phicols[j], zero)
                       + (grows[i][j] - ev[i] * ev[j]) * lam)
    add(_entries_assertion("shape_phi_pairing", ent, model))
    try:
        detected = detect_homothetic_origin(s)
    except StructureError as exc:
        detected = None
        witness = str(exc)
    else:
        witness = None if detected else "no parameters recovered"
    expected = DeformationParams(-lam, lam ** 2)
    ok = detected is not None and detected == (lam, expected)
    if detected is not None and not ok:
        witness = f"recovered {detected[1]}, expected {expected}"
    add(TheoremAssertion("homothetic_origin_recovered", ok,
                         witness=witness if not ok else
                         f"parameters {expected}"))
    return report


def _residual_assertion(name: str, T: TensorField, model) -> TheoremAssertion:
    w = T.nonzero_witness()
    if w is None:
        return TheoremAssertion(name, True)
    labels = model.basis_labels
    args = ",".join(labels[i] for i in w[0])
    return TheoremAssertion(name, False, witness=f"residual at ({args}): {w[1]}")


def _entries_assertion(name: str, entries, model) -> TheoremAssertion:
    labels = model.basis_labels
    for idx, value in entries.items():
        if value:
            args = ",".join(labels[i] for i in idx)
            return TheoremAssertion(name, False,
                                    witness=f"residual at ({args}): {value}")
    return TheoremAssertion(name, True)


# ---------------------------------------------------------------------------
# bundled models

@dataclass(frozen=True)
class ModelEntry:
    name: str
    description: str
    build: Callable[[], ParacontactStructure]
    expected_class: str | None = None
    known_inconsistent: bool = False


def _build_flat() -> ParacontactStructure:
    model = ChartModel(("x", "y", "z"))
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    eta = TensorField.covector(model, (0, 0, 1))
    g = TensorField.from_rows(model, (0, 2), [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    return ParacontactStructure(model, phi, xi, g, eta,
                                name="flat-paracosymplectic")


def _build_frame_example() -> ParacontactStructure:
    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1), {(0, 1): (0, 0, 4)})
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    eta = TensorField.covector(model, (0, 0, 1))
    frame = (TensorField.vector(model, (1, 0, 0)),
             TensorField.vector(model, (0, 1, 0)), xi)
    return ParacontactStructure(model, phi, xi, model.orthonormal_metric(), eta,
                                declared_frame=frame, name="example-frame")


def _build_chart(gxz: str, gzz: str, name: str) -> ParacontactStructure:
    model = ChartModel(("x", "y", "z"), constraints=("z",))
    phi = TensorField.from_rows(model, (1, 1),
                                [[0, "4*y", 0], [0, 0, "1/z"], [0, "z", 0]])
    xi = TensorField.vector(model, (1, 0, 0))
    eta = TensorField.covector(model, (1, 0, "-4*y/z"))
    g = TensorField.from_rows(model, (0, 2),
                              [[1, 0, gxz], [0, -1, 0], [gxz, 0, gzz]])
    frame = (TensorField.vector(model, ("4*y", 0, "z")),
             TensorField.vector(model, (0, 1, 0)), xi)
    return ParacontactStructure(model, phi, xi, g, eta, declared_frame=frame,
                                name=name)


def _build_chart_printed() -> ParacontactStructure:
    return _build_chart("-2*y/z", "(1+28*y^2)/z^2", "example-chart-printed")


def _build_chart_corrected() -> ParacontactStructure:
    return _build_chart("-4*y/z", "(1+16*y^2)/z^2", "example-chart-corrected")


def _build_deformed() -> ParacontactStructure:
    s = apply_deformation(_build_frame_example(), DeformationParams(-2, 4))
    s.name = "parasasakian-deformed"
    return s


def _build_negative() -> ParacontactStructure:
    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1), {(0, 1): (0, 2, 2)})
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    eta = TensorField.covector(model, (0, 0, 1))
    return ParacontactStructure(model, phi, xi, model.orthonormal_metric(), eta,
                                name="constant-negative-curvature")


def model_catalog() -> tuple[ModelEntry, ...]:
    """The bundled reference structures, in stable order."""
    return (
        ModelEntry("flat-paracosymplectic",
                   "flat chart-mode paracosymplectic structure on R^3",
                   _build_flat, expected_class="paracosymplectic"),
        ModelEntry("example-frame",
                   "frame-mode proper quasi-para-Sasakian 3-manifold with "
                   "[e1,e2] = 4 xi",
                   _build_frame_example,
                   expected_class="proper quasi-para-Sasakian"),
        ModelEntry("example-chart-printed",
                   "chart realization with the published metric table, whose "
                   "data is internally inconsistent (kept for detection)",
                   _build_chart_printed, known_inconsistent=True),
        ModelEntry("example-chart-corrected",
                   "chart realization with the metric fixed so the declared "
                   "frame is orthonormal and eta = g(., xi)",
                   _build_chart_corrected,
                   expected_class="proper quasi-para-Sasakian"),
        ModelEntry("parasasakian-deformed",
                   "deformation of example-frame with (alpha, beta) = (-2, 4)",
                   _build_deformed, expected_class="para-Sasakian"),
        ModelEntry("constant-negative-curvature",
                   "frame-mode structure of constant curvature K = -1 with "
                   "[e1,e2] = 2 e2 + 2 xi",
                   _build_negative,
                   expected_class="proper quasi-para-Sasakian"),
    )


def get_model(name: str) -> ParacontactStructure:
    for entry in model_catalog():
        if entry.name == name:
            return entry.build()
    names = ", ".join(e.name for e in model_catalog())
    raise KeyError(f"unknown model {name!r}; available: {names}")


# ---------------------------------------------------------------------------
# search harness

@dataclass(frozen=True)
class SearchHit:
    brackets: tuple[tuple[tuple[int, int], tuple[Fraction, ...]], ...]
    K: Fraction
    lam: Fraction

    def build(self) -> ParacontactStructure:
        model = FrameModel(("e1", "e2", "xi"), (1, -1, 1), dict(self.brackets))
        phi = TensorField.from_rows(model, (1, 1),
                                    [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        xi = TensorField.vector(model, (0, 0, 1))
        eta = TensorField.covector(model, (0, 0, 1))
        return ParacontactStructure(model, phi, xi, model.orthonormal_metric(),
                                    eta, name="search-hit")


def _jacobi_ok(c01, c02, c12) -> bool:
    # single independent triple in dimension 3: J(e0, e1, e2) = 0
    zero = Fraction(0)
    table = {
        (0, 1): c01, (1, 0): tuple(-x for x in c01),
        (0, 2): c02, (2, 0): tuple(-x for x in c02),
        (1, 2): c12, (2, 1): tuple(-x for x in c12),
    }

    def bracket_vec(v, k):
        # [v, e_k]: column m of the matrix is [e_m, e_k]
        cols = [table.get((m, k), (zero,) * 3) for m in range(3)]
        return mat_vec(tuple(zip(*cols)), v, zero)

    j1 = bracket_vec(c01, 2)
    j2 = bracket_vec(c12, 0)
    j3 = bracket_vec(tuple(-x for x in c02), 1)
    return all(a + b + c == 0 for a, b, c in zip(j1, j2, j3))


def _qps_precheck_standard(c02, c12) -> bool:
    """Normality and dPhi = 0 specialized to the standard frame structure.

    For phi e1 = e2, phi e2 = e1, eta = e^3 on an orthonormal (+,-,+) frame,
    N1 = 0 and dPhi = 0 reduce to [e1,xi] = f e2 and [e2,xi] = f e1 for a
    single constant f (the [e1,e2] bracket is unconstrained).  Used only to
    prune the search; survivors are re-verified by the general machinery.
    """
    return (c02[0] == 0 and c02[2] == 0 and c12[1] == 0 and c12[2] == 0
            and c02[1] == c12[0])


def search_constant_negative_curvature(
        values: Sequence[int | Fraction] = (-2, 0, 2),
        limit: int | None = None,
        prefilter: bool = True) -> list[SearchHit]:
    """Enumerate frame bracket tables over values^9 and keep the structures
    that are quasi-para-Sasakian of constant curvature K < 0.

    Candidates failing the Jacobi identity are pruned before any geometry is
    built, and (unless ``prefilter`` is False) so are those failing the
    closed-form normality/closedness conditions; every reported hit has been
    re-verified by the general tensor machinery.  ``limit`` stops the scan
    after that many hits.
    """
    vals = tuple(Fraction(v) for v in values)
    hits: list[SearchHit] = []
    for c01 in product(vals, repeat=3):
        for c02 in product(vals, repeat=3):
            for c12 in product(vals, repeat=3):
                if prefilter and not _qps_precheck_standard(c02, c12):
                    continue
                if not _jacobi_ok(c01, c02, c12):
                    continue
                brackets = {}
                if any(c01):
                    brackets[(0, 1)] = c01
                if any(c02):
                    brackets[(0, 2)] = c02
                if any(c12):
                    brackets[(1, 2)] = c12
                try:
                    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1), brackets)
                except GeometryError:
                    continue
                phi = TensorField.from_rows(model, (1, 1),
                                            [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
                xi = TensorField.vector(model, (0, 0, 1))
                eta = TensorField.covector(model, (0, 0, 1))
                s = ParacontactStructure(model, phi, xi,
                                         model.orthonormal_metric(), eta)
                if not nijenhuis_N1(s).is_zero:
                    continue
                if exterior_derivative(s.Phi).nonzero_witness() is not None:
                    continue
                K = constant_curvature_of(s)
                if K is None or K >= 0:
                    continue
                lam = proportionality_constant(s)
                if lam is None:
                    continue
                hits.append(SearchHit(
                    brackets=tuple(sorted(brackets.items())), K=K, lam=lam))
                if limit is not None and len(hits) >= limit:
                    return hits
    return hits
