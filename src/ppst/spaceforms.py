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

model_catalog() lists the bundled reference structures used across the test
suite, including one whose printed chart data is known to be internally
inconsistent (kept for inconsistency-detection coverage).  Each entry is a
name and its metadata; the structure itself ships as the spec file
catalog/<name>.spec, read and loaded by import_text only when asked for, so
a catalog model and a spec file on disk load the same way.
search_constant_negative_curvature returns the bracket tables over a small
rational grid whose standard structure is quasi-para-Sasakian of constant
negative curvature.  It builds only the tables in the QPS kernel, the
nullspace of the linear map from a table to its N1 and dPhi; that kernel is
built once per process, on the first search, not at import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path
from typing import Sequence

from .curvature import covariant_derivative
from .deformation import (
    DeformationParams,
    detect_homothetic_origin,
    proportionality_constant,
)
from .linalg import bilinear, dot, nullspace, trace_product
from .models import FrameModel, GeometryError, TensorField, constant_ratio
from .report import CheckResult, residual_check
from .specfile import import_text
from .structures import ParacontactStructure, StructureError, nijenhuis_N1


def constant_curvature_of(s: ParacontactStructure) -> Fraction | None:
    """The constant K with R(X,Y)Z = K(g(Y,Z)X - g(X,Z)Y), or None."""
    d = s.model.dim
    R = s.curvature.vector_at
    grows = s.g.rows()
    return constant_ratio(
        (r, (grows[j][k] if l == i else 0) - (grows[i][k] if l == j else 0))
        for i, j, k in product(range(d), repeat=3)
        for l, r in enumerate(R(k, i, j)))


@dataclass
class TheoremReport:
    quasi_para_sasakian: bool
    K: Fraction | None
    assertions: list[CheckResult] = field(default_factory=list)
    reason: str | None = None

    @property
    def applicable(self) -> bool:
        return self.quasi_para_sasakian and self.K is not None

    @property
    def status(self) -> str:
        if not self.applicable:
            return "not-applicable"
        return "pass" if all(a.passed for a in self.assertions) else "violation"


def check_constant_curvature_theorem(s: ParacontactStructure) -> TheoremReport:
    """Verify every conclusion of the constant-curvature statement exactly.

    Not-applicable (hypotheses unmet) is reported as such, never as a pass
    of the conclusions; axiom failures raise StructureError.
    """
    cls = s.classification()
    if not cls.flags["quasi_para_sasakian"]:
        return TheoremReport(
            False, None,
            reason=f"hypotheses not met: not quasi-para-Sasakian "
                   f"(classified as {cls.label!r})")
    K = constant_curvature_of(s)
    if K is None:
        return TheoremReport(
            True, None,
            reason="hypotheses not met: not of constant curvature")
    report = TheoremReport(True, K)
    add = report.assertions.append
    if K > 0:
        add(CheckResult("K_nonpositive", False, witness=f"K = {K} > 0"))
        return report
    add(CheckResult("K_nonpositive", True))
    model = s.model
    d, n = model.dim, model.n
    labels = model.basis_labels
    if K == 0:
        add(residual_check("A_vanishes", s.A.items(), labels))
        nphi = covariant_derivative(s.phi, s.connection)
        add(residual_check("nabla_phi_vanishes", nphi.items(), labels))
        ok = cls.flags["paracosymplectic"]
        add(CheckResult("paracosymplectic", ok,
                        witness=None if ok else cls.witnesses.get(
                            "paracosymplectic")))
        return report

    # K < 0: a nonzero constant lambda with A = lambda phi must exist
    lam = proportionality_constant(s)
    if lam is None or lam == 0:
        add(CheckResult("A_proportional_to_phi", False,
                        witness="no nonzero constant lambda with A = lambda phi"))
        return report
    add(CheckResult("A_proportional_to_phi", True, witness=f"lambda = {lam}"))
    add(CheckResult("K_equals_minus_lambda_squared", K == -lam ** 2,
                    witness=f"K = {K}, lambda = {lam}"))
    ph, A = s.phi.rows(), s.A.rows()
    tr = trace_product(ph, A)
    add(CheckResult("trace_phi_A", tr == 2 * n * lam,
                    witness=f"tr(phi A) = {tr}, 2n lambda = {2 * n * lam}"))
    grows = s.g.rows()
    ev = s.eta.data
    ricci = s.ricci[0].rows()
    ent = {}
    for i, j in product(range(d), repeat=2):
        ent[(i, j)] = ricci[i][j] - grows[i][j] * (2 * n * K)
    add(residual_check("ricci_form", ent.items(), labels))
    star = s.star_ricci[0].rows()
    ent = {}
    for i, j in product(range(d), repeat=2):
        ent[(i, j)] = star[i][j] - (ev[i] * ev[j] - grows[i][j]) * K
    add(residual_check("star_ricci_form", ent.items(), labels))
    A_cols, phicols = tuple(zip(*A)), tuple(zip(*ph))
    ent = {}
    for i, j in product(range(d), repeat=2):
        ent[(i, j)] = (bilinear(grows, A_cols[i], phicols[j])
                       + (grows[i][j] - ev[i] * ev[j]) * lam)
    add(residual_check("shape_phi_pairing", ent.items(), labels))
    try:
        detect_homothetic_origin(s)
    except StructureError as exc:
        add(CheckResult("homothetic_origin_recovered", False, witness=str(exc)))
    else:
        add(CheckResult("homothetic_origin_recovered", True,
                        witness=f"parameters {DeformationParams(-lam, lam ** 2)}"))
    return report


# ---------------------------------------------------------------------------
# bundled models

CATALOG_DIR = Path(__file__).parent / "catalog"


@dataclass(frozen=True)
class ModelEntry:
    """A catalog model: its metadata here, its structure in the shipped
    spec file ``catalog/<name>.spec``, read on demand."""

    name: str
    description: str
    expected_class: str | None = None
    known_inconsistent: bool = False

    def text(self) -> str:
        return (CATALOG_DIR / f"{self.name}.spec").read_text(encoding="utf-8")

    def build(self) -> ParacontactStructure:
        return import_text(self.text())


def model_catalog() -> tuple[ModelEntry, ...]:
    """The bundled reference structures, in stable order."""
    return (
        ModelEntry("flat-paracosymplectic",
                   "flat chart-mode paracosymplectic structure on R^3",
                   expected_class="paracosymplectic"),
        ModelEntry("example-frame",
                   "frame-mode proper quasi-para-Sasakian 3-manifold with "
                   "[e1,e2] = 4 xi",
                   expected_class="proper quasi-para-Sasakian"),
        ModelEntry("example-chart-printed",
                   "chart realization with the published metric table, whose "
                   "data is internally inconsistent (kept for detection)",
                   known_inconsistent=True),
        ModelEntry("example-chart-corrected",
                   "chart realization with the metric fixed so the declared "
                   "frame is orthonormal and eta = g(., xi)",
                   expected_class="proper quasi-para-Sasakian"),
        ModelEntry("parasasakian-deformed",
                   "deformation of example-frame with (alpha, beta) = (-2, 4)",
                   expected_class="para-Sasakian"),
        ModelEntry("constant-negative-curvature",
                   "frame-mode structure of constant curvature K = -1 with "
                   "[e1,e2] = 2 e2 + 2 xi",
                   expected_class="proper quasi-para-Sasakian"),
    )


def catalog_entry(name: str) -> ModelEntry:
    for entry in model_catalog():
        if entry.name == name:
            return entry
    names = ", ".join(e.name for e in model_catalog())
    raise KeyError(f"unknown model {name!r}; available: {names}")


def get_model(name: str) -> ParacontactStructure:
    return catalog_entry(name).build()


# ---------------------------------------------------------------------------
# search harness

def _standard_frame_structure(brackets,
                              name: str | None = None) -> ParacontactStructure:
    """The 3-d frame structure phi e1 = e2, phi e2 = e1, xi = e3, eta = e^3
    with the orthonormal (+,-,+) metric, over the given bracket table."""
    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1), brackets)
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    eta = TensorField.covector(model, (0, 0, 1))
    return ParacontactStructure(model, phi, xi, model.orthonormal_metric(), eta,
                                name=name)


@dataclass(frozen=True)
class SearchHit:
    brackets: tuple[tuple[tuple[int, int], tuple[int | Fraction, ...]], ...]
    K: Fraction
    lam: Fraction

    def build(self) -> ParacontactStructure:
        return _standard_frame_structure(dict(self.brackets), "search-hit")


def _bracket_table(entries: Sequence[int | Fraction]) -> dict:
    """The table (c01, c02, c12) of nine entries, zero brackets omitted."""
    vecs = (tuple(entries[m:m + 3]) for m in (0, 3, 6))
    return {ij: v for ij, v in zip(((0, 1), (0, 2), (1, 2)), vecs) if any(v)}


@cache
def _qps_kernel() -> tuple[tuple[int | Fraction, ...], ...]:
    """A nullspace basis of the linear map from a table (c01, c02, c12) to
    N1 and dPhi of its standard structure, whose phi, xi, eta and g are
    constant.  Column m is N1 and dPhi, read as ``classify`` reads them, of
    the one-entry table e_m, which satisfies Jacobi at dim 3.  The map
    takes no argument, so the basis is built once per process, by the first
    search that asks for it, and never at import."""
    columns = []
    for m in range(9):
        s = _standard_frame_structure(_bracket_table([int(i == m) for i in range(9)]))
        columns.append(s.N1.data + s.dPhi.data)
    return tuple(nullspace(list(zip(*columns))))


def search_constant_negative_curvature(
        values: Sequence[int | Fraction] = (-2, 0, 2)) -> list[SearchHit]:
    """The tables over values^9, each listed once, whose standard structure
    is quasi-para-Sasakian of constant curvature K < 0.

    Only the tables in the QPS kernel are built, as its free coordinates
    walk over values.  Each is re-verified: Jacobi (by the frame model),
    N1 = 0, dPhi = 0, K < 0 and A = lambda phi.  The values are frame
    scalars, so a float is refused with GeometryError before any table is
    built.
    """
    vals = tuple(dict.fromkeys(FrameModel.scalar(v) for v in values))
    basis = _qps_kernel()
    columns = tuple(zip(*basis))
    hits: list[SearchHit] = []
    # a kernel table's free coordinates are its entries at the free columns;
    # the pivots c02 and c12[1:] depend only on c12[0], to their right, so
    # the walk keeps the order of values^9
    for coords in product(vals, repeat=len(basis)):
        entries = [FrameModel.scalar(dot(coords, col)) for col in columns]
        if not set(entries).issubset(vals):
            continue
        brackets = _bracket_table(entries)
        try:  # the frame model rejects a table failing Jacobi
            s = _standard_frame_structure(brackets)
        except GeometryError:
            continue
        if not nijenhuis_N1(s).is_zero or not s.dPhi.is_zero:
            continue
        K = constant_curvature_of(s)
        if K is None or K >= 0:
            continue
        lam = proportionality_constant(s)
        if lam is not None:
            hits.append(SearchHit(tuple(sorted(brackets.items())), K, lam))
    return hits
