"""The curvature/derivative identity suite for quasi-para-Sasakian structures.

Every identity is an exact residual, evaluated componentwise with the
arguments ranging over the phi-basis (X_1..X_n, Y_i = phi X_i, xi), whose
causal characters eps_i weight the trace identities.  The suite refuses to
run when the structure is not quasi-para-Sasakian, since the identities
hold on that class; the refusal carries the classification witness.

Keys, in canonical order, with the identity each one checks
(A = nabla xi, all residuals must vanish identically):

  p1    g(AX, Y) + g(X, AY) = 0                       (A is g-skew)
  P5    (nabla_X phi)Y = -g(AX, phi Y) xi - eta(Y) phi AX
  P6a   nabla_xi phi = 0
  P6b   nabla_xi xi = 0
  P6c   nabla_xi eta = 0
  P2    A phi = phi A
  P3    g(A phi X, phi Y) = -g(AX, Y)
  P4    g(A phi X, Y) = -g(AX, phi Y)
  R1    R(xi, X)Y = -(nabla_X A)Y
  R1.1  g(R(xi, X)Y, xi) = g(AX, AY)
  R1.2  g(R(xi,X) phi Y, phi Z) = -g(R(xi,X)Y, Z)
        + g(AX, AY) eta(Z) - g(AX, AZ) eta(Y)
  R1.3  S(xi, xi) = -tr A^2
  RXYY  g(R(X,Y) phi Z, phi W) = -g(R(X,Y)Z, W)
        + eta(W) g(R(X,Y)Z, xi) + eta(Z) g(R(X,Y)xi, W)
        - g(AX, phi W) g(AY, phi Z) + g(AX, phi Z) g(AY, phi W)
        + g(AX, Z) g(AY, W) - g(AX, W) g(AY, Z)
  S1    S*(X,Y) = -S(X,Y) + S(X,xi) eta(Y)
        + g(AX, phi Y) tr(phi A) - g(AX, AY)
  S2    r* + r = -tr(phi A)^2

Structures are verified symbolically by default; ``sampled`` mode instead
judges each residual at exact rational points over the scalar variables
(weaker, and recorded as such in the report): five on a chart, and the one
point {} on a frame, whose scalars are constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping, Sequence

from .curvature import covariant_derivative
from .linalg import bilinear, dot, mat_vec, signed_sum, trace_product
from .models import (
    FrameModel,
    Scalar,
    TensorField,
    Vec,
    evaluate_at,
    sample_points,
)
from .report import CheckResult, residual_check
from .structures import ParacontactStructure, StructureError, phi_basis_eps

IDENTITY_KEYS = ("p1", "P5", "P6a", "P6b", "P6c", "P2", "P3", "P4",
                 "R1", "R1.1", "R1.2", "R1.3", "RXYY", "S1", "S2")


@dataclass
class IdentityReport:
    structure_name: str | None
    mode: str
    results: dict[str, CheckResult]
    sample_points: list[dict[str, Fraction]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def to_dict(self) -> dict:
        return {
            "structure": self.structure_name,
            "mode": self.mode,
            "passed": self.passed,
            "sample_points": [{k: str(v) for k, v in p.items()}
                              for p in self.sample_points],
            # deterministic serialization: entries sorted by key
            "identities": [self.results[k].to_dict()
                           for k in sorted(self.results)],
        }


class _Context:
    """Precomputed basis contractions shared by all identities.

    With b_a the phi-basis fields, R3[a][b][c] = R(b_a, b_b) b_c and
    R3_phi[a][b][c] = R(b_a, b_b) phi b_c are vectors, and the curvature
    identities read the tables

      gR[a][b][c][e]    = g(R(b_a, b_b) b_c, b_e),
      gRphi[a][b][c][e] = g(R(b_a, b_b) phi b_c, phi b_e),

    built once from them through the contraction kernel.
    """

    def __init__(self, s: ParacontactStructure):
        self.s = s
        model = s.model
        self.model = model
        d = model.dim
        self.d = d
        basis = s.phi_basis
        self.basis = basis
        self.eps = phi_basis_eps(s)
        self.cols = [b.vec() for b in basis]
        self.labels = self._label_basis()
        grows = s.g.rows()
        ph = s.phi.rows()
        A = s.A.rows()
        ev = s.eta.data
        zero = model.zero
        self.zero = zero
        self.g_rows = grows
        self.xi_vec = s.xi.vec()
        # basis images and pairings
        self.phi_b = [mat_vec(ph, c, zero) for c in self.cols]
        self.A_b = [mat_vec(A, c, zero) for c in self.cols]
        self.A_phi_b = [mat_vec(A, v, zero) for v in self.phi_b]
        self.phi_A_b = [mat_vec(ph, v, zero) for v in self.A_b]
        self.eta_b = [dot(ev, c, zero) for c in self.cols]
        self.gA = [[self.g(self.A_b[a], self.cols[b]) for b in range(d)]
                   for a in range(d)]
        self.gAphi = [[self.g(self.A_b[a], self.phi_b[b]) for b in range(d)]
                      for a in range(d)]
        self.gAA = [[self.g(self.A_b[a], self.A_b[b]) for b in range(d)]
                    for a in range(d)]
        # curvature applied to basis triples: R3[a][b][c] = R(b_a, b_b) b_c
        curv = s.curvature
        self.R3, self.R3_phi = [], []
        for a in range(d):
            ops = [curv.operator(self.cols[a], self.cols[b]) for b in range(d)]
            self.R3.append([[mat_vec(op, c, zero) for c in self.cols]
                            for op in ops])
            self.R3_phi.append([[mat_vec(op, v, zero) for v in self.phi_b]
                                for op in ops])
        # g b_e and g phi b_e as covectors: g(u, b_e) = u . g b_e
        g_b = [mat_vec(grows, c, zero) for c in self.cols]
        g_phi_b = [mat_vec(grows, v, zero) for v in self.phi_b]
        self.gR = [[[[dot(u, w, zero) for w in g_b] for u in rab]
                    for rab in ra] for ra in self.R3]
        self.gRphi = [[[[dot(u, w, zero) for w in g_phi_b] for u in rab]
                       for rab in ra] for ra in self.R3_phi]
        self.xi_index = d - 1  # basis order puts xi last
        # covariant derivatives as (1,2)/(0,2) tensors, then basis-contracted
        conn = s.connection
        nphi = covariant_derivative(s.phi, conn)
        nA = covariant_derivative(s.A, conn)
        neta = covariant_derivative(s.eta, conn)

        def contract_12(T: TensorField) -> list[list[Vec]]:
            """[a][b] -> T(b_a, b_b) for a (1,2) tensor T[(k, direction, arg)]."""
            slabs = [tuple(tuple(T[(k, i, j)] for j in range(d))
                           for i in range(d)) for k in range(d)]
            return [[tuple(bilinear(m, u, v, zero) for m in slabs)
                     for v in self.cols] for u in self.cols]

        self.nabla_phi_b = contract_12(nphi)
        self.nabla_A_b = contract_12(nA)
        xiv = self.cols[self.xi_index]
        self.nabla_eta_xi = [bilinear(neta.rows(), xiv, c, zero)
                             for c in self.cols]
        # Ricci data contracted on the basis; traces over the phi-basis
        S = curv.ricci.rows()
        Sstar = curv.star_ricci.rows()
        self.S_b = [[bilinear(S, u, v, zero) for v in self.cols]
                    for u in self.cols]
        self.Sstar_b = [[bilinear(Sstar, u, v, zero) for v in self.cols]
                        for u in self.cols]
        self.r = dot(self.eps, [self.S_b[a][a] for a in range(d)], zero)
        self.rstar = dot(self.eps, [self.Sstar_b[a][a] for a in range(d)], zero)
        # operator traces (basis independent, computed over model indices)
        self.tr_phiA = trace_product(ph, A, zero)
        self.tr_A2 = trace_product(A, A, zero)

    def g(self, u: Vec, v: Vec) -> Scalar:
        return bilinear(self.g_rows, u, v, self.zero)

    def _label_basis(self) -> tuple[str, ...]:
        model = self.model
        if isinstance(model, FrameModel):
            identity = all(
                self.cols[a][i] == (model.one if a == i else model.zero)
                for a in range(self.d) for i in range(self.d))
            if identity:
                return model.labels
        n = model.n
        return tuple([f"X{i+1}" for i in range(n)]
                     + [f"Y{i+1}" for i in range(n)] + ["xi"])


def _residual_fn(ctx: _Context, key: str):
    """(arity, fn): fn maps basis arguments to one identity's residual value,
    a scalar or a vector."""
    d = ctx.d
    xi = ctx.xi_index
    zero = ctx.zero
    gA, gAphi, gAA, eta = ctx.gA, ctx.gAphi, ctx.gAA, ctx.eta_b
    gR, gRphi = ctx.gR, ctx.gRphi
    if key == "p1":
        return 2, lambda a, b: ctx.gA[a][b] + ctx.gA[b][a]
    if key == "P5":
        def res(a, b):
            lead = ctx.nabla_phi_b[a][b]
            coeffs = (gAphi[a][b], eta[b])
            return tuple(signed_sum(
                (lead[l], dot(coeffs, (ctx.xi_vec[l], ctx.phi_A_b[a][l]), zero)),
                (), zero) for l in range(d))
        return 2, res
    if key == "P6a":
        return 1, lambda b: ctx.nabla_phi_b[xi][b]
    if key == "P6b":
        return 0, lambda: ctx.A_b[xi]
    if key == "P6c":
        return 1, lambda b: ctx.nabla_eta_xi[b]
    if key == "P2":
        return 1, lambda b: tuple(ctx.A_phi_b[b][l] - ctx.phi_A_b[b][l]
                                  for l in range(d))
    if key == "P3":
        return 2, lambda a, b: ctx.g(ctx.A_phi_b[a], ctx.phi_b[b]) + ctx.gA[a][b]
    if key == "P4":
        return 2, lambda a, b: ctx.g(ctx.A_phi_b[a], ctx.cols[b]) + ctx.gAphi[a][b]
    if key == "R1":
        def res(a, b):
            lead = ctx.R3[xi][a][b]
            grad = ctx.nabla_A_b[a][b]
            return tuple(lead[l] + grad[l] for l in range(d))
        return 2, res
    if key == "R1.1":
        return 2, lambda a, b: signed_sum((gR[xi][a][b][xi],), (gAA[a][b],),
                                          zero)
    if key == "R1.2":
        def val(a, b, c):
            return signed_sum(
                (gRphi[xi][a][b][c], gR[xi][a][b][c],
                 dot((gAA[a][c],), (eta[b],), zero)),
                (dot((gAA[a][b],), (eta[c],), zero),), zero)
        return 3, val
    if key == "R1.3":
        return 0, lambda: ctx.S_b[xi][xi] + ctx.tr_A2
    if key == "RXYY":
        def val(a, b, c, e):
            gRab = gR[a][b]
            return signed_sum(
                (gRphi[a][b][c][e], gRab[c][e],
                 dot((gAphi[a][e], gA[a][e]), (gAphi[b][c], gA[b][c]), zero)),
                (dot((eta[e], eta[c]), (gRab[c][xi], gRab[xi][e]), zero),
                 dot((gAphi[a][c], gA[a][c]), (gAphi[b][e], gA[b][e]), zero)),
                zero)
        return 4, val
    if key == "S1":
        def val(a, b):
            return (ctx.Sstar_b[a][b] + ctx.S_b[a][b]
                    - ctx.S_b[a][xi] * ctx.eta_b[b]
                    - ctx.gAphi[a][b] * ctx.tr_phiA
                    + ctx.gAA[a][b])
        return 2, val
    if key == "S2":
        return 0, lambda: ctx.rstar + ctx.r + ctx.tr_phiA * ctx.tr_phiA
    raise KeyError(f"unknown identity key {key!r}")


def _residuals(ctx: _Context, key: str) -> Iterator[tuple[tuple[int, ...], Scalar]]:
    """(basis arguments, value) pairs of one identity's residual.

    A vector value gives one pair per component, named by its arguments
    only; no arguments name ``scalar``, the label after the basis.
    """
    arity, fn = _residual_fn(ctx, key)
    for args in product(range(ctx.d), repeat=arity):
        value = fn(*args)
        for v in value if isinstance(value, tuple) else (value,):
            yield args or (ctx.d,), v


def _details(ctx: _Context, key: str) -> dict[str, str] | None:
    """The scalars a scalar identity reports next to its verdict."""
    xi = ctx.xi_index
    if key == "R1.3":
        return {"S(xi,xi)": str(ctx.S_b[xi][xi]), "tr(A^2)": str(ctx.tr_A2)}
    if key == "S2":
        return {"r": str(ctx.r), "r*": str(ctx.rstar),
                "tr(phi A)": str(ctx.tr_phiA)}
    return None


def _judge(ctx: _Context, key: str, mode: str,
           points: Sequence[Mapping[str, Fraction]]) -> CheckResult:
    details = _details(ctx, key)
    labels = ctx.labels + ("scalar",)
    if mode == "symbolic":
        return replace(residual_check(key, _residuals(ctx, key), labels),
                       details=details)
    named = list(_residuals(ctx, key))
    cons = ctx.model.constraints
    for point in points:
        check = residual_check(
            key, ((idx, evaluate_at(v, point, cons)) for idx, v in named), labels)
        if not check.passed:  # the witness also names the point
            at, _, value = check.witness.partition(": ")
            pt = {k: str(f) for k, f in point.items()}
            return CheckResult(key, False, witness=f"{at}, point {pt}: {value}",
                               details=details)
    return CheckResult(key, True, details=details)


def run_suite(s: ParacontactStructure, mode: str = "auto",
              points: Sequence[Mapping[str, Fraction]] | None = None) -> IdentityReport:
    """Run the identity suite; refuses on non-quasi-para-Sasakian input.

    mode: "auto" (symbolic), "symbolic", or "sampled" (``sample_points``, or
    >= 5 given points).
    """
    cls = s.classification()  # raises StructureError on axiom failure
    if not cls.flags["quasi_para_sasakian"]:
        witness = cls.witnesses.get("quasi_para_sasakian", "")
        raise StructureError(
            f"identity suite requires a quasi-para-Sasakian structure; "
            f"classified as {cls.label!r} ({witness})")
    if mode == "auto":
        mode = "symbolic"
    if mode not in ("symbolic", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    pts: list[dict[str, Fraction]] = []
    if mode == "sampled":
        if points is not None:
            pts = [dict(p) for p in points]
            if len(pts) < 5:
                raise ValueError("sampled mode needs at least 5 points")
        else:
            pts = sample_points(s.model, 5)
    ctx = _Context(s)
    results = {key: _judge(ctx, key, mode, pts) for key in IDENTITY_KEYS}
    return IdentityReport(structure_name=s.name, mode=mode, results=results,
                          sample_points=pts)
