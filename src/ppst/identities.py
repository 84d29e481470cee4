"""The curvature/derivative identity suite for quasi-para-Sasakian structures.

Every identity is an exact residual, evaluated componentwise with the
arguments ranging over the phi-basis (X_1..X_n, Y_i = phi X_i, xi); the
scalar curvatures r and r* are the structure's own.  The suite refuses to
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

Every residual is judged symbolically: it passes only when it vanishes
identically, so a verdict holds at every point of the domain.  No residual
is ever evaluated at a point.

phi permutes the phi-basis: phi X_i = Y_i, phi Y_i = X_i (as phi^2 =
Id - eta (x) xi and eta(X_i) = 0) and phi xi = 0.  So phi b_c = b_sigma(c),
sigma swapping i and n+i, and a table entry at phi b_c is read at
b_sigma(c), or is 0 at xi, not recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, Sequence

from .curvature import covariant_derivative
from .linalg import bilinear, block_bilinear, dot, mat_vec, signed_sum, trace_product
from .models import FrameModel, Scalar
from .report import CheckResult, residual_check
from .structures import ParacontactStructure, StructureError

IDENTITY_KEYS = ("p1", "P5", "P6a", "P6b", "P6c", "P2", "P3", "P4",
                 "R1", "R1.1", "R1.2", "R1.3", "RXYY", "S1", "S2")


@dataclass
class IdentityReport:
    results: dict[str, CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())


class _Context:
    """Precomputed basis contractions shared by all identities.

    With b_a the phi-basis fields, R3[a][b][c] = R(b_a, b_b) b_c are
    vectors, and the curvature identities read the tables

      gR[a][b][c][e]    = g(R(b_a, b_b) b_c, b_e),
      gRphi[a][b][c][e] = g(R(b_a, b_b) phi b_c, phi b_e).

    Each row gR[a][b][c] is one ``mat_vec`` of the covectors g b_e with
    R3[a][b][c], so its support is found once.  Tables at phi b_c are read
    through sigma (``_phi_read``): gRphi from gR, A_phi_b from A_b, gAphi
    from gA, once phi b_c = b_sigma(c) and phi xi = 0 are checked as
    computed (a StructureError names the field where that fails; a
    structure that passes its axioms never does).  When the phi-basis is
    the model's frame (build_phi_basis returns an orthonormal frame with
    phi swapping e_i and e_{n+i} as itself), every column is an int unit
    vector, so each contraction reads one entry per argument, and
    witnesses use the model's labels.
    """

    def __init__(self, s: ParacontactStructure):
        model = s.model
        self.model = model
        d = model.dim
        self.d = d
        self.cols = [b.vec() for b in s.phi_basis]
        self.labels = self._label_basis()
        self.sigma = tuple(range(model.n, d - 1)) + tuple(range(model.n))
        grows = s.g.rows()
        ph = s.phi.rows()
        A = s.A.rows()
        ev = s.eta.data
        self.xi_vec = s.xi.vec()
        # basis images and pairings
        phi_b = [mat_vec(ph, c) for c in self.cols]
        names = self._phi_read(self.labels, "0")
        for c, want in enumerate(self._phi_read(self.cols, (0,) * d)):
            if phi_b[c] != want:
                raise StructureError(f"phi-basis: phi({self.labels[c]}) != {names[c]}")
        self.A_b = [mat_vec(A, c) for c in self.cols]
        self.A_phi_b = self._phi_read(self.A_b, (0,) * d)
        self.phi_A_b = [mat_vec(ph, v) for v in self.A_b]
        self.eta_b = [dot(ev, c) for c in self.cols]
        self.gA = [[bilinear(grows, self.A_b[a], self.cols[b]) for b in range(d)]
                   for a in range(d)]
        self.gAphi = [self._phi_read(row, 0) for row in self.gA]
        self.gAA = [[bilinear(grows, self.A_b[a], self.A_b[b]) for b in range(d)]
                    for a in range(d)]
        # curvature applied to basis triples: R3[a][b][c] = R(b_a, b_b) b_c,
        # where the operator R(b_a, b_b) has rows l; g(u, b_e) = g_b[e] . u
        R = s.curvature.data
        self.R3 = []
        for u in self.cols:
            ops = [block_bilinear(R, u, v) for v in self.cols]
            ops = [[op[l * d:(l + 1) * d] for l in range(d)] for op in ops]
            self.R3.append([[mat_vec(op, c) for c in self.cols] for op in ops])
        g_b = [mat_vec(grows, c) for c in self.cols]
        self.gR = [[[mat_vec(g_b, u) for u in rab] for rab in ra] for ra in self.R3]
        self.gRphi = [[[self._phi_read(row, 0)
                        for row in self._phi_read(gRab, (0,) * d)]
                       for gRab in gRa] for gRa in self.gR]
        self.xi_index = d - 1  # basis order puts xi last
        # covariant derivatives as (1,2)/(0,2) tensors, then basis-contracted:
        # nabla_phi_b[a][b] = (nabla_{b_a} phi) b_b, likewise nabla_A_b
        conn = s.connection
        nphi = covariant_derivative(s.phi, conn).data
        nA = covariant_derivative(s.A, conn).data
        neta = covariant_derivative(s.eta, conn)
        self.nabla_phi_b = [[block_bilinear(nphi, u, v) for v in self.cols]
                            for u in self.cols]
        self.nabla_A_b = [[block_bilinear(nA, u, v) for v in self.cols]
                          for u in self.cols]
        xiv = self.cols[self.xi_index]
        self.nabla_eta_xi = [bilinear(neta.rows(), xiv, c) for c in self.cols]
        # Ricci data contracted on the basis, and the scalar curvatures
        (S, self.r), (Sstar, self.rstar) = s.ricci, s.star_ricci
        S, Sstar = S.rows(), Sstar.rows()
        self.S_b = [[bilinear(S, u, v) for v in self.cols] for u in self.cols]
        self.Sstar_b = [[bilinear(Sstar, u, v) for v in self.cols]
                        for u in self.cols]
        # operator traces (basis independent, computed over model indices)
        self.tr_phiA = trace_product(ph, A)
        self.tr_A2 = trace_product(A, A)

    def _phi_read(self, values: Sequence, zero) -> list:
        """values[c] read at phi b_c: values[sigma(c)], and zero at xi."""
        return [values[c] for c in self.sigma] + [zero]

    def _label_basis(self) -> tuple[str, ...]:
        model = self.model
        if isinstance(model, FrameModel):
            identity = all(
                self.cols[a][i] == int(a == i)
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
    gA, gAphi, gAA, eta = ctx.gA, ctx.gAphi, ctx.gAA, ctx.eta_b
    gR, gRphi = ctx.gR, ctx.gRphi
    if key == "p1":
        return 2, lambda a, b: ctx.gA[a][b] + ctx.gA[b][a]
    if key == "P5":
        def res(a, b):
            lead = ctx.nabla_phi_b[a][b]
            coeffs = (gAphi[a][b], eta[b])
            return tuple(signed_sum(
                (lead[l], dot(coeffs, (ctx.xi_vec[l], ctx.phi_A_b[a][l]))),
                ()) for l in range(d))
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
    if key == "P3":  # g(A phi b_a, phi b_b) = gAphi[sigma(a)][b]
        gA_phi = ctx._phi_read(gAphi, (0,) * d)
        return 2, lambda a, b: gA_phi[a][b] + gA[a][b]
    if key == "P4":  # g(A phi b_a, b_b) = gA[sigma(a)][b]
        gA_phi = ctx._phi_read(gA, (0,) * d)
        return 2, lambda a, b: gA_phi[a][b] + gAphi[a][b]
    if key == "R1":
        def res(a, b):
            lead = ctx.R3[xi][a][b]
            grad = ctx.nabla_A_b[a][b]
            return tuple(lead[l] + grad[l] for l in range(d))
        return 2, res
    if key == "R1.1":
        return 2, lambda a, b: signed_sum((gR[xi][a][b][xi],), (gAA[a][b],))
    if key == "R1.2":
        def val(a, b, c):
            return signed_sum(
                (gRphi[xi][a][b][c], gR[xi][a][b][c],
                 dot((gAA[a][c],), (eta[b],))),
                (dot((gAA[a][b],), (eta[c],)),))
        return 3, val
    if key == "R1.3":
        return 0, lambda: ctx.S_b[xi][xi] + ctx.tr_A2
    if key == "RXYY":
        # the A-terms M[a][b][c][e] and the eta-terms E[a][b][c][e] at
        # (X, Y, Z, W) = (b_a, b_b, b_c, b_e), each built once
        pairs = [list(zip(row_phi, row)) for row_phi, row in zip(gAphi, gA)]
        M = [[[mat_vec(pa, q) for q in pb] for pb in pairs] for pa in pairs]

        def eta_terms(gRab):
            rows = [(eta[e], gRab[xi][e]) for e in range(d)]
            return [mat_vec(rows, (gRab[c][xi], eta[c])) for c in range(d)]
        E = [[eta_terms(gRab) for gRab in gRa] for gRa in gR]

        def val(a, b, c, e):
            Mab = M[a][b]
            return signed_sum((gRphi[a][b][c][e], gR[a][b][c][e], Mab[c][e]),
                              (E[a][b][c][e], Mab[e][c]))
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


def _judge(ctx: _Context, key: str) -> CheckResult:
    labels = ctx.labels + ("scalar",)
    return replace(residual_check(key, _residuals(ctx, key), labels),
                   details=_details(ctx, key))


def run_suite(s: ParacontactStructure) -> IdentityReport:
    """Run the identity suite; refuses on non-quasi-para-Sasakian input."""
    cls = s.classification()  # raises StructureError on axiom failure
    if not cls.flags["quasi_para_sasakian"]:
        witness = cls.witnesses.get("quasi_para_sasakian", "")
        raise StructureError(
            f"identity suite requires a quasi-para-Sasakian structure; "
            f"classified as {cls.label!r} ({witness})")
    ctx = _Context(s)
    return IdentityReport(results={key: _judge(ctx, key) for key in IDENTITY_KEYS})
