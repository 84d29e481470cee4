"""Hand-written expected verdicts for every workload.

Nothing here is copied from program output.  Each entry follows from the
structure's definition by the short derivations below; `check_*` helpers in
the workloads compare what ppst returns against these tables and count every
difference as a verdict mismatch.

Conventions, as in ppst: deta(X,Y) = 1/2 (X eta(Y) - Y eta(X) - eta([X,Y])),
Phi(X,Y) = g(X, phi Y).  On a frame where eta, g and phi have constant
components, deta(X,Y) = -1/2 eta([X,Y]) and dPhi(X,Y,Z) is minus the cyclic
sum of Phi([X,Y],Z).

Para-Heisenberg frames (catalog example-frame; frame-highdim):
  [e_i, e_{n+i}] = c xi, xi central, g = diag(+^n, -^n, +), phi swaps
  e_i <-> e_{n+i}.  Every bracket is a multiple of xi and Phi(xi, .) = 0, so
  dPhi = 0; N1(e_i, e_{n+j}) = -c d_ij xi + c d_ij xi = 0 and N1 vanishes on
  the other pairs, so the structure is normal and quasi-para-Sasakian for
  every c.  deta(e_i, e_{n+i}) = -c/2 and Phi(e_i, e_{n+i}) = 1, so it is
  paracontact metric (hence para-Sasakian) iff c = -2, and never
  paracosymplectic.  Koszul gives nabla_{e_i} e_{n+i} = (c/2) xi,
  nabla_xi e_i = (c/2) e_{n+i}, hence R(e_i,e_{n+i})e_{n+i} = -(3c^2/4) e_i
  but R(e_i,xi)xi = -(c^2/4) e_i: the curvature is not constant, so the
  constant-curvature theorem is not applicable (exit 0).
  The (alpha, beta) = (-2, 4) deformation is homothetic: g' = 4g,
  eta' = -2 eta, so Phi' = 4 Phi and deta' = -2 deta, while N1 and dPhi = 0
  are preserved.  The result is para-Sasakian iff deta = -2 Phi, i.e. iff
  c = 4; otherwise it is proper quasi-para-Sasakian (deta' != 0).

Re-charted corrected chart (chart-gcd), w = w(y, z) nonzero:
  e1 = 4y d/dx + w d/dz, e2 = d/dy, xi = d/dx, with coframe dz/w, dy,
  eta = dx - 4y dz/w.  This gives exactly the phi, eta, g and frame tables in
  workloads.chart_spec.  [xi, e1] = [xi, e2] = 0 because w does not depend on
  x, and [e1, e2] = -4 xi - (dw/dy) d/dz.
  * w = 1 + z^2: dw/dy = 0, so [e1, e2] = -4 xi: the para-Heisenberg algebra
    with c = -4 (up to xi -> -xi).  Proper quasi-para-Sasakian, curvature
    not constant, deformed class proper quasi-para-Sasakian (deta = 2 Phi).
  * w = 1 + y^2 + z: xi commutes with the frame, so N1 = 0 (the (e1,e2)
    component is -eta([e1,e2]) xi - 2 deta(e1,e2) xi = 0 and the xi
    components vanish) and dPhi = 0 (Phi is constant on the frame and
    Phi(., xi) = 0).  But [e1, e2] = -(2y/w) e1 + (8y^2/w - 4) xi, so
    deta(e1, e2) = 2 - 4y^2/w is not constant: deta != 0 and deta != Phi.
    Hence proper quasi-para-Sasakian.  Koszul gives A = nabla xi = -f phi
    with f = 2 - 4y^2/w not constant, so A = lambda phi fails, K < 0 is
    impossible, K = 0 would need paracosymplectic and K > 0 is excluded by
    the theorem itself: the curvature is not constant and the theorem is not
    applicable.  Deformed: deta' = -2 f Phi != 4 Phi, proper
    quasi-para-Sasakian.

Search grid (-2, 0, 2) on the standard 3-dim frame:
  the prefilter keeps [e1,xi] = f e2, [e2,xi] = f e1; Jacobi then forces
  f = 0 or [e1,e2] in span(xi).  Koszul gives A = (c/2) phi where c is the
  xi-component of [e1,e2], so K = -lambda^2 = -1 needs c = +-2.  Constant
  curvature -1 holds exactly for [e1,e2] = b e2 + c xi with b = +-2, f = 0
  (4 tables), and for [e1,e2] = c xi with f = c (2 tables).  With a = b = 0
  and f = 0 the curvature is not constant (see para-Heisenberg above).
  These 6 hits were confirmed by an independent Koszul computation over
  sympy, not by ppst.
"""

from __future__ import annotations

from fractions import Fraction

PS = "para-Sasakian"
PQPS = "proper quasi-para-Sasakian"
PCS = "paracosymplectic"
NA = "not-applicable"

CATALOG_COMMANDS = ("check", "classify", "curvature", "identities",
                    "theorem", "deform")

# model -> (classification, theorem_status, deformed classification at
# (alpha, beta) = (-2, 4)); None marks the printed chart, whose metric table
# breaks g(phi., phi.) = -g + eta(x)eta and eta = g(., xi).
CATALOG = {
    # flat, phi and eta constant on a chart: deta = dPhi = 0, A = 0, K = 0,
    # so the theorem applies on its K = 0 branch and passes.
    "flat-paracosymplectic": (PCS, "pass", PCS),
    "example-frame": (PQPS, NA, PS),                  # c = 4
    "example-chart-printed": None,
    "example-chart-corrected": (PQPS, NA, PQPS),      # c = -4
    # example-frame deformed by (-2, 4): deta = Phi; deformed again
    # deta' = -2 Phi != 4 Phi
    "parasasakian-deformed": (PS, NA, PQPS),
    # [e1,e2] = 2 e2 + 2 xi: one of the search hits below (K = -1);
    # deta = -Phi, deformed deta' = 2 Phi != 4 Phi
    "constant-negative-curvature": (PQPS, "pass", PQPS),
}

# command -> exit code on the printed chart: every command that needs the
# axioms fails with exit 1; the curvature residuals hold for the
# Levi-Civita connection of any nondegenerate metric.
PRINTED_EXIT = {"check": 1, "classify": 1, "curvature": 0,
                "identities": 1, "theorem": 1, "deform": 1}

# frame-highdim: (dim, c) -> (classification, deformed classification);
# the dim-3 rows are the self-test's tiny size
FRAMES = {
    (3, -2): (PS, PQPS),
    (3, 4): (PQPS, PS),
    (5, -2): (PS, PQPS),
    (5, 4): (PQPS, PS),
    (7, 4): (PQPS, PS),
}

# chart-gcd: w -> (classification, deformed classification)
CHARTS = {
    "1+z^2": (PQPS, PQPS),
    "1+y^2+z": (PQPS, PQPS),
}

# every full-pipeline structure above: theorem not applicable, all 15
# identities and all 4 deformation laws pass
PIPELINE_THEOREM = NA
IDENTITY_COUNT = 15
DEFORMATION_LAWS = ("i00", "i5", "i6", "i777")


def _hit(brackets, lam):
    return (tuple(sorted((k, tuple(Fraction(x) for x in v))
                         for k, v in brackets.items())),
            Fraction(-1), Fraction(lam))


# search: the 6 hits as (sorted bracket table, K, lambda)
SEARCH_HITS = frozenset(
    [_hit({(0, 1): (0, b, c)}, Fraction(c, 2))
     for b in (-2, 2) for c in (-2, 2)]
    + [_hit({(0, 1): (0, 0, c), (0, 2): (0, c, 0), (1, 2): (c, 0, 0)},
            Fraction(c, 2))
       for c in (-2, 2)])
