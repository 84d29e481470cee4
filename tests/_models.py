"""Shared structure builders used across the test modules."""

from __future__ import annotations

from pathlib import Path

from ppst.models import ChartModel, FrameModel, TensorField
from ppst.specfile import import_text
from ppst.structures import ParacontactStructure

GOLDEN = Path(__file__).parent / "golden"

# three non-basis vector fields on a golden chart with non-monomial
# denominators and on a dim-5 frame, for the differential operators'
# checks against their invariant definitions
GOLDEN_FIELDS = [
    ("chart-1+z2.spec",
     (("y", "x*z", "1/(1+z^2)"), ("z", "1", "x"), ("1", "y^2", "x/(1+z^2)"))),
    ("heisenberg5-c4.spec",
     (("1", "2", "-1", "0", "3"), ("0", "1", "3", "1/2", "-1"),
      ("1/2", "0", "1", "2", "1"))),
]


def golden_structure(spec: str) -> ParacontactStructure:
    return import_text((GOLDEN / spec).read_text(encoding="utf-8"))


def feed(T: TensorField, *vectors) -> list:
    """Components of T with the given component tuples in its last slots."""
    m = T.model
    out = [0] * m.dim ** (T.rank - len(vectors))
    block = m.dim ** len(vectors)
    for off, (idx, t) in enumerate(T.items()):
        for v, i in zip(vectors, idx[T.rank - len(vectors):]):
            t = t * v[i]
        if t:
            out[off // block] = out[off // block] + t
    return out


def frame_example() -> ParacontactStructure:
    """Frame-mode 3-d structure with [e1,e2] = 4 xi; A = 2 phi."""
    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1), {(0, 1): (0, 0, 4)})
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    eta = TensorField.covector(model, (0, 0, 1))
    frame = (TensorField.vector(model, (1, 0, 0)),
             TensorField.vector(model, (0, 1, 0)), xi)
    return ParacontactStructure(model, phi, xi, model.orthonormal_metric(), eta,
                                declared_frame=frame, name="example-frame")


def para_heisenberg(dim: int, c: int) -> ParacontactStructure:
    """The para-Heisenberg frame [e_i, e_{n+i}] = c xi with g = diag(+1 x n,
    -1 x n, +1) and phi swapping e_i and e_{n+i}; no declared frame."""
    n = (dim - 1) // 2
    signature = [1] * n + [-1] * n + [1]
    xi_comps = [0] * (dim - 1) + [1]
    model = FrameModel([f"e{i + 1}" for i in range(2 * n)] + ["xi"], signature,
                       {(i, n + i): [c * x for x in xi_comps] for i in range(n)})
    partner = [n + i for i in range(n)] + list(range(n)) + [None]
    phi = TensorField.from_rows(model, (1, 1), [
        [int(j == partner[i]) for j in range(dim)] for i in range(dim)])
    xi = TensorField.vector(model, xi_comps)
    eta = TensorField.covector(model, xi_comps)
    return ParacontactStructure(model, phi, xi, model.orthonormal_metric(), eta,
                                name=f"para-heisenberg-{dim}-c{c}")


def _chart_common(gxz: str, gzz: str):
    model = ChartModel(("x", "y", "z"), constraints=("z",))
    phi = TensorField.from_rows(model, (1, 1),
                                [[0, "4*y", 0], [0, 0, "1/z"], [0, "z", 0]])
    xi = TensorField.vector(model, (1, 0, 0))
    eta = TensorField.covector(model, (1, 0, "-4*y/z"))
    g = TensorField.from_rows(model, (0, 2),
                              [[1, 0, gxz], [0, -1, 0], [gxz, 0, gzz]])
    frame = (TensorField.vector(model, ("4*y", 0, "z")),
             TensorField.vector(model, (0, 1, 0)), xi)
    return model, phi, xi, eta, g, frame


def chart_printed() -> ParacontactStructure:
    """Chart-mode structure with the internally inconsistent metric."""
    model, phi, xi, eta, g, frame = _chart_common("-2*y/z", "(1+28*y^2)/z^2")
    return ParacontactStructure(model, phi, xi, g, eta, declared_frame=frame,
                                name="example-chart-printed")


def chart_corrected() -> ParacontactStructure:
    """Chart-mode structure with the metric fixed so the frame is orthonormal."""
    model, phi, xi, eta, g, frame = _chart_common("-4*y/z", "(1+16*y^2)/z^2")
    return ParacontactStructure(model, phi, xi, g, eta, declared_frame=frame,
                                name="example-chart-corrected")


def flat_cosymplectic() -> ParacontactStructure:
    """Flat chart-mode paracosymplectic structure on R^3."""
    model = ChartModel(("x", "y", "z"))
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    eta = TensorField.covector(model, (0, 0, 1))
    g = TensorField.from_rows(model, (0, 2), [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    return ParacontactStructure(model, phi, xi, g, eta, name="flat-paracosymplectic")


def negative_curvature_frame() -> ParacontactStructure:
    """Frame-mode structure of constant curvature K = -1 ([e1,e2] = 2e2 + 2xi)."""
    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1), {(0, 1): (0, 2, 2)})
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    eta = TensorField.covector(model, (0, 0, 1))
    return ParacontactStructure(model, phi, xi, model.orthonormal_metric(), eta,
                                name="constant-negative-curvature")


def chart_spec(g, phi, constraints=None, xi="0, 0, 1", eta="0, 0, 1",
               frame=None, name="domain-probe") -> str:
    """Spec text of a structure on the chart (x, y, z): g, phi and frame
    as three row strings each, the rest as one string."""
    lines = ["[manifold]", f"name = {name}", "mode = chart", "dim = 3",
             "coordinates = x, y, z"]
    if constraints is not None:
        lines.append(f"constraints = {constraints}")
    for section, key, rows in (("g", "row", g), ("phi", "row", phi),
                               ("frame", "field", frame)):
        if rows is not None:
            lines += ["", f"[{section}]"]
            lines += [f"{key}{i + 1} = {row}" for i, row in enumerate(rows)]
    lines += ["", "[xi]", f"components = {xi}", "", "[eta]",
              f"components = {eta}"]
    return "\n".join(lines) + "\n"


# phi swapping d/dx and d/dy, the phi of flat-paracosymplectic
PHI_SWAP = ("0, 1, 0", "1, 0, 0", "0, 0, 0")


def recharted_corrected(w: str, constraints=None) -> str:
    """example-chart-corrected with z replaced by w = w(y, z): the axioms
    hold identically for every w, and g, phi and eta divide by w."""
    w = f"({w})"
    return chart_spec(
        g=(f"1, 0, -4*y/{w}", "0, -1, 0", f"-4*y/{w}, 0, (1+16*y^2)/{w}^2"),
        phi=("0, 4*y, 0", f"0, 0, 1/{w}", f"0, {w}, 0"),
        xi="1, 0, 0", eta=f"1, 0, -4*y/{w}",
        frame=(f"4*y, 0, {w}", "0, 1, 0", "1, 0, 0"),
        constraints=constraints, name=f"recharted-w={w}")
