"""Manifold models and exact tensor fields.

Two model kinds describe an odd-dimensional manifold M^(2n+1), each with
its own exact scalar field:

* :class:`ChartModel`: a single coordinate chart; scalars are rational
  functions (:class:`~ppst.expr.RationalExpr`) in the coordinates, and the
  basis is the coordinate vector fields (all brackets zero).
* :class:`FrameModel`: a global frame e_1..e_{2n+1} with constant structure
  constants [e_i, e_j] = c^k_ij e_k; scalars are plain
  ``fractions.Fraction`` constants.

Both expose the same operational surface (zero, one, scalar, diff,
bracket_vector, ...), so the differential-geometry operators (Lie bracket,
exterior derivative, Lie derivative) and everything built on them are
written once against it, using only the operations both fields share:
+, -, *, /, equality, truthiness as the zero test, and str.  The two
helpers :func:`constant_value` and :func:`evaluate_at` cover what only
rational functions need (a constant test, a point evaluation).  A tensor
field stores one exact scalar per component; index order is upper slots
first, then lower slots.

For a frame realized inside a chart by explicit vector fields,
:func:`realize_frame` re-expresses brackets and metric in the frame and
checks they are constant, which is the bridge used to cross-validate the
chart and frame pipelines.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence, Union

from . import linalg
from .expr import DomainConstraint, RationalExpr
from .parser import parse_expr

Scalar = Union[Fraction, RationalExpr]
ScalarLike = Union[int, Fraction, str, RationalExpr]


def constant_value(value: Scalar | int) -> Fraction | None:
    """The rational constant a scalar of either field equals, or None."""
    if isinstance(value, RationalExpr):
        return value.constant_value() if value.is_constant else None
    return Fraction(value)


def evaluate_at(value: Scalar | int, point: Mapping[str, Fraction | int],
                constraints: Iterable[DomainConstraint] = ()) -> Fraction:
    """The value of a scalar of either field at an exact point.

    A rational function is evaluated (and may raise EvaluationError or
    ConstraintViolation); a constant is its own value.
    """
    if isinstance(value, RationalExpr):
        return value.evaluate(point, constraints)
    return Fraction(value)


class GeometryError(Exception):
    """Geometric precondition failures (dimensions, valences, degeneracy)."""


class DegenerateMetricError(GeometryError):
    """The metric has identically zero determinant."""


class ManifoldModel:
    """Shared surface of chart and frame models."""

    dim: int
    constraints: tuple[DomainConstraint, ...]
    scalar_variables: tuple[str, ...]

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    def _check_dim(self) -> None:
        if self.dim < 3 or self.dim % 2 == 0:
            raise GeometryError(f"dimension must be odd and >= 3, got {self.dim}")

    # scalar helpers ---------------------------------------------------------

    # the field's additive and multiplicative identities, set once per model
    zero: Scalar
    one: Scalar

    def delta(self, i: int) -> tuple[Scalar, ...]:
        """Components of the i-th basis vector field."""
        return tuple(self.one if j == i else self.zero for j in range(self.dim))

    # overridden by the concrete models ---------------------------------------

    def scalar(self, value: ScalarLike) -> Scalar:
        """Coerce a value into this model's scalar field."""
        raise NotImplementedError

    def diff(self, i: int, f: Scalar) -> Scalar:
        """Apply the i-th basis vector field to a scalar."""
        raise NotImplementedError

    def bracket_vector(self, i: int, j: int) -> tuple[Scalar, ...]:
        """Components of [e_i, e_j] for basis fields."""
        raise NotImplementedError

    @property
    def basis_labels(self) -> tuple[str, ...]:
        raise NotImplementedError


class ChartModel(ManifoldModel):
    """A single coordinate chart, optionally with nonzero-constraints.

    Scalars are RationalExpr over the coordinate tuple.
    """

    def __init__(self, coordinates: Iterable[str],
                 constraints: Iterable[DomainConstraint | RationalExpr | str] = ()):
        self.coordinates = tuple(coordinates)
        self.dim = len(self.coordinates)
        self.scalar_variables = self.coordinates
        self._check_dim()
        self.zero = RationalExpr.zero(self.coordinates)
        self.one = RationalExpr.one(self.coordinates)
        cons = []
        for c in constraints:
            if isinstance(c, str):
                c = DomainConstraint(parse_expr(c, self.coordinates))
            elif isinstance(c, RationalExpr):
                c = DomainConstraint(c)
            cons.append(c)
        self.constraints = tuple(cons)
        self._zero_vec = (self.zero,) * self.dim

    def scalar(self, value: ScalarLike) -> RationalExpr:
        if isinstance(value, RationalExpr):
            if value.variables == self.scalar_variables:
                return value
            if value.is_constant:
                return RationalExpr.constant(value.constant_value(),
                                             self.scalar_variables)
            raise GeometryError(f"scalar over wrong variables: {value!r}")
        if isinstance(value, str):
            return parse_expr(value, self.scalar_variables)
        return RationalExpr.constant(value, self.scalar_variables)

    def diff(self, i: int, f: RationalExpr) -> RationalExpr:
        return f.derivative(self.coordinates[i])

    def bracket_vector(self, i: int, j: int) -> tuple[RationalExpr, ...]:
        return self._zero_vec

    @property
    def basis_labels(self) -> tuple[str, ...]:
        return tuple(f"d/d{c}" for c in self.coordinates)

    def __repr__(self) -> str:
        return f"ChartModel(coordinates={self.coordinates!r})"


class FrameModel(ManifoldModel):
    """A global frame with constant structure constants.

    Scalars are plain ``fractions.Fraction`` constants, so the bracket table
    and every tensor field on a frame hold Fractions; ``scalar`` also
    accepts int, str and constant RationalExpr input.

    ``brackets`` maps index pairs (i, j), i < j, to the component list of
    [e_i, e_j]; omitted pairs are zero.  The table must be antisymmetric
    (enforced by construction) and satisfy the Jacobi identity, since a
    constant table is a Lie algebra; this also guarantees d(d omega) = 0.
    """

    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self, labels: Iterable[str], signature: Iterable[int],
                 brackets: Mapping[tuple[int, int], Sequence[ScalarLike]] | None = None):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.scalar_variables = ()
        self.constraints = ()
        self._check_dim()
        self.signature = tuple(int(s) for s in signature)
        if len(self.signature) != self.dim or any(s not in (1, -1) for s in self.signature):
            raise GeometryError("signature must list +1/-1 per frame index")
        if (self.signature.count(1), self.signature.count(-1)) != (self.n + 1, self.n):
            raise GeometryError(f"signature must have {self.n + 1} plus and "
                                f"{self.n} minus entries")
        zero_vec = (self.zero,) * self.dim
        table = [[zero_vec] * self.dim for _ in range(self.dim)]
        for (i, j), comps in (brackets or {}).items():
            if not 0 <= i < j < self.dim:
                raise GeometryError(f"bracket key must have 0 <= i < j < dim, got {(i, j)}")
            vec = tuple(self.scalar(c) for c in comps)
            if len(vec) != self.dim:
                raise GeometryError(f"bracket [{i},{j}] needs {self.dim} components")
            table[i][j] = vec
            table[j][i] = tuple(-c for c in vec)
        self._table = tuple(tuple(row) for row in table)
        self._check_jacobi()

    def scalar(self, value: ScalarLike) -> Fraction:
        if type(value) is Fraction:
            return value
        if isinstance(value, str):
            value = parse_expr(value, ())
        const = constant_value(value)
        if const is None:
            raise GeometryError(f"frame scalars are constants, got {value!r}")
        return const

    def _check_jacobi(self) -> None:
        # J(i,j,k) = [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] is
        # totally antisymmetric and vanishes on a repeated index, so the
        # triples i < j < k decide it; the first violation found is the
        # lexicographically first violating ordered triple
        d, c, zero = self.dim, self._table, self.zero
        # col[k][l][m] = c^l_mk, the l-th components of [e_m, e_k]
        col = [[tuple(c[m][k][l] for m in range(d)) for l in range(d)]
               for k in range(d)]
        for i, j, k in combinations(range(d), 3):
            for l in range(d):
                if (linalg.dot(c[i][j], col[k][l], zero)
                        + linalg.dot(c[j][k], col[i][l], zero)
                        + linalg.dot(c[k][i], col[j][l], zero)):
                    raise GeometryError(
                        f"bracket table violates the Jacobi identity at "
                        f"({self.labels[i]},{self.labels[j]},{self.labels[k]})")

    def diff(self, i: int, f: Fraction) -> Fraction:
        return self.zero  # frame scalars are constants

    def bracket_vector(self, i: int, j: int) -> tuple[Fraction, ...]:
        return self._table[i][j]

    @property
    def basis_labels(self) -> tuple[str, ...]:
        return self.labels

    def orthonormal_metric(self) -> "TensorField":
        """The reference metric g(e_i, e_j) = signature_i * delta_ij."""
        entries = {(i, i): self.signature[i] for i in range(self.dim)}
        return TensorField.from_entries(self, (0, 2), entries)

    def __repr__(self) -> str:
        return f"FrameModel(labels={self.labels!r}, signature={self.signature!r})"


# ---------------------------------------------------------------------------

class TensorField:
    """Exact tensor field of valence (r, s) over a model.

    Components are stored flat, row-major over the index tuple
    (upper_1..upper_r, lower_1..lower_s).  For a (1,1) tensor built from
    rows, rows[i][j] is the e_i-component of T(e_j), i.e. columns are images
    of basis vectors; for a (0,2) tensor rows[i][j] = T(e_i, e_j).
    """

    __slots__ = ("model", "valence", "data")

    def __init__(self, model: ManifoldModel, valence: tuple[int, int],
                 data: Sequence[ScalarLike]):
        r, s = valence
        if r < 0 or s < 0 or r + s == 0:
            raise GeometryError(f"bad valence {valence}")
        size = model.dim ** (r + s)
        comps = tuple(model.scalar(v) for v in data)
        if len(comps) != size:
            raise GeometryError(f"expected {size} components, got {len(comps)}")
        self.model = model
        self.valence = (r, s)
        self.data = comps

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, model: ManifoldModel, valence: tuple[int, int]) -> "TensorField":
        return cls(model, valence, [0] * model.dim ** sum(valence))

    @classmethod
    def from_entries(cls, model: ManifoldModel, valence: tuple[int, int],
                     entries: Mapping[tuple[int, ...], ScalarLike]) -> "TensorField":
        rank = sum(valence)
        data = [model.zero] * model.dim ** rank
        for idx, value in entries.items():
            if len(idx) != rank:
                raise GeometryError(f"index {idx} has wrong rank")
            data[cls._offset_static(model.dim, idx)] = model.scalar(value)
        return cls(model, valence, data)

    @classmethod
    def from_rows(cls, model: ManifoldModel, valence: tuple[int, int],
                  rows: Sequence[Sequence[ScalarLike]]) -> "TensorField":
        if sum(valence) != 2:
            raise GeometryError("from_rows needs a rank-2 valence")
        if len(rows) != model.dim or any(len(r) != model.dim for r in rows):
            raise GeometryError("rows must form a dim x dim matrix")
        return cls(model, valence, [v for row in rows for v in row])

    @classmethod
    def vector(cls, model: ManifoldModel, comps: Sequence[ScalarLike]) -> "TensorField":
        return cls(model, (1, 0), comps)

    @classmethod
    def covector(cls, model: ManifoldModel, comps: Sequence[ScalarLike]) -> "TensorField":
        return cls(model, (0, 1), comps)

    # -- indexing ------------------------------------------------------------

    @staticmethod
    def _offset_static(dim: int, idx: tuple[int, ...]) -> int:
        off = 0
        for k in idx:
            if not 0 <= k < dim:
                raise IndexError(f"index {idx} out of range")
            off = off * dim + k
        return off

    @property
    def rank(self) -> int:
        return sum(self.valence)

    def __getitem__(self, idx: int | tuple[int, ...]) -> Scalar:
        if isinstance(idx, int):
            idx = (idx,)
        if len(idx) != self.rank:
            raise IndexError(f"need {self.rank} indices, got {len(idx)}")
        return self.data[self._offset_static(self.model.dim, idx)]

    def indices(self):
        return product(range(self.model.dim), repeat=self.rank)

    def vec(self) -> tuple[Scalar, ...]:
        if self.rank != 1:
            raise GeometryError("vec() needs a rank-1 tensor")
        return self.data

    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        if self.rank != 2:
            raise GeometryError("rows() needs a rank-2 tensor")
        d = self.model.dim
        return tuple(self.data[i * d:(i + 1) * d] for i in range(d))

    # -- algebra -------------------------------------------------------------

    def _compatible(self, other: "TensorField") -> None:
        if self.model is not other.model or self.valence != other.valence:
            raise GeometryError("tensor fields are not compatible")

    def __add__(self, other: "TensorField") -> "TensorField":
        self._compatible(other)
        return TensorField(self.model, self.valence,
                           [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "TensorField") -> "TensorField":
        self._compatible(other)
        return TensorField(self.model, self.valence,
                           [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "TensorField":
        return TensorField(self.model, self.valence, [-a for a in self.data])

    def __mul__(self, scalar: ScalarLike) -> "TensorField":
        s = self.model.scalar(scalar)
        return TensorField(self.model, self.valence, [a * s for a in self.data])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorField):
            return NotImplemented
        return (self.model is other.model and self.valence == other.valence
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash((id(self.model), self.valence, self.data))

    @property
    def is_zero(self) -> bool:
        return not any(self.data)

    def nonzero_witness(self) -> tuple[tuple[int, ...], Scalar] | None:
        """First (lex) index with a nonvanishing component, or None."""
        for idx, c in zip(self.indices(), self.data):
            if c:
                return idx, c
        return None

    def __repr__(self) -> str:
        return f"TensorField(valence={self.valence}, dim={self.model.dim})"


# ---------------------------------------------------------------------------
# differential operators (shared by chart and frame pipelines)

Vec = tuple[Scalar, ...]


def _bracket_comps(model: ManifoldModel, X: Vec, Y: Vec) -> Vec:
    """[X, Y]^k = X(Y^k) - Y(X^k) + X^i Y^j c^k_ij."""
    d = model.dim
    zero = model.zero
    out = []
    for k in range(d):
        acc = (linalg.dot(X, [model.diff(i, Y[k]) for i in range(d)], zero)
               - linalg.dot(Y, [model.diff(i, X[k]) for i in range(d)], zero))
        if isinstance(model, FrameModel):
            c_k = [[model.bracket_vector(i, j)[k] for j in range(d)]
                   for i in range(d)]
            acc = acc + linalg.bilinear(c_k, X, Y, zero)
        out.append(acc)
    return tuple(out)


def _apply_vec(model: ManifoldModel, X: Vec, f: Scalar) -> Scalar:
    acc = model.zero
    for i in range(model.dim):
        if X[i]:
            acc = acc + X[i] * model.diff(i, f)
    return acc


def lie_bracket(X: TensorField, Y: TensorField) -> TensorField:
    """[X, Y] for vector fields over the same model."""
    if X.valence != (1, 0) or Y.valence != (1, 0) or X.model is not Y.model:
        raise GeometryError("lie_bracket needs two vector fields on one model")
    return TensorField.vector(X.model, _bracket_comps(X.model, X.vec(), Y.vec()))


def exterior_derivative(omega: TensorField) -> TensorField:
    """d omega for 1-forms and 2-forms.

    Conventions (the 1/(p+1) scaling; consistent with d(d omega) = 0):
      2 dω(X,Y) = X ω(Y) - Y ω(X) - ω([X,Y])
      3 dΩ(X,Y,Z) = sum_cyc X Ω(Y,Z) - sum_cyc Ω([X,Y],Z)
    """
    model = omega.model
    d = model.dim
    if omega.valence == (0, 1):
        w = omega.data
        half = Fraction(1, 2)
        entries = {}
        for i in range(d):
            for j in range(d):
                cij = model.bracket_vector(i, j)
                val = model.diff(i, w[j]) - model.diff(j, w[i])
                for k in range(d):
                    if cij[k]:
                        val = val - cij[k] * w[k]
                entries[(i, j)] = val * half
        return TensorField.from_entries(model, (0, 2), entries)
    if omega.valence == (0, 2):
        rows = omega.rows()
        for i in range(d):
            for j in range(d):
                if rows[i][j] + rows[j][i]:
                    raise GeometryError("exterior_derivative needs an antisymmetric 2-form")
        third = Fraction(1, 3)
        entries = {}
        for i, j, k in product(range(d), repeat=3):
            val = (model.diff(i, rows[j][k]) + model.diff(j, rows[k][i])
                   + model.diff(k, rows[i][j]))
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                vab = model.bracket_vector(a, b)
                for m in range(d):
                    if vab[m]:
                        val = val - vab[m] * rows[m][c]
            entries[(i, j, k)] = val * third
        return TensorField.from_entries(model, (0, 3), entries)
    raise GeometryError(f"unsupported form valence {omega.valence}")


def lie_derivative(T: TensorField, X: TensorField) -> TensorField:
    """Lie derivative of a (0,1), (0,2) or (1,1) tensor along a vector field."""
    if X.valence != (1, 0) or X.model is not T.model:
        raise GeometryError("lie_derivative needs a vector field on the same model")
    model = T.model
    d = model.dim
    Xv = X.vec()
    bracket_with_basis = [
        _bracket_comps(model, Xv, model.delta(j)) for j in range(d)]
    if T.valence == (0, 1):
        w = T.data
        out = []
        for j in range(d):
            val = _apply_vec(model, Xv, w[j])
            for k in range(d):
                if bracket_with_basis[j][k]:
                    val = val - bracket_with_basis[j][k] * w[k]
            out.append(val)
        return TensorField.covector(model, out)
    if T.valence == (0, 2):
        rows = T.rows()
        entries = {}
        for j in range(d):
            for k in range(d):
                val = _apply_vec(model, Xv, rows[j][k])
                for m in range(d):
                    bj = bracket_with_basis[j][m]
                    bk = bracket_with_basis[k][m]
                    if bj:
                        val = val - bj * rows[m][k]
                    if bk:
                        val = val - bk * rows[j][m]
                entries[(j, k)] = val
        return TensorField.from_entries(model, (0, 2), entries)
    if T.valence == (1, 1):
        rows = T.rows()
        entries = {}
        for j in range(d):
            # (L_X T)(e_j) = [X, T e_j] - T([X, e_j])
            Tej = tuple(rows[i][j] for i in range(d))
            lead = _bracket_comps(model, Xv, Tej)
            for i in range(d):
                val = lead[i]
                for m in range(d):
                    bm = bracket_with_basis[j][m]
                    if bm:
                        val = val - rows[i][m] * bm
                entries[(i, j)] = val
        return TensorField.from_entries(model, (1, 1), entries)
    raise GeometryError(f"unsupported valence {T.valence} for lie_derivative")


# ---------------------------------------------------------------------------
# chart <-> frame bridge

def realize_frame(chart: ChartModel, vectors: Sequence[TensorField],
                  metric: TensorField, labels: Iterable[str],
                  signature: Iterable[int] | None = None,
                  ) -> tuple[FrameModel, TensorField]:
    """Build the FrameModel induced by explicit frame vector fields.

    Brackets and metric components are re-expressed in the frame and must
    come out constant; otherwise the fields do not span a homogeneous frame
    and a GeometryError is raised.  Returns (frame_model, frame_metric).
    """
    d = chart.dim
    if len(vectors) != d:
        raise GeometryError(f"need {d} frame vector fields")
    cols = [v.vec() for v in vectors]
    mat = tuple(tuple(cols[a][i] for a in range(d)) for i in range(d))
    try:
        inv = linalg.invert_matrix(mat, chart.one)
    except linalg.SingularMatrixError:
        raise GeometryError("frame vector fields are linearly dependent") from None

    zero = chart.zero

    def in_frame(w: Vec) -> tuple[Fraction, ...]:
        consts = []
        for c in linalg.mat_vec(inv, w, zero):
            const = constant_value(c)
            if const is None:
                raise GeometryError(f"frame re-expression is not constant: {c}")
            consts.append(const)
        return tuple(consts)

    brackets = {}
    for a in range(d):
        for b in range(a + 1, d):
            comps = in_frame(_bracket_comps(chart, cols[a], cols[b]))
            if any(comps):
                brackets[(a, b)] = comps
    grows = metric.rows()
    G = []
    for a in range(d):
        row = []
        for b in range(d):
            acc = linalg.bilinear(grows, cols[a], cols[b], zero)
            const = constant_value(acc)
            if const is None:
                raise GeometryError(f"frame metric is not constant: g({a},{b}) = {acc}")
            row.append(const)
        G.append(row)
    if signature is None:
        if all(G[a][b] == (0 if a != b else G[a][a]) for a in range(d) for b in range(d)) \
                and all(abs(G[a][a]) == 1 for a in range(d)):
            signature = tuple(int(G[a][a]) for a in range(d))
        else:
            raise GeometryError("frame metric is not orthonormal; pass a signature")
    frame = FrameModel(labels, signature, brackets)
    frame_metric = TensorField.from_rows(frame, (0, 2), G)
    return frame, frame_metric


# ---------------------------------------------------------------------------
# deterministic sample points

_CANDIDATES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-1),
               Fraction(5), Fraction(-2), Fraction(7, 2), Fraction(4), Fraction(-3))


def sample_points(model: ManifoldModel, count: int) -> list[dict[str, Fraction]]:
    """Deterministic exact rational points satisfying the model constraints."""
    if not isinstance(model, ChartModel):
        return [{} for _ in range(count)]
    points: list[dict[str, Fraction]] = []
    ncand = len(_CANDIDATES)
    for k in range(1000):
        if len(points) == count:
            break
        point = {c: _CANDIDATES[(k + 3 * i) % ncand]
                 for i, c in enumerate(model.coordinates)}
        if point in points:
            continue
        if all(con.holds_at(point) for con in model.constraints):
            points.append(point)
    if len(points) < count:
        raise GeometryError("could not find enough constraint-satisfying points")
    return points


def sample_point(model: ManifoldModel) -> dict[str, Fraction]:
    return sample_points(model, 1)[0]


# ---------------------------------------------------------------------------
# deterministic printing of vector component tuples

_PLAIN_COEFF = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


def format_combination(comps: Sequence[Scalar | int],
                       labels: Sequence[str]) -> str:
    """Print a component tuple as a combination over basis labels.

    Zero components are dropped ("0" for the zero vector), unit coefficients
    collapse onto the label, plain rational coefficients attach with "*", and
    non-constant coefficients are parenthesized.  The result is deterministic
    and, for constant coefficients, parseable by the expression grammar with
    the labels as variables.
    """
    if len(comps) != len(labels):
        raise GeometryError("component/label length mismatch")
    terms: list[str] = []
    for comp, label in zip(comps, labels):
        if not comp:
            continue
        text = str(comp)
        if text == "1":
            terms.append(label)
        elif text == "-1":
            terms.append(f"-{label}")
        elif _PLAIN_COEFF.match(text):
            terms.append(f"{text}*{label}")
        else:
            terms.append(f"({text})*{label}")
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out
