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
bracket_vector, ...), so the differential-geometry operators and everything
built on them are written once against it, using only the operations both
fields share: +, -, *, /, equality, truthiness as the zero test, and str.
One exterior derivative serves forms of every degree, and one derivation
rule, ``_derivation``, extends a derivation from scalars and basis fields
to tensors of any valence: it is the Lie derivative here and the
covariant derivative in :mod:`ppst.curvature`.  The two
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
from .expr import DomainConstraint, RationalExpr, Variables
from .parser import parse_expr
from .report import first_nonzero

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


def constant_ratio(pairs: Iterable[tuple[Scalar, Scalar]]) -> Fraction | None:
    """The rational constant c with a = c b for every (a, b) pair, or None.

    c is read off the first pair with b != 0; the scan stops at the first
    pair that breaks a = c b, also at a nonzero a before that b.
    """
    c = None
    for a, b in pairs:
        if c is None:
            if b:
                c = constant_value(a / b)
                if c is None:
                    return None
            elif a:
                return None
        elif a - b * c:
            return None
    return c


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

    Scalars are RationalExpr over the coordinate tuple.  ``coordinates`` is
    one :class:`~ppst.expr.Variables` object (kept as given if it already
    is one), and ``scalar`` re-homes every value onto it, so all scalars of
    the chart and of the structures on it share one memo of canonical
    forms: each distinct num/den pair is reduced once per chart.
    """

    def __init__(self, coordinates: Iterable[str],
                 constraints: Iterable[DomainConstraint | RationalExpr | str] = ()):
        self.coordinates = Variables.of(coordinates)
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
            if value.variables is self.scalar_variables:
                return value
            if value.variables == self.scalar_variables:
                return RationalExpr._make(self.scalar_variables, value.num,
                                          value.den)
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
        # slabs[k][i][j] = c^k_ij, the k-th components of the table
        self.slabs = tuple(tuple(tuple(vec[k] for vec in row) for row in table)
                           for k in range(self.dim))
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

    def items(self):
        """(index, component) pairs in lex index order."""
        return zip(self.indices(), self.data)

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

    def __mul__(self, scalar: ScalarLike) -> "TensorField":
        s = self.model.scalar(scalar)
        return TensorField(self.model, self.valence, [a * s for a in self.data])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorField):
            return NotImplemented
        return (self.model is other.model and self.valence == other.valence
                and self.data == other.data)

    @property
    def is_zero(self) -> bool:
        return not any(self.data)

    def nonzero_witness(self) -> tuple[tuple[int, ...], Scalar] | None:
        """First (lex) index with a nonvanishing component, or None."""
        return first_nonzero(self.items())

    def __repr__(self) -> str:
        return f"TensorField(valence={self.valence}, dim={self.model.dim})"


# ---------------------------------------------------------------------------
# differential operators (shared by chart and frame pipelines)

Vec = tuple[Scalar, ...]


def _apply_vec(model: ManifoldModel, X: Vec, f: Scalar) -> Scalar:
    """X(f) = X^i e_i(f), differentiating only along the nonzero X^i."""
    return linalg.dot(X, [model.diff(i, f) if a else a for i, a in enumerate(X)],
                      model.zero)


def _bracket_comps(model: ManifoldModel, X: Vec, Y: Vec) -> Vec:
    """[X, Y]^k = X(Y^k) - Y(X^k) + X^i Y^j c^k_ij.

    A frame's scalars are constants and a chart's coordinate fields
    commute, so only the last term is left on a frame and only the first
    two on a chart.
    """
    zero = model.zero
    if isinstance(model, FrameModel):
        return tuple(linalg.bilinear(slab, X, Y, zero) for slab in model.slabs)
    return tuple(linalg.signed_sum((_apply_vec(model, X, y),),
                                   (_apply_vec(model, Y, x),), zero)
                 for x, y in zip(X, Y))


def lie_bracket(X: TensorField, Y: TensorField) -> TensorField:
    """[X, Y] for vector fields over the same model."""
    if X.valence != (1, 0) or Y.valence != (1, 0) or X.model is not Y.model:
        raise GeometryError("lie_bracket needs two vector fields on one model")
    return TensorField.vector(X.model, _bracket_comps(X.model, X.vec(), Y.vec()))


def exterior_derivative(omega: TensorField) -> TensorField:
    """d omega for a p-form of any degree p >= 1.

    With the 1/(p+1) scaling (consistent with d(d omega) = 0):

      (p+1) dω(X_0..X_p) = sum_a (-1)^a X_a ω(..X̂_a..)
          + sum_{a<b} (-1)^(a+b) ω([X_a, X_b], ..X̂_a..X̂_b..)
    """
    model = omega.model
    r, p = omega.valence
    if r or p < 1:
        raise GeometryError(f"unsupported form valence {omega.valence}")
    d, n = model.dim, p + 1
    w = omega.data
    pw = [d ** k for k in range(n + 1)]
    # a p-form changes sign when two adjacent slots swap
    for off, idx in enumerate(omega.indices()):
        for q in range(p - 1):
            swapped = off + (idx[q + 1] - idx[q]) * (pw[p - 1 - q] - pw[p - 2 - q])
            if w[off] + w[swapped]:
                raise GeometryError("exterior_derivative needs an antisymmetric form")
    # brackets[i][j] lists the nonzero (m, c^m_ij)
    brackets = [[[(m, c) for m, c in enumerate(model.bracket_vector(i, j)) if c]
                 for j in range(d)] for i in range(d)]
    scale = Fraction(1, n)
    out = []
    for off, idx in enumerate(product(range(d), repeat=n)):
        terms = ([], [])  # the terms added and those subtracted
        for a, i in enumerate(idx):
            # offsets are read digit-wise in base d: rest is ω's offset of
            # idx without slot a, base that of idx without slots a and b
            rest = off // pw[n - a] * pw[p - a] + off % pw[p - a]
            terms[a % 2].append(model.diff(i, w[rest]))
            for b in range(a + 1, n):
                base = rest // pw[n - b] * pw[p - b] + rest % pw[p - b]
                for m, c in brackets[i][idx[b]]:
                    other = w[m * pw[p - 1] + base]
                    if other:
                        terms[(a + b) % 2].append(c * other)
        val = linalg.signed_sum(*terms, model.zero)
        out.append(val * scale if val else val)
    return TensorField(model, (0, n), out)


def _derivation(T: TensorField, act, images: Sequence[Vec]) -> list[Scalar]:
    """Components of D(T) for the derivation D that acts on scalars as
    ``act`` and on basis fields as D(e_m) = images[m] = B_m^k e_k.

    By the Leibniz rule a component is ``act`` of it, plus one term per
    upper slot, minus one per lower slot:

      D(T)^{..i..}_{..j..} = act(T^{..i..}_{..j..})
          + sum_m B_m^i T^{..m..}_{..j..} - sum_m B_j^m T^{..i..}_{..m..}
    """
    d = T.model.dim
    r, s = T.valence
    # terms[i] lists (m, B) for the slot term at index i
    upper = [[(m, images[m][i]) for m in range(d) if images[m][i]] for i in range(d)]
    lower = [[(m, images[i][m]) for m in range(d) if images[i][m]] for i in range(d)]
    slots = list(zip([upper] * r + [lower] * s,
                     [d ** (r + s - 1 - q) for q in range(r + s)],
                     [True] * r + [False] * s))
    data = T.data
    out = []
    for off, (idx, t) in enumerate(T.items()):
        val = act(t)
        for i, (terms, stride, add) in zip(idx, slots):
            base = off - i * stride
            for m, c in terms[i]:
                other = data[base + m * stride]
                if other:
                    val = val + c * other if add else val - c * other
        out.append(val)
    return out


def lie_derivative(T: TensorField, X: TensorField) -> TensorField:
    """Lie derivative of a tensor field of any valence along a vector field:
    the derivation with X(f) on scalars and [X, e_m] on basis fields."""
    if X.valence != (1, 0) or X.model is not T.model:
        raise GeometryError("lie_derivative needs a vector field on the same model")
    model = T.model
    Xv = X.vec()
    images = [_bracket_comps(model, Xv, model.delta(m)) for m in range(model.dim)]
    return TensorField(model, T.valence,
                       _derivation(T, lambda f: _apply_vec(model, Xv, f), images))


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
    """Deterministic exact points over the scalar variables satisfying the
    model constraints; a model without variables has the one point {}."""
    if not model.scalar_variables:
        return [{}]
    points: list[dict[str, Fraction]] = []
    ncand = len(_CANDIDATES)
    for k in range(1000):
        if len(points) == count:
            break
        point = {c: _CANDIDATES[(k + 3 * i) % ncand]
                 for i, c in enumerate(model.scalar_variables)}
        if point in points:
            continue
        if all(con.holds_at(point) for con in model.constraints):
            points.append(point)
    if len(points) < count:
        raise GeometryError("could not find enough constraint-satisfying points")
    return points


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
