"""Manifold models and exact tensor fields.

Two model kinds describe an odd-dimensional manifold M^(2n+1), each with
its own exact scalar field:

* :class:`ChartModel`: a single coordinate chart; scalars are rational
  functions in the coordinates, and the basis is the coordinate vector
  fields (all brackets zero).
* :class:`FrameModel`: a global frame e_1..e_{2n+1} with constant structure
  constants [e_i, e_j] = c^k_ij e_k; scalars are rational constants.

Both fields store a constant by one rule, ``FrameModel.scalar``: an
``int`` when integral, a ``fractions.Fraction`` otherwise, and never a
float.  A chart keeps a :class:`~ppst.expr.RationalExpr` only for a value
that is not constant, so the constant entries of its tables cost int
or Fraction operations, as a frame's do.

Both models expose the same operational surface (scalar, diff, bracket_vector,
...), so the differential-geometry operators and everything built on them
are written once against it, using only the operations both fields share:
+, -, *, equality, hash, truthiness as the zero test, and str.  A plain
number is a scalar of both fields, with the same str and hash as a
constant RationalExpr, and ``diff`` of it is 0 on both, since it is a
constant.  A quotient of two scalars is ``linalg.quotient``, which keeps
two ints exact.
One exterior derivative serves forms of every degree, and one derivation
rule, ``_derivation``, extends a derivation from scalars and basis fields
to tensors of any valence: it is the Lie derivative here and the
covariant derivative in :mod:`ppst.curvature`.  The helper
:func:`constant_value` covers what only rational functions need (a
constant test).

A model also answers two questions about a scalar over its whole domain,
never at a point: ``sign`` (+1 or -1 when the scalar has that sign at every
point, else None) and ``defined_on_domain`` (whether its denominator
vanishes nowhere).  For a plain number, on either field, both are plain
comparisons of constants.  For a RationalExpr on a chart the domain is R^k
minus the zeros of every declared constraint's numerator and denominator,
and one certificate, ``ChartModel._certify``, decides both (see there).

:class:`TensorField` is the one container of component tables: the
fields of a structure, a frame's structure constants, and the metric
inverse, connection and curvature tables of :mod:`ppst.curvature` alike.
It stores one exact scalar per component, flat, upper slots first and
then lower slots, each coerced by ``model.scalar`` in
``TensorField.__init__``, the one coercion point: arithmetic may return a
constant RationalExpr (x * (1/x), say), but no table stores one.  Two
readers serve every table: ``vector_at`` slices out the upper-index
vector at given lower indices, and ``linalg.block_bilinear`` contracts
the last two slots with two vectors.

For a frame realized inside a chart by explicit vector fields,
:func:`realize_frame` re-expresses brackets and metric in the frame and
checks they are constant, which is the bridge used to cross-validate the
chart and frame pipelines.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence, Union

from . import linalg
from .expr import (
    PolyTerms,
    RationalExpr,
    Variables,
    _exact_quotient,
    _split,
)
from .parser import parse_expr

Scalar = Union[int, Fraction, RationalExpr]
ScalarLike = Union[int, Fraction, str, RationalExpr]


def constant_value(value: Scalar) -> Fraction | None:
    """The rational constant a scalar of either field equals, or None."""
    if isinstance(value, RationalExpr):
        return value.constant_value() if value.is_constant else None
    return Fraction(value)


def constant_ratio(pairs: Iterable[tuple[Scalar, Scalar]]) -> Fraction | None:
    """The rational constant c with a = c b for every (a, b) pair, or None.

    c is read off the first pair with b != 0; the scan stops at the first
    pair that breaks a = c b, also at a nonzero a before that b.  The
    pairs are tested against c stored as ``FrameModel.scalar`` stores it, so
    an integral c costs int products on a frame; c is returned as a Fraction.
    """
    c = None
    for a, b in pairs:
        if c is None:
            if b:
                c = constant_value(linalg.quotient(a, b))
                if c is None:
                    return None
                stored = FrameModel.scalar(c)
            elif a:
                return None
        elif a - b * stored:
            return None
    return c


class GeometryError(Exception):
    """Geometric precondition failures (dimensions, valences, degeneracy)."""


class DegenerateMetricError(GeometryError):
    """The metric has identically zero determinant."""


class ManifoldModel:
    """Shared surface of chart and frame models."""

    dim: int
    constraints: tuple[RationalExpr, ...]
    scalar_variables: tuple[str, ...]

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    def _check_dim(self) -> None:
        if self.dim < 3 or self.dim % 2 == 0:
            raise GeometryError(f"dimension must be odd and >= 3, got {self.dim}")

    def delta(self, i: int) -> tuple[int, ...]:
        """Components of the i-th basis vector field."""
        return tuple(int(j == i) for j in range(self.dim))

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

    def sign(self, value: Scalar) -> int | None:
        """+1 or -1 when a nonzero scalar has that sign at every point of
        the domain, else None."""
        raise NotImplementedError

    def defined_on_domain(self, value: Scalar) -> bool:
        """Whether the scalar's denominator vanishes nowhere on the domain."""
        raise NotImplementedError

    @property
    def basis_labels(self) -> tuple[str, ...]:
        raise NotImplementedError


def _definite_sign(poly: Mapping[tuple[int, ...], int | Fraction]) -> int | None:
    """+1 or -1 when poly is c Q with Q a positive constant plus monomials
    with even exponents and positive coefficients, such as 1 + 24y^2, so
    that Q >= its constant > 0 at every real point; else None."""
    if all(any(m) for m in poly) or any(e & 1 for m in poly for e in m):
        return None
    signs = {c > 0 for c in poly.values()}
    if len(signs) != 1:
        return None
    return 1 if signs.pop() else -1


class ChartModel(ManifoldModel):
    """A single coordinate chart, optionally with nonzero-constraints.

    Each constraint is a chart scalar that must vanish nowhere: the domain
    is R^k minus the zeros of every constraint's numerator and
    denominator; ``sign`` and ``defined_on_domain`` decide over all of it,
    by the one rule in ``_certify``.

    ``scalar`` stores a constant by the frame rule and any other value as
    a RationalExpr over the coordinate tuple.  ``coordinates`` is one
    :class:`~ppst.expr.Variables` object (kept as given if it already is
    one), and ``scalar`` re-homes every RationalExpr onto it, so all
    scalars of the chart and of the structures on it share one memo of
    canonical forms: each distinct num/den pair is reduced once per chart.
    The constraints stay RationalExprs, constant or not, since
    ``_domain_factors`` reads their numerators and denominators.
    """

    def __init__(self, coordinates: Iterable[str],
                 constraints: Iterable[RationalExpr | str] = ()):
        self.coordinates = Variables.of(coordinates)
        self.dim = len(self.coordinates)
        self.scalar_variables = self.coordinates
        self._check_dim()
        self.constraints = tuple(self._expr(c) for c in constraints)
        for c in self.constraints:
            if c.is_zero:
                raise GeometryError(f"domain constraint {c} != 0 holds nowhere: "
                                    f"the domain is empty")

    @cached_property
    def _domain_factors(self) -> tuple[PolyTerms, ...]:
        """The irreducible factors of every constraint's numerator and
        denominator: each variable that divides one, and what ``_split``
        finds in the rest (sympy runs only on a multi-term leftover that no
        factor the chart knows divides).  Each is nonzero at every domain
        point.  A factor with a definite sign is left out, since it vanishes
        nowhere anyway.  Split on first use, once per chart."""
        factors = {}
        for con in self.constraints:
            for poly in (con.num, con.den):
                content = tuple(map(min, zip(*(m for m, _ in poly))))
                for i, e in enumerate(content):
                    if e:
                        unit = tuple(int(j == i) for j in range(self.dim))
                        factors[((unit, 1),)] = None
                if len(poly) > 1:
                    rest = {tuple(a - b for a, b in zip(m, content)): c
                            for m, c in poly}
                    factors.update(dict.fromkeys(
                        p for p, _ in _split(self.coordinates, rest)))
        return tuple(p for p in factors if _definite_sign(dict(p)) is None)

    def _certify(self, poly: PolyTerms, even: bool) -> int | None:
        """The one domain rule: poly's sign if certified, else None.

        poly is divided by each domain factor as often as it goes, and what
        is left must have a definite sign (``_definite_sign``).  A domain
        factor is nonzero on the domain, so poly then vanishes nowhere on
        it.  With ``even`` every factor must also go an even number of
        times: its power is then positive on the domain, and poly has the
        sign of what is left.  Without ``even`` the result only says that
        poly vanishes nowhere.
        """
        rest = dict(poly)
        sign = _definite_sign(rest)
        if sign is None and rest:
            for p in self._domain_factors:
                e = 0
                while (q := _exact_quotient(rest, p)) is not None:
                    rest, e = q, e + 1
                if even and e & 1:
                    return None
            sign = _definite_sign(rest)
        return sign

    def sign(self, value: Scalar) -> int | None:
        """Certified when both the numerator and the denominator are; a
        plain number has its own sign, as on a frame."""
        if not isinstance(value, RationalExpr):
            return FrameModel.sign(value)
        num, den = self._certify(value.num, True), self._certify(value.den, True)
        return None if num is None or den is None else num * den

    def defined_on_domain(self, value: Scalar) -> bool:
        return (not isinstance(value, RationalExpr)
                or self._certify(value.den, False) is not None)

    def _expr(self, value: ScalarLike) -> RationalExpr:
        """value as a RationalExpr on ``coordinates``."""
        if isinstance(value, RationalExpr):
            if value.variables is self.coordinates:
                return value
            if value.variables == self.coordinates:
                return RationalExpr._make(self.coordinates, value.num,
                                          value.den)
            raise GeometryError(f"scalar over wrong variables: {value!r}")
        if isinstance(value, str):
            return parse_expr(value, self.coordinates)
        return RationalExpr.constant(FrameModel.scalar(value), self.coordinates)

    def scalar(self, value: ScalarLike) -> Scalar:
        """A constant by the frame rule (``FrameModel.scalar``), any other
        value as a RationalExpr on ``coordinates``."""
        if type(value) is int:
            return value
        if not isinstance(value, (str, RationalExpr)):
            return FrameModel.scalar(value)
        value = self._expr(value)
        if not value.is_constant:
            return value
        # a stored coefficient already follows the frame rule
        return value.num[0][1] if value.num else 0

    def diff(self, i: int, f: Scalar) -> Scalar:
        if isinstance(f, RationalExpr):
            return f.derivative(self.coordinates[i])
        return 0  # a plain number is a constant

    def bracket_vector(self, i: int, j: int) -> tuple[int, ...]:
        return (0,) * self.dim

    @property
    def basis_labels(self) -> tuple[str, ...]:
        return tuple(f"d/d{c}" for c in self.coordinates)

    def __repr__(self) -> str:
        return f"ChartModel(coordinates={self.coordinates!r})"


class FrameModel(ManifoldModel):
    """A global frame with constant structure constants.

    Scalars are rational constants, each an int when integral, else a
    Fraction whose denominator is not 1.  ``scalar``, a static method so
    that the rule can be applied before a model exists, applies it to every
    input (int, Fraction, str or constant RationalExpr) and refuses a
    float, so the bracket table and every tensor field on a frame hold ints
    wherever they can, and their zero tests, compares and products run as
    int operations.

    ``brackets`` maps index pairs (i, j), i < j, to the component list of
    [e_i, e_j]; omitted pairs are zero.  The table must be antisymmetric
    (enforced by construction) and satisfy the Jacobi identity, since a
    constant table is a Lie algebra; this also guarantees d(d omega) = 0.
    It is kept once, as the (1,2) field ``constants`` with
    constants[(k, i, j)] = c^k_ij, the layout of a connection's Gamma.
    """

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
        d = self.dim
        data = [0] * d ** 3
        for (i, j), comps in (brackets or {}).items():
            if not 0 <= i < j < d:
                raise GeometryError(f"bracket key must have 0 <= i < j < dim, got {(i, j)}")
            vec = tuple(self.scalar(c) for c in comps)
            if len(vec) != d:
                raise GeometryError(f"bracket [{i},{j}] needs {d} components")
            for k, c in enumerate(vec):
                data[(k * d + i) * d + j] = c
                data[(k * d + j) * d + i] = -c
        self.constants = TensorField(self, (1, 2), data)
        self._check_jacobi()

    @staticmethod
    def scalar(value: ScalarLike) -> int | Fraction:
        if type(value) is int:
            return value
        if type(value) is Fraction:
            return value.numerator if value.denominator == 1 else value
        if isinstance(value, str):
            value = parse_expr(value, ())
        if isinstance(value, RationalExpr):
            if not value.is_constant:
                raise GeometryError(f"frame scalars are constants, got {value!r}")
            return FrameModel.scalar(value.constant_value())
        if isinstance(value, int):  # a bool
            return int(value)
        # a float would be rounded, so it is refused rather than converted;
        # a chart's constants take this rule too
        raise GeometryError(f"scalars are exact rationals, got {value!r}")

    def _check_jacobi(self) -> None:
        # J(i,j,k) = [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] is
        # totally antisymmetric and vanishes on a repeated index, so the
        # triples i < j < k decide it; the first violation found is the
        # lexicographically first violating ordered triple
        d = self.dim
        C, dd, c = self.constants.data, d * d, self.bracket_vector
        # col[k][l][m] = c^l_mk, the l-th components of [e_m, e_k]
        col = [[C[l * dd + k:(l + 1) * dd:d] for l in range(d)]
               for k in range(d)]
        for i, j, k in combinations(range(d), 3):
            cij, cjk, cki = c(i, j), c(j, k), c(k, i)
            for l in range(d):
                if (linalg.dot(cij, col[k][l])
                        + linalg.dot(cjk, col[i][l])
                        + linalg.dot(cki, col[j][l])):
                    raise GeometryError(
                        f"bracket table violates the Jacobi identity at "
                        f"({self.labels[i]},{self.labels[j]},{self.labels[k]})")

    def diff(self, i: int, f: int | Fraction) -> int:
        return 0  # frame scalars are constants

    @staticmethod
    def sign(value: int | Fraction) -> int:
        return (value > 0) - (value < 0)

    @staticmethod
    def defined_on_domain(value: int | Fraction) -> bool:
        return True

    def bracket_vector(self, i: int, j: int) -> tuple[int | Fraction, ...]:
        d = self.dim
        return self.constants.data[i * d + j::d * d]

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
        data = [0] * model.dim ** rank
        for idx, value in entries.items():
            if len(idx) != rank:
                raise GeometryError(f"index {idx} has wrong rank")
            data[cls._offset_static(model.dim, idx)] = value
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

    def vector_at(self, *lower: int) -> tuple[Scalar, ...]:
        """The components over the upper slot of a (1, s) field at the given
        lower indices, a stride slice of ``data``: Gamma.vector_at(i, j) is
        nabla_{e_i} e_j and R.vector_at(k, i, j) is R(e_i, e_j) e_k."""
        if self.valence != (1, len(lower)):
            raise GeometryError(f"vector_at needs a (1, s) tensor and s lower "
                                f"indices, got {lower} for {self.valence}")
        d = self.model.dim
        return self.data[self._offset_static(d, lower)::d ** len(lower)]

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

    def __repr__(self) -> str:
        return f"TensorField(valence={self.valence}, dim={self.model.dim})"


# ---------------------------------------------------------------------------
# differential operators (shared by chart and frame pipelines)

Vec = tuple[Scalar, ...]


def _apply_vec(model: ManifoldModel, X: Vec, f: Scalar) -> Scalar:
    """X(f) = X^i e_i(f), differentiating only along the nonzero X^i."""
    return linalg.dot(X, [model.diff(i, f) if a else a for i, a in enumerate(X)])


def _bracket_comps(model: ManifoldModel, X: Vec, Y: Vec) -> Vec:
    """[X, Y]^k = X(Y^k) - Y(X^k) + X^i Y^j c^k_ij.

    A frame's scalars are constants and a chart's coordinate fields
    commute, so only the last term is left on a frame and only the first
    two on a chart.
    """
    if isinstance(model, FrameModel):
        return linalg.block_bilinear(model.constants.data, X, Y)
    return tuple(linalg.signed_sum((_apply_vec(model, X, y),),
                                   (_apply_vec(model, Y, x),))
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
        val = linalg.signed_sum(*terms)
        out.append(linalg.quotient(val, n) if val else val)
    return TensorField(model, (0, n), out)


def _derivation(T: TensorField, act, images: Sequence[Vec]) -> list[Scalar]:
    """Components of D(T) for the derivation D that acts on scalars as
    ``act`` and on basis fields as D(e_m) = images[m] = B_m^k e_k.

    By the Leibniz rule a component is ``act`` of it, plus one term per
    upper slot, minus one per lower slot:

      D(T)^{..i..}_{..j..} = act(T^{..i..}_{..j..})
          + sum_m B_m^i T^{..m..}_{..j..} - sum_m B_j^m T^{..i..}_{..m..}

    Scatter form: each nonzero component of T adds its terms to the
    components it feeds, and ``act`` (0 on a zero component, on both
    fields) sees nonzero components only.  Slot by slot, and within a slot
    in offset order (m ascending for each output), every output adds the
    gather's terms in the gather's order, so each sum is the gather's.
    """
    d = T.model.dim
    r, s = T.valence
    # upper[m] and lower[m] list (i, B) for each output index i that m feeds
    upper = [[(i, c) for i, c in enumerate(images[m]) if c] for m in range(d)]
    lower = [[(j, images[j][m]) for j in range(d) if images[j][m]] for m in range(d)]
    support = [(off, t) for off, t in enumerate(T.data) if t]
    out = [act(t) if t else 0 for t in T.data]
    for q in range(r + s):
        stride = d ** (r + s - 1 - q)
        for off, t in support:
            m = off // stride % d
            base = off - m * stride
            for i, c in (upper if q < r else lower)[m]:
                o = base + i * stride
                out[o] = out[o] + c * t if q < r else out[o] - c * t
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
        inv = linalg.invert_matrix(mat)
    except linalg.SingularMatrixError:
        raise GeometryError("frame vector fields are linearly dependent") from None

    def in_frame(w: Vec) -> tuple[Fraction, ...]:
        consts = []
        for c in linalg.mat_vec(inv, w):
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
            acc = linalg.bilinear(grows, cols[a], cols[b])
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
