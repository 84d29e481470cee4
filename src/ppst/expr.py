"""Exact multivariate rational-function arithmetic over the rationals.

A :class:`RationalExpr` is a quotient num/den of sparse polynomials with
``fractions.Fraction`` coefficients in a fixed, ordered tuple of variables.
Every value is kept in a canonical form:

* num and den share no polynomial factor (GCD-reduced over Q[vars]);
* den has coprime integer coefficients and a positive leading coefficient
  in lexicographic order (variables[0] most significant);
* zero is represented as num = 0, den = 1.

Canonical form makes structural equality decide mathematical equality, so
``is_identically_zero`` is a constant-time test.  Values are immutable and
all operations are pure; cached canonical tuples make instances hashable.

Monomials are exponent tuples aligned with the variable tuple.  The GCD of
two genuinely multivariate, multi-term polynomials is delegated to sympy;
monomial and constant cases are handled natively (see _poly_gcd).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

Monomial = tuple[int, ...]
PolyDict = dict[Monomial, Fraction]
PolyTerms = tuple[tuple[Monomial, Fraction], ...]
Scalar = Union[int, Fraction, "RationalExpr"]


class ExprError(Exception):
    """Base class for expression-kernel errors."""


class ZeroDenominatorError(ExprError):
    """Raised when a denominator is identically zero (structural zero)."""


class VariableMismatchError(ExprError):
    """Raised when combining expressions over incompatible variable tuples."""


class EvaluationError(ExprError):
    """Raised when a point evaluation is undefined (denominator vanishes)."""


class ConstraintViolation(EvaluationError):
    """Raised when a point violates a domain constraint (e.g. z = 0)."""


# ---------------------------------------------------------------------------
# raw polynomial helpers (dict-of-monomials with Fraction coefficients)

def _zero_mono(nvars: int) -> Monomial:
    return (0,) * nvars


def _padd(a: PolyDict, b: PolyDict) -> PolyDict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _pneg(a: PolyDict) -> PolyDict:
    return {m: -c for m, c in a.items()}


def _pmul(a: PolyDict, b: PolyDict) -> PolyDict:
    out: PolyDict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, Fraction(0)) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _pscale(a: PolyDict, c: Fraction) -> PolyDict:
    if not c:
        return {}
    return {m: cc * c for m, cc in a.items()}


def _pderiv(a: PolyDict, idx: int) -> PolyDict:
    out: PolyDict = {}
    for m, c in a.items():
        e = m[idx]
        if e:
            dm = m[:idx] + (e - 1,) + m[idx + 1:]
            out[dm] = out.get(dm, Fraction(0)) + c * e
    return {m: c for m, c in out.items() if c}


def _peval(a: PolyDict, values: tuple[Fraction, ...]) -> Fraction:
    total = Fraction(0)
    for m, c in a.items():
        term = c
        for v, e in zip(values, m):
            if e:
                term *= v ** e
        total += term
    return total


def _content(a: PolyDict) -> Fraction:
    """Positive rational c such that a/c has coprime integer coefficients."""
    nums = gcd(*(abs(c.numerator) for c in a.values())) if a else 0
    dens = lcm(*(c.denominator for c in a.values())) if a else 1
    return Fraction(nums, dens)


def _leading(a: PolyDict) -> Monomial:
    return max(a)


def _is_one(a: PolyTerms, nvars: int) -> bool:
    return len(a) == 1 and a[0][0] == _zero_mono(nvars) and a[0][1] == 1


def _exact_div(a: PolyDict, g: PolyDict) -> PolyDict:
    """Divide a by g assuming exact divisibility (lex long division)."""
    quot: PolyDict = {}
    rem = dict(a)
    lg = _leading(g)
    cg = g[lg]
    while rem:
        lr = _leading(rem)
        qm = tuple(x - y for x, y in zip(lr, lg))
        if any(e < 0 for e in qm):
            raise ExprError("internal: inexact polynomial division")
        qc = rem[lr] / cg
        quot[qm] = quot.get(qm, Fraction(0)) + qc
        for m, c in g.items():
            mm = tuple(x + y for x, y in zip(qm, m))
            s = rem.get(mm, Fraction(0)) - qc * c
            if s:
                rem[mm] = s
            else:
                rem.pop(mm, None)
    return quot


def _poly_gcd(variables: tuple[str, ...], a: PolyDict, b: PolyDict) -> PolyDict:
    """GCD in Q[variables], integer-primitive with positive lex-leading coeff.

    Only called with two multi-term polynomials whose shared monomial content
    has already been removed; monomial cases never reach the sympy bridge.
    """
    import sympy

    gens = sympy.symbols(variables)
    pa = sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator)
                               for m, c in a.items()}, *gens, domain="QQ")
    pb = sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator)
                               for m, c in b.items()}, *gens, domain="QQ")
    raw = pa.gcd(pb).as_dict()
    g: PolyDict = {tuple(int(e) for e in m): Fraction(c.p, c.q)
                   for m, c in raw.items()}
    cont = _content(g)
    if g[_leading(g)] < 0:
        cont = -cont
    return {m: c / cont for m, c in g.items()}


def _canonical(variables: tuple[str, ...], num: PolyDict,
               den: PolyDict) -> tuple[PolyTerms, PolyTerms]:
    num = {m: c for m, c in num.items() if c}
    den = {m: c for m, c in den.items() if c}
    if not den:
        raise ZeroDenominatorError("denominator is identically zero")
    one: PolyTerms = ((_zero_mono(len(variables)), Fraction(1)),)
    if not num:
        return (), one
    # shared monomial content
    mins_n = tuple(map(min, zip(*num)))
    mins_d = tuple(map(min, zip(*den)))
    common = tuple(min(x, y) for x, y in zip(mins_n, mins_d))
    if any(common):
        num = {tuple(x - y for x, y in zip(m, common)): c for m, c in num.items()}
        den = {tuple(x - y for x, y in zip(m, common)): c for m, c in den.items()}
    # polynomial GCD: a single-term operand shares no factor after the
    # content extraction above, so only the multi-term case needs work
    if len(num) > 1 and len(den) > 1:
        g = _poly_gcd(variables, num, den)
        if len(g) > 1 or _leading(g) != _zero_mono(len(variables)):
            num = _exact_div(num, g)
            den = _exact_div(den, g)
    # scale so den has coprime integer coefficients, positive leading coeff
    scale = _content(den)
    if den[_leading(den)] < 0:
        scale = -scale
    num = {m: c / scale for m, c in num.items()}
    den = {m: c / scale for m, c in den.items()}
    order = lambda p: tuple(sorted(p.items(), reverse=True))
    return order(num), order(den)


# ---------------------------------------------------------------------------
# printing

def _mono_str(variables: tuple[str, ...], mono: Monomial) -> str:
    parts = []
    for name, e in zip(variables, mono):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _poly_str(variables: tuple[str, ...], terms: PolyTerms) -> str:
    if not terms:
        return "0"
    chunks = []
    for m, c in terms:
        body = _mono_str(variables, m)
        if not body:
            chunks.append(str(c))
        elif c == 1:
            chunks.append(body)
        elif c == -1:
            chunks.append(f"-{body}")
        else:
            chunks.append(f"{c}*{body}")
    out = chunks[0]
    for chunk in chunks[1:]:
        if chunk.startswith("-"):
            out += f" - {chunk[1:]}"
        else:
            out += f" + {chunk}"
    return out


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainConstraint:
    """A coordinate-domain restriction, e.g. "z is nowhere zero".

    Only the ``nonzero`` relation exists: the constrained expression must not
    vanish at any admissible point.
    """

    expression: "RationalExpr"
    relation: str = "nonzero"

    def __post_init__(self) -> None:
        if self.relation != "nonzero":
            raise ValueError(f"unsupported constraint relation {self.relation!r}")

    def holds_at(self, point: Mapping[str, Fraction | int]) -> bool:
        return self.expression.evaluate(point) != 0

    def __str__(self) -> str:
        return f"{self.expression} != 0"


class RationalExpr:
    """An exact rational function in a fixed tuple of variables."""

    __slots__ = ("variables", "num", "den", "_hash")

    def __init__(self, variables: Iterable[str], num: Mapping[Monomial, Fraction | int],
                 den: Mapping[Monomial, Fraction | int] | None = None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        nd = {tuple(m): Fraction(c) for m, c in num.items()}
        dd = ({tuple(m): Fraction(c) for m, c in den.items()} if den is not None
              else {_zero_mono(len(variables)): Fraction(1)})
        for d in (nd, dd):
            for m in d:
                if len(m) != len(variables) or any(e < 0 for e in m):
                    raise ValueError(f"bad monomial {m} for variables {variables}")
        n, d = _canonical(variables, nd, dd)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("RationalExpr is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: Fraction | int, variables: Iterable[str] = ()) -> "RationalExpr":
        variables = tuple(variables)
        return cls(variables, {_zero_mono(len(variables)): Fraction(value)})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str]) -> "RationalExpr":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatchError(f"unknown variable {name!r}")
        mono = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {mono: Fraction(1)})

    @classmethod
    def zero(cls, variables: Iterable[str] = ()) -> "RationalExpr":
        return cls.constant(0, variables)

    @classmethod
    def one(cls, variables: Iterable[str] = ()) -> "RationalExpr":
        return cls.constant(1, variables)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_constant(self) -> bool:
        nv = len(self.variables)
        return (_is_one(self.den, nv)
                and (not self.num or (len(self.num) == 1
                                      and self.num[0][0] == _zero_mono(nv))))

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ExprError(f"not a constant: {self}")
        return self.num[0][1] if self.num else Fraction(0)

    @property
    def is_polynomial(self) -> bool:
        return _is_one(self.den, len(self.variables))

    def _numd(self) -> PolyDict:
        return dict(self.num)

    def _dend(self) -> PolyDict:
        return dict(self.den)

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other: Scalar) -> "RationalExpr | None":
        if isinstance(other, RationalExpr):
            if other.variables == self.variables:
                return other
            if other.is_constant:
                return RationalExpr.constant(other.constant_value(), self.variables)
            if self.is_constant:
                return other  # caller swaps roles via reflected op
            raise VariableMismatchError(
                f"cannot combine expressions over {self.variables} and {other.variables}")
        if isinstance(other, (int, Fraction)):
            return RationalExpr.constant(other, self.variables)
        return None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Scalar) -> "RationalExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.variables != self.variables:
            return o + self.constant_value()
        num = _padd(_pmul(self._numd(), o._dend()), _pmul(o._numd(), self._dend()))
        return RationalExpr(self.variables, num, _pmul(self._dend(), o._dend()))

    __radd__ = __add__

    def __neg__(self) -> "RationalExpr":
        return RationalExpr(self.variables, _pneg(self._numd()), self._dend())

    def __sub__(self, other: Scalar) -> "RationalExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Scalar) -> "RationalExpr":
        return (-self) + other

    def __mul__(self, other: Scalar) -> "RationalExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.variables != self.variables:
            return o * self.constant_value()
        return RationalExpr(self.variables, _pmul(self._numd(), o._numd()),
                            _pmul(self._dend(), o._dend()))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "RationalExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.variables != self.variables:
            return RationalExpr.constant(self.constant_value(), o.variables) / o
        return RationalExpr(self.variables, _pmul(self._numd(), o._dend()),
                            _pmul(self._dend(), o._numd()))

    def __rtruediv__(self, other: Scalar) -> "RationalExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int) -> "RationalExpr":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (RationalExpr.one(self.variables) / self) ** (-exponent)
        # square-and-multiply: O(log exponent) products; canonical form
        # makes the result independent of the multiplication order
        out = RationalExpr.one(self.variables)
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            exponent >>= 1
            if exponent:
                base = base * base
        return out

    # -- calculus -----------------------------------------------------------

    def derivative(self, var: str) -> "RationalExpr":
        """Exact partial derivative by quotient rule."""
        if var not in self.variables:
            raise VariableMismatchError(f"unknown variable {var!r}")
        idx = self.variables.index(var)
        n, d = self._numd(), self._dend()
        num = _padd(_pmul(_pderiv(n, idx), d), _pneg(_pmul(n, _pderiv(d, idx))))
        return RationalExpr(self.variables, num, _pmul(d, d))

    def evaluate(self, point: Mapping[str, Fraction | int],
                 constraints: Iterable[DomainConstraint] = ()) -> Fraction:
        """Evaluate at an exact rational point.

        Constraints are checked first, then the denominator; either failure
        raises (ConstraintViolation resp. EvaluationError).
        """
        vals = []
        for name in self.variables:
            if name not in point:
                raise EvaluationError(f"no value for variable {name!r}")
            vals.append(Fraction(point[name]))
        values = tuple(vals)
        for con in constraints:
            if not con.holds_at(point):
                raise ConstraintViolation(f"constraint {con} violated at {dict(point)}")
        dval = _peval(self._dend(), values)
        if dval == 0:
            raise EvaluationError(f"denominator vanishes at {dict(point)}")
        return _peval(self._numd(), values) / dval

    # -- protocol -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, RationalExpr):
            return NotImplemented
        if self.is_constant and other.is_constant:
            return self.constant_value() == other.constant_value()
        return (self.variables == other.variables and self.num == other.num
                and self.den == other.den)

    def __hash__(self) -> int:
        if self._hash is None:
            h = (hash(self.constant_value()) if self.is_constant
                 else hash((self.variables, self.num, self.den)))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if _is_one(self.den, len(self.variables)):
            return _poly_str(self.variables, self.num)
        return (f"({_poly_str(self.variables, self.num)})"
                f"/({_poly_str(self.variables, self.den)})")

    def __repr__(self) -> str:
        return f"RationalExpr({str(self)!r}, variables={self.variables!r})"


# ---------------------------------------------------------------------------
# functional API

def derivative(expr: RationalExpr, var: str) -> RationalExpr:
    return expr.derivative(var)


def evaluate(expr: RationalExpr, point: Mapping[str, Fraction | int],
             constraints: Iterable[DomainConstraint] = ()) -> Fraction:
    return expr.evaluate(point, constraints)


def is_identically_zero(expr: RationalExpr) -> bool:
    """Exact zero test; canonical form makes this a structural check."""
    return expr.is_zero
