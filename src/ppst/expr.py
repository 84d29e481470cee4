"""Exact multivariate rational-function arithmetic over the rationals.

A :class:`RationalExpr` is a quotient num/den of sparse polynomials with
``fractions.Fraction`` coefficients in a fixed, ordered tuple of variables.
Every value is kept in a canonical form:

* num and den share no polynomial factor (GCD-reduced over Q[vars]);
* den has coprime integer coefficients and a positive leading coefficient
  in lexicographic order (variables[0] most significant);
* zero is represented as num = 0, den = 1.

Canonical form makes structural equality decide mathematical equality, so
``is_zero`` is a constant-time test.  Values are immutable and all
operations are pure; cached canonical tuples make instances hashable.
Values over different variable tuples do not combine: arithmetic between
them raises VariableMismatchError, also for constants.

Arithmetic on two canonical operands n1/d1 and n2/d2 skips every GCD that
canonical form already proves to be 1:

* -(n1/d1) = (-n1)/d1 is canonical as it stands;
* if d2 = 1, gcd(n1 + n2*d1, d1) = gcd(n1, d1) = 1, so (n1 + n2*d1)/d1
  is canonical (and symmetrically for d1 = 1);
* if d1 = d2 = d, only (n1 + n2)/d is reduced, not (n1*d + n2*d)/d^2;
* a product cancels across the pairs (Henrici): with n1/d2 reduced to
  a1/b1 and n2/d1 to a2/b2, (a1*a2)/(b1*b2) is canonical, because a1 and
  a2 divide n1 and n2, which are coprime to d1 and d2.  No GCD runs when
  d1 = d2 or a denominator is 1.  By Gauss's lemma a product of primitive
  denominators with positive lex-leading coefficients is again one, so the
  product needs no rescaling;
* 1/(n1/d1) = d1/n1 needs only the rescaling of n1, so a quotient is the
  product with the reciprocal;
* the partial derivative of a polynomial n1/1 is n1'/1, canonical as it
  stands.

Every other result goes through ``_canonical``.  Monomials are exponent
tuples aligned with the variable tuple.  The GCD of two genuinely
multivariate, multi-term polynomials is delegated to sympy through a ZZ
polynomial ring built once per variable tuple (see _poly_gcd); monomial
and constant cases are handled natively.

One computation meets the same reductions again and again: a chart
pipeline makes about ten ``_canonical`` calls per distinct num/den pair.
So a value's variable tuple is a :class:`Variables`, a tuple that carries
a memo from the num/den pair given to ``_canonical`` to its canonical
form, and ``_canonical`` reduces each distinct pair once per memo; n/d and
(-n)/d count as one pair, keyed with the numerator whose lex-leading
coefficient is positive.  The
memo is shared by every value built on the same ``Variables`` object: a
chart model builds one for its coordinates and re-homes every scalar onto
it, so the memo lives exactly as long as the chart and its structures.
It is not process-wide on purpose.  A command reduces the values of one
chart, so a process-wide cache would add only reuse across unrelated
inputs, which one request per process never gets; it would hold every
value ever reduced for the life of the process; and the work one chart
costs would depend on what ran before it in the same process.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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


class Variables(tuple):
    """An ordered tuple of variable names with a memo of canonical forms.

    Equality, hashing and printing are those of the plain tuple; ``memo``
    maps the (num, den) items given to ``_canonical``, num with a positive
    lex-leading coefficient, to its result.
    """

    def __new__(cls, names: Iterable[str] = ()):
        out = super().__new__(cls, names)
        out.memo = {}
        return out

    @classmethod
    def of(cls, names: Iterable[str]) -> "Variables":
        """``names`` itself if it is a Variables, else a fresh one."""
        return names if isinstance(names, Variables) else cls(names)


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


def _terms(a: PolyDict) -> PolyTerms:
    return tuple(sorted(a.items(), reverse=True))


@lru_cache(maxsize=16)
def _zz_ring(variables: tuple[str, ...]):
    """The sympy polynomial ring ZZ[variables] in lex order."""
    from sympy import Symbol
    from sympy.polys.domains import ZZ
    from sympy.polys.orderings import lex
    from sympy.polys.rings import PolyRing

    return PolyRing([Symbol(v) for v in variables], ZZ, lex)


def _poly_gcd(variables: tuple[str, ...], a: PolyDict,
              b: PolyDict) -> tuple[PolyDict, PolyDict]:
    """Cofactors (a/g, b/g) of g = gcd(a, b), up to one common constant factor.

    Only called with two multi-term polynomials whose shared monomial content
    has already been removed; monomial cases never reach the sympy bridge.
    Both operands are scaled to integer-primitive polynomials, so the GCD
    runs in ZZ[variables]; the scales go back onto the cofactors.
    """
    ring = _zz_ring(tuple(variables))  # the cache must not keep a memo alive
    ca, cb = _content(a), _content(b)
    pa = ring.from_dict({m: (c / ca).numerator for m, c in a.items()})
    pb = ring.from_dict({m: (c / cb).numerator for m, c in b.items()})
    _, qa, qb = pa.cofactors(pb)
    return ({m: ca * c for m, c in qa.items()},
            {m: cb * c for m, c in qb.items()})


def _normalized(num: PolyDict, den: PolyDict) -> tuple[PolyTerms, PolyTerms]:
    """Scale so den has coprime integer coefficients, positive leading coeff."""
    scale = _content(den)
    if den[_leading(den)] < 0:
        scale = -scale
    return (_terms({m: c / scale for m, c in num.items()}),
            _terms({m: c / scale for m, c in den.items()}))


def _canonical(variables: Variables, num: PolyDict,
               den: PolyDict) -> tuple[PolyTerms, PolyTerms]:
    num = {m: c for m, c in num.items() if c}
    den = {m: c for m, c in den.items() if c}
    if not den:
        raise ZeroDenominatorError("denominator is identically zero")
    if not num:
        return (), ((_zero_mono(len(variables)), Fraction(1)),)
    # n/d and (-n)/d share one memo entry: canonical form is unique and
    # normalizes only den, so the form of (-n)/d is that of n/d with -num
    negative = num[_leading(num)] < 0
    if negative:
        num = _pneg(num)
    key = (frozenset(num.items()), frozenset(den.items()))
    out = variables.memo.get(key)
    if out is None:
        out = variables.memo[key] = _reduced(variables, num, den)
    if negative:
        return tuple((m, -c) for m, c in out[0]), out[1]
    return out


def _reduced(variables: tuple[str, ...], num: PolyDict,
             den: PolyDict) -> tuple[PolyTerms, PolyTerms]:
    """Canonical form of num/den, both nonzero with no zero coefficient."""
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
        num, den = _poly_gcd(variables, num, den)
    return _normalized(num, den)


def _cancel(variables: Variables, num: PolyTerms,
            den: PolyTerms) -> tuple[PolyTerms, PolyTerms]:
    """Reduce num/den, a numerator and a denominator of canonical values."""
    if _is_one(den, len(variables)) or (len(num) == 1 and not any(num[0][0])):
        return num, den
    return _canonical(variables, dict(num), dict(den))


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
    """A coordinate-domain restriction: the expression vanishes nowhere."""

    expression: "RationalExpr"

    def holds_at(self, point: Mapping[str, Fraction | int]) -> bool:
        """Whether the point lies in the domain; a point where the
        expression is undefined lies outside it."""
        try:
            return self.expression.evaluate(point) != 0
        except EvaluationError:
            return False

    def __str__(self) -> str:
        return f"{self.expression} != 0"


class RationalExpr:
    """An exact rational function in a fixed tuple of variables."""

    __slots__ = ("variables", "num", "den", "_hash")

    def __init__(self, variables: Iterable[str], num: Mapping[Monomial, Fraction | int],
                 den: Mapping[Monomial, Fraction | int] | None = None):
        variables = Variables.of(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        nd = {tuple(m): Fraction(c) for m, c in num.items()}
        dd = ({tuple(m): Fraction(c) for m, c in den.items()} if den is not None
              else {_zero_mono(len(variables)): Fraction(1)})
        for d in (nd, dd):
            for m in d:
                if len(m) != len(variables) or any(e < 0 for e in m):
                    raise ValueError(f"bad monomial {m} for variables {variables}")
        self._set(variables, *_canonical(variables, nd, dd))

    def _set(self, variables: Variables, num: PolyTerms,
             den: PolyTerms) -> None:
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, variables: Variables, num: PolyTerms,
              den: PolyTerms) -> "RationalExpr":
        """Wrap a num/den pair that is already in canonical form."""
        out = object.__new__(cls)
        out._set(variables, num, den)
        return out

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("RationalExpr is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: Fraction | int, variables: Iterable[str] = ()) -> "RationalExpr":
        variables = Variables.of(variables)
        return cls(variables, {_zero_mono(len(variables)): Fraction(value)})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str]) -> "RationalExpr":
        variables = Variables.of(variables)
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
        nv = len(self.variables)
        if _is_one(o.den, nv) or _is_one(self.den, nv):
            p, q = (o, self) if _is_one(o.den, nv) else (self, o)
            # (q.num + p.num*q.den)/q.den is canonical, see the module doc
            num = _padd(q._numd(), _pmul(p._numd(), q._dend()))
            return RationalExpr._make(self.variables, _terms(num), q.den)
        if self.den == o.den:
            num = _padd(self._numd(), o._numd())
            return RationalExpr._make(
                self.variables, *_canonical(self.variables, num, self._dend()))
        num = _padd(_pmul(self._numd(), o._dend()), _pmul(o._numd(), self._dend()))
        return RationalExpr._make(self.variables, *_canonical(
            self.variables, num, _pmul(self._dend(), o._dend())))

    __radd__ = __add__

    def __neg__(self) -> "RationalExpr":
        return RationalExpr._make(self.variables,
                                  tuple((m, -c) for m, c in self.num), self.den)

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
        if not self.num:
            return self
        if not o.num:
            return o
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if d1 != d2:
            n1, d2 = _cancel(self.variables, n1, d2)
            n2, d1 = _cancel(self.variables, n2, d1)
        return RationalExpr._make(self.variables,
                                  _terms(_pmul(dict(n1), dict(n2))),
                                  _terms(_pmul(dict(d1), dict(d2))))

    __rmul__ = __mul__

    def _reciprocal(self) -> "RationalExpr":
        if not self.num:
            raise ZeroDenominatorError("denominator is identically zero")
        return RationalExpr._make(self.variables,
                                  *_normalized(self._dend(), self._numd()))

    def __truediv__(self, other: Scalar) -> "RationalExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other: Scalar) -> "RationalExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int) -> "RationalExpr":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self._reciprocal() ** (-exponent)
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
        n = self._numd()
        if _is_one(self.den, len(self.variables)):
            return RationalExpr._make(self.variables, _terms(_pderiv(n, idx)),
                                      self.den)
        d = self._dend()
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
