"""Exact multivariate rational-function arithmetic over the rationals.

A :class:`RationalExpr` is a quotient num/den of sparse polynomials with
rational coefficients in a fixed, ordered tuple of variables.  A coefficient
is an ``int`` where integral, else a ``fractions.Fraction``: both exact, only
ever divided by a Fraction (so never a float), and ``constant_value`` and
``evaluate`` return a Fraction.
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
  stands, and so are a constant c/1 and a variable x/1;
* an int or Fraction c, on either side of + - * /, is never made a
  RationalExpr: n1/d1 + c = (n1 + c*d1)/d1 is the d2 = 1 case above, and
  c*(n1/d1) = (c*n1)/d1 is canonical for c != 0, since c is a unit of Q,
  so gcd(c*n1, d1) = gcd(n1, d1) = 1, and d1 is unchanged.  A quotient
  by c is the product with 1/c, and c/(n1/d1) is c times the reciprocal.
  These shortcuts run before the coercion and the op memo below, and add
  no entry to it.

Every other result goes through ``_canonical``.  Monomials are exponent
tuples aligned with the variable tuple.  Shared monomial content is
removed first; the GCD of two multi-term polynomials is then read off the
factors of the denominator.  Q[vars] is a unique factorization domain, so
gcd(num, den) is the product of p^min(e, k) over the irreducible factors p
of den, where p occurs e times in den and k times in num: num and den are
divided by each p while p divides num, at most e times (see _poly_gcd).
The division is exact, in lex order, on the int or Fraction coefficients.
A denominator is first divided by the factors already found; only a
non-constant leftover goes to sympy, which factors it once over ZZ in a
ring built once per variable tuple.  A chart meets few distinct
denominators, so most GCDs are a few trial divisions and no sympy call.

One computation meets the same reductions again and again: the chart-1+z2
pipeline makes 201 ``_canonical`` calls on 67 distinct num/den pairs, even
behind the op memo below.
So a value's variable tuple is a :class:`Variables`, a tuple that carries
a memo from the num/den pair given to ``_canonical`` to its canonical
form, and ``_canonical`` reduces each distinct pair once per memo; n/d and
(-n)/d count as one pair, keyed with the numerator whose lex-leading
coefficient is positive.

The operations themselves repeat as well: a warm pass of the chart-gcd
benchmark takes 690 partial derivatives of 102 distinct operands, 1,279
products of 416 distinct operand pairs and 1,053 sums of 317, besides the
918 operations with a number operand that take the shortcuts above.  So
the ``Variables`` also carries an op memo, ``ops``, which ``+``, ``*`` and
``derivative`` of two RationalExprs read before any kernel work; ``-``,
``/`` and ``**`` are built on them.  Its key is the operation ("+", "*",
or "d" with the variable's index) and the operands' stored num and den
tuples, the two operands of a sum or product in a fixed order as they
commute; its value is the result's (num, den).  Canonical form is a
function of those tuples alone, so a hit gives exactly what recomputing
would.  The memo stores tuples and rebuilds the value on a hit: a stored
RationalExpr would refer back to the ``Variables`` that holds the memo, a
reference cycle, and on the chart-gcd benchmark it raised the peak RSS
57.1 -> 63.5 MB, where the tuples give 57.4 MB.  The op memo comes first and the memo of canonical
forms stays behind it: reductions repeat across distinct operations too,
and without that memo the chart-1+z2 pipeline's GCD calls went 45 -> 104.

Both memos are shared by every value built on the same ``Variables``
object: a chart model builds one for its coordinates and re-homes every
non-constant scalar onto it, so they live exactly as long as the chart
and its structures.  The irreducible factors found in the chart's denominators and
the split of each denominator into them are kept on the same object, with
the same lifetime.  None of this is process-wide on purpose.  A command
reduces the values of one chart, so a process-wide cache would add only
reuse across unrelated inputs, which one request per process never gets;
it would hold every value and factor ever met for the life of the process;
and the work one chart costs would depend on what ran before it in the
same process.
"""

from __future__ import annotations

import heapq
import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Union

from .linalg import quotient

Monomial = tuple[int, ...]
PolyDict = dict[Monomial, int | Fraction]
PolyTerms = tuple[tuple[Monomial, int | Fraction], ...]
Scalar = Union[int, Fraction, "RationalExpr"]
_NUMBER = (int, Fraction)  # the operands that take the shortcuts of + - * /


class ExprError(Exception):
    """Base class for expression-kernel errors."""


class ZeroDenominatorError(ExprError):
    """Raised when a denominator is identically zero (structural zero)."""


class VariableMismatchError(ExprError):
    """Raised when combining expressions over incompatible variable tuples."""


class EvaluationError(ExprError):
    """Raised when a point evaluation is undefined (denominator vanishes)."""


class Variables(tuple):
    """An ordered tuple of variable names with memos of canonical forms
    and of operations.

    The names are distinct.  Equality, hashing and printing are those of
    the plain tuple; ``memo`` maps the (num, den) items given to
    ``_canonical``, num with a positive lex-leading coefficient, to its
    result.  ``ops`` maps ("+" or "*", num1, den1, num2, den2) and
    ("d", variable index, num, den), the operands' stored tuples, to the
    stored (num, den) of the result, never to a RationalExpr, which would
    refer back to this object (see the module docstring).  ``factors``
    lists the irreducible polynomials found in the denominators reduced so
    far, and ``splits`` maps the items of each denominator given to
    ``_poly_gcd`` to its factors with multiplicities.
    """

    def __new__(cls, names: Iterable[str] = ()):
        out = super().__new__(cls, names)
        if len(set(out)) != len(out):
            raise ValueError("duplicate variable names")
        out.memo, out.factors, out.splits, out.ops = {}, [], {}, {}
        return out

    @classmethod
    def of(cls, names: Iterable[str]) -> "Variables":
        """``names`` itself if it is a Variables, else a fresh one."""
        return names if isinstance(names, Variables) else cls(names)


# ---------------------------------------------------------------------------
# raw polynomial helpers (dict-of-monomials; _terms stores int or Fraction)

def _zero_mono(nvars: int) -> Monomial:
    return (0,) * nvars


def _padd(a: PolyDict, b: PolyDict) -> PolyDict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
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
            m = tuple(map(operator.add, ma, mb))
            s = out.get(m, 0) + ca * cb
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
            out[dm] = out.get(dm, 0) + c * e
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
    """The stored form of every polynomial: an integral coefficient is an int."""
    if not {int}.issuperset(map(type, a.values())):
        a = {m: c.numerator if c.denominator == 1 else c for m, c in a.items()}
    return tuple(sorted(a.items(), reverse=True))


def _exact_quotient(a: PolyDict, p: PolyTerms) -> PolyDict | None:
    """a / p if p divides a in Q[vars], else None.

    Lex-order division by the single divisor p, whose coefficients are ints:
    a heap yields the remainder's terms largest first, and the division
    stops as soon as the leading monomial of the remainder is not a multiple
    of p's, which it always is while p divides what is left.
    """
    (lead, lc), tail = p[0], p[1:]
    rem = dict(a)
    # negated exponents, so the heap's smallest entry is the lex-largest
    # monomial; entries of cancelled monomials are skipped when popped
    heap = [tuple(map(operator.neg, m)) for m in rem]
    heapq.heapify(heap)
    quo: PolyDict = {}
    while rem:
        m = tuple(map(operator.neg, heapq.heappop(heap)))
        c = rem.pop(m, 0)
        if not c:
            continue
        t = tuple(map(operator.sub, m, lead))
        if min(t) < 0:
            return None
        q = quo[t] = quotient(c, lc)
        for mp, cp in tail:
            mt = tuple(map(operator.add, mp, t))
            s = rem.get(mt, 0) - q * cp
            if s:
                if mt not in rem:
                    heapq.heappush(heap, tuple(map(operator.neg, mt)))
                rem[mt] = s
            else:
                del rem[mt]
    return quo


@lru_cache(maxsize=16)
def _zz_ring(variables: tuple[str, ...]):
    """The sympy polynomial ring ZZ[variables] in lex order."""
    from sympy import Symbol
    from sympy.polys.domains import ZZ
    from sympy.polys.orderings import lex
    from sympy.polys.rings import PolyRing

    return PolyRing([Symbol(v) for v in variables], ZZ, lex)


def _split(variables: Variables,
           den: PolyDict) -> tuple[tuple[PolyTerms, int], ...]:
    """The irreducible factors of den with their multiplicities.

    The factors the chart already knows are divided out first; only a
    non-constant leftover is factored by sympy over ZZ, and its factors join
    the chart's set.  Every factor is a primitive polynomial over ZZ, so by
    Gauss's lemma irreducible over Q, and no two are associates.
    """
    split = []
    for p in variables.factors:
        e = 0
        while (q := _exact_quotient(den, p)) is not None:
            den, e = q, e + 1
        if e:
            split.append((p, e))
    if len(den) > 1 or any(next(iter(den))):
        scale = _content(den)
        ring = _zz_ring(tuple(variables))  # the cache must not keep a memo alive
        _, factors = ring.from_dict(
            {m: (c / scale).numerator for m, c in den.items()}).factor_list()
        for f, e in factors:
            p = _terms({m: int(c) for m, c in f.items()})
            variables.factors.append(p)
            split.append((p, e))
    return tuple(split)


def _poly_gcd(variables: Variables, num: PolyDict,
              den: PolyDict) -> tuple[PolyDict, PolyDict]:
    """Cofactors (num/g, den/g) of g = gcd(num, den).

    Q[vars] is a unique factorization domain, so g is the product of
    p^min(e, k) over the irreducible factors p of den, where p occurs e
    times in den and k times in num.  So num and den are divided by p while
    p divides num, at most e times.  The split of each distinct den and the
    factors found so far are kept on ``variables`` (see _split): they live
    as long as the chart, like the memo of canonical forms, and are never
    shared between charts.  Called with two multi-term polynomials whose
    shared monomial content has already been removed.
    """
    key = frozenset(den.items())
    split = variables.splits.get(key)
    if split is None:
        split = variables.splits[key] = _split(variables, den)
    for p, e in split:
        for _ in range(e):
            q = _exact_quotient(num, p)
            if q is None:
                break
            num, den = q, _exact_quotient(den, p)
    return num, den


def _normalized(num: PolyDict, den: PolyDict) -> tuple[PolyTerms, PolyTerms]:
    """Scale so den has coprime integer coefficients, positive leading coeff."""
    scale = _content(den)
    if den[_leading(den)] < 0:
        scale = -scale
    if scale != 1:
        num, den = ({m: c / scale for m, c in p.items()} for p in (num, den))
    return _terms(num), _terms(den)


def _canonical(variables: Variables, num: PolyDict,
               den: PolyDict) -> tuple[PolyTerms, PolyTerms]:
    num = {m: c for m, c in num.items() if c}
    den = {m: c for m, c in den.items() if c}
    if not den:
        raise ZeroDenominatorError("denominator is identically zero")
    if not num:
        return (), ((_zero_mono(len(variables)), 1),)
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


def _reduced(variables: Variables, num: PolyDict,
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

class RationalExpr:
    """An exact rational function in a fixed tuple of variables."""

    __slots__ = ("variables", "num", "den", "_hash")

    def __init__(self, variables: Iterable[str], num: Mapping[Monomial, Fraction | int],
                 den: Mapping[Monomial, Fraction | int] | None = None):
        variables = Variables.of(variables)
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
        # c/1 is canonical as it stands: the form _canonical would return
        variables = Variables.of(variables)
        mono = _zero_mono(len(variables))
        return cls._make(variables, _terms({mono: value}) if value else (),
                         ((mono, 1),))

    @classmethod
    def variable(cls, name: str, variables: Iterable[str]) -> "RationalExpr":
        variables = Variables.of(variables)
        if name not in variables:
            raise VariableMismatchError(f"unknown variable {name!r}")
        mono = tuple(1 if v == name else 0 for v in variables)
        return cls._make(variables, ((mono, 1),),
                         ((_zero_mono(len(variables)), 1),))

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_constant(self) -> bool:
        # a canonical den whose one monomial is 1 is the int 1
        num, den = self.num, self.den
        return (len(den) == 1 and not any(den[0][0])
                and (not num or (len(num) == 1 and not any(num[0][0]))))

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ExprError(f"not a constant: {self}")
        return Fraction(self.num[0][1] if self.num else 0)

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
        return None  # a number takes a shortcut before this

    # -- arithmetic ---------------------------------------------------------

    def _memo(self, key: tuple, compute, arg) -> "RationalExpr":
        """The value of ``compute(arg)``, a (num, den) pair, read from the
        op memo under ``key`` or computed once and stored there."""
        ops = self.variables.ops
        out = ops.get(key)
        if out is None:
            out = ops[key] = compute(arg)
        return RationalExpr._make(self.variables, *out)

    def __add__(self, other: Scalar) -> "RationalExpr":
        if isinstance(other, _NUMBER):
            return self._shifted(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = (self, o) if self.num <= o.num else (o, self)  # they commute
        return self._memo(("+", a.num, a.den, b.num, b.den), self._sum, o)

    def _sum(self, o: "RationalExpr") -> tuple[PolyTerms, PolyTerms]:
        nv = len(self.variables)
        if _is_one(o.den, nv) or _is_one(self.den, nv):
            p, q = (o, self) if _is_one(o.den, nv) else (self, o)
            # (q.num + p.num*q.den)/q.den is canonical, see the module doc
            return _terms(_padd(q._numd(), _pmul(p._numd(), q._dend()))), q.den
        if self.den == o.den:
            num = _padd(self._numd(), o._numd())
            return _canonical(self.variables, num, self._dend())
        num = _padd(_pmul(self._numd(), o._dend()), _pmul(o._numd(), self._dend()))
        return _canonical(self.variables, num, _pmul(self._dend(), o._dend()))

    __radd__ = __add__

    def _shifted(self, c: int | Fraction) -> "RationalExpr":
        """self + c for a number c: (n + c d)/d, canonical as it stands."""
        if not c:
            return self
        num = _padd(self._numd(), {m: c * v for m, v in self.den})
        return RationalExpr._make(self.variables, _terms(num), self.den)

    def __neg__(self) -> "RationalExpr":
        return RationalExpr._make(self.variables,
                                  tuple((m, -c) for m, c in self.num), self.den)

    def __sub__(self, other: Scalar) -> "RationalExpr":
        if isinstance(other, _NUMBER):
            return self._shifted(-other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Scalar) -> "RationalExpr":
        return (-self) + other

    def __mul__(self, other: Scalar) -> "RationalExpr":
        if isinstance(other, _NUMBER):
            return self._scaled(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num:
            return self
        if not o.num:
            return o
        a, b = (self, o) if self.num <= o.num else (o, self)  # they commute
        return self._memo(("*", a.num, a.den, b.num, b.den), self._product, o)

    def _product(self, o: "RationalExpr") -> tuple[PolyTerms, PolyTerms]:
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if d1 != d2:
            n1, d2 = _cancel(self.variables, n1, d2)
            n2, d1 = _cancel(self.variables, n2, d1)
        return (_terms(_pmul(dict(n1), dict(n2))),
                _terms(_pmul(dict(d1), dict(d2))))

    __rmul__ = __mul__

    def _scaled(self, c: int | Fraction) -> "RationalExpr":
        """self * c for a number c: (c n)/d, canonical as it stands."""
        if not self.num:
            return self
        if not c:
            return RationalExpr.constant(0, self.variables)
        return RationalExpr._make(
            self.variables, _terms({m: c * v for m, v in self.num}), self.den)

    def _reciprocal(self) -> "RationalExpr":
        if not self.num:
            raise ZeroDenominatorError("denominator is identically zero")
        return RationalExpr._make(self.variables,
                                  *_normalized(self._dend(), self._numd()))

    def __truediv__(self, other: Scalar) -> "RationalExpr":
        if isinstance(other, _NUMBER):
            if not other:
                raise ZeroDenominatorError("denominator is identically zero")
            return self._scaled(quotient(1, other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other: Scalar) -> "RationalExpr":
        if isinstance(other, _NUMBER):
            return self._reciprocal()._scaled(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "RationalExpr":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self._reciprocal() ** (-exponent)
        # square-and-multiply from the first factor: O(log exponent) products
        out, base = None, self
        while exponent:
            if exponent & 1:
                out = base if out is None else out * base
            exponent >>= 1
            if exponent:
                base = base * base
        return RationalExpr.constant(1, self.variables) if out is None else out

    # -- calculus -----------------------------------------------------------

    def derivative(self, var: str) -> "RationalExpr":
        """Exact partial derivative by quotient rule."""
        if var not in self.variables:
            raise VariableMismatchError(f"unknown variable {var!r}")
        idx = self.variables.index(var)
        return self._memo(("d", idx, self.num, self.den), self._partial, idx)

    def _partial(self, idx: int) -> tuple[PolyTerms, PolyTerms]:
        n = self._numd()
        if _is_one(self.den, len(self.variables)):
            return _terms(_pderiv(n, idx)), self.den
        d = self._dend()
        num = _padd(_pmul(_pderiv(n, idx), d), _pneg(_pmul(n, _pderiv(d, idx))))
        return _canonical(self.variables, num, _pmul(d, d))

    def evaluate(self, point: Mapping[str, Fraction | int]) -> Fraction:
        """Evaluate at an exact rational point; raises EvaluationError where
        the denominator vanishes or a variable has no value."""
        vals = []
        for name in self.variables:
            if name not in point:
                raise EvaluationError(f"no value for variable {name!r}")
            vals.append(Fraction(point[name]))
        values = tuple(vals)
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
