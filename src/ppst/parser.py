"""Parser for the expression grammar used in structure-spec files and the CLI.

Grammar (EBNF, whitespace insignificant between tokens):

    expr     = term , { ( "+" | "-" ) , term } ;
    term     = factor , { ( "*" | "/" ) , factor } ;
    factor   = { "+" | "-" } , power ;
    power    = atom , [ "^" , exponent ] ;
    exponent = [ "-" ] , integer ;
    atom     = number | variable | "(" , expr , ")" ;
    number   = digits , [ "." , digits ] ;

Numbers are exact: decimals become the rational they denote (0.5 = 1/2),
and p/q is ordinary division.  ``^`` is exponentiation by an integer of
absolute value at most MAX_EXPONENT and binds tighter than unary minus, so
-x^2 = -(x^2).  Implicit multiplication is not accepted; write 4*y, not 4y.

The size of every value is bounded before it is computed: a number has at
most MAX_DIGITS digits, and a sum, product, quotient or power whose
predicted numerator or denominator has more than MAX_TERMS terms, or a
coefficient of more than MAX_DIGITS digits, is a ParseError.  So is a value
whose operations predict more than MAX_VALUE_TERMS terms in all.  A sum or
difference is charged its predicted terms less those its larger operand
carries over beyond the smaller one, so a written-out sum of k monomials
costs about 2k terms, not k^2/2.  The parser carries each value's size with
it, so the budget of a written-out sum of k distinct monomials scans a
number of coefficients linear in k, not k^2/2.

Errors carry 1-based character positions.  Division by a structurally zero
expression raises ZeroDenominatorError, as in the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, log10
from typing import Iterable

from .expr import RationalExpr, Variables, ZeroDenominatorError


# bound on |n| in x^n: the work and the size of x^n grow with n, and the
# structures this grammar describes need exponents of a few units
MAX_EXPONENT = 100

# bounds on the size of a value: the work of an operation grows with the
# terms of its operands, and the curvature pipeline multiplies coefficients
# together, which must still print within the interpreter's 4300-digit
# int-to-str limit; the structures this grammar describes need a few terms
# and a few digits
MAX_TERMS = 1000
MAX_DIGITS = 500

# bound on the terms all operations of one value predict together, as a
# value can chain many operations, each under MAX_TERMS (say 0*(x+y+z)^40)
MAX_VALUE_TERMS = 4000


class ParseError(Exception):
    """Syntax error with a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """A name token that is not among the declared variables."""


_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, position) triples; kind in {num, name, op, end}."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1
        if ch in _OPS:
            tokens.append(("op", ch, pos))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise ParseError("malformed number", pos)
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(("num", text[i:j], pos))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], pos))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n + 1))
    return tokens


# terms of num and den, and log10 of the largest coefficient part
Size = tuple[int, int, float]
# a value paired with its size, which the parser computes once
Sized = tuple[RationalExpr, Size]


def _size(value: RationalExpr) -> Size:
    """The size of a value, from a scan of its coefficients."""
    return (len(value.num), len(value.den),
            max(log10(max(abs(c.numerator), c.denominator))
                for _, c in value.num + value.den))


def _sum_size(a: Sized, b: Sized, value: RationalExpr) -> Size:
    """The size of value = a + b or a - b.

    Over one denominator d, a canonical result with denominator d is
    (n_a +- n_b)/d itself, and one with as many terms as both numerators
    together merged no monomial, so its coefficients are those of the
    operands and no scan is needed.
    """
    (va, (na, da, ma)), (vb, (nb, _, mb)) = a, b
    if va.den == vb.den == value.den and len(value.num) == na + nb:
        return na + nb, da, max(ma, mb)
    return _size(value)


def _predicted_size(op: str, a: Sized, b: Sized) -> tuple[int, float]:
    """Predicted terms and digits of a op b, from the sizes of a and b."""
    (va, (na, da, ma)), (vb, (nb, db, mb)) = a, b
    if op in "+-" and va.den == vb.den:
        return max(na + nb, da), max(ma, mb) + log10(2)
    if op in "+-":
        return max(na * db + nb * da, da * db), ma + mb + log10(2)
    if op == "*":
        return max(na * nb, da * db), ma + mb
    return max(na * db, da * nb), ma + mb


def _carried_terms(a: RationalExpr, b: RationalExpr) -> int:
    """Terms by which the larger operand of a + b exceeds the smaller one.

    A sum copies them into its result unchanged, so the budget does not
    charge them again.
    """
    return abs(max(len(a.num), len(a.den)) - max(len(b.num), len(b.den)))


def _predicted_power_size(size: Size, n: int) -> tuple[int, float]:
    """Terms and digits of a^n: a t-term sum to the n has C(n+t-1, t-1) terms."""
    na, da, ma = size
    t = max(na, da)
    return comb(n + t - 1, t - 1), n * (ma + log10(t))


class _Parser:
    def __init__(self, text: str, variables: Variables):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables
        self.terms_left = MAX_VALUE_TERMS

    def charge(self, size: tuple[int, float], position: int,
               carried: int = 0) -> None:
        """Admit an operation of the predicted size, or raise ParseError.

        The value budget is charged the predicted terms less ``carried``.
        """
        terms, digits = size
        if terms > MAX_TERMS:
            raise ParseError(f"result would exceed {MAX_TERMS} terms", position)
        if digits > MAX_DIGITS:
            raise ParseError(f"result would exceed {MAX_DIGITS} digits in a "
                             f"coefficient", position)
        self.terms_left -= terms - carried
        if self.terms_left < 0:
            raise ParseError(f"value would build more than {MAX_VALUE_TERMS} "
                             f"terms in all", position)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, position = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", position)

    def parse(self) -> RationalExpr:
        value, _ = self.expr()
        kind, text, position = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", position)
        return value

    def expr(self) -> Sized:
        lhs = self.term()
        while True:
            kind, op, position = self.peek()
            if kind == "op" and op in "+-":
                self.next()
                rhs = self.term()
                self.charge(_predicted_size(op, lhs, rhs), position,
                            _carried_terms(lhs[0], rhs[0]))
                value = lhs[0] + rhs[0] if op == "+" else lhs[0] - rhs[0]
                lhs = value, _sum_size(lhs, rhs, value)
            else:
                return lhs

    def term(self) -> Sized:
        lhs = self.factor()
        while True:
            kind, op, position = self.peek()
            if kind == "op" and op in "*/":
                self.next()
                rhs = self.factor()
                self.charge(_predicted_size(op, lhs, rhs), position)
                if op == "*":
                    value = lhs[0] * rhs[0]
                else:
                    try:
                        value = lhs[0] / rhs[0]
                    except ZeroDenominatorError:
                        raise ZeroDenominatorError(
                            f"division by zero expression (position {position})"
                        ) from None
                lhs = value, _size(value)
            else:
                return lhs

    def factor(self) -> Sized:
        negate = False
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.next()
                if op == "-":
                    negate = not negate
            else:
                break
        value, size = self.power()
        return (-value if negate else value), size

    def power(self) -> Sized:
        value, size = self.atom()
        kind, op, op_position = self.peek()
        if kind == "op" and op == "^":
            self.next()
            sign = 1
            kind, op, position = self.peek()
            if kind == "op" and op == "-":
                self.next()
                sign = -1
            kind, text, position = self.next()
            if kind != "num" or "." in text:
                raise ParseError("exponent must be an integer", position)
            digits = text.lstrip("0") or "0"
            if (len(digits) > len(str(MAX_EXPONENT))
                    or int(digits) > MAX_EXPONENT):
                raise ParseError(f"exponent exceeds {MAX_EXPONENT} in absolute "
                                 f"value", position)
            self.charge(_predicted_power_size(size, int(digits)), op_position)
            try:
                value = value ** (sign * int(digits))
            except ZeroDenominatorError:
                raise ZeroDenominatorError(
                    f"zero raised to a negative power (position {position})"
                ) from None
            size = _size(value)
        return value, size

    def atom(self) -> Sized:
        kind, text, position = self.next()
        if kind == "num":
            if len(text) - text.count(".") > MAX_DIGITS:
                raise ParseError("number has too many digits", position)
            if "." in text:
                whole, frac = text.split(".")
                value = Fraction(int(whole + frac), 10 ** len(frac))
            else:
                value = Fraction(int(text))
            const = RationalExpr.constant(value, self.variables)
            return const, _size(const)
        if kind == "name":
            if text not in self.variables:
                raise UnknownVariableError(f"unknown variable {text!r}", position)
            var = RationalExpr.variable(text, self.variables)
            return var, _size(var)
        if kind == "op" and text == "(":
            sized = self.expr()
            self.expect_op(")")
            return sized
        raise ParseError(f"expected a number, variable or '('", position)


def parse_expr(text: str, variables: Iterable[str]) -> RationalExpr:
    """Parse ``text`` over the declared variable tuple into canonical form.

    The value keeps ``variables`` if it is a :class:`~ppst.expr.Variables`,
    so it shares that tuple's memo of canonical forms.
    """
    return _Parser(text, Variables.of(variables)).parse()
