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

Errors carry 1-based character positions.  Division by a structurally zero
expression raises ZeroDenominatorError, as in the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .expr import RationalExpr, ZeroDenominatorError


# bound on |n| in x^n: the work and the size of x^n grow with n, and the
# structures this grammar describes need exponents of a few units
MAX_EXPONENT = 100


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


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables

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
        value = self.expr()
        kind, text, position = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", position)
        return value

    def expr(self) -> RationalExpr:
        value = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self) -> RationalExpr:
        value = self.factor()
        while True:
            kind, op, position = self.peek()
            if kind == "op" and op in "*/":
                self.next()
                rhs = self.factor()
                if op == "*":
                    value = value * rhs
                else:
                    try:
                        value = value / rhs
                    except ZeroDenominatorError:
                        raise ZeroDenominatorError(
                            f"division by zero expression (position {position})"
                        ) from None
            else:
                return value

    def factor(self) -> RationalExpr:
        negate = False
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.next()
                if op == "-":
                    negate = not negate
            else:
                break
        value = self.power()
        return -value if negate else value

    def power(self) -> RationalExpr:
        value = self.atom()
        kind, op, _ = self.peek()
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
            try:
                value = value ** (sign * int(digits))
            except ZeroDenominatorError:
                raise ZeroDenominatorError(
                    f"zero raised to a negative power (position {position})"
                ) from None
        return value

    def atom(self) -> RationalExpr:
        kind, text, position = self.next()
        if kind == "num":
            try:
                if "." in text:
                    whole, frac = text.split(".")
                    value = Fraction(int(whole + frac), 10 ** len(frac))
                else:
                    value = Fraction(int(text))
            except ValueError:  # past the interpreter's int-from-str digit limit
                raise ParseError("number has too many digits", position) from None
            return RationalExpr.constant(value, self.variables)
        if kind == "name":
            if text not in self.variables:
                raise UnknownVariableError(f"unknown variable {text!r}", position)
            return RationalExpr.variable(text, self.variables)
        if kind == "op" and text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"expected a number, variable or '('", position)


def parse_expr(text: str, variables: Iterable[str]) -> RationalExpr:
    """Parse ``text`` over the declared variable tuple into canonical form."""
    return _Parser(text, tuple(variables)).parse()
