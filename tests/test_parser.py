"""Parser tests: grammar coverage, exactness, error positions."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ppst import parser
from ppst.expr import RationalExpr, ZeroDenominatorError
from ppst.parser import (MAX_DIGITS, MAX_EXPONENT, MAX_VALUE_TERMS, ParseError,
                         UnknownVariableError, parse_expr)

VARS = ("x", "y", "z")


def test_reduction_example():
    e = parse_expr("(z^2 - y^2)/(z - y)", VARS)
    assert e == parse_expr("y + z", VARS)


def test_precedence_and_unary_minus():
    assert parse_expr("-x^2", VARS) == -(parse_expr("x", VARS) ** 2)
    assert parse_expr("2 + 3*4", VARS) == 14
    assert parse_expr("2*x - -3", VARS) == parse_expr("2*x + 3", VARS)
    assert parse_expr("--x", VARS) == parse_expr("x", VARS)


def test_left_associative_division():
    assert parse_expr("8/2/2", VARS) == 2
    assert parse_expr("1/2*y", VARS) == parse_expr("y/2", VARS)


def test_decimals_are_exact():
    assert parse_expr("0.5", VARS) == Fraction(1, 2)
    assert parse_expr("2.25*x", VARS) == Fraction(9, 4) * RationalExpr.variable("x", VARS)


def test_negative_exponent():
    assert parse_expr("z^-1", VARS) == 1 / RationalExpr.variable("z", VARS)
    assert parse_expr("4*y*z^-2", VARS) == parse_expr("(4*y)/(z^2)", VARS)


def test_exponent_must_be_integer():
    with pytest.raises(ParseError):
        parse_expr("x^2.5", VARS)


def test_exponent_bound():
    z = RationalExpr.variable("z", VARS)
    assert parse_expr(f"z^{MAX_EXPONENT}", VARS) == z ** MAX_EXPONENT
    assert parse_expr(f"z^-{MAX_EXPONENT}", VARS) == z ** -MAX_EXPONENT
    assert parse_expr(f"z^000{MAX_EXPONENT}", VARS) == z ** MAX_EXPONENT
    for text in (f"z^{MAX_EXPONENT + 1}", f"z^-{MAX_EXPONENT + 1}",
                 "2^100000000", "2^" + "9" * 5000):
        with pytest.raises(ParseError, match="exponent exceeds") as info:
            parse_expr(text, VARS)
        assert info.value.position == 3 + text.startswith("z^-")


def test_number_beyond_digit_limit():
    with pytest.raises(ParseError, match="too many digits") as info:
        parse_expr("x + 1" + "0" * 5000, VARS)
    assert info.value.position == 5


def test_size_bounds():
    assert len(parse_expr("(x+y+z)^20", VARS).num) == 231
    assert parse_expr("9" * MAX_DIGITS, VARS) == 10 ** MAX_DIGITS - 1
    for text, position, message in (
            ("(x+y+z)^44", 8, "exceed 1000 terms"),
            ("(x+y+z)^22*(x+y+z)^22", 11, "exceed 1000 terms"),
            ("1/(x+1)^40 + 1/(y+1)^40", 12, "exceed 1000 terms"),
            ("(2^100)^20", 8, "exceed 500 digits"),
            ("(10^100)^3*(10^100)^3", 11, "exceed 500 digits"),
            ("9" * (MAX_DIGITS + 1), 1, "too many digits")):
        with pytest.raises(ParseError, match=message) as info:
            parse_expr(text, VARS)
        assert info.value.position == position


def test_value_budget_bounds_operations_together():
    # each (x+y+z)^20 predicts 231 terms, each 0*(...) one more
    assert parse_expr(" + ".join(["0*(x+y+z)^20"] * 16), VARS).is_zero
    with pytest.raises(ParseError, match=f"more than {MAX_VALUE_TERMS} terms "
                                         f"in all") as info:
        parse_expr(" + ".join(["0*(x+y+z)^20"] * 17), VARS)
    assert info.value.position == 250


def test_value_budget_charges_a_written_out_sum_linearly():
    # 500 distinct monomials x^i*y^j, 0 <= i, j < 23, typed out one by one
    monomials = [f"x^{i}*y^{j}" for i in range(23) for j in range(23)][:500]
    value = parse_expr(" + ".join(monomials), VARS)
    assert len(value.num) == 500 and value.is_polynomial


def test_value_sizes_are_scanned_linearly(monkeypatch):
    """The budget scans each value's coefficients once, and a merge-free sum
    takes its size from its operands: a written-out sum of k monomials
    scans about 10k coefficients, not k^2/2."""
    scanned = []
    size = parser._size

    def counted(value):
        scanned.append(len(value.num) + len(value.den))
        return size(value)

    monkeypatch.setattr(parser, "_size", counted)
    monomials = [f"x^{i}*y^{j}" for i in range(27) for j in range(27)]
    counts = {}
    for k in (350, 700):
        scanned.clear()
        assert len(parse_expr(" + ".join(monomials[:k]), VARS).num) == k
        counts[k] = (len(scanned), sum(scanned))
    assert counts[700] == (2 * counts[350][0], 2 * counts[350][1])
    assert counts[700][1] <= 10 * 700


def test_unknown_variable_position():
    with pytest.raises(UnknownVariableError) as info:
        parse_expr("x + w*z", VARS)
    assert info.value.position == 5


def test_syntax_error_positions():
    with pytest.raises(ParseError) as info:
        parse_expr("x + ", VARS)
    assert info.value.position == 5
    with pytest.raises(ParseError) as info:
        parse_expr("(x + y", VARS)
    assert info.value.position == 7
    with pytest.raises(ParseError) as info:
        parse_expr("x ? y", VARS)
    assert info.value.position == 3


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_expr("x y", VARS)


def test_zero_denominator_reported():
    with pytest.raises(ZeroDenominatorError):
        parse_expr("4*y/(z - z)", VARS)


def test_whitespace_insensitive():
    assert parse_expr(" ( 4 * y ) / z ", VARS) == parse_expr("(4*y)/(z)", VARS)
