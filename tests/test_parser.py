"""Parser tests: grammar coverage, exactness, error positions."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ppst.expr import RationalExpr, ZeroDenominatorError
from ppst.parser import MAX_EXPONENT, ParseError, UnknownVariableError, parse_expr

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
