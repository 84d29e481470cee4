"""Kernel tests: canonical forms, arithmetic laws, calculus, evaluation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ppst.expr import (
    ConstraintViolation,
    DomainConstraint,
    EvaluationError,
    RationalExpr,
    VariableMismatchError,
    ZeroDenominatorError,
    derivative,
    evaluate,
    is_identically_zero,
)
from ppst.parser import parse_expr

from _gen import VARS, random_expr, random_point


def V(name: str) -> RationalExpr:
    return RationalExpr.variable(name, VARS)


X, Y, Z = V("x"), V("y"), V("z")


# -- canonical form ---------------------------------------------------------

def test_gcd_cancellation():
    e = (Z ** 2 - Y ** 2) / (Z - Y)
    assert e == Z + Y
    assert str(e) == "y + z"


def test_power_by_squaring_matches_repeated_products():
    base = (X + 2 * Y) / (Z - 1)
    for n in range(9):
        repeated = RationalExpr.one(VARS)
        for _ in range(n):
            repeated = repeated * base
        assert base ** n == repeated
        assert base ** -n == 1 / repeated
    two = RationalExpr.constant(2, VARS)
    assert two ** 8000 == 2 ** 8000  # 13 squarings, not 8000 products


def test_monomial_cancellation():
    assert (4 * X * Y) / (2 * X) == 2 * Y
    assert str((4 * Y) / Z) == "(4*y)/(z)"


def test_denominator_normalized_primitive_positive():
    e = X / (-Z)
    assert str(e) == "(-x)/(z)"
    e = Y / (2 * Z)
    # denominator scaled to primitive z; the 1/2 moves into the numerator
    assert str(e) == "(1/2*y)/(z)"


def test_zero_is_canonical():
    assert is_identically_zero(X - X)
    assert is_identically_zero((X * Y - Y * X) / (Z ** 3 + 1))
    assert str(X - X) == "0"
    assert not is_identically_zero(X - Y)


def test_cross_variable_difference_is_not_zero():
    e = (X + Y) * (X - Y) - (X ** 2 - Y ** 2)
    assert e.is_zero


def test_structural_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        X / (Z - Z)


def test_constant_identification():
    e = (2 * X) / X
    assert e.is_constant and e.constant_value() == 2
    assert e == 2
    assert hash(e) == hash(RationalExpr.constant(2))


def test_variable_mismatch_rejected():
    other = RationalExpr.variable("u", ("u", "v"))
    with pytest.raises(VariableMismatchError):
        X + other


def test_constant_lifts_across_variable_tuples():
    c = RationalExpr.constant(3)
    assert (c + X) == (X + 3)
    assert (c * X) == 3 * X


# -- calculus ---------------------------------------------------------------

def test_partial_derivative_quotient():
    e = (4 * Y) / Z
    assert derivative(e, "z") == (-4 * Y) / (Z ** 2)
    assert derivative(e, "y") == 4 / Z
    assert derivative(e, "x").is_zero


def test_derivative_unknown_variable():
    with pytest.raises(VariableMismatchError):
        X.derivative("w")


def test_mixed_partials_commute():
    e = (X ** 2 * Y + 3 * Z) / (Y * Z + 1)
    assert derivative(derivative(e, "y"), "z") == derivative(derivative(e, "z"), "y")


# -- evaluation -------------------------------------------------------------

def test_evaluate_exact():
    e = (1 + 28 * Y ** 2) / (Z ** 2)
    assert evaluate(e, {"x": 0, "y": 1, "z": 2}) == Fraction(29, 4)


def test_evaluate_checks_constraints_first():
    con = DomainConstraint(Z)
    with pytest.raises(ConstraintViolation):
        evaluate(X + Y, {"x": 1, "y": 1, "z": 0}, [con])


def test_evaluate_denominator_vanishes():
    with pytest.raises(EvaluationError):
        evaluate(X / (Z - 1), {"x": 1, "y": 0, "z": 1})


def test_evaluate_missing_variable():
    with pytest.raises(EvaluationError):
        evaluate(X, {"y": 1, "z": 1})


# -- seeded property tests --------------------------------------------------

def test_ring_and_field_laws_seeded():
    rng = random.Random(20260825)
    cases = 0
    for _ in range(350):
        a = random_expr(rng)
        b = random_expr(rng)
        c = random_expr(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero
        if not b.is_zero:
            assert (a / b) * b == a
        cases += 1
    assert cases == 350


def test_leibniz_and_quotient_rule_seeded():
    rng = random.Random(4271)
    for _ in range(250):
        a = random_expr(rng)
        b = random_expr(rng)
        var = rng.choice(VARS)
        da, db = a.derivative(var), b.derivative(var)
        assert (a * b).derivative(var) == da * b + a * db
        if not b.is_zero:
            q = a / b
            assert q.derivative(var) == (da * b - a * db) / (b * b)


def test_print_parse_round_trip_seeded():
    rng = random.Random(988)
    for _ in range(250):
        e = random_expr(rng)
        assert parse_expr(str(e), VARS) == e


def test_evaluation_is_a_homomorphism_seeded():
    rng = random.Random(55111)
    done = 0
    while done < 200:
        a = random_expr(rng, depth=2)
        b = random_expr(rng, depth=2)
        p = random_point(rng)
        try:
            va, vb = a.evaluate(p), b.evaluate(p)
            vs, vp = (a + b).evaluate(p), (a * b).evaluate(p)
        except EvaluationError:
            continue
        assert vs == va + vb
        assert vp == va * vb
        done += 1
