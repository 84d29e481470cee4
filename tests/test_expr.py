"""Kernel tests: canonical forms, arithmetic laws, calculus, evaluation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ppst import expr
from ppst.expr import (
    EvaluationError,
    RationalExpr,
    VariableMismatchError,
    Variables,
    ZeroDenominatorError,
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
        repeated = RationalExpr.constant(1, VARS)
        for _ in range(n):
            repeated = repeated * base
        assert base ** n == repeated and type(base ** n) is RationalExpr
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
    assert (X - X).is_zero
    assert ((X * Y - Y * X) / (Z ** 3 + 1)).is_zero
    assert str(X - X) == "0"
    assert not (X - Y).is_zero


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


def test_constant_over_other_variables_rejected():
    c = RationalExpr.constant(3)
    for combine in (lambda: c + X, lambda: X + c, lambda: c * X,
                    lambda: X * c, lambda: c / X, lambda: X / c, lambda: c - X):
        with pytest.raises(VariableMismatchError):
            combine()


# -- memo of canonical forms ------------------------------------------------

def test_variables_behave_as_the_plain_tuple():
    v = Variables(("x", "y"))
    assert v == ("x", "y") and hash(v) == hash(("x", "y"))
    assert repr(v) == repr(("x", "y")) and v.memo == {} and v.ops == {}
    assert Variables.of(v) is v and Variables.of(("x", "y")) is not v


def test_values_keep_their_variables_object():
    v = Variables(VARS)
    e = parse_expr("(x + y)/(1 + z^2)", v)
    assert e.variables is v
    assert (e * e + e).variables is v and e.derivative("z").variables is v
    assert type(parse_expr("x", VARS).variables) is Variables


def test_memo_reduces_each_pair_once_per_variables(monkeypatch):
    calls = []
    gcd = expr._poly_gcd
    monkeypatch.setattr(expr, "_poly_gcd",
                        lambda *args: calls.append(1) or gcd(*args))
    num, den = {(1, 1, 0): 1, (0, 0, 2): 1}, {(1, 0, 0): 1, (0, 1, 0): 1}
    first = Variables(VARS)
    a, b = RationalExpr(first, num, den), RationalExpr(first, num, den)
    assert len(calls) == 1 and a == b
    c = RationalExpr(Variables(VARS), num, den)
    assert len(calls) == 2 and c == a


def _on(variables: Variables, e: RationalExpr) -> RationalExpr:
    return RationalExpr._make(variables, e.num, e.den)


def test_op_memo_hits_equal_recomputed_results():
    """A sum, difference, product, quotient or partial derivative read from
    the op memo is the value recomputing it on a fresh Variables gives, in
    both operand orders: the same stored num/den and the same text.  The
    operands pair a few numerators with a few denominators, so many share
    one part and differ in the other.  The memo keeps (num, den) tuples,
    never a RationalExpr."""
    rng = random.Random(2028)
    pool = [random_expr(rng) for _ in range(8)]
    nums = [e.num for e in pool if e]
    dens = [e.den for e in pool] + [e.num for e in pool if not e.is_constant]

    def value() -> RationalExpr:
        return RationalExpr(VARS, dict(rng.choice(nums)), dict(rng.choice(dens)))
    shared = Variables(VARS)
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": lambda a, b: a / b}
    cases = 0
    for _ in range(80):
        a, b = value(), value()
        calls = [(op, *pair) for pair in ((a, b), (b, a))
                 for name, op in ops.items() if name != "/" or pair[1]]
        calls += [(lambda e, v=v: e.derivative(v), e) for e in (a, b)
                  for v in VARS]
        for op, *args in calls:
            first = op(*(_on(shared, e) for e in args))
            size = len(shared.ops)
            again = op(*(_on(shared, e) for e in args))
            assert len(shared.ops) == size  # a hit: nothing recomputed
            fresh = op(*(_on(Variables(VARS), e) for e in args))
            assert first.variables is again.variables is shared
            for out in (again, fresh):
                assert (out.num, out.den) == (first.num, first.den)
                assert str(out) == str(first)
            cases += 1
    assert cases > 1000 and len(shared.ops) > 500
    for key, out in shared.ops.items():
        assert not any(isinstance(k, RationalExpr) for k in key)
        assert type(out) is tuple and len(out) == 2
        assert all(type(part) is tuple for part in out)


NUMBERS = (0, 1, -1, 2, Fraction(-1, 3), Fraction(7, 2))


def _stored(e: RationalExpr) -> tuple:
    """num, den and str, with each coefficient's type next to it, so that
    an integral Fraction where the general path gives an int shows."""
    return (tuple((m, c, type(c)) for m, c in e.num),
            tuple((m, c, type(c)) for m, c in e.den), str(e))


def _kind(e: RationalExpr) -> str:
    if not e:
        return "zero"
    if e.is_constant:
        return "constant"
    if e.is_polynomial:
        return "polynomial"
    return "multi-term den" if len(e.den) > 1 else "monomial den"


def test_number_operand_shortcut_equals_the_general_path():
    """x + c, c + x, x - c, c - x, x * c, c * x, x / c and c / x for a
    number c are the values the general path gives with the constant
    RationalExpr c as operand: the same num, den and text, and a zero
    divisor raises on both.  The values x are zero, constants, polynomials
    and multi-term denominators; c is one of NUMBERS or 2 as a Fraction.
    No shortcut adds an entry to the op memo."""
    rng = random.Random(2029)
    values = [X - X, RationalExpr.constant(Fraction(5, 3), VARS),
              X * Y - 2 * Z + 1, X / (1 + Y ** 2 + Z)]
    values += [random_expr(rng) for _ in range(60)]
    kinds = {_kind(e) for e in values}
    assert {"zero", "constant", "polynomial", "multi-term den"} <= kinds
    forms = {"x + c": lambda x, c: x + c, "c + x": lambda x, c: c + x,
             "x - c": lambda x, c: x - c, "c - x": lambda x, c: c - x,
             "x * c": lambda x, c: x * c, "c * x": lambda x, c: c * x,
             "x / c": lambda x, c: x / c, "c / x": lambda x, c: c / x}
    shared = Variables(VARS)
    cases = 0
    for e in values:
        x = _on(shared, e)
        for c in NUMBERS + (Fraction(2),):
            general = RationalExpr.constant(c, Variables(VARS))
            y = _on(general.variables, e)
            for name, form in forms.items():
                if (name == "x / c" and not c) or (name == "c / x" and not e):
                    for args in ((x, c), (y, general)):
                        with pytest.raises(ZeroDenominatorError):
                            form(*args)
                    continue
                got = form(x, c)
                assert got.variables is shared, name
                assert _stored(got) == _stored(form(y, general)), (name, str(e), c)
                cases += 1
    assert shared.ops == {}
    assert cases > 3000


# -- GCD by trial division, against sympy's cofactors ------------------------

def _sympy_cofactors(variables, a, b):
    """The reference: cofactors of gcd(a, b) by sympy's PolyElement.cofactors
    in ZZ[variables], scaled back by the operands' contents."""
    ring = expr._zz_ring(tuple(variables))
    ca, cb = expr._content(a), expr._content(b)
    pa = ring.from_dict({m: (c / ca).numerator for m, c in a.items()})
    pb = ring.from_dict({m: (c / cb).numerator for m, c in b.items()})
    _, qa, qb = pa.cofactors(pb)
    return ({m: ca * int(c) for m, c in qa.items()},
            {m: cb * int(c) for m, c in qb.items()})


def _ratio(p, q):
    """The rational c with p = c q, or None."""
    if p.keys() != q.keys():
        return None
    m = next(iter(p))
    c = Fraction(p[m]) / q[m]
    return c if all(p[k] == c * q[k] for k in p) else None


def _random_irreducible(rng: random.Random, ring):
    """A constant plus 1-2 random terms of degree <= 2 in each variable,
    irreducible over Q, with small integer or Fraction coefficients."""
    def coefficient():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                        rng.choice((1, 1, 1, 2, 5)))
    while True:
        p = {(0,) * len(VARS): coefficient()}
        for _ in range(rng.randint(1, 2)):
            m = tuple(rng.randint(0, 2) for _ in VARS)
            p[m] = p.get(m, 0) + coefficient()
        p = {m: c for m, c in p.items() if c}
        if len(p) < 2:
            continue
        scale = expr._content(p)
        _, factors = ring.from_dict(
            {m: (c / scale).numerator for m, c in p.items()}).factor_list()
        if len(factors) == 1 and factors[0][1] == 1:
            return p


def _product(factors, constant):
    out = {(0,) * len(VARS): constant}
    for p, e in factors:
        for _ in range(e):
            out = expr._pmul(out, p)
    return out


def test_poly_gcd_matches_sympy_cofactors_seeded():
    """Trial division over den's irreducible factors gives sympy's cofactors,
    up to one constant: num and den are built from 1-3 random irreducible
    factors with multiplicities, among them monomials, factors with Fraction
    coefficients, factors num holds to a higher power than den, and factors
    only one side holds (coprime pairs)."""
    rng = random.Random(1509)
    ring = expr._zz_ring(VARS)
    shared = Variables(VARS)  # later pairs reuse the factors found earlier
    kinds = {"monomial": 0, "fraction": 0, "num above den": 0, "coprime": 0}
    for case in range(60):
        pool = [_random_irreducible(rng, ring) for _ in range(rng.randint(1, 3))]
        if case % 4 == 0:
            pool.append({tuple(int(i == rng.randrange(3)) for i in range(3)): 1})
        num_f = [(p, rng.randint(0, 3)) for p in pool]
        den_f = [(p, rng.randint(0, 2)) for p in pool]
        if case % 5 == 1:  # num from factors of its own
            num_f = [(p, 0) for p in pool] + [
                (_random_irreducible(rng, ring), rng.randint(1, 2))
                for _ in range(rng.randint(1, 2))]
        if not any(e for _, e in den_f):
            den_f[0] = (pool[0], 1)
        num = _product(num_f, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        den = _product(den_f, rng.choice((1, -2, Fraction(3, 7))))
        if len(num) < 2 or len(den) < 2:
            continue
        variables = shared if case % 2 else Variables(VARS)
        qa, qb = expr._poly_gcd(variables, dict(num), dict(den))
        ra, rb = _sympy_cofactors(VARS, num, den)
        c = _ratio(qa, ra)
        assert c is not None and c == _ratio(qb, rb), (num, den)
        assert {int, Fraction}.issuperset(map(type, [*qa.values(), *qb.values()]))
        kinds["monomial"] += any(len(p) == 1 for p, e in den_f if e)
        kinds["fraction"] += any(type(x) is Fraction and x.denominator != 1
                                 for x in [*num.values(), *den.values()])
        kinds["num above den"] += any(a > b > 0 for (_, a), (_, b)
                                      in zip(num_f, den_f))
        kinds["coprime"] += _ratio(rb, den) is not None
    assert all(n >= 5 for n in kinds.values()), kinds


# -- calculus ---------------------------------------------------------------

def test_partial_derivative_quotient():
    e = (4 * Y) / Z
    assert e.derivative("z") == (-4 * Y) / (Z ** 2)
    assert e.derivative("y") == 4 / Z
    assert e.derivative("x").is_zero


def test_derivative_unknown_variable():
    with pytest.raises(VariableMismatchError):
        X.derivative("w")


def test_mixed_partials_commute():
    e = (X ** 2 * Y + 3 * Z) / (Y * Z + 1)
    assert e.derivative("y").derivative("z") == e.derivative("z").derivative("y")


# -- evaluation -------------------------------------------------------------

def test_evaluate_exact():
    e = (1 + 28 * Y ** 2) / (Z ** 2)
    assert e.evaluate({"x": 0, "y": 1, "z": 2}) == Fraction(29, 4)


def test_evaluate_denominator_vanishes():
    with pytest.raises(EvaluationError):
        (X / (Z - 1)).evaluate({"x": 1, "y": 0, "z": 1})


def test_evaluate_missing_variable():
    with pytest.raises(EvaluationError):
        X.evaluate({"y": 1, "z": 1})


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


# -- shortcut arithmetic agrees with reducing the unreduced result -----------

def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(i + j for i, j in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return out


def _ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return out


_ONE = {(0, 0, 0): Fraction(1)}
_FACTORS = (
    {(0, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): 1},   # 1 + y^2 + z
    {(1, 0, 0): 1, (0, 1, 0): -1},                # x - y
    {(0, 0, 2): 1, (0, 0, 0): 1},                 # z^2 + 1
    {(1, 1, 0): 2, (0, 0, 1): -3},                # 2*x*y - 3*z
    {(1, 0, 1): 1},                               # x*z
)


def _random_poly(rng: random.Random) -> dict:
    return {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)):
            Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))}


def _operand_pair(rng: random.Random, kind: str):
    f0, f1, f2 = rng.sample(_FACTORS, 3)
    d1, d2 = {
        "one": (_ONE, _ONE),
        "one-side": (_ref_mul(f0, f1), _ONE),
        "equal": (_ref_mul(f0, f1), _ref_mul(f0, f1)),
        "coprime": (f0, f1),
        "shared": (_ref_mul(f0, f1), _ref_mul(f0, f2)),
        "constant": (f0, _ONE),
    }[kind]
    n1, n2 = _random_poly(rng), _random_poly(rng)
    if kind == "constant":
        n2 = {(0, 0, 0): Fraction(rng.randint(-3, 3), rng.randint(1, 3))}
    elif rng.random() < 0.5:  # let the product cancel across the pairs
        n1, n2 = _ref_mul(n1, f1), _ref_mul(n2, f0)
    return RationalExpr(VARS, n1, d1), RationalExpr(VARS, n2, d2)


def _assert_same(got: RationalExpr, ref: RationalExpr) -> None:
    assert (got.num, got.den, str(got)) == (ref.num, ref.den, str(ref))


def test_shortcut_arithmetic_matches_reference_seeded():
    rng = random.Random(31337)
    zeros = 0
    for kind in ("one", "one-side", "equal", "coprime", "shared", "constant"):
        for _ in range(12):
            a, b = _operand_pair(rng, kind)
            minus_a = RationalExpr(VARS, {m: -c for m, c in a.num}, dict(a.den))
            for p, q in ((a, b), (b, a), (a, a), (a, minus_a)):
                n1, d1, n2, d2 = dict(p.num), dict(p.den), dict(q.num), dict(q.den)
                _assert_same(-p, RationalExpr(VARS, {m: -c for m, c in n1.items()}, d1))
                total = p + q
                zeros += total.is_zero
                _assert_same(total, RationalExpr(
                    VARS, _ref_add(_ref_mul(n1, d2), _ref_mul(n2, d1)), _ref_mul(d1, d2)))
                _assert_same(p - q, RationalExpr(
                    VARS, _ref_add(_ref_mul(n1, d2), _ref_mul(n2, d1), -1),
                    _ref_mul(d1, d2)))
                _assert_same(p * q, RationalExpr(VARS, _ref_mul(n1, n2), _ref_mul(d1, d2)))
                if q:
                    _assert_same(p / q, RationalExpr(VARS, _ref_mul(n1, d2),
                                                     _ref_mul(d1, n2)))
            for k in (-2, -1, 0, 2, 3):
                if a or k >= 0:
                    num, den = dict(a.num), dict(a.den)
                    if k < 0:
                        num, den = den, num
                    pn, pd = _ONE, _ONE
                    for _ in range(abs(k)):
                        pn, pd = _ref_mul(pn, num), _ref_mul(pd, den)
                    _assert_same(a ** k, RationalExpr(VARS, pn, pd))
    assert zeros >= 72  # every a + (-a) is zero
