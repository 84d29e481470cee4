"""Exact linear algebra over both scalar fields: Fraction and chart RationalExpr."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ppst import linalg
from ppst.models import ChartModel

F = Fraction
CHART = ChartModel(("x", "y", "z"))


def _chart(rows):
    return tuple(tuple(CHART.scalar(v) for v in row) for row in rows)


def _fractions(rows):
    return tuple(tuple(F(v) for v in row) for row in rows)


# each case: (matrix, field one, expected rank); the chart matrices have a
# non-monomial entry, so elimination divides by a polynomial with two terms
CASES = {
    "fraction-invertible": (_fractions([[2, 1, 0], [1, 3, 1], [0, 1, "1/2"]]), F(1), 3),
    "fraction-singular": (_fractions([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), F(1), 2),
    "fraction-wide": (_fractions([[1, 0, 2, -1], [0, 1, 1, 1]]), F(1), 2),
    "chart-invertible": (_chart([["1 + y^2", "x", "0"], ["x", "-1", "z"],
                                 ["0", "z", "1/(1 + z)"]]), CHART.one, 3),
    "chart-singular": (_chart([["1 + y^2", "x"], ["x*(1 + y^2)", "x^2"]]),
                       CHART.one, 1),
    "chart-wide": (_chart([["x + y", "1", "0"], ["0", "y", "1 + x*z"]]),
                   CHART.one, 2),
}


def _mat_mul(a, b, zero):
    cols = tuple(zip(*b))
    return tuple(tuple(linalg.dot(row, col, zero) for col in cols) for row in a)


@pytest.mark.parametrize("name", CASES)
def test_rank(name):
    mat, _, expected = CASES[name]
    assert linalg.rank(mat) == expected


@pytest.mark.parametrize("name", CASES)
def test_nullspace_is_annihilated_and_has_the_complementary_dimension(name):
    mat, one, expected_rank = CASES[name]
    zero = one - one
    basis = linalg.nullspace(mat, one)
    assert len(basis) == len(mat[0]) - expected_rank
    for v in basis:
        assert any(v)
        assert all(not c for c in linalg.mat_vec(mat, v, zero))


@pytest.mark.parametrize("name", [n for n in CASES if n.endswith("invertible")])
def test_inverse_is_a_two_sided_inverse(name):
    mat, one, _ = CASES[name]
    zero = one - one
    inv = linalg.invert_matrix(mat, one)
    identity = tuple(tuple(one if i == j else zero for j in range(len(mat)))
                     for i in range(len(mat)))
    assert _mat_mul(mat, inv, zero) == identity
    assert _mat_mul(inv, mat, zero) == identity


@pytest.mark.parametrize("name", [n for n in CASES if n.endswith("singular")])
def test_singular_matrix_has_no_inverse(name):
    mat, one, _ = CASES[name]
    with pytest.raises(linalg.SingularMatrixError):
        linalg.invert_matrix(mat, one)


def test_empty_matrix_has_rank_zero():
    assert linalg.rank(()) == 0
    assert linalg.nullspace((), F(1)) == []


# kernel inputs per field: zero, then (u, v, m) dense, sparse and with
# disjoint supports, where no term survives
KERNEL_INPUTS = {
    "fraction": (F(0), {
        "dense": ((F(2), F(-1, 2), F(3)), (F(1), F(4), F(-2, 3)),
                  _fractions([[1, 2, 0], ["1/3", -1, 5], [2, 2, 2]])),
        "sparse": ((F(0), F(5), F(0)), (F(7), F(-1), F(0)),
                   _fractions([[0, 0, 0], [0, 0, 3], [0, 4, 0]])),
        "disjoint": ((F(0), F(5), F(0)), (F(7), F(0), F(0)),
                     _fractions([[0, 0, 0], [0, 0, 3], [0, 0, 0]])),
    }),
    "chart": (CHART.zero, {
        "dense": (_chart([["1 + y^2", "x", "-1/(1 + z)"]])[0],
                  _chart([["x", "z", "y^2"]])[0],
                  _chart([["1", "x", "0"], ["y", "1/(1 + y^2)", "z"],
                          ["2", "x*z", "1"]])),
        "sparse": (_chart([["0", "x*y", "0"]])[0], _chart([["1", "1 + z", "0"]])[0],
                   _chart([["0", "0", "0"], ["0", "0", "x"], ["0", "y", "0"]])),
        "disjoint": (_chart([["0", "x*y", "0"]])[0], _chart([["1", "0", "0"]])[0],
                     _chart([["0", "0", "0"], ["0", "0", "x"], ["0", "0", "0"]])),
    }),
}


def _naive(zero, plus, minus=()):
    acc = zero
    for t in plus:
        acc = acc + t
    for t in minus:
        acc = acc - t
    return acc


@pytest.mark.parametrize("field", KERNEL_INPUTS)
@pytest.mark.parametrize("shape", ["dense", "sparse", "disjoint"])
def test_kernel_equals_the_naive_sum_and_stays_in_the_field(field, shape):
    zero, inputs = KERNEL_INPUTS[field]
    u, v, m = inputs[shape]
    got = {
        "signed_sum": linalg.signed_sum(u, v, zero),
        "dot": linalg.dot(u, v, zero),
        "bilinear": linalg.bilinear(m, u, v, zero),
        "trace_product": linalg.trace_product(m, m, zero),
    }
    want = {
        "signed_sum": _naive(zero, u, v),
        "dot": _naive(zero, [a * b for a, b in zip(u, v)]),
        "bilinear": _naive(zero, [u[i] * m[i][j] * v[j]
                                  for i in range(3) for j in range(3)]),
        "trace_product": _naive(zero, [m[k][j] * m[j][k]
                                       for k in range(3) for j in range(3)]),
    }
    assert got == want
    for value in got.values():
        assert type(value) is type(zero)
    if shape == "disjoint":  # no term survives: the given zero comes back
        for name in ("dot", "bilinear", "trace_product"):
            assert got[name] is zero
    assert linalg.signed_sum((zero, zero), (zero,), zero) is zero
    assert linalg.signed_sum((), (), zero) is zero


# each case: (symmetric matrix, inertia); zero diagonal entries send the
# congruence diagonalization down its swap, row-sum and zero-row branches
INERTIA_CASES = {
    "hyperbolic-pair": ([[0, 1], [1, 0]], (1, 1, 0)),
    "diagonal-swap": ([[0, 2], [2, 3]], (1, 1, 0)),
    "zero-row": ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], (1, 0, 2)),
    "zero-first-row": ([[0, 0, 0], [0, 1, 0], [0, 0, -1]], (1, 1, 1)),
    "null-frame-metric": ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], (2, 1, 0)),
    "null-pairs": ([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
                   (2, 2, 0)),
}


@pytest.mark.parametrize("name", INERTIA_CASES)
def test_symmetric_signature(name):
    rows, inertia = INERTIA_CASES[name]
    assert linalg.symmetric_signature(_fractions(rows)) == inertia
