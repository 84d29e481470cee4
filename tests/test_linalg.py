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
