"""Exact linear algebra over both scalar fields: a frame's rationals (int when
integral, else Fraction) and chart RationalExpr."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from ppst import linalg
from ppst.models import ChartModel, FrameModel, GeometryError, TensorField

F = Fraction
CHART = ChartModel(("x", "y", "z"))
FRAME = FrameModel(("e1", "e2", "xi"), (1, -1, 1))


def _chart(rows):
    return tuple(tuple(CHART.scalar(v) for v in row) for row in rows)


def _fractions(rows):
    return tuple(tuple(F(v) for v in row) for row in rows)


def _frame(rows):
    """Rows as a frame stores them: int entries wherever they are integral."""
    return tuple(tuple(FrameModel.scalar(F(v)) for v in row) for row in rows)


# each case: (matrix, expected rank); the chart matrices have a
# non-monomial entry, so elimination divides by a polynomial with two terms
CASES = {
    "fraction-invertible": (_fractions([[2, 1, 0], [1, 3, 1], [0, 1, "1/2"]]), 3),
    "fraction-singular": (_fractions([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), 2),
    "fraction-wide": (_fractions([[1, 0, 2, -1], [0, 1, 1, 1]]), 2),
    "frame-invertible": (_frame([[2, 1, 0], [1, 3, 1], [0, 1, "1/2"]]), 3),
    "frame-singular": (_frame([[2, 4, 6], [3, 6, 9], [0, 3, 1]]), 2),
    "frame-wide": (_frame([[3, 0, 2, -1], [0, 2, 1, 1]]), 2),
    "chart-invertible": (_chart([["1 + y^2", "x", "0"], ["x", "-1", "z"],
                                 ["0", "z", "1/(1 + z)"]]), 3),
    "chart-singular": (_chart([["1 + y^2", "x"], ["x*(1 + y^2)", "x^2"]]), 1),
    "chart-wide": (_chart([["x + y", "1", "0"], ["0", "y", "1 + x*z"]]), 2),
}


def _mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(linalg.dot(row, col) for col in cols) for row in a)


def test_quotient_is_exact():
    """Two ints divide to an int when exact and to a Fraction otherwise;
    any other pair divides as its type does."""
    for a, b, want in ((6, -3, -2), (0, 5, 0), (-7, 7, -1)):
        assert type(linalg.quotient(a, b)) is int and linalg.quotient(a, b) == want
    for a, b, want in ((3, -6, F(-1, 2)), (-3, 2, F(-3, 2)), (1, 3, F(1, 3))):
        q = linalg.quotient(a, b)
        assert type(q) is F and q == want and q.denominator != 1
    assert linalg.quotient(F(3, 2), F(3, 4)) == F(2)
    assert type(linalg.quotient(F(3, 2), F(3, 4))) is F
    assert linalg.quotient(F(1, 2), 2) == F(1, 4)
    assert linalg.quotient(3, F(1, 2)) == F(6)
    got = linalg.quotient(CHART.scalar("x^2 + x*y"), CHART.scalar("x"))
    assert got == CHART.scalar("x + y")
    assert linalg.quotient(CHART.scalar("x"), 2) == CHART.scalar("x/2")
    with pytest.raises(ZeroDivisionError):
        linalg.quotient(1, 0)


@pytest.mark.parametrize("name", [n for n in CASES if n.startswith("frame")])
def test_frame_elimination_divides_exactly(name):
    """On int entries rref and its users stay exact: no float appears."""
    mat, _ = CASES[name]
    results = [linalg._rref(mat)[0], linalg.nullspace(mat)]
    if name.endswith("invertible"):
        results.append(linalg.invert_matrix(mat))
    assert all(type(c) in (int, F) for rows in results for row in rows for c in row)


@pytest.mark.parametrize("name", CASES)
def test_rank(name):
    """The row reduction finds one pivot per unit of rank."""
    mat, expected = CASES[name]
    assert len(linalg._rref(mat)[1]) == expected


@pytest.mark.parametrize("name", CASES)
def test_nullspace_is_annihilated_and_has_the_complementary_dimension(name):
    mat, expected_rank = CASES[name]
    basis = linalg.nullspace(mat)
    assert len(basis) == len(mat[0]) - expected_rank
    for v in basis:
        assert any(v)
        assert all(not c for c in linalg.mat_vec(mat, v))


@pytest.mark.parametrize("name", [n for n in CASES if n.endswith("invertible")])
def test_inverse_is_a_two_sided_inverse(name):
    mat, _ = CASES[name]
    inv = linalg.invert_matrix(mat)
    identity = tuple(tuple(int(i == j) for j in range(len(mat)))
                     for i in range(len(mat)))
    assert _mat_mul(mat, inv) == identity
    assert _mat_mul(inv, mat) == identity


@pytest.mark.parametrize("name", [n for n in CASES if n.endswith("singular")])
def test_singular_matrix_has_no_inverse(name):
    mat, _ = CASES[name]
    with pytest.raises(linalg.SingularMatrixError):
        linalg.invert_matrix(mat)


def test_empty_matrix_has_rank_zero():
    assert linalg._rref(()) == ([], [])
    assert linalg.nullspace(()) == []


# kernel inputs per field: zero, then (u, v, m) dense, sparse, with
# disjoint supports, where no term survives, and with all-zero vectors of
# field zeros against a dense matrix
KERNEL_INPUTS = {
    "fraction": (F(0), {
        "dense": ((F(2), F(-1, 2), F(3)), (F(1), F(4), F(-2, 3)),
                  _fractions([[1, 2, 0], ["1/3", -1, 5], [2, 2, 2]])),
        "sparse": ((F(0), F(5), F(0)), (F(7), F(-1), F(0)),
                   _fractions([[0, 0, 0], [0, 0, 3], [0, 4, 0]])),
        "disjoint": ((F(0), F(5), F(0)), (F(7), F(0), F(0)),
                     _fractions([[0, 0, 0], [0, 0, 3], [0, 0, 0]])),
        "zero": (_fractions([[0, 0, 0]])[0], _fractions([[0, 0, 0]])[0],
                 _fractions([[1, 2, 0], ["1/3", -1, 5], [2, 2, 2]])),
    }),
    "chart": (CHART.scalar(0), {
        "dense": (_chart([["1 + y^2", "x", "-1/(1 + z)"]])[0],
                  _chart([["x", "z", "y^2"]])[0],
                  _chart([["1", "x", "0"], ["y", "1/(1 + y^2)", "z"],
                          ["2", "x*z", "1"]])),
        "sparse": (_chart([["0", "x*y", "0"]])[0], _chart([["1", "1 + z", "0"]])[0],
                   _chart([["0", "0", "0"], ["0", "0", "x"], ["0", "y", "0"]])),
        "disjoint": (_chart([["0", "x*y", "0"]])[0], _chart([["1", "0", "0"]])[0],
                     _chart([["0", "0", "0"], ["0", "0", "x"], ["0", "0", "0"]])),
        "zero": (_chart([["0", "0", "0"]])[0], _chart([["0", "0", "0"]])[0],
                 _chart([["1", "x", "0"], ["y", "1/(1 + y^2)", "z"],
                         ["2", "x*z", "1"]])),
    }),
}

# per shape, the kernel functions in which no term survives, so that every
# entry they return is the int 0
VANISHING = {
    "disjoint": ("dot", "mat_vec", "bilinear", "block_bilinear", "trace_product"),
    "zero": ("signed_sum", "dot", "mat_vec", "bilinear", "block_bilinear"),
}


def _is_int_zero(x) -> bool:
    return type(x) is int and x == 0


def _naive(zero, plus, minus=()):
    acc = zero
    for t in plus:
        acc = acc + t
    for t in minus:
        acc = acc - t
    return acc


@pytest.mark.parametrize("field", KERNEL_INPUTS)
@pytest.mark.parametrize("shape", ["dense", "sparse", "disjoint", "zero"])
def test_kernel_equals_the_naive_sum_and_stays_in_the_field(field, shape):
    zero, inputs = KERNEL_INPUTS[field]
    u, v, m = inputs[shape]
    r = range(3)
    # a flat table of two 3 x 3 blocks, m and its transpose
    table = [x for rows in (m, tuple(zip(*m))) for row in rows for x in row]
    got = {
        "signed_sum": (linalg.signed_sum(u, v),),
        "dot": (linalg.dot(u, v),),
        "mat_vec": linalg.mat_vec(m, v),
        "bilinear": (linalg.bilinear(m, u, v),),
        "block_bilinear": linalg.block_bilinear(table, u, v),
        "trace_product": (linalg.trace_product(m, m),),
    }
    want = {
        "signed_sum": (_naive(zero, u, v),),
        "dot": (_naive(zero, [a * b for a, b in zip(u, v)]),),
        "mat_vec": tuple(_naive(zero, [m[i][j] * v[j] for j in r]) for i in r),
        "bilinear": (_naive(zero, [u[i] * m[i][j] * v[j] for i in r for j in r]),),
        "block_bilinear": tuple(
            _naive(zero, [u[i] * table[b + 3 * i + j] * v[j] for i in r for j in r])
            for b in (0, 9)),
        "trace_product": (_naive(zero, [m[k][j] * m[j][k] for k in r for j in r]),),
    }
    assert got == want
    for values in got.values():  # an empty sum is the int 0, as in sum()
        assert all(type(x) is type(zero) or _is_int_zero(x) for x in values)
    for name in VANISHING.get(shape, ()):  # no term survives
        assert all(_is_int_zero(x) for x in got[name]), name
    if shape == "zero":  # an all-zero vector: no row is read
        assert all(_is_int_zero(x) for x in linalg.mat_vec((None,) * 3, v))
        assert _is_int_zero(linalg.bilinear((None,) * 3, u, v))
    assert _is_int_zero(linalg.signed_sum((zero, zero), (zero,)))
    assert _is_int_zero(linalg.signed_sum((), ()))


# nonzero scalars a seeded table draws from, per field; a table entry is
# zero one time in three
NONZERO = {
    "int": (FRAME, (1, -1, 2, 3, -4)),
    "fraction": (FRAME, (F(1, 2), F(-2, 3), F(5, 4), F(-1, 3))),
    "chart": (CHART, tuple(CHART.scalar(t) for t in
                           ("x", "-1/2", "y/(1 + z)", "x*y - z", "1 + y^2"))),
}


@pytest.mark.parametrize("field", NONZERO)
@pytest.mark.parametrize("valence", [(1, 2), (1, 3)])
def test_block_bilinear_and_vector_at_match_the_components(field, valence):
    """The two readers of a flat table against T[idx] and naive sums over
    it: vector_at for every lower index tuple, and block_bilinear for dense,
    unit and all-zero vectors, where every result is the int 0."""
    model, values = NONZERO[field]
    rng = random.Random(f"block-{field}-{valence}")
    d, zero = model.dim, model.scalar(0)
    T = TensorField(model, valence, [
        zero if rng.random() < 1 / 3 else rng.choice(values)
        for _ in range(d ** sum(valence))])
    for lower in product(range(d), repeat=valence[1]):
        assert T.vector_at(*lower) == tuple(T[(l, *lower)] for l in range(d))
    with pytest.raises(GeometryError):
        T.vector_at(0)
    dense = [tuple(rng.choice(values) for _ in range(d)) for _ in range(2)]
    vectors = {"dense": dense, "unit": (model.delta(0), model.delta(2)),
               "zero-u": ((zero,) * d, dense[1]),
               "zero-v": (dense[0], (zero,) * d)}
    lead = list(product(range(d), repeat=sum(valence) - 2))
    for name, (u, v) in vectors.items():
        got = linalg.block_bilinear(T.data, u, v)
        want = tuple(_naive(zero, [T[(*p, i, j)] * u[i] * v[j]
                                   for i, j in product(range(d), repeat=2)])
                     for p in lead)
        assert got == want, name
        if name.startswith("zero"):
            assert all(_is_int_zero(x) for x in got)


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
    sign = FRAME.sign
    assert linalg.symmetric_signature(_fractions(rows), sign) == (inertia, None)
    assert linalg.symmetric_signature(_frame(rows), sign) == (inertia, None)


def test_symmetric_signature_over_a_chart_names_an_unsigned_pivot():
    """Over Q(x, y, z) the pivots of [[1, y], [y, y^2 - x^2]] are 1 and
    -x^2: on the chart without constraints x = 0 is a domain point, so
    -x^2 has no fixed sign and is returned; with the constraint x it is
    negative everywhere."""
    rows = [["1", "y", "0"], ["y", "y^2 - x^2", "0"], ["0", "0", "1"]]
    mat = tuple(tuple(CHART.scalar(v) for v in row) for row in rows)
    inertia, unsigned = linalg.symmetric_signature(mat, CHART.sign)
    assert inertia is None and str(unsigned) == "-x^2"
    chart = ChartModel(("x", "y", "z"), constraints=("x",))
    mat = tuple(tuple(chart.scalar(v) for v in row) for row in rows)
    assert linalg.symmetric_signature(mat, chart.sign) == ((2, 1, 0), None)
