"""Field-generic exact linear algebra.

Routines work over any exact field whose elements support +, -, *, /,
truthiness (zero test) and equality: the rationals of a frame (an int
when integral, else a fractions.Fraction) and the rational functions of a
chart (a RationalExpr, or such a number where constant) qualify.  A unit
entry is the int 1 and a zero entry the int 0 on both fields.
Everything is small and dense; dimensions here are at most 2n+1 for the
models treated by this package.

Every division of two field elements goes through ``quotient``: int / int
would give a float, so two ints divide exactly, to an int when the
division is exact and to a Fraction otherwise.

One Gauss-Jordan row reduction, ``_rref``, serves ``nullspace`` and
``invert_matrix`` (the right half of rref [M | I]; a missing pivot
means singular, so no determinant is computed).

The contraction kernel ``dot``, ``mat_vec``, ``bilinear`` and
``trace_product`` computes u.v, m v, u^T m v and tr(a b) over row tuples,
``block_bilinear`` computes sum_ij u_i v_j T[.., i, j] over the last two
slots of a flat component table (a bracket, connection, Riemann or
covariant-derivative table), and ``signed_sum`` adds and subtracts given
terms.  The geometry modules
build g(u, v), phi v, eta(v), tr(phi A) and every per-component formula
(Koszul sums, Riemann and Ricci components, residuals) from it, not with
+ and - of their own, so that a zero term costs a truthiness test and no
field operation.  Each kernel function skips every zero term and every
term with a zero factor before multiplying, starts its sum from the first
surviving term, and returns the int 0 when no term survives, as ``sum``
does, so its result is 0 or a field element.  ``mat_vec``, ``bilinear``
and ``block_bilinear`` find the support of their vector(s) once; when it
is empty they return 0, one per row or block, without visiting a row.
Exact sums do not change, and on sparse frame data the skipped terms are
most of the work.

Plain numbers are elements of both fields: every scalar of a frame is
one, and so is every constant a chart stores (see :mod:`ppst.models`).
A RationalExpr takes an int or Fraction operand of + - * / by a shortcut
that builds no constant RationalExpr (see :mod:`ppst.expr`), and takes
one in == and hash; a constant RationalExpr, which arithmetic may return
between two stored entries, has the bool, str and hash of its value.  A
chart's ``diff``, ``sign`` and ``defined_on_domain`` answer a plain
number as a frame's do.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeVar

F = TypeVar("F")
Matrix = tuple[tuple[F, ...], ...]


class SingularMatrixError(Exception):
    """Raised when an exact inverse does not exist."""


def quotient(a: F, b: F) -> F:
    """a / b, exact: an int when both are ints and b divides a, a Fraction
    for two other ints, and a / b of any other pair."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def signed_sum(plus: Iterable[F], minus: Iterable[F]) -> F:
    """sum(plus) - sum(minus), skipping zero terms."""
    acc = None
    for t in plus:
        if t:
            acc = t if acc is None else acc + t
    for t in minus:
        if t:
            acc = -t if acc is None else acc - t
    return 0 if acc is None else acc


def dot(u: Sequence[F], v: Sequence[F]) -> F:
    """sum_i u_i v_i."""
    acc = None
    for a, b in zip(u, v):
        if a and b:
            acc = a * b if acc is None else acc + a * b
    return 0 if acc is None else acc


def mat_vec(m: Sequence[Sequence[F]], v: Sequence[F]) -> tuple[F, ...]:
    """The vector m v; each entry of v is tested once, not once per row."""
    support = [(j, b) for j, b in enumerate(v) if b]
    if not support:
        return (0,) * len(m)
    out = []
    for row in m:
        acc = None
        for j, b in support:
            a = row[j]
            if a:
                acc = a * b if acc is None else acc + a * b
        out.append(0 if acc is None else acc)
    return tuple(out)


def bilinear(m: Sequence[Sequence[F]], u: Sequence[F], v: Sequence[F]) -> F:
    """sum_ij u_i m_ij v_j, as sum_i u_i (m_i . v)."""
    support = [(j, b) for j, b in enumerate(v) if b]
    if not support:
        return 0
    acc = None
    for a, row in zip(u, m):
        if a:
            b = None
            for j, c in support:
                x = row[j]
                if x:
                    b = x * c if b is None else b + x * c
            if b:
                acc = a * b if acc is None else acc + a * b
    return 0 if acc is None else acc


def block_bilinear(data: Sequence[F], u: Sequence[F],
                   v: Sequence[F]) -> tuple[F, ...]:
    """sum_ij u_i v_j T[.., i, j] over the last two slots of a flat table:
    ``bilinear`` of each consecutive block of d x d entries, d = len(u),
    one result per block.  The supports of u and v are found once."""
    d = len(u)
    dd = d * d
    us = [(i * d, a) for i, a in enumerate(u) if a]  # (row offset, u_i)
    vs = [(j, b) for j, b in enumerate(v) if b]
    if not us or not vs:
        return (0,) * (len(data) // dd)
    out = []
    for base in range(0, len(data), dd):
        acc = None
        for off, a in us:
            row = base + off
            b = None
            for j, c in vs:
                x = data[row + j]
                if x:
                    b = x * c if b is None else b + x * c
            if b:
                acc = a * b if acc is None else acc + a * b
        out.append(0 if acc is None else acc)
    return tuple(out)


def trace_product(a: Sequence[Sequence[F]], b: Sequence[Sequence[F]]) -> F:
    """tr(a b) = sum_km a_km b_mk."""
    acc = None
    for k, row in enumerate(a):
        for m, x in enumerate(row):
            y = b[m][k]
            if x and y:
                acc = x * y if acc is None else acc + x * y
    return 0 if acc is None else acc


def _rows(mat: Sequence[Sequence[F]]) -> list[list[F]]:
    return [list(row) for row in mat]


def _rref(mat: Sequence[Sequence[F]]) -> tuple[list[list[F]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan: (rows, pivot_columns).

    Each pivot is scaled to one and cleared from every other row; the
    elimination stops once every row holds a pivot.
    """
    m = _rows(mat)
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        m[r] = [quotient(a, pivot) for a in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def invert_matrix(mat: Sequence[Sequence[F]]) -> Matrix:
    """Exact inverse, the right half of rref [M | I]; raises SingularMatrixError."""
    n = len(mat)
    rows, pivots = _rref([list(row) + [int(i == j) for j in range(n)]
                          for i, row in enumerate(mat)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular over the field")
    return tuple(tuple(row[n:]) for row in rows)


def nullspace(mat: Sequence[Sequence[F]]) -> list[tuple[F, ...]]:
    """Basis of the right nullspace: one vector per non-pivot column."""
    rows, pivots = _rref(mat)
    ncols = len(mat[0]) if mat else 0
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [0] * ncols
        v[c] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = -row[c]
        basis.append(tuple(v))
    return basis


def symmetric_signature(mat: Sequence[Sequence[F]], sign: Callable[[F], int | None],
                        ) -> tuple[tuple[int, int, int] | None, F | None]:
    """(positive, negative, zero) inertia of an exact symmetric matrix by
    congruence diagonalization over its field, and None; or None and the
    first nonzero pivot that ``sign`` maps to None instead of +1 or -1.

    Zero tests are truthiness; ``sign`` decides only the nonzero pivots.
    Each step works on the trailing block, which stays symmetric: a zero
    diagonal entry is swapped for a nonzero one or, failing that, made
    nonzero by adding a row and column that pair with it; then the pivot
    row clears the rows below it.  Sylvester's law makes the counts
    basis-independent.
    """
    m = _rows(mat)
    n = len(m)
    pivots = []
    for k in range(n):
        if not m[k][k]:
            swap = next((j for j in range(k + 1, n) if m[j][j]), None)
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                other = next((j for j in range(k + 1, n) if m[k][j]), None)
                if other is not None:
                    for c in range(k, n):
                        m[k][c] = m[k][c] + m[other][c]
                    for r in range(k, n):
                        m[r][k] = m[r][k] + m[r][other]
        pivot = m[k][k]
        pivots.append(pivot)
        if not pivot:
            continue
        for j in range(k + 1, n):
            if m[j][k]:
                f = quotient(m[j][k], pivot)
                for c in range(k + 1, n):
                    if m[k][c]:
                        m[j][c] = m[j][c] - f * m[k][c]
    counts = {1: 0, -1: 0}
    for pivot in pivots:
        if pivot:
            s = sign(pivot)
            if s is None:
                return None, pivot
            counts[s] += 1
    return (counts[1], counts[-1], n - counts[1] - counts[-1]), None
