"""Exact linear algebra by fraction-free integer elimination: solve, det.

Entries may be ints or Fractions.  Each row is first scaled to integers by
the lcm of its denominators, then reduced with Bareiss's (1968) one-step
fraction-free elimination: after k pivots every entry below the pivot rows
is a (k+1)-minor of the scaled matrix, so each update divides exactly by the
previous pivot and no rational arithmetic or gcds are needed.  The pivot of
each column is its first nonzero entry at or below the current row; the
pivot columns are therefore the lex-first independent columns, whatever the
row order.  Matrices are lists of row lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod


def _integer_rows(matrix):
    """Copy of the matrix with each row scaled to integers."""
    rows = []
    for row in matrix:
        d = lcm(*[x.denominator for x in row])
        rows.append([x.numerator * (d // x.denominator) for x in row])
    return rows


def _echelon(rows, n_cols):
    """Bareiss forward elimination in place over the first n_cols columns.

    Returns (pivot columns, sign of the row permutation).  Pivot row k is
    rows[k] and its pivot rows[k][cols[k]] is the k+1 leading minor on the
    pivot columns.
    """
    cols = []
    sign = 1
    prev = 1
    r = 0
    n_rows = len(rows)
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top = rows[r]
        pv = top[c]
        for i in range(r + 1, n_rows):
            row = rows[i]
            f = row[c]
            rows[i] = row[:c] + [
                (pv * a - f * b) // prev for a, b in zip(row[c:], top[c:])
            ]
        cols.append(c)
        prev = pv
        r += 1
    return cols, sign


def _back_substitute(rows, cols, rhs, n_cols):
    """The solution with free variables zero of the echelon system rows x = rhs.

    rhs holds one value per pivot row.  With D the last pivot, D * x is an
    integer vector (Cramer's rule on the pivot block), so every division
    below is exact.
    """
    sol = [Fraction(0)] * n_cols
    if not cols:
        return sol
    det = rows[len(cols) - 1][cols[-1]]
    y = {}
    for r in range(len(cols) - 1, -1, -1):
        row = rows[r]
        acc = det * rhs[r] - sum(row[c] * y[c] for c in cols[r + 1 :])
        y[cols[r]] = acc // row[cols[r]]
    for c, v in y.items():
        sol[c] = Fraction(v, det)
    return sol


def solve(matrix, rhs):
    """One solution of A x = b over the rationals, or None if inconsistent.

    Free variables are zero, so the solution is supported on the lex-first
    independent columns of A.
    """
    if not matrix:
        return []
    n_cols = len(matrix[0])
    aug = _integer_rows([list(row) + [b] for row, b in zip(matrix, rhs)])
    cols, _ = _echelon(aug, n_cols + 1)
    if cols and cols[-1] == n_cols:
        return None
    return _back_substitute(aug, cols, [row[n_cols] for row in aug], n_cols)


def det(matrix) -> Fraction:
    """Determinant of a square matrix."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    rows = _integer_rows(matrix)
    scale = prod(lcm(*[x.denominator for x in row]) for row in matrix)
    cols, sign = _echelon(rows, n)
    if len(cols) < n:
        return Fraction(0)
    return Fraction(sign * rows[n - 1][n - 1], scale)
