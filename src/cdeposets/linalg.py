"""Exact linear algebra over the integers by fraction-free elimination.

Entries are ints.  One routine, ``_eliminate``, does all the work:
Bareiss's (1968) one-step fraction-free elimination, run column by column.
After k pivots every entry below the pivot rows is a (k+1)-minor of the
matrix, so each update divides exactly by the previous pivot and no
rational arithmetic or gcds are needed.  A column is a pivot when it has a
nonzero entry at or below the next pivot row; the pivot columns are
therefore the lex-first independent columns, whatever the row order.
Solutions come back as (d, y): one integer d and an integer vector y with
d * x = y, so callers check and use them without rational arithmetic.
Matrices are lists of row lists.
"""

from __future__ import annotations


def _eliminate(columns, target):
    """Fraction-free elimination of integer columns, read in order.

    Each new column gets, lazily, the Bareiss steps of the pivots found so
    far: the arithmetic of the row-wise algorithm, except that a run of
    steps whose multiplier is 0 (each a pure rescale) is folded into the
    next step that has a nonzero one.  ``target`` is reduced alongside, and
    reading stops at the first chosen column that puts it in the span of
    the chosen ones; a zero target stops before any column is read.

    Returns (chosen, d, y).  ``chosen`` lists the (index, column) pairs of
    the pivot columns read; d is the last pivot, the determinant of the
    chosen block on the pivot rows (1 if none); y holds the integers with
    d * x = y for the unique x such that the chosen columns times x give
    the target, or is None when it is out of reach.
    """
    t = list(target)
    pivots = []  # (reduced column, pivot), rows in the current order
    chosen = []
    perm = None  # perm[r] is the input row now at row r
    reached = not any(t)
    for i, col in enumerate([] if reached else columns):
        if perm is None:
            perm = list(range(len(col)))
        x = [col[r] for r in perm]
        prev = last = 1  # the divisor of the next applied step; the last pivot
        for j, (f, pv) in enumerate(pivots):
            a = x[j]
            if a:
                if prev != last:
                    x[j] = a * last // prev
                x[j + 1 :] = [(pv * u - g * a) // prev for u, g in zip(x[j + 1 :], f[j + 1 :])]
                prev = pv
            last = pv
        k = len(pivots)
        r = next((r for r in range(k, len(x)) if x[r]), None)
        if r is None:
            continue
        if prev != last:
            x[k:] = [u * last // prev for u in x[k:]]
        if r != k:
            for v in [perm, x, t, *[f for f, _ in pivots]]:
                v[k], v[r] = v[r], v[k]
        pivots.append((x, x[k]))
        chosen.append((i, col))
        a = t[k]
        t[k + 1 :] = [(x[k] * u - g * a) // last for u, g in zip(t[k + 1 :], x[k + 1 :])]
        reached = not any(t[k + 1 :])
        if reached or k + 1 == len(x):
            break
    d = pivots[-1][1] if pivots else 1
    if not reached:
        return chosen, d, None
    # back substitution: d * x is an integer vector (Cramer's rule on the
    # pivot block), so every division is exact
    y = [0] * len(pivots)
    for r in range(len(pivots) - 1, -1, -1):
        acc = d * t[r] - sum([pivots[j][0][r] * y[j] for j in range(r + 1, len(y))])
        y[r] = acc // pivots[r][1]
    return chosen, d, y


def solve(matrix, rhs):
    """(d, y) with x = y / d one solution of A x = b, or None if inconsistent.

    A and b are integer; d is a nonzero integer and y an integer vector.
    Free variables are zero, so the solution is supported on the lex-first
    independent columns of A.  Columns are read only until b lies in their
    span: the solution on that prefix is unique, so the rest stay zero.
    """
    if not matrix:
        return 1, []
    chosen, d, y = _eliminate(zip(*matrix), rhs)
    if y is None:
        return None
    x = [0] * len(matrix[0])
    for (c, _), v in zip(chosen, y):
        x[c] = v
    return d, x
