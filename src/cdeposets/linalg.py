"""Exact linear algebra over the integers by fraction-free elimination.

Entries are ints, and both routines use Bareiss's (1968) one-step
fraction-free elimination.  After k pivots every reduced entry is a
(k+1)-minor of the matrix, so each update divides exactly by the previous
pivot and no rational arithmetic or gcds are needed.  In both, a run of
steps whose multiplier is 0 (each a pure rescale) is folded into the next
step that has a nonzero one.  Solutions come back as (d, y): one integer d
and an integer vector y with d * x = y, so callers check and use them
without rational arithmetic.  Matrices are lists of row lists.

* ``solve`` is for symmetric positive semidefinite (PSD) matrices, the
  bordered Gram matrices of the tCDE certificate, the last column the
  target.  It takes diagonal pivots in column order and works left-looking:
  column c is reduced only at the earlier pivot rows, its own diagonal and
  the target row, since by symmetry the entries it needs below the diagonal
  are the pivot rows' entries.  On a PSD matrix a zero reduced diagonal
  means the whole reduced column is zero, so the column depends on the
  earlier ones, and a negative one cannot occur.
* ``_eliminate`` reads sparse integer columns, each as its (row, value)
  pairs, one at a time, pivoting on rows, until the last unit vector lies
  in the span of the pivot columns; that target is implicit, since it is
  reached exactly when the last row pivots.  Elimination is linear in the
  column, so a column's reduced form is the combination, by its pairs, of
  the reduced images of the unit vectors; each image is brought up to date
  only when a column needs it.

Both take the pivot columns to be the lex-first independent columns.
"""

from __future__ import annotations

from operator import add, mul, sub


def _reduce(x, pivots, start):
    """Apply the steps of ``pivots[start:]`` to x, reduced through
    ``pivots[:start]``, in place; x comes back reduced through all of them.

    ``pivots`` holds (reduced column, pivot) pairs, rows in the current
    order.  Entry j < k of the result is x reduced through the first j
    pivots, the multiplier of step j.
    """
    prev = last = pivots[start - 1][1] if start else 1  # the divisor of the next step
    for j in range(start, len(pivots)):
        f, pv = pivots[j]
        a = x[j]
        if a:
            if prev != last:
                x[j] = a * last // prev
            x[j + 1 :] = [(pv * u - g * a) // prev for u, g in zip(x[j + 1 :], f[j + 1 :])]
            prev = pv
        last = pv
    if prev != last:
        k = len(pivots)
        x[k:] = [u * last // prev for u in x[k:]]
    return x


def _eliminate(columns, m):
    """Fraction-free elimination of integer columns with m rows, read in
    order, until the last unit vector e_last lies in their span.

    Each column is the list of its (row, value) pairs, and is reduced as the
    combination of the images of the unit vectors at those rows: the
    arithmetic of the row-wise algorithm, by linearity.  The target e_last
    is implicit.  Rows swap only to bring a pivot up, so the last row stays
    last until it pivots, and e_last is in the span of the chosen columns
    exactly when it does; reduced through the earlier pivots, e_last is
    then the previous pivot times e_k, k the new pivot's row, and reading
    stops there.

    Returns (chosen, d, y).  ``chosen`` lists the (index, column) pairs of
    the pivot columns read; d is the last pivot, the determinant of the
    chosen block on the pivot rows (1 if none); y holds the integers with
    d * x = y for the unique x such that the chosen columns times x give
    e_last, or is None when it is out of reach.
    """
    pivots = []  # (reduced column, pivot), rows in the current order
    chosen = []
    images = [None] * m  # images[r]: e_r reduced through levels[r] pivots, or None
    levels = [0] * m
    where = list(range(m))  # where[r] is the current row of input row r
    for i, col in enumerate(columns):
        k = len(pivots)
        last = pivots[-1][1] if k else 1
        x = [0] * m
        for r, v in col:
            p = where[r]
            if p >= k:
                # off the pivot rows, every step so far only rescales e_r
                x[p] += v * last
                continue
            img = images[r]
            if img is None:
                # the steps before p only rescale e_r; _reduce applies the rest
                img = images[r] = [0] * m
                img[p] = pivots[p - 1][1] if p else 1
                levels[r] = p
            if levels[r] < k:
                _reduce(img, pivots, levels[r])
                levels[r] = k
            if v == 1:
                x = list(map(add, x, img))
            elif v == -1:
                x = list(map(sub, x, img))
            else:
                x = [u + v * b for u, b in zip(x, img)]
        r = next((r for r in range(k, m) if x[r]), None)
        if r is None:
            continue
        chosen.append((i, col))
        if r == m - 1:
            # back substitution against last * e_k: d * x is an integer
            # vector (Cramer's rule on the pivot block), so every division
            # is exact
            pivots.append((x, x[r]))
            y = [0] * k + [last]
            for s in range(k - 1, -1, -1):
                acc = sum([f[s] * u for (f, _), u in zip(pivots[s + 1 :], y[s + 1 :])])
                y[s] = -acc // pivots[s][1]
            return chosen, x[r], y
        if r != k:
            for v in [x, *[f for f, _ in pivots], *filter(None, images)]:
                v[k], v[r] = v[r], v[k]
            a, b = where.index(k), where.index(r)
            where[a], where[b] = r, k
        pivots.append((x, x[k]))
    return chosen, pivots[-1][1] if pivots else 1, None


def solve(matrix):
    """(d, x, r) for a symmetric PSD integer matrix [G b; b^T beta] whose
    last column is the target.

    x / d solves G x = b with free variables zero, so it is supported on the
    lex-first independent columns of G, and r = d beta - b^T x: for the
    bordered Gram of [A | t], r = d ||t - A x / d||^2.  d > 0, and x and r
    are integers.  Reading stops at a pivot that leaves the target's reduced
    diagonal r at 0, since the later columns then get 0.  Non-square,
    non-symmetric or empty input raises ``ValueError``; a negative pivot or
    r, or a zero pivot over a nonzero target entry, which no PSD matrix has,
    ``ArithmeticError``.
    """
    size = len(matrix)
    if not size or any(len(row) != size for row in matrix):
        raise ValueError("solve needs a nonempty square matrix")
    if list(zip(*matrix)) != list(map(tuple, matrix)):
        raise ValueError("solve needs a symmetric matrix")
    r = matrix[-1][-1]  # the target's reduced diagonal
    chosen = []
    rows = []  # rows[m]: pivot row m at the columns of the later pivots
    pivots = []  # pivots[m]: the determinant of the first m + 1 chosen
    tops = []  # tops[m]: the target at pivot row m, reduced through the first m pivots
    for c in range(size - 1):
        col = matrix[c]
        x = [col[s] for s in chosen]
        diag, t = col[c], col[-1]
        prev = last = 1  # the divisor of the next applied step; the last pivot
        for m, pv in enumerate(pivots):
            a = x[m]
            if a:
                if prev != last:
                    x[m] = a * last // prev
                g = x[m]
                x[m + 1 :] = [(pv * u - h * a) // prev for u, h in zip(x[m + 1 :], rows[m])]
                diag = (pv * diag - g * a) // prev
                t = (pv * t - tops[m] * a) // prev
                prev = pv
            last = pv
        if prev != last:
            diag, t = diag * last // prev, t * last // prev
        if diag < 0 or not diag and t:
            raise ArithmeticError("the matrix is not positive semidefinite")
        if not diag:
            continue
        r = (diag * r - t * t) // last
        for row, u in zip(rows, x):
            row.append(u)
        chosen.append(c)
        rows.append([])
        pivots.append(diag)
        tops.append(t)
        if r <= 0:
            break
    if r < 0:
        raise ArithmeticError("the matrix is not positive semidefinite")
    # back substitution on the chosen block, exact by Cramer's rule
    d = pivots[-1] if pivots else 1
    y = [0] * len(chosen)
    for m in range(len(chosen) - 1, -1, -1):
        y[m] = (d * tops[m] - sum(map(mul, rows[m], y[m + 1 :]))) // pivots[m]
    x = [0] * (size - 1)
    for c, v in zip(chosen, y):
        x[c] = v
    return d, x, r
