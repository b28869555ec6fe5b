"""Reference route for tCDE certificates and witnesses: dense Fraction solves.

This is the straightforward formulation the library's Gram route must agree
with bit for bit.  ``certify_tcde_dense`` row-reduces the |J| x (n+1) system
[1 | T_p] (c, kappa) = ddeg, one row per ideal; ``find_witness_dense``
row-reduces the (n+2) x |J| system [1; T_p; ddeg] v = e_last, one column per
ideal.  Both use Gauss-Jordan elimination over Fraction with the first
nonzero entry of each column as pivot and free variables set to zero, so the
solution is supported on the lex-first independent columns.  The T_p rows
and columns come from ``lattice_oracle.toggle_tables``, not from the
lattice's label masks.  ``transpose_bits`` is the per-bit reference for
the library's strided-string bit transpose, and ``eliminate_by_columns`` the
column-by-column reference, on dense columns with any target, for the
library's unit-image elimination of sparse columns towards e_last;
``sparse`` and ``densify`` convert between the two column forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from cdeposets import Distribution, expectation
from cdeposets.cde import TcdeCertificate, TcdeWitness
from cdeposets.posets import _bits

from lattice_oracle import toggle_tables


def transpose_bits(masks, width):
    """Bit k of the i-th mask as bit i of the k-th int, for k < width: one
    bytearray numeral per bit, filled from each mask's set bits."""
    top = len(masks) - 1
    rows = [bytearray(b"0") * (top + 1) for _ in range(width)]
    for i, m in enumerate(masks):
        for k in _bits(m):
            rows[k][top - i] = 49  # ord("1")
    return [int(r, 2) for r in rows]


def sparse(columns):
    """Each dense column as the (row, value) pairs of its nonzero entries,
    the form ``linalg._eliminate`` reads."""
    return [[(r, v) for r, v in enumerate(col) if v] for col in columns]


def densify(col, m):
    """A column of (row, value) pairs, each row at most once, as m entries."""
    rows = [r for r, _ in col]
    assert len(set(rows)) == len(rows), col
    out = [0] * m
    for r, v in col:
        out[r] = v
    return out


def eliminate_by_columns(columns, target):
    """``linalg._eliminate`` the slow way: every column read gets the Bareiss
    steps of all the pivots found so far, one full-column step each, except
    that a run of steps whose multiplier is 0 is folded into the next one.

    Returns the same (chosen, d, y): the (index, column) pairs of the pivot
    columns read, the last pivot (1 if none), and y with d * x = y for the
    x that puts the target in the span of the chosen columns, or None.
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
    y = [0] * len(pivots)
    for r in range(len(pivots) - 1, -1, -1):
        acc = d * t[r] - sum([pivots[j][0][r] * y[j] for j in range(r + 1, len(y))])
        y[r] = acc // pivots[r][1]
    return chosen, d, y


def _echelon(rows):
    """Row-reduce in place; returns list of (row_index, pivot_col)."""
    pivots = []
    r = 0
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == n_rows:
            break
    return pivots


def dense_solve(matrix, rhs):
    """One solution of A x = b over the rationals, or None if inconsistent."""
    if not matrix:
        return []
    n_cols = len(matrix[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    pivots = _echelon(aug)
    if any(c == n_cols for _, c in pivots):
        return None
    sol = [Fraction(0)] * n_cols
    for r, c in pivots:
        sol[c] = aug[r][n_cols]
    return sol


def dense_nullspace(matrix):
    """Basis of the right nullspace, one vector per free column f: 1 at f,
    zero at the other free columns."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = _echelon(rows)
    pivot_cols = [c for _, c in pivots]
    basis = []
    for f in range(len(matrix[0])):
        if f not in pivot_cols:
            v = [Fraction(0)] * len(matrix[0])
            v[f] = Fraction(1)
            for r, c in pivots:
                v[c] = -rows[r][f]
            basis.append(v)
    return basis


def _signed_tables(L):
    """T_p = T+_p - T-_p per element, from the element-by-element tables."""
    t_plus, t_minus = toggle_tables(L.base, L.ideals)
    return [[a - b for a, b in zip(tp, tm)] for tp, tm in zip(t_plus, t_minus)]


def _dense_columns(L):
    """The columns of [1; T_p; ddeg], one per ideal, and e_last."""
    rows = [[1] * L.n, *_signed_tables(L), list(L.ddeg)]
    return list(zip(*rows)), [0] * (len(rows) - 1) + [1]


def _tall_columns(L, empty_full_constraint):
    """The columns of the |J|-row system: 1, each T_p, and with the
    constraint [I = empty] - [I = full], a single ideal counting as full."""
    cols = [[1] * L.n, *_signed_tables(L)]
    if empty_full_constraint:
        ends = [int(m == 0) for m in L.ideals]
        if L.ideals[-1] == (1 << L.base.n) - 1:
            ends[-1] = -1
        cols.append(ends)
    return cols


def dense_gram(L, empty_full_constraint=False):
    """(A^T A, A^T ddeg) for the columns of ``_tall_columns``, every entry a
    full inner product over the ideals."""
    cols = _tall_columns(L, empty_full_constraint)
    gram = [[sum(map(mul, u, v)) for v in cols] for u in cols]
    return gram, [sum(map(mul, u, L.ddeg)) for u in cols]


def certify_tcde_dense(L, empty_full_constraint=False):
    nP = L.base.n
    matrix = [list(row) for row in zip(*_tall_columns(L, empty_full_constraint))]
    sol = dense_solve(matrix, L.ddeg)
    if sol is None:
        return None
    empty_full = sol[-1] if empty_full_constraint else Fraction(0)
    return TcdeCertificate(sol[0], tuple(sol[1 : nP + 1]), empty_full)


def find_witness_dense(L):
    rows = [[1] * L.n, *_signed_tables(L), list(L.ddeg)]
    v = dense_solve(rows, [0] * (len(rows) - 1) + [1])
    if v is None:
        return None
    base = Fraction(1, L.n)
    eps = min(base / -x for x in v if x < 0)
    mu = Distribution([base + (eps / 2) * x for x in v])
    den = lcm(*[w.denominator for w in mu])
    ints = tuple([w.numerator * (den // w.denominator) for w in mu])
    return TcdeWitness(ints, den, expectation(mu, L.ddeg))
