"""Reference route for barely set-valued tableaux: a backtracker over fillings.

This is the direct formulation the library's split-box counts must agree
with.  One backtracker places the values 1..N+1 one at a time into the
diagram, one box doubled, under the row/column placement rule, and sums a
leaf function over the completed fillings: 1 to count, a recorder to list
them, and the full shifted conditions for the shifted count.  It never
builds a poset or an ideal lattice.  ``count_linear_extensions`` is the
other reference the formula tests use: the maximal chains of J(P) through
its empty ideal.  ``f_aitken`` counts standard skew tableaux by the Aitken
determinant, with its own dense Fraction determinant, so it shares no code
with the library's integer elimination.

Primed-alphabet encoding for the shifted count: value v unprimed is 2v,
primed is 2v+1, matching the total order 1 < 1' < 2 < 2' < ...; a skew box
holds v as v.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from cdeposets.distributions import _maxchain_weights
from cdeposets.ideals import build_lattice
from cdeposets.shapes import Partition, ShiftedShape, SkewShape


def count_linear_extensions(P) -> int:
    """Number of linear extensions: maximal chains of J(P) through the empty ideal."""
    return _maxchain_weights(build_lattice(P))[0]


def dense_det(matrix) -> Fraction:
    """Determinant by Gaussian elimination over Fraction, row swaps signed."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(rows)):
        r = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if r is None:
            return Fraction(0)
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det = -det
        pv = rows[c][c]
        det *= pv
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / pv
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def f_aitken(shape: SkewShape) -> int:
    """Standard tableaux of a skew shape by the factorial determinant
    N! det[1 / (lam_i - i - nu_j + j)!], with 1/m! = 0 for m < 0."""
    lam, nu = shape.outer, shape.inner
    k = lam.length
    size = lam.size - nu.size
    rows = [
        [
            Fraction(0) if m < 0 else Fraction(1, factorial(m))
            for m in [lam.part(i) - i - nu.part(j) + j for j in range(1, k + 1)]
        ]
        for i in range(1, k + 1)
    ]
    result = factorial(size) * dense_det(rows)
    if result.denominator != 1:
        raise ArithmeticError(f"Aitken determinant gave a non-integer count {result}")
    return int(result)


def _sum_over_fillings(boxes, scale: int, offsets, leaf) -> int:
    """Sum of leaf(contents) over every standard barely filling of the boxes.

    The values 1..N+1 are placed in increasing order, one box holding two of
    them.  A box can receive a value iff it has room, its west and north
    neighbors are complete and its east and south neighbors are still empty;
    that reproduces exactly the row-weak/column-strict standardness
    conditions.  Box k holds value v as one of the codes scale*v + o for o
    in offsets[k], and ``contents[k]`` lists the codes placed in box k.
    """
    n = len(boxes)
    index = {box: k for k, box in enumerate(boxes)}
    nbrs = [
        (
            k,
            index.get((i, j - 1)),
            index.get((i - 1, j)),
            index.get((i, j + 1)),
            index.get((i + 1, j)),
            offsets[k],
        )
        for k, (i, j) in enumerate(boxes)
    ]
    contents: list[list[int]] = [[] for _ in range(n)]
    capacity = [1] * n
    last = n + 1

    def rec(v):
        if v > last:
            return leaf(contents)
        total = 0
        for k, w, nn, e, s, offs in nbrs:
            box = contents[k]
            if len(box) >= capacity[k]:
                continue
            if w is not None and len(contents[w]) < capacity[w]:
                continue
            if nn is not None and len(contents[nn]) < capacity[nn]:
                continue
            if e is not None and contents[e]:
                continue
            if s is not None and contents[s]:
                continue
            for o in offs:
                box.append(scale * v + o)
                total += rec(v + 1)
                box.pop()
        return total

    total = 0
    for dbl in range(n):
        capacity[dbl] = 2
        total += rec(1)
        capacity[dbl] = 1
    return total


def barely_count(shape: SkewShape) -> int:
    """Standard barely set-valued tableaux of a skew shape, by enumeration."""
    return _sum_over_fillings(shape.boxes, 1, [(0,)] * shape.n_boxes, lambda contents: 1)


def barely_fillings(shape: SkewShape):
    """All standard barely set-valued fillings: each filling is a tuple (one
    sorted value tuple per box, in the shape's box order), sorted."""
    out = []

    def record(contents):
        out.append(tuple([tuple(c) for c in contents]))
        return 1

    _sum_over_fillings(shape.boxes, 1, [(0,)] * shape.n_boxes, record)
    return sorted(out)


def shifted_barely_count(lam: Partition, diagonally_unprimed: bool = False) -> int:
    """Standard shifted barely set-valued tableaux, by enumeration.

    Entries come from 1 < 1' < 2 < 2' < ...; standard means every value
    1..N+1 is used exactly once (primed or not).  The full shifted
    conditions (weak increase along the box order, unprimed once per
    column, primed once per row) are enforced on each completed filling.
    """
    shape = ShiftedShape(lam)
    boxes = shape.boxes
    index = shape.box_index

    def valid_final(contents):
        # weak increase along covers in the encoded order
        for k, (i, j) in enumerate(boxes):
            hi = max(contents[k])
            e = index.get((i, j + 1))
            if e is not None and hi > min(contents[e]):
                return False
            s = index.get((i + 1, j))
            if s is not None and hi > min(contents[s]):
                return False
        # each unprimed value at most once per column, primed per row
        col_seen = set()
        row_seen = set()
        for k, (i, j) in enumerate(boxes):
            for e in contents[k]:
                if e % 2 == 0:
                    if (j, e) in col_seen:
                        return False
                    col_seen.add((j, e))
                else:
                    if (i, e) in row_seen:
                        return False
                    row_seen.add((i, e))
        return True

    offsets = [
        (0,) if diagonally_unprimed and box in shape.diagonal else (0, 1)
        for box in boxes
    ]
    return _sum_over_fillings(boxes, 2, offsets, valid_final)
