"""Standard tableau counting: determinant, hook-length, and Thrall formulas,
plus brute-force enumerators for standard barely set-valued tableaux.

The enumerators are deliberately independent of the counting formulas, so
they can serve as oracles for the formula route, which instead multiplies a
standard-tableau count by a maxchain expectation on the corresponding ideal
lattice.  All three (`enumerate_barely`, `barely_fillings` and
`enumerate_shifted_barely`) run one backtracker, which places the values
1..N+1 one at a time into the diagram (one box doubled) under the
row/column placement rule and sums a leaf function over the completed
fillings: 1 to count, a recorder to list them, and the full shifted
conditions for the shifted count.

Primed-alphabet encoding for the shifted enumerator: value v unprimed is 2v,
primed is 2v+1, matching the total order 1 < 1' < 2 < 2' < ...; a skew box
holds v as v.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import linalg
from .distributions import _hasse_covers, _saturated_chains, expectation, maxchain_dist
from .ideals import build_lattice
from .posets import Poset
from .shapes import Partition, ShiftedShape, SkewShape

DEFAULT_SKEW_BUDGET = 9
DEFAULT_SHIFTED_BUDGET = 6


class TableauBudgetError(RuntimeError):
    """Brute-force enumeration refused: box count above budget."""


def count_linear_extensions(P: Poset) -> int:
    """Number of linear extensions, as maximal chains of J(P)."""
    L = build_lattice(P)
    # canonical order is by cardinality, so topological
    return _saturated_chains(range(L.n), _hasse_covers(L)[0])[-1]


def f_aitken(shape: SkewShape) -> int:
    """Standard tableaux of a skew shape by the factorial determinant."""
    lam, nu = shape.outer, shape.inner
    k = lam.length
    if k == 0:
        return 1
    size = lam.size - nu.size
    rows = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            m = lam.part(i) - i - nu.part(j) + j
            row.append(Fraction(0) if m < 0 else Fraction(1, factorial(m)))
        rows.append(row)
    result = factorial(size) * linalg.det(rows)
    if result.denominator != 1:
        raise ArithmeticError(f"Aitken determinant gave a non-integer count {result}")
    return int(result)


def hook_lengths(lam: Partition) -> dict[tuple[int, int], int]:
    conj = lam.conjugate()
    return {
        (i, j): lam.part(i) - j + conj.part(j) - i + 1
        for i in range(1, lam.length + 1)
        for j in range(1, lam.part(i) + 1)
    }


def f_hook(lam: Partition) -> int:
    """Hook-length formula for a straight shape."""
    prod = 1
    for h in hook_lengths(lam).values():
        prod *= h
    if factorial(lam.size) % prod:
        raise ArithmeticError(f"hook product {prod} does not divide {lam.size}!")
    return factorial(lam.size) // prod


def shifted_hook_lengths(lam: Partition) -> dict[tuple[int, int], int]:
    """Size of the shifted hook of each box: the box, the rest of its row,
    the rest of its column, and all of row j+1."""
    shape = ShiftedShape(lam)
    out = {}
    for i, j in shape.boxes:
        arm = sum(1 for jj in range(j + 1, i + lam.part(i)) if (i, jj) in shape)
        leg = sum(1 for ii in range(i + 1, lam.length + 1) if (ii, j) in shape)
        broken = lam.part(j + 1)
        out[(i, j)] = 1 + arm + leg + broken
    return out


def g_thrall(lam: Partition) -> int:
    """Unprimed standard shifted tableaux of a strict shape."""
    if not lam.is_strict:
        raise ValueError(f"{lam} is not strict")
    prod = 1
    for h in shifted_hook_lengths(lam).values():
        prod *= h
    if factorial(lam.size) % prod:
        raise ArithmeticError(f"shifted hook product {prod} does not divide {lam.size}!")
    return factorial(lam.size) // prod


# --- brute-force enumerators ----------------------------------------------------


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


def enumerate_barely(shape: SkewShape, budget: int = DEFAULT_SKEW_BUDGET) -> int:
    """Brute-force count of standard barely set-valued tableaux."""
    n = shape.n_boxes
    if n > budget:
        raise TableauBudgetError(f"{n} boxes exceeds the brute-force budget {budget}")
    return _sum_over_fillings(shape.boxes, 1, [(0,)] * n, lambda contents: 1)


def barely_fillings(shape: SkewShape, budget: int = 5):
    """All standard barely set-valued fillings of a tiny shape, for golden
    tests: each filling is a tuple (one sorted value tuple per box, in the
    shape's box order)."""
    n = shape.n_boxes
    if n > budget:
        raise TableauBudgetError(f"{n} boxes exceeds the emission budget {budget}")
    out = []

    def record(contents):
        out.append(tuple([tuple(c) for c in contents]))
        return 1

    _sum_over_fillings(shape.boxes, 1, [(0,)] * n, record)
    return sorted(out)


def enumerate_shifted_barely(
    lam: Partition,
    diagonally_unprimed: bool = False,
    budget: int = DEFAULT_SHIFTED_BUDGET,
) -> int:
    """Brute-force count of standard shifted barely set-valued tableaux.

    Entries come from 1 < 1' < 2 < 2' < ...; standard means every value
    1..N+1 is used exactly once (primed or not).  The full shifted
    conditions (weak increase along the box order, unprimed once per
    column, primed once per row) are enforced on each completed filling.
    """
    if not lam.is_strict:
        raise ValueError(f"{lam} is not strict")
    n = lam.size
    if n > budget:
        raise TableauBudgetError(f"{n} boxes exceeds the brute-force budget {budget}")
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


def count_barely_formula(shape: SkewShape, budget: int | None = None) -> int:
    """(N+1) * f^{lambda/nu} * E(maxchain; ddeg) on the interval [nu, lambda]."""
    kwargs = {} if budget is None else {"budget": budget}
    L = build_lattice(shape.poset(), **kwargs)
    exp = expectation(maxchain_dist(L), L.ddeg)
    value = (shape.n_boxes + 1) * f_aitken(shape) * exp
    if value.denominator != 1:
        raise ArithmeticError(f"barely count is not an integer: {value}")
    return int(value)


def count_shifted_barely_formula(
    lam: Partition, diagonally_unprimed: bool = False, budget: int | None = None
) -> int:
    """Shifted barely counts from g^lambda and a maxchain expectation.

    Primed variant: (N+1) 2^{N+1} g E(maxchain; ddeg).  Diagonally unprimed:
    (N+1) 2^{N-l} g E(maxchain; 2 ddeg - sum_i T-_{[i,i]}).
    """
    shape = ShiftedShape(lam)
    kwargs = {} if budget is None else {"budget": budget}
    L = build_lattice(shape.poset(), **kwargs)
    mu = maxchain_dist(L)
    n = lam.size
    if not diagonally_unprimed:
        value = (n + 1) * 2 ** (n + 1) * g_thrall(lam) * expectation(mu, L.ddeg)
    else:
        diag = sum([1 << shape.box_index[(i, i)] for i in range(1, lam.length + 1)])
        stat = [2 * dd - (d & diag).bit_count() for dd, d in zip(L.ddeg, L.down)]
        value = (
            (n + 1)
            * 2 ** (n - lam.length)
            * g_thrall(lam)
            * expectation(mu, stat)
        )
    if value.denominator != 1:
        raise ArithmeticError(f"shifted barely count is not an integer: {value}")
    return int(value)
