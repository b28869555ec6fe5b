"""Standard tableau counting: determinant, hook-length, and Thrall formulas,
and two independent counts of standard barely set-valued tableaux.

The formula route (`count_barely_formula`, `count_shifted_barely_formula`)
multiplies a standard-tableau count by a maxchain expectation on the ideal
lattice of the shape.  The split-box route (`enumerate_barely`,
`enumerate_shifted_barely`) counts fillings directly: doubling box x is the
same as splitting x into a 2-chain, so the tableaux are the linear
extensions of the split posets P_x, and one integer sweep over J(P) counts
them for every x at once.  The two routes share only the lattice, so each
checks the other; the CLI reports the split-box counts under the
``barely_brute_force`` keys, within the same box budgets as before.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import linalg
from .distributions import _hasse_covers, _saturated_chains, expectation, maxchain_dist
from .ideals import build_lattice
from .posets import Poset, _bits
from .shapes import Partition, ShiftedShape, SkewShape

DEFAULT_SKEW_BUDGET = 9
DEFAULT_SHIFTED_BUDGET = 6


class TableauBudgetError(RuntimeError):
    """Split-box count refused: box count above budget."""


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


# --- split-box counts -----------------------------------------------------------


def _split_box_count(P: Poset, weight) -> int:
    """Sum over x of weight[x] * e(P_x), where P_x splits x into a 2-chain.

    P_x replaces x by x' < x'', with x' keeping the lower covers of x and x''
    the upper ones.  A linear extension of P_x is a saturated chain of J(P)
    along which x stays open for a while: x' has been added, x'' not yet.
    One sweep over J(P) in canonical order (by cardinality, so every edge
    into an ideal is read before the edges out of it) carries, per ideal I,
    the chains from the empty ideal that reach I
      a[I]     with no box open yet,
      h[I][x]  with box x open (x is then maximal in I),
      b[I]     with the doubled box already closed.
    While x is open no p above x may be added, since x'' carries the upper
    covers of x; for x maximal in I, x < p means x is a lower cover of p.
    Closing x at I moves weight[x] * h[I][x] to b[I].
    """
    L = build_lattice(P)
    a = [0] * L.n
    b = [0] * L.n
    h = [{} for _ in range(L.n)]
    a[0] = 1
    for i, mask in enumerate(L.ideals):
        opened = h[i]
        b[i] += sum([c * weight[x] for x, c in opened.items()])
        for p in _bits(L.up[i]):
            j = L.index[mask | 1 << p]
            a[j] += a[i]
            b[j] += b[i]
            nxt = h[j]
            nxt[p] = nxt.get(p, 0) + a[i]
            below = P.strict_down[p]
            for x, c in opened.items():
                if not below >> x & 1:
                    nxt[x] = nxt.get(x, 0) + c
    return b[-1]


def enumerate_barely(shape: SkewShape, budget: int = DEFAULT_SKEW_BUDGET) -> int:
    """Standard barely set-valued tableaux, counted through the split posets:
    the tableaux whose box x holds two values are the linear extensions of
    P_x."""
    n = shape.n_boxes
    if n > budget:
        raise TableauBudgetError(f"{n} boxes exceeds the split-box budget {budget}")
    return _split_box_count(shape.poset(), [1] * n)


def enumerate_shifted_barely(
    lam: Partition,
    diagonally_unprimed: bool = False,
    budget: int = DEFAULT_SHIFTED_BUDGET,
) -> int:
    """Standard shifted barely set-valued tableaux, through the split posets.

    Entries come from 1 < 1' < 2 < 2' < ...; standard means every value
    1..N+1 is used exactly once, so each value may be primed on its own and
    the row/column conditions on primes hold by themselves.  The primed
    count is 2^{N+1} sum_x e(P_x).  When the l diagonal boxes must hold
    unprimed values, a filling doubled on the diagonal has N - l free
    values and any other N + 1 - l: 2^{N-l} sum_x w(x) e(P_x) with w = 1
    on the diagonal and 2 off it.
    """
    if not lam.is_strict:
        raise ValueError(f"{lam} is not strict")
    n = lam.size
    if n > budget:
        raise TableauBudgetError(f"{n} boxes exceeds the split-box budget {budget}")
    shape = ShiftedShape(lam)
    if not diagonally_unprimed:
        return 2 ** (n + 1) * _split_box_count(shape.poset(), [1] * n)
    weight = [1 if box in shape.diagonal else 2 for box in shape.boxes]
    return 2 ** (n - lam.length) * _split_box_count(shape.poset(), weight)


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
