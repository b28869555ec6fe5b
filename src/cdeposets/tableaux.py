"""Standard tableau counting: hook-length and Thrall formulas, and every
count of a ``count-tableaux`` report, from one J(P) per shape.

`tableau_counts` builds the box poset P of a skew or shifted shape and J(P)
once.  One integer sweep gives w_I, the number of maximal chains of J(P)
through each ideal I.  At the empty ideal that is the standard count f, and
as every chain has N+1 ideals, sum_I w_I = (N+1) f.  So a barely family
(2^k, stat) has 2^k sum_I w_I stat(I) = (N+1) 2^k f E(maxchain; stat)
tableaux, counted in integers.  The split-box route counts them again as
the linear extensions of the posets P_x that split a box x into a 2-chain.
Both are sums over the one J(P) and are equal by a bijection, so the
split-box sweep is a second algorithm for the same sum, not an independent
check; a mismatch raises ArithmeticError.  The independent check is the
backtracker over fillings in ``tests/tableau_oracle.py``.  The hook-length
and Thrall formulas check f.
"""

from __future__ import annotations

from math import factorial

from .distributions import _maxchain_weights
from .ideals import DEFAULT_IDEAL_BUDGET, IdealLattice, build_lattice
from .shapes import Partition, ShiftedShape, SkewShape

# largest shapes that get the split-box counts
SKEW_BOX_BUDGET = 9
SHIFTED_BOX_BUDGET = 6


def hook_lengths(lam: Partition) -> dict[tuple[int, int], int]:
    conj = lam.conjugate()
    return {
        (i, j): lam.part(i) - j + conj.part(j) - i + 1
        for i in range(1, lam.length + 1)
        for j in range(1, lam.part(i) + 1)
    }


def _hook_quotient(hooks, size: int, name: str) -> int:
    """size! over the product of the hooks; an ArithmeticError names the
    product when it does not divide."""
    prod = 1
    for h in hooks:
        prod *= h
    if factorial(size) % prod:
        raise ArithmeticError(f"{name} {prod} does not divide {size}!")
    return factorial(size) // prod


def f_hook(lam: Partition) -> int:
    """Hook-length formula for a straight shape."""
    return _hook_quotient(hook_lengths(lam).values(), lam.size, "hook product")


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
    return _hook_quotient(shifted_hook_lengths(lam).values(), lam.size, "shifted hook product")


# --- barely set-valued counts -------------------------------------------------


def _split_box_count(L: IdealLattice, weight) -> int:
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
    While x is open nothing above x may be added, since x'' carries the
    upper covers of x; so x stays open from I to I + p only if it is still
    maximal there.  Closing x at I moves weight[x] * h[I][x] to b[I].
    """
    index, down = L.index, L.down
    a = [0] * L.n
    b = [0] * L.n
    h = [{} for _ in range(L.n)]
    a[0] = 1
    for i, (mask, rest) in enumerate(zip(L.ideals, L.up)):
        opened = h[i].items()
        b[i] += sum([c * weight[x] for x, c in opened])
        ai, bi = a[i], b[i]
        while rest:
            bit = rest & -rest
            rest ^= bit
            j = index[mask | bit]
            a[j] += ai
            b[j] += bi
            nxt = h[j]
            p = bit.bit_length() - 1
            nxt[p] = nxt.get(p, 0) + ai
            still = down[j]
            for x, c in opened:
                if still >> x & 1:
                    nxt[x] = nxt.get(x, 0) + c
    return b[-1]


def tableau_counts(
    shape: SkewShape | ShiftedShape,
    budget: int = DEFAULT_IDEAL_BUDGET,
) -> dict[str, int]:
    """Standard and barely set-valued tableau counts of a skew or shifted shape.

    The families, as (k, box weight v): a skew shape has (0, 1).  A shifted
    shape takes entries from 1 < 1' < 2 < 2' < ...; standard means every
    value 1..N+1 is used once, so each value may be primed on its own.
    Primed: (N+1, 1).  Diagonally unprimed, where the l diagonal boxes hold
    unprimed values: a filling doubled on the diagonal has N - l free values
    and any other N + 1 - l, so (N - l, 1 on the diagonal and 2 off it).

    ``budget`` bounds the ideals of J(P) (``LatticeBudgetError`` beyond it).
    The split-box counts are left out above ``SKEW_BOX_BUDGET`` boxes for a
    skew shape and ``SHIFTED_BOX_BUDGET`` for a shifted one; where they are
    made, a split-box count that differs from its formula count raises
    ``ArithmeticError``, as does f against the hook-length or Thrall product.
    """
    n = shape.n_boxes
    L = build_lattice(shape.poset(), budget=budget)
    w = _maxchain_weights(L)
    if isinstance(shape, ShiftedShape):
        lam = shape.strict
        product = g_thrall(lam)
        counts = {"standard_unprimed": w[0]}
        unprimed = [1 if box in shape.diagonal else 2 for box in shape.boxes]
        families = [("barely", n + 1, [1] * n), ("barely_diag_unprimed", n - lam.length, unprimed)]
        split = n <= SHIFTED_BOX_BUDGET
    else:
        product = w[0]
        counts = {"standard": w[0]}
        if shape.inner.size == 0:
            product = counts["standard_hook"] = f_hook(shape.outer)
        families = [("barely", 0, [1] * n)]
        split = n <= SKEW_BOX_BUDGET
    if product != w[0]:
        raise ArithmeticError(f"J(P) has {w[0]} maximal chains, the product formula {product}")
    for name, power, weight in families:
        # stat(I) = sum of v over the maximal boxes of I = sum_v v |down_I & B_v|,
        # B_v the boxes of weight v
        boxes = {}
        for x, v in enumerate(weight):
            boxes[v] = boxes.get(v, 0) | 1 << x
        stat = [sum([v * (d & m).bit_count() for v, m in boxes.items()]) for d in L.down]
        formula = counts[f"{name}_formula"] = 2**power * sum([c * s for c, s in zip(w, stat)])
        if split:
            brute = counts[f"{name}_brute_force"] = 2**power * _split_box_count(L, weight)
            if brute != formula:
                raise ArithmeticError(f"split-box count {brute}, the {name} formula {formula}")
    return counts
