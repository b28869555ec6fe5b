"""Reference route for J(P): the element-by-element enumeration.

``build_lattice_reference`` is the straightforward formulation the library's
level-by-level enumeration must agree with: a breadth-first search that tries
every element of P on every ideal, a sort keyed on the member lists, and one
pass over every (ideal, element) pair for the Hasse edges, the down-degrees
and the toggleability tables (``toggle_tables``, which the other test
oracles read as well).  ``rank_permuted_by_toggles`` applies a rank-permuted
rowmotion one ``toggle`` call per element, and
``rowmotion_via_linear_extension`` applies rowmotion as the toggle word of a
linear extension.
"""

from __future__ import annotations

from types import SimpleNamespace

from cdeposets.dynamics import apply_toggle_word
from cdeposets.ideals import LatticeBudgetError, toggle
from cdeposets.posets import _bits, rank_info


def build_lattice_reference(P, budget: int):
    seen = {0}
    if len(seen) > budget:
        raise LatticeBudgetError(f"J(P) exceeds the ideal budget of {budget}")
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            for p in range(P.n):
                if not mask >> p & 1 and P.strict_down[p] & ~mask == 0:
                    new = mask | 1 << p
                    if new not in seen:
                        seen.add(new)
                        if len(seen) > budget:
                            raise LatticeBudgetError(
                                f"J(P) exceeds the ideal budget of {budget}"
                            )
                        nxt.append(new)
        frontier = nxt
    ideals = sorted(seen, key=lambda m: (m.bit_count(), _bits(m)))
    index = {m: i for i, m in enumerate(ideals)}
    t_plus, t_minus = toggle_tables(P, ideals)
    hasse = sorted(
        (i, index[mask | 1 << p], p)
        for p in range(P.n)
        for i, mask in enumerate(ideals)
        if t_plus[p][i]
    )
    ddeg = [sum(col[i] for col in t_minus) for i in range(len(ideals))]
    return SimpleNamespace(
        ideals=tuple(ideals),
        index=index,
        hasse=tuple(hasse),
        ddeg=tuple(ddeg),
        t_plus=t_plus,
        t_minus=t_minus,
    )


def toggle_tables(P, ideals):
    """(t_plus, t_minus): per element p, the 0/1 tuple over the given ideal
    masks of "p is addable" / "p is removable", tested element by element
    against the strict down- and up-sets of P."""
    t_plus = []
    t_minus = []
    for p in range(P.n):
        t_plus.append(
            tuple(
                [
                    int(not mask >> p & 1 and P.strict_down[p] & ~mask == 0)
                    for mask in ideals
                ]
            )
        )
        t_minus.append(
            tuple([int(mask >> p & 1 and P.strict_up[p] & mask == 0) for mask in ideals])
        )
    return tuple(t_plus), tuple(t_minus)


def rank_permuted_by_toggles(L, sigma):
    """tau_{sigma(0)} o ... o tau_{sigma(r)}, each rank toggled element by
    element with ``toggle``."""
    info = rank_info(L.base)
    out = []
    for i in range(L.n):
        for r in reversed(sigma):
            for p in range(L.base.n):
                if info.rank[p] == r:
                    i = toggle(L, i, p)
        out.append(i)
    return out


def rowmotion_via_linear_extension(L, extension):
    """Rowmotion as the toggle word of a linear extension of the base poset."""
    return [apply_toggle_word(L, extension, i) for i in range(L.n)]
