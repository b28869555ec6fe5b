"""Reference route for J(P): the element-by-element enumeration.

``build_lattice_reference`` is the straightforward formulation the library's
level-by-level enumeration must agree with: a breadth-first search that tries
every element of P on every ideal, a sort keyed on the member lists, and one
pass over every (ideal, element) pair for the Hasse edges, the down-degrees
and the toggleability tables.  ``rank_permuted_by_toggles`` applies a
rank-permuted rowmotion one ``toggle`` call per element.
"""

from __future__ import annotations

from types import SimpleNamespace

from cdeposets.ideals import LatticeBudgetError, toggle
from cdeposets.posets import _bits, rank_info


def build_lattice_reference(P, budget: int):
    seen = {0}
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
    hasse = []
    ddeg = [0] * len(ideals)
    t_plus = [[0] * len(ideals) for _ in range(P.n)]
    t_minus = [[0] * len(ideals) for _ in range(P.n)]
    for i, mask in enumerate(ideals):
        for p in range(P.n):
            if mask >> p & 1:
                if P.strict_up[p] & mask == 0:
                    t_minus[p][i] = 1
                    ddeg[i] += 1
            elif P.strict_down[p] & ~mask == 0:
                t_plus[p][i] = 1
                hasse.append((i, index[mask | 1 << p], p))
    hasse.sort()
    return SimpleNamespace(
        ideals=tuple(ideals),
        index=index,
        hasse=tuple(hasse),
        ddeg=tuple(ddeg),
        t_plus=tuple([tuple(col) for col in t_plus]),
        t_minus=tuple([tuple(col) for col in t_minus]),
    )


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
