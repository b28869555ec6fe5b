"""The distributive lattice J(P) of order ideals, toggles, and down-degrees.

Ideals are bitmask ints over the base poset's elements.  The lattice is
enumerated once, breadth-first from the empty ideal, and indexed in a
canonical order (cardinality, then lexicographic on the member set) so that
every report derived from it is byte-stable.
"""

from __future__ import annotations

from .posets import Poset, _bits

DEFAULT_IDEAL_BUDGET = 1 << 24


class LatticeBudgetError(RuntimeError):
    """J(P) enumeration exceeded the configured ideal-count budget."""


class IdealLattice:
    """Explicit J(P) with Hasse edges, down-degrees, and toggleability tables.

    Attributes:
        base: the underlying poset P.
        ideals: bitmask per ideal, canonical order.
        hasse: list of (i, j, p) with ideal j = ideal i plus element p.
        ddeg: down-degree (= #max(I)) per ideal.
        t_plus / t_minus: per base element p, a 0/1 tuple over ideals.
    """

    __slots__ = (
        "base",
        "ideals",
        "index",
        "hasse",
        "ddeg",
        "t_plus",
        "t_minus",
        "_poset",
    )

    def __init__(self, base, ideals, index, hasse, ddeg, t_plus, t_minus):
        self.base = base
        self.ideals = ideals
        self.index = index
        self.hasse = hasse
        self.ddeg = ddeg
        self.t_plus = t_plus
        self.t_minus = t_minus
        self._poset = None

    @property
    def n(self) -> int:
        return len(self.ideals)

    def edge_count(self) -> int:
        return len(self.hasse)

    def as_poset(self) -> Poset:
        """The lattice itself as a Poset on ideal indices."""
        if self._poset is None:
            self._poset = Poset(self.n, [(i, j) for i, j, _ in self.hasse])
        return self._poset

    def members(self, i: int) -> list[int]:
        return _bits(self.ideals[i])

    def addable(self, mask: int, p: int) -> bool:
        P = self.base
        return not mask >> p & 1 and P.strict_down[p] & ~mask == 0

    def removable(self, mask: int, p: int) -> bool:
        P = self.base
        return bool(mask >> p & 1) and P.strict_up[p] & mask == 0

    def dump(self) -> dict:
        """Debug dump: ideal member lists, edges, ddeg array."""
        return {
            "n_ideals": self.n,
            "ideals": [self.members(i) for i in range(self.n)],
            "edges": [[i, j] for i, j, _ in self.hasse],
            "ddeg": list(self.ddeg),
        }


def build_lattice(P: Poset, budget: int = DEFAULT_IDEAL_BUDGET) -> IdealLattice:
    """Enumerate J(P) breadth-first from the empty ideal."""
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
    return IdealLattice(
        P,
        tuple(ideals),
        index,
        tuple(hasse),
        tuple(ddeg),
        tuple([tuple(col) for col in t_plus]),
        tuple([tuple(col) for col in t_minus]),
    )


def toggle(L: IdealLattice, i: int, p: int) -> int:
    """Index of tau_p applied to ideal i (fixed point when p is stuck)."""
    mask = L.ideals[i]
    if L.addable(mask, p):
        return L.index[mask | 1 << p]
    if L.removable(mask, p):
        return L.index[mask & ~(1 << p)]
    return i


def toggleability(L: IdealLattice, p: int):
    """(T+_p, T-_p) as 0/1 statistics over the ideals."""
    return L.t_plus[p], L.t_minus[p]
