"""The distributive lattice J(P) of order ideals, toggles, and down-degrees.

Ideals are bitmask ints over the base poset's elements.  The lattice is
enumerated once, one cardinality level at a time from the empty ideal, and
indexed in a canonical order (cardinality, then lexicographic on the member
set) so that every report derived from it is byte-stable.

Each ideal carries two label masks: ``up`` (the addable elements, the
minimal elements of the complement) and ``down`` (the removable elements,
the maximal elements of the ideal).  The child I + p of I has the addable
set of I minus p, plus those upper covers q of p whose strict down-set now
lies inside I + p: any q that becomes addable sits above p with nothing in
between, since p was not in I.  So the enumeration costs O(#Hasse edges *
cover degree), not O(|P| * |J|).

Within one level every ideal has the same size, and for two member lists of
equal length the lexicographically smaller one holds the lowest element of
their symmetric difference.  Reading the binary string of a mask from bit 0
upward, that list has a '1' where the other has a '0', so sorting the level
by the reversed binary strings in descending order gives the canonical
order without building a member list per ideal.

The removable set of I + p is that of I minus the elements below p, plus
p: an element of I below p that is maximal in I is covered by p, since
everything below p lies in I.  So each ideal's ``down`` mask is set once,
when the ideal is first reached.

The masks are the only storage of the cover relation of J(P) and of the
toggleability statistics: the Hasse edges out of ideal i add the bits of
``up[i]`` (``edges()`` yields them), T+_p(I) is bit p of ``up[i]`` and
T-_p(I) is bit p of ``down[i]``.  Readers walk or mask those bits directly;
``toggleability`` unpacks one column on request.
"""

from __future__ import annotations

from .posets import Poset, _bits

DEFAULT_IDEAL_BUDGET = 1 << 24


class LatticeBudgetError(RuntimeError):
    """J(P) enumeration exceeded the configured ideal-count budget."""


class IdealLattice:
    """Explicit J(P) with down-degrees and label masks.

    Attributes:
        base: the underlying poset P.
        ideals: bitmask per ideal, canonical order.
        index: ideal bitmask -> its position in ``ideals``.
        ddeg: down-degree (= #max(I)) per ideal.
        up / down: per ideal, the bitmask of addable / removable elements;
            bit p of them is T+_p(I) / T-_p(I).
    """

    __slots__ = (
        "base",
        "ideals",
        "index",
        "ddeg",
        "up",
        "down",
        "_poset",
    )

    def __init__(self, base, ideals, index, ddeg, up, down):
        self.base = base
        self.ideals = ideals
        self.index = index
        self.ddeg = ddeg
        self.up = up
        self.down = down
        self._poset = None

    @property
    def n(self) -> int:
        return len(self.ideals)

    def edge_count(self) -> int:
        return sum(self.ddeg)

    def edges(self):
        """Yield the Hasse edges (i, j, p), ideal j = ideal i plus element p,
        by i and then by p (which also sorts j)."""
        index = self.index
        for i, mask in enumerate(self.ideals):
            rest = self.up[i]
            while rest:
                low = rest & -rest
                rest ^= low
                yield i, index[mask | low], low.bit_length() - 1

    def as_poset(self) -> Poset:
        """The lattice itself as a Poset on ideal indices."""
        if self._poset is None:
            self._poset = Poset(self.n, [(i, j) for i, j, _ in self.edges()])
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
            "edges": [[i, j] for i, j, _ in self.edges()],
            "ddeg": list(self.ddeg),
        }


def build_lattice(P: Poset, budget: int = DEFAULT_IDEAL_BUDGET) -> IdealLattice:
    """Enumerate J(P) level by level from the empty ideal."""
    if budget < 1:
        raise LatticeBudgetError(f"J(P) exceeds the ideal budget of {budget}")
    up_of = {0: sum([1 << p for p in range(P.n) if not P.strict_down[p]])}
    down_of = {0: 0}
    ideals = []
    level = [0]
    while level:
        level.sort(key=lambda m: bin(m)[:1:-1], reverse=True)
        ideals += level
        nxt = []
        for mask in level:
            addable = up_of[mask]
            removable = down_of[mask]
            rest = addable
            while rest:
                low = rest & -rest
                rest ^= low
                child = mask | low
                if child in up_of:
                    continue
                p = low.bit_length() - 1
                child_up = addable ^ low
                for q in P.up_covers[p]:
                    if P.strict_down[q] & ~child == 0:
                        child_up |= 1 << q
                up_of[child] = child_up
                down_of[child] = removable & ~P.strict_down[p] | low
                if len(up_of) > budget:
                    raise LatticeBudgetError(f"J(P) exceeds the ideal budget of {budget}")
                nxt.append(child)
        level = nxt
    down = tuple([down_of[m] for m in ideals])
    return IdealLattice(
        P,
        tuple(ideals),
        {m: i for i, m in enumerate(ideals)},
        tuple([d.bit_count() for d in down]),
        tuple([up_of[m] for m in ideals]),
        down,
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
    """(T+_p, T-_p) as 0/1 statistics over the ideals, read off the masks."""
    return (
        tuple([u >> p & 1 for u in L.up]),
        tuple([d >> p & 1 for d in L.down]),
    )
