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

The removable set of I + p is that of I minus the elements below p, plus
p: an element of I below p that is maximal in I is covered by p, since
everything below p lies in I.  Every nonempty ideal J has one canonical
parent, J minus its highest removable element, and the child I + p is made
only from that parent: when the removable set of I minus the elements below
p has no bit above p.  So each ideal is reached exactly once, with its
``up`` and ``down`` masks, and no table of the ideals seen so far is kept;
the ideal budget is checked as each child is stored.  If h is the highest
removable element of I, that rule holds only for a p with a higher bit than
h or with h below p, so the other addable elements are not tried at all.

Within one level every ideal has the same size, and for two member lists of
equal length the lexicographically smaller one holds the lowest element of
their symmetric difference.  Each ideal of a level travels with its mask
bit-reversed over the n elements (bit p moved to bit n - 1 - p), so that
element is the highest bit of the reversed difference: sorting the level's
(reversed mask, mask, up, down) tuples in descending order gives the
canonical order with no sort key.

The masks are the only storage of the cover relation of J(P) and of the
toggleability statistics: the Hasse edges out of ideal i add the bits of
``up[i]`` (``edges()`` yields them), T+_p(I) is bit p of ``up[i]`` and
T-_p(I) is bit p of ``down[i]``.  Readers walk or mask those bits directly.
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
    )

    def __init__(self, base, ideals, index, ddeg, up, down):
        self.base = base
        self.ideals = ideals
        self.index = index
        self.ddeg = ddeg
        self.up = up
        self.down = down

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
        """The lattice itself as a Poset on ideal indices, built on each call."""
        return Poset(self.n, [(i, j) for i, j, _ in self.edges()])

    def members(self, i: int) -> list[int]:
        return _bits(self.ideals[i])


def build_lattice(P: Poset, budget: int = DEFAULT_IDEAL_BUDGET) -> IdealLattice:
    """Enumerate J(P) level by level from the empty ideal, reaching each
    ideal from its canonical parent only."""
    if budget < 1:
        raise LatticeBudgetError(f"J(P) exceeds the ideal budget of {budget}")
    n = P.n
    sd = P.strict_down
    # bit of p -> (bit of p in the reversed mask, strict down-set of p,
    # (bit, strict down-set) of each upper cover of p)
    grow = {
        1 << p: (1 << n - 1 - p, sd[p], [(1 << q, sd[q]) for q in P.up_covers[p]])
        for p in range(n)
    }
    # room[h + 1], for h the highest removable element of I (room[0] when I
    # is empty): the elements p that can be the highest removable element of
    # I + p, those with a higher bit than h and those above h in P
    room = [-1] + [-1 << h + 1 | P.strict_up[h] for h in range(n)]
    ideals, ups, downs = [], [], []
    size = 1
    level = [(0, 0, sum([1 << p for p in range(n) if not sd[p]]), 0)]
    while level:
        level.sort(reverse=True)
        nxt = []
        for rev, mask, addable, removable in level:
            ideals.append(mask)
            ups.append(addable)
            downs.append(removable)
            rest = addable & room[removable.bit_length()]
            while rest:
                low = rest & -rest
                rest ^= low
                rlow, below, covers = grow[low]
                kept = removable & ~below
                if kept > low:  # p is not the highest removable element of I + p
                    continue
                size += 1
                if size > budget:
                    raise LatticeBudgetError(f"J(P) exceeds the ideal budget of {budget}")
                child = mask | low
                child_up = addable ^ low
                for bit, down_set in covers:
                    if down_set & ~child == 0:
                        child_up |= bit
                nxt.append((rev | rlow, child, child_up, kept | low))
        level = nxt
    return IdealLattice(
        P,
        tuple(ideals),
        {m: i for i, m in enumerate(ideals)},
        tuple([d.bit_count() for d in downs]),
        tuple(ups),
        tuple(downs),
    )
