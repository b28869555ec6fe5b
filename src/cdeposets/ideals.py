"""The distributive lattice J(P) of order ideals, toggles, and down-degrees.

Ideals are bitmask ints over the base poset's elements.  The lattice is
enumerated once and indexed in a canonical order (cardinality, then
lexicographic on the member set) so that every report derived from it is
byte-stable.

Each ideal carries two label masks: ``up`` (the addable elements, the
minimal elements of the complement) and ``down`` (the removable elements,
the maximal elements of the ideal).

``build_lattice`` decides the elements depth first, lowest undecided id
first, "in" before "out".  A node holds the undecided elements, the ideal
decided so far, its maximal elements (``top``) and the minimal elements of
the part decided out (``bottom``).  "In" p adds the down-set of p and makes
p maximal, dropping the elements below it from ``top``; "out" p removes the
up-set of p from the undecided ones and makes p minimal among the decided
out, dropping the elements above it from ``bottom``.  No undecided element
lies above a decided-out one or below a decided-in one, so both branches
always lead to ideals, no path dead-ends, and a leaf is one ideal with
``top`` and ``bottom`` as its removable and addable masks.  Elements that a
down- or up-set fixes are never branched on.  The search keeps an explicit
stack of at most n + 1 nodes instead of recursing, so a chain of thousands
of elements stays clear of Python's recursion limit.

If two ideals first differ at element e, e was a branch point on both of
their paths, and the one holding e is reached first: the leaves come out in
descending lexicographic order of characteristic vectors, element 0 most
significant.  For two member lists of equal length the smaller one holds
the lowest element of their symmetric difference, so within one size that
is the canonical order, and appending each leaf to its size's lists gives
the whole order with no sort.  The leaves are counted as they are stored,
and the one beyond the budget raises ``LatticeBudgetError`` before it is
kept, so at most ``budget`` ideals are ever held.

The masks are the only storage of the cover relation of J(P) and of the
toggleability statistics: the Hasse edges out of ideal i add the bits of
``up[i]`` (``edges()`` yields them), T+_p(I) is bit p of ``up[i]`` and
T-_p(I) is bit p of ``down[i]``.  Readers walk or mask those bits directly.
The dict from ideal mask to index is built on its first read; rowmotion and
the tCDE and chain passes never read it.
"""

from __future__ import annotations

from .posets import Poset, _bits

DEFAULT_IDEAL_BUDGET = 1 << 24


class LatticeBudgetError(RuntimeError):
    """J(P) enumeration exceeded the configured ideal-count budget."""


class IdealLattice:
    """Explicit J(P) with down-degrees and label masks, as ``build_lattice``
    makes it: every ideal of P, at most the budget's count, in canonical
    order.

    Attributes:
        base: the underlying poset P.
        ideals: bitmask per ideal, by size and then by member list.
        index: ideal bitmask -> its position in ``ideals``; a dict of |J|
            entries, built on the first read.
        ddeg: down-degree (= #max(I)) per ideal.
        up / down: per ideal, the bitmask of addable / removable elements;
            bit p of them is T+_p(I) / T-_p(I).
    """

    __slots__ = (
        "base",
        "ideals",
        "_index",
        "ddeg",
        "up",
        "down",
    )

    def __init__(self, base, ideals, ddeg, up, down):
        self.base = base
        self.ideals = ideals
        self._index = None
        self.ddeg = ddeg
        self.up = up
        self.down = down

    @property
    def index(self) -> dict[int, int]:
        if self._index is None:
            self._index = {m: i for i, m in enumerate(self.ideals)}
        return self._index

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
    """Enumerate J(P) depth first, "in" before "out" on the lowest
    undecided element, keeping each level's ideals in canonical order."""
    n = P.n
    # by bit length of 1 << p: (undecided elements kept by "out" p, maximal
    # elements kept by "in" p, down-set of p, minimal elements kept by "out" p)
    steps = [None]
    for p, (sd, su) in enumerate(zip(P.strict_down, P.strict_up)):
        steps.append((~(su | 1 << p), ~sd, sd | 1 << p, ~su))
    ideals = [[] for _ in range(n + 1)]
    ups = [[] for _ in range(n + 1)]
    downs = [[] for _ in range(n + 1)]
    count = 0
    stack = [((1 << n) - 1, 0, 0, 0)]
    while stack:
        free, inside, top, bottom = stack.pop()
        while free:
            low = free & -free
            out, keep_top, below, keep_bottom = steps[low.bit_length()]
            stack.append((free & out, inside, top, bottom & keep_bottom | low))
            free &= ~below
            inside |= below
            top = top & keep_top | low
        count += 1
        if count > budget:
            raise LatticeBudgetError(f"J(P) exceeds the ideal budget of {budget}")
        size = inside.bit_count()
        ideals[size].append(inside)
        ups[size].append(bottom)
        downs[size].append(top)
    # each flattening drops its per-size lists before the next one starts
    ideals = tuple([m for level in ideals for m in level])
    ups = tuple([u for level in ups for u in level])
    downs = tuple([d for level in downs for d in level])
    return IdealLattice(P, ideals, tuple([d.bit_count() for d in downs]), ups, downs)
