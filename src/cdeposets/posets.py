"""Finite posets: construction, validation, combination, ranks and chains.

Elements are always the integers 0..n-1.  ``Poset(n, relations)`` is the
one constructor: it checks the ids, rejects a cycle with ``CycleError``, and
closes and reduces arbitrary order relations to the cover relation (Hasse
digraph) in one topological pass, so sloppy input is fine.  Order
comparisons are kept as bitmask ints (bit q of ``strict_up[p]`` means p < q),
which keeps everything exact and reasonably fast for the lattice sizes this
library targets (a few thousand elements at most).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence



class PosetError(ValueError):
    """Invalid poset input."""


class CycleError(PosetError):
    """Input relations contain a cycle; ``cycle`` lists the offending ids."""

    def __init__(self, cycle: Sequence[int]):
        self.cycle = list(cycle)
        super().__init__(f"relations contain a cycle: {self.cycle}")


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative mask, ascending."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


class Poset:
    """Immutable finite poset, built from any acyclic order relations.

    The relations are closed and reduced to covers in one topological pass:
    q covers p iff q is a direct successor of p that lies above no other
    successor of p (Aho, Garey and Ullman, SIAM J. Comput. 1972).  A cyclic
    relation raises ``CycleError`` with the cycle found.

    Attributes:
        n: number of elements (ids 0..n-1).
        covers: sorted tuple of pairs (p, q) with p covered by q.
        labels: optional per-element display names.
    """

    __slots__ = (
        "n",
        "covers",
        "labels",
        "up_covers",
        "down_covers",
        "strict_up",
        "strict_down",
    )

    def __init__(self, n: int, relations: Iterable[tuple[int, int]], labels=None):
        try:
            n = operator.index(n)
        except TypeError:
            raise PosetError(f"a poset has an integer number of elements, got n={n!r}") from None
        if n < 0:
            raise PosetError(f"a poset has n >= 0 elements, got n={n}")
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n:
            raise PosetError("labels must have one entry per element")
        succ = [set() for _ in range(n)]
        for p, q in relations:
            try:
                p, q = operator.index(p), operator.index(q)
            except TypeError:
                raise PosetError(f"relation ids must be integers, got ({p!r},{q!r})") from None
            if not (0 <= p < n and 0 <= q < n):
                raise PosetError(f"relation ({p},{q}) references an id >= n={n}")
            if p == q:
                raise CycleError([p, p])
            succ[p].add(q)
        order = _topological_order(n, succ)
        if len(order) < n:
            raise CycleError(_cycle(n, succ, order))
        up = [()] * n
        strict_up = [0] * n
        for p in reversed(order):
            implied = 0
            for q in succ[p]:
                implied |= strict_up[q]
            up[p] = tuple(sorted([q for q in succ[p] if not implied >> q & 1]))
            for q in up[p]:
                implied |= 1 << q
            strict_up[p] = implied
        down = [[] for _ in range(n)]
        for p in range(n):
            for q in up[p]:
                down[q].append(p)
        strict_down = [0] * n
        for q in order:
            below = 0
            for p in down[q]:
                below |= 1 << p | strict_down[p]
            strict_down[q] = below
        self.n = n
        self.covers = tuple([(p, q) for p in range(n) for q in up[p]])
        self.up_covers = tuple(up)
        self.down_covers = tuple([tuple(d) for d in down])
        self.strict_up = tuple(strict_up)
        self.strict_down = tuple(strict_down)

    # --- order queries ------------------------------------------------

    def less(self, p: int, q: int) -> bool:
        return bool(self.strict_up[p] >> q & 1)

    def ddeg(self, p: int) -> int:
        return len(self.down_covers[p])

    def edge_count(self) -> int:
        return len(self.covers)

    def topological_order(self) -> list[int]:
        return _topological_order(self.n, self.up_covers)

    def __repr__(self):
        return f"Poset(n={self.n}, covers={list(self.covers)})"

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and self.covers == other.covers
        )

    def __hash__(self):
        return hash((self.n, self.covers))

    def to_dict(self) -> dict:
        d = {"n": self.n, "relations": [list(c) for c in self.covers]}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d


def _topological_order(n: int, succ: Sequence[Iterable[int]]) -> list[int]:
    """Kahn's algorithm; it leaves out every element on or reachable from a cycle."""
    indeg = [0] * n
    for p in range(n):
        for q in succ[p]:
            indeg[q] += 1
    stack = [p for p in range(n) if indeg[p] == 0]
    order = []
    while stack:
        x = stack.pop()
        order.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                stack.append(y)
    return order


def _cycle(n: int, succ: Sequence[Iterable[int]], order: list[int]) -> list[int]:
    """A cycle [x, ..., x] among the elements that ``order`` left out.

    Each of them keeps a left-out predecessor, so walking back from one of
    them revisits an element; the walk from there, reversed, is the cycle.
    """
    left = set(range(n)).difference(order)
    pred = {q: p for p in left for q in succ[p]}
    x, seen = min(left), {}
    while x not in seen:
        seen[x] = len(seen)
        x = pred[x]
    return [x, *reversed(list(seen)[seen[x] :])]


def dual(P: Poset) -> Poset:
    """The dual poset: all covers reversed."""
    return Poset(P.n, [(q, p) for p, q in P.covers], P.labels)


def direct_product(P: Poset, Q: Poset) -> Poset:
    """Direct product; element (p, q) gets id p*Q.n + q (lexicographic)."""
    covers = []
    for p in range(P.n):
        for a, b in Q.covers:
            covers.append((p * Q.n + a, p * Q.n + b))
    for a, b in P.covers:
        for q in range(Q.n):
            covers.append((a * Q.n + q, b * Q.n + q))
    return Poset(P.n * Q.n, covers)


def chain(a: int) -> Poset:
    """The chain poset on a elements."""
    return Poset(a, [(i, i + 1) for i in range(a - 1)])


@dataclass(frozen=True)
class RankInfo:
    is_ranked: bool
    is_graded: bool
    rank: Optional[tuple[int, ...]]
    top_rank: Optional[int]


def rank_info(P: Poset) -> RankInfo:
    """Rank/gradedness flags; ranks are normalized to start at 0 per component."""
    n = P.n
    rank = [None] * n
    # spread ranks from each element not yet ranked, the lowest id of its
    # component, collecting the component on the way; the spread only
    # proposes ranks, the cover check below decides
    for s in range(n):
        if rank[s] is not None:
            continue
        rank[s] = 0
        comp, stack = [], [s]
        while stack:
            x = stack.pop()
            comp.append(x)
            for step, near in ((1, P.up_covers[x]), (-1, P.down_covers[x])):
                for y in near:
                    if rank[y] is None:
                        rank[y] = rank[x] + step
                        stack.append(y)
        low = min([rank[x] for x in comp])
        for x in comp:
            rank[x] -= low
    if any(rank[q] != rank[p] + 1 for p, q in P.covers):
        return RankInfo(False, False, None, None)
    # with ranks from 0 in each component, all maximal chains have one
    # length iff every minimal element has rank 0 and all maximal elements
    # share one rank
    ranks = tuple(rank)
    tops = {ranks[x] for x in range(n) if not P.up_covers[x]}
    graded = not any(ranks[x] for x in range(n) if not P.down_covers[x]) and len(tops) <= 1
    return RankInfo(True, graded, ranks, max(ranks) if n else 0)


def _heights(P: Poset) -> list[int]:
    """The length of a longest chain topped by each element."""
    h = [0] * P.n
    for x in P.topological_order():
        for y in P.up_covers[x]:
            h[y] = max(h[y], h[x] + 1)
    return h


# --- isomorphism (exact backtracking; fine for the <= ~60 element posets here)


def _invariant(P: Poset, p: int, depth: int = 2):
    down = len(P.down_covers[p])
    up = len(P.up_covers[p])
    below = P.strict_down[p].bit_count()
    above = P.strict_up[p].bit_count()
    if depth == 0:
        return (down, up, below, above)
    subs = sorted(_invariant(P, q, depth - 1) for q in P.down_covers[p])
    sups = sorted(_invariant(P, q, depth - 1) for q in P.up_covers[p])
    return (down, up, below, above, tuple(subs), tuple(sups))


def is_isomorphic(P: Poset, Q: Poset) -> bool:
    """Exact poset isomorphism by backtracking with invariant pruning."""
    if P.n != Q.n or len(P.covers) != len(Q.covers):
        return False
    inv_p = [_invariant(P, p) for p in range(P.n)]
    inv_q = [_invariant(Q, q) for q in range(Q.n)]
    if sorted(inv_p) != sorted(inv_q):
        return False
    candidates = [
        [q for q in range(Q.n) if inv_q[q] == inv_p[p]] for p in range(P.n)
    ]
    order = sorted(range(P.n), key=lambda p: len(candidates[p]))
    img = [-1] * P.n
    used = [False] * Q.n

    def ok(p, q, assigned):
        for r in assigned:
            if P.less(p, r) != Q.less(q, img[r]) or P.less(r, p) != Q.less(img[r], q):
                return False
        return True

    assigned: list[int] = []

    def rec(i):
        if i == P.n:
            return True
        p = order[i]
        for q in candidates[p]:
            if not used[q] and ok(p, q, assigned):
                img[p] = q
                used[q] = True
                assigned.append(p)
                if rec(i + 1):
                    return True
                assigned.pop()
                used[q] = False
                img[p] = -1
        return False

    return rec(0)


# --- JSON poset file format -------------------------------------------------


def poset_from_dict(d: dict) -> Poset:
    """n and the relation ids must be JSON integers (not floats or booleans);
    labels, when given, a list of strings."""
    try:
        n = d["n"]
        relations = [(a, b) for a, b in d["relations"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise PosetError(f"malformed poset document: {exc}") from exc
    if type(n) is not int or n < 0:
        raise PosetError(f"malformed poset document: n must be an integer >= 0, got {n!r}")
    for a, b in relations:
        if type(a) is not int or type(b) is not int:
            raise PosetError(
                f"malformed poset document: relation ids must be integers, got {[a, b]!r}"
            )
    labels = d.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise PosetError(f"malformed poset document: labels must be strings, got {labels!r}")
    return Poset(n, relations, labels)


def load_poset(path) -> Poset:
    with open(path, "r", encoding="utf-8") as fh:
        return poset_from_dict(json.load(fh))
