"""Reference routes for posets: the brute-force closure and reduction of a
relation list, and the rank function as it was computed before the spread
and the cover check were split.

``brute_order`` closes the relations on a boolean matrix (Warshall's
algorithm) and reads a cover off every comparable pair with no element
strictly between, which is the definition; ``Poset(n, relations)`` must
agree with it.  ``rank_info_reference`` spreads ranks over one component at
a time, checking every cover it meets as it goes and then every cover of
the component again; ``posets.rank_info`` must return the same ``RankInfo``.
Its components come from ``components``, a union-find over the covers,
and its minimal elements from the covers too, not from the library's
traversals.  ``disjoint_union`` and ``antichain`` build the test posets
that combine others or have no relations.
"""

from __future__ import annotations

import random

from cdeposets.posets import Poset, RankInfo


def disjoint_union(P, Q) -> Poset:
    covers = list(P.covers) + [(p + P.n, q + P.n) for p, q in Q.covers]
    labels = None
    if P.labels is not None and Q.labels is not None:
        labels = P.labels + Q.labels
    return Poset(P.n + Q.n, covers, labels)


def antichain(a: int) -> Poset:
    return Poset(a, [])


def brute_order(n: int, relations):
    """(covers, strict_up, strict_down) of the order the relations generate,
    or None when they contain a cycle."""
    less = [[False] * n for _ in range(n)]
    for p, q in relations:
        less[p][q] = True
    for r in range(n):
        for p in range(n):
            if less[p][r]:
                for q in range(n):
                    if less[r][q]:
                        less[p][q] = True
    if any(less[p][p] for p in range(n)):
        return None
    covers = tuple(
        (p, q)
        for p in range(n)
        for q in range(n)
        if less[p][q] and not any(less[p][r] and less[r][q] for r in range(n))
    )
    strict_up = tuple(sum(1 << q for q in range(n) if less[p][q]) for p in range(n))
    strict_down = tuple(sum(1 << p for p in range(n) if less[p][q]) for q in range(n))
    return covers, strict_up, strict_down


def random_relations(rng: random.Random, n: int, acyclic: bool) -> list[tuple[int, int]]:
    """Random relations on n elements, repeats and implied pairs included.

    Acyclic ones run forward along a random permutation; the others point
    either way, so many of them contain a cycle."""
    perm = list(range(n))
    rng.shuffle(perm)
    rels = []
    for _ in range(rng.randint(0, n * (n - 1) // 2)):
        i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        if i == j:
            continue
        if acyclic and i > j:
            i, j = j, i
        rels.append((perm[i], perm[j]))
    return rels + rng.sample(rels, min(len(rels), 2))


def components(P) -> list[list[int]]:
    """The connected components of the Hasse diagram, each sorted, ordered
    by their lowest element."""
    root = list(range(P.n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for p, q in P.covers:
        root[find(p)] = find(q)
    comps = {}
    for x in range(P.n):
        comps.setdefault(find(x), []).append(x)
    return sorted(comps.values())


def rank_info_reference(P) -> RankInfo:
    n = P.n
    rank = [None] * n
    ok = True
    for comp in components(P):
        start = comp[0]
        rank[start] = 0
        queue = [start]
        while queue and ok:
            x = queue.pop()
            for y in P.up_covers[x]:
                if rank[y] is None:
                    rank[y] = rank[x] + 1
                    queue.append(y)
                elif rank[y] != rank[x] + 1:
                    ok = False
                    break
            for y in P.down_covers[x]:
                if rank[y] is None:
                    rank[y] = rank[x] - 1
                    queue.append(y)
                elif rank[y] != rank[x] - 1:
                    ok = False
                    break
        if not ok:
            break
        comp_set = set(comp)
        for p, q in P.covers:
            if p in comp_set and rank[q] != rank[p] + 1:
                ok = False
                break
        if not ok:
            break
        low = min(rank[x] for x in comp)
        for x in comp:
            rank[x] -= low
    if not ok:
        return RankInfo(False, False, None, None)
    ranks = tuple(rank)
    tops = {ranks[x] for x in range(n) if not P.up_covers[x]}
    minimals = set(range(n)).difference(q for _, q in P.covers)
    graded = not any(ranks[x] for x in minimals) and len(tops) <= 1
    return RankInfo(True, graded, ranks, max(ranks) if n else 0)
