"""Per-element distributions and identities that the tests check the library
against: the k-chain, rank and multichain distributions, the conversion
identities between the chain and multichain families, and necklace counts.

The library answers every chain question from the chain moments of one
packed down pass (``cde_report``).  The k-step walk that it counted chains
with before is kept here as that pass's oracle: ``walk_moments`` and
``walk_counts_through`` take one strict step per chain length.  Every
per-element distribution is built from the walk's k-chain through-counts,
never from the library's pass: the k-chain weight of p is the number of
k-chains through p; an m-multichain whose support is a k-chain can be
formed in C(m, k) ways, so the mchain weight of p is
sum_k C(m, k) * #{k-chains through p}, and the mmchain weight (positions)
sum_k C(m+1, k+1) * #{k-chains through p}.

``maxchain_weights_by_edges`` is the route the library's maxchain weights
took before its level sweep: one saturated-chain sweep over an explicit
cover list (``edges()`` on J(P), which reads ``L.index``), run forward and
in reverse.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from cdeposets.distributions import Distribution
from cdeposets.ideals import IdealLattice
from cdeposets.posets import _bits, rank_info


def normalized(weights) -> Distribution:
    """Nonnegative integer weights scaled to sum to one."""
    total = sum(weights)
    return Distribution([Fraction(w, total) for w in weights])


def chain_dist(X, k: int) -> Distribution:
    """The k-chain distribution: weight proportional to the k-chains through
    p; X needs a k-chain."""
    return normalized(walk_counts_through(X, k)[k])


def convex_combination(parts) -> Distribution:
    """Normalized nonnegative combination sum w_i * mu_i / sum w_i."""
    parts = [(Fraction(w), mu) for w, mu in parts]
    total = sum(w for w, _ in parts)
    if total <= 0:
        raise ValueError("combination needs positive total weight")
    size = len(parts[0][1])
    acc = [Fraction(0)] * size
    for w, mu in parts:
        for i, x in enumerate(mu):
            acc[i] += w * x
    return Distribution([x / total for x in acc])


def rank_dist(L) -> Distribution:
    """Weight 1/(r+2) on each of the ideals P_{<=i}, i = -1..r.

    Requires the base poset to be graded of rank r.
    """
    info = rank_info(L.base)
    if not info.is_graded:
        raise ValueError("rank_dist requires a graded base poset")
    r = info.top_rank
    weights = [Fraction(0)] * L.n
    share = Fraction(1, r + 2)
    for i in range(-1, r + 1):
        mask = 0
        for p in range(L.base.n):
            if info.rank[p] <= i:
                mask |= 1 << p
        weights[L.index[mask]] += share
    return Distribution(weights)


def _multichain_dist(X, m: int, per_chain) -> Distribution:
    """Weight of p proportional to sum_k per_chain(k) * #{k-chains through p}."""
    if m < 0:
        raise ValueError("m must be >= 0")
    rows = walk_counts_through(X, m)
    coeffs = [per_chain(k) for k in range(len(rows))]
    return normalized([sum([c * row[p] for c, row in zip(coeffs, rows)]) for p in range(X.n)])


def mchain_dist(X, m: int) -> Distribution:
    """Weight proportional to the number of m-multichains through p.

    An m-multichain x_0 <= ... <= x_m whose support is a k-chain repeats
    its k+1 elements in one of C(m, k) ways (compositions of m+1 into k+1
    parts), so p lies on sum_k C(m, k) * #{k-chains through p} of them.
    """
    return _multichain_dist(X, m, lambda k: comb(m, k))


def mmchain_dist(X, m: int) -> Distribution:
    """Weight proportional to the number of times p occurs in an m-multichain.

    Over the C(m, k) multichains on one k-chain support, each support
    element fills (m+1)/(k+1) * C(m, k) = C(m+1, k+1) positions in total.
    """
    return _multichain_dist(X, m, lambda k: comb(m + 1, k + 1))


def necklace_count(n: int, k: int) -> int:
    """Number of rotation-orbits of k-subsets of [n].

    The rotation sends S = {s_1 < ... < s_k} to
    {n+1-s_k} u {n+1-s_k+s_i : i < k}; it corresponds to cyclically rotating
    the composition of n+1 into k+1 parts attached to S.  Computed by
    explicit orbit enumeration (intended for desk-scale n).
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        return 1

    def zeta(S):
        s = sorted(S)
        base = n + 1 - s[-1]
        return frozenset([base] + [base + x for x in s[:-1]])

    seen = set()
    orbits = 0
    for tup in combinations(range(1, n + 1), k):
        S = frozenset(tup)
        if S in seen:
            continue
        orbits += 1
        T = S
        while True:
            seen.add(T)
            T = zeta(T)
            if T == S:
                break
    return orbits


def _chain_combination(X, m: int, weight) -> Distribution:
    """sum_k weight(k, #{k-chains}) * chain(k) over the k <= m with a
    k-chain, normalized; every k-chain has k+1 elements, so the k-chain count
    is the row sum of the through-counts over k+1."""
    parts = []
    for k, through in enumerate(walk_counts_through(X, m)):
        total = sum(through)
        if total:
            parts.append((weight(k, total // (k + 1)), normalized(through)))
    return convex_combination(parts)


def convert_chain_to_mchain(X, m: int) -> Distribution:
    """mchain(m) realized as a convex combination of chain(k) distributions.

    The weight on chain(k) is (k+1) * #{k-chains} * C(m, k); this equals
    mchain_dist(X, m) exactly (each side counts m-multichains through p).
    """
    return _chain_combination(X, m, lambda k, nk: (k + 1) * nk * comb(m, k))


def convert_chain_to_mmchain(X, m: int) -> Distribution:
    """mmchain(m) realized as a convex combination of chain(k) distributions.

    The weight on chain(k) is #{k-chains} * C(m, k): expanding, the weight of
    p is proportional to sum_k C(m,k)/(k+1) * #{k-chains through p}, which is
    1/(m+1) times the number of (multichain, position) pairs occupied by p.
    """
    return _chain_combination(X, m, lambda k, nk: nk * comb(m, k))


# --- the k-step walk -------------------------------------------------------


def _steps(X):
    """(down, up): g -> for each x, the sum of g over the elements strictly
    below x (up: above x), on a poset or on the ideals of a lattice.

    On J(P), taking the elements of P in a linear extension, add g along
    every Hasse edge that adds p.  An ideal J below I is reached from I by
    removing the elements of I - J from the latest to the earliest, each
    maximal in what remains, so every such J is summed exactly once.  The up
    step runs the edges in reverse, adding g of the larger ideal to the
    smaller one.
    """
    if not isinstance(X, IdealLattice):
        below = [_bits(m) for m in X.strict_down]
        above = [_bits(m) for m in X.strict_up]
        return (
            lambda g: [sum([g[q] for q in s]) for s in below],
            lambda g: [sum([g[q] for q in s]) for s in above],
        )
    by_element = [[] for _ in range(X.base.n)]
    for i, j, p in X.edges():
        by_element[p].append((i, j))
    pairs = [e for p in X.base.topological_order() for e in by_element[p]]

    def down(g):
        h = list(g)
        for i, j in pairs:
            h[j] += h[i]
        return [a - b for a, b in zip(h, g)]

    def up(g):
        h = list(g)
        for i, j in reversed(pairs):
            h[i] += h[j]
        return [a - b for a, b in zip(h, g)]

    return down, up


def _glue(down, up, k: int) -> list[int]:
    """Number of k-chains through each p: a strict walk of t steps down from
    p glued to one of k - t steps up from p."""
    return [
        sum([down[t][p] * up[k - t][p] for t in range(k + 1)]) for p in range(len(down[0]))
    ]


def _walks(X, k_max: int):
    """The downward and upward walk tables of X, rows 0..k_max: row i of the
    downward table counts, for each p, the strict walks x_0 < ... < x_i = p
    (the upward table, x_0 > ... > x_i = p)."""
    tables = []
    for step in _steps(X):
        table = [[1] * X.n]
        for _ in range(k_max):
            table.append(step(table[-1]))
        tables.append(table)
    return tables


def walk_counts_through(X, k_max: int):
    """rows[k][p] = number of k-chains passing through p, for k = 0..k_max."""
    down, up = _walks(X, k_max)
    return [_glue(down, up, k) for k in range(k_max + 1)]


def walk_moments(X, stat, k_max: int):
    """[(number of k-chains, sum over the k-chains of stat summed over the
    chain's elements) for k = 0..k_max], from one downward walk.

    a[p] counts the k-chains with top p and b[p] sums stat over them:
    a' = step(a) and b' = step(b) + stat * a'.
    """
    step = _steps(X)[0]
    a = [1] * X.n
    b = list(stat)
    out = [(sum(a), sum(b))]
    for _ in range(k_max):
        a = step(a)
        b = [x + s * y for x, s, y in zip(step(b), stat, a)]
        out.append((sum(a), sum(b)))
    return out


# --- maximal chains over an explicit cover list ----------------------------


def _saturated_chains(n: int, edges) -> list[int]:
    """counts[x] = number of saturated chains up to x from an element with no
    lower cover; ``edges`` lists the covers (y, x) with every edge into an
    element before any edge out of it."""
    counts = [1] * n
    for _, x in edges:
        counts[x] = 0
    for y, x in edges:
        counts[x] += counts[y]
    return counts


def maxchain_weights_by_edges(X) -> list[int]:
    """Number of maximal chains through each element, from the cover list:
    on J(P) ``edges()``, whose ideal order sorts by cardinality, on a poset
    the covers in a linear extension."""
    if isinstance(X, IdealLattice):
        edges = [(i, j) for i, j, _ in X.edges()]
    else:
        edges = [(p, q) for p in X.topological_order() for q in X.up_covers[p]]
    from_bottom = _saturated_chains(X.n, edges)
    to_top = _saturated_chains(X.n, [(q, p) for p, q in reversed(edges)])
    return [u * d for u, d in zip(from_bottom, to_top)]
