"""Exact probability distributions on finite posets and ideal lattices.

All of the distributions here (uniform, rank, k-chain, maxchain, the two
multichain flavors) are exact rational weight vectors.  Chain counts through
an element are computed with two dynamic programs (counting chains ending at
and starting from each element) rather than enumeration.  Multichain counts
use zeta-style DPs over the weak order.

These distributions are defined on any finite poset, not only on lattices:
the counterexample fixtures need chain/maxchain statistics of a raw poset as
well as of its ideal lattice.  Toggle-symmetry, by contrast, is a lattice
notion and takes an IdealLattice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .ideals import IdealLattice
from .posets import Poset


def _carrier(X) -> Poset:
    return X.as_poset() if isinstance(X, IdealLattice) else X


class Distribution:
    """Exact distribution: nonnegative rational weights summing to one."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        ws = tuple([Fraction(w) for w in weights])
        if any(w < 0 for w in ws):
            raise ValueError("distribution weights must be nonnegative")
        if sum(ws) != 1:
            raise ValueError("distribution weights must sum to exactly 1")
        self.weights = ws

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    def __iter__(self):
        return iter(self.weights)

    def __eq__(self, other):
        if isinstance(other, Distribution):
            return self.weights == other.weights
        return NotImplemented

    def __repr__(self):
        return f"Distribution({list(self.weights)})"


def expectation(mu: Distribution, stat) -> Fraction:
    """Exact inner product E(mu; f)."""
    if len(stat) != len(mu):
        raise ValueError(
            f"statistic has length {len(stat)}, distribution {len(mu)}"
        )
    return sum((Fraction(f) * w for f, w in zip(stat, mu)), Fraction(0))


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


def uniform(X) -> Distribution:
    n = _carrier(X).n
    return Distribution([Fraction(1, n)] * n)


def point_mass(X, i: int) -> Distribution:
    n = _carrier(X).n
    return Distribution([Fraction(1) if j == i else Fraction(0) for j in range(n)])


def rank_dist(L: IdealLattice) -> Distribution:
    """Weight 1/(r+2) on each of the ideals P_{<=i}, i = -1..r.

    Requires the base poset to be graded of rank r.
    """
    from .posets import rank_info

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


# --- chain-count dynamic programs -------------------------------------------


def chains_ending_at(P: Poset, k_max: int):
    """table[k][p] = number of k-chains whose top element is p."""
    below = [
        [q for q in range(P.n) if P.strict_up[q] >> p & 1] for p in range(P.n)
    ]
    table = [[1] * P.n]
    for _ in range(k_max):
        prev = table[-1]
        table.append([sum(prev[q] for q in below[p]) for p in range(P.n)])
    return table


def chains_starting_at(P: Poset, k_max: int):
    above = [
        [q for q in range(P.n) if P.strict_up[p] >> q & 1] for p in range(P.n)
    ]
    table = [[1] * P.n]
    for _ in range(k_max):
        prev = table[-1]
        table.append([sum(prev[q] for q in above[p]) for p in range(P.n)])
    return table


def chain_count(P: Poset, k: int) -> int:
    """Number of k-chains of P."""
    return sum(chains_ending_at(P, k)[k])


def chain_counts_through(P: Poset, k: int):
    """Per element: number of k-chains passing through it."""
    down = chains_ending_at(P, k)
    up = chains_starting_at(P, k)
    return [
        sum(down[t][p] * up[k - t][p] for t in range(k + 1)) for p in range(P.n)
    ]


def longest_chain(P: Poset) -> int:
    from .posets import longest_chain_length

    return longest_chain_length(P)


def chain_dist(X, k: int) -> Distribution:
    """The k-chain distribution: weight proportional to k-chains through p."""
    P = _carrier(X)
    r = longest_chain(P)
    if not 0 <= k <= r:
        raise ValueError(f"k={k} out of range 0..{r} for this poset")
    through = chain_counts_through(P, k)
    denom = (k + 1) * chain_count(P, k)
    return Distribution([Fraction(t, denom) for t in through])


def maxchain_dist(X) -> Distribution:
    """Weight proportional to the number of maximal chains through p."""
    P = _carrier(X)
    order = P.topological_order()
    up = [0] * P.n  # saturated chains from a minimal element up to p
    for x in order:
        up[x] = sum(up[y] for y in P.down_covers[x]) if P.down_covers[x] else 1
    down = [0] * P.n
    for x in reversed(order):
        down[x] = sum(down[y] for y in P.up_covers[x]) if P.up_covers[x] else 1
    through = [up[p] * down[p] for p in range(P.n)]
    return Distribution([Fraction(t, sum(through)) for t in through])


# --- multichain distributions -----------------------------------------------


def _multichain_end_table(P: Poset, m: int, allowed=None):
    """table[i][p] = number of i-multichains ending at p (within allowed)."""
    if allowed is None:
        allowed = list(range(P.n))
    downeq = {
        p: [q for q in allowed if q == p or P.strict_up[q] >> p & 1]
        for p in allowed
    }
    table = [{p: 1 for p in allowed}]
    for _ in range(m):
        prev = table[-1]
        table.append({p: sum(prev[q] for q in downeq[p]) for p in allowed})
    return table


def multichain_count(P: Poset, m: int, allowed=None) -> int:
    return sum(_multichain_end_table(P, m, allowed)[m].values())


def mchain_dist(X, m: int) -> Distribution:
    """Weight proportional to the number of m-multichains through p."""
    if m < 0:
        raise ValueError("m must be >= 0")
    P = _carrier(X)
    total = multichain_count(P, m)
    through = []
    everyone = list(range(P.n))
    for p in range(P.n):
        avoid = [q for q in everyone if q != p]
        through.append(total - multichain_count(P, m, avoid))
    return Distribution([Fraction(t, sum(through)) for t in through])


def mmchain_dist(X, m: int) -> Distribution:
    """Weight proportional to the number of times p occurs in an m-multichain."""
    if m < 0:
        raise ValueError("m must be >= 0")
    P = _carrier(X)
    ends = _multichain_end_table(P, m)
    upeq = [
        [q for q in range(P.n) if q == p or P.strict_up[p] >> q & 1]
        for p in range(P.n)
    ]
    starts = [[1] * P.n]
    for _ in range(m):
        prev = starts[-1]
        starts.append([sum(prev[q] for q in upeq[p]) for p in range(P.n)])
    occ = [
        sum(ends[i][p] * starts[m - i][p] for i in range(m + 1))
        for p in range(P.n)
    ]
    denom = (m + 1) * multichain_count(P, m)
    return Distribution([Fraction(o, denom) for o in occ])


# --- toggle-symmetry ----------------------------------------------------------


def is_toggle_symmetric(L: IdealLattice, mu: Distribution) -> bool:
    """True iff E(mu; T+_p) = E(mu; T-_p) exactly, for every p."""
    if len(mu) != L.n:
        raise ValueError("distribution length does not match the lattice")
    for p in range(L.base.n):
        plus = sum((w for w, t in zip(mu, L.t_plus[p]) if t), Fraction(0))
        minus = sum((w for w, t in zip(mu, L.t_minus[p]) if t), Fraction(0))
        if plus != minus:
            return False
    return True


# --- necklace counts and the conversion identities ---------------------------


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


def convert_chain_to_mchain(X, m: int) -> Distribution:
    """mchain(m) realized as a convex combination of chain(k) distributions.

    The weight on chain(k) is (k+1) * #{k-chains} * C(m, k); this equals
    mchain_dist(X, m) exactly (each side counts m-multichains through p).
    """
    P = _carrier(X)
    r = longest_chain(P)
    parts = []
    for k in range(min(m, r) + 1):
        nk = chain_count(P, k)
        if nk:
            parts.append(((k + 1) * nk * comb(m, k), chain_dist(P, k)))
    return convex_combination(parts)


def convert_chain_to_mmchain(X, m: int) -> Distribution:
    """mmchain(m) realized as a convex combination of chain(k) distributions.

    The weight on chain(k) is #{k-chains} * C(m, k): expanding, the weight of
    p is proportional to sum_k C(m,k)/(k+1) * #{k-chains through p}, which is
    1/(m+1) times the number of (multichain, position) pairs occupied by p.
    """
    P = _carrier(X)
    r = longest_chain(P)
    parts = []
    for k in range(min(m, r) + 1):
        nk = chain_count(P, k)
        if nk:
            parts.append((nk * comb(m, k), chain_dist(P, k)))
    return convex_combination(parts)
