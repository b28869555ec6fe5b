"""Exact probability distributions on finite posets and ideal lattices.

All of the distributions here (uniform, rank, k-chain, maxchain, the two
multichain flavors) are exact rational weight vectors, computed by counting
rather than enumeration.  Every chain and multichain weight reads one table:
``chain_counts_through(P, k_max)`` gives, for each k, the number of k-chains
through each element, by gluing a walk table of strict steps down from p to
one of strict steps up from p.  An m-multichain whose support is a k-chain
can be formed in C(m, k) ways, so the mchain weight of p is
sum_k C(m, k) * #{k-chains through p}; counting positions instead gives the
mmchain weight sum_k C(m+1, k+1) * #{k-chains through p}.  Maximal chains
come from one saturated-chain sweep over the covers, which
``tableaux.count_linear_extensions`` shares.

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
from .posets import Poset, _bits


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


# --- chain counts: one walk table, one saturated-chain sweep ----------------


def _walk_table(steps, k_max: int):
    """table[i][p] = number of sequences x_0 -> ... -> x_i = p, where
    steps[p] lists the x that may precede p."""
    table = [[1] * len(steps)]
    for _ in range(k_max):
        prev = table[-1]
        table.append([sum([prev[q] for q in s]) for s in steps])
    return table


def chain_counts_through(P: Poset, k_max: int):
    """rows[k][p] = number of k-chains passing through p, for k = 0..k_max.

    A k-chain through p is a strict walk of t steps down from p glued to one
    of k - t steps up from p.
    """
    down = _walk_table([_bits(m) for m in P.strict_down], k_max)
    up = _walk_table([_bits(m) for m in P.strict_up], k_max)
    return [
        [sum([down[t][p] * up[k - t][p] for t in range(k + 1)]) for p in range(P.n)]
        for k in range(k_max + 1)
    ]


def chain_count(P: Poset, k: int) -> int:
    """Number of k-chains of P."""
    return sum(chain_counts_through(P, k)[k]) // (k + 1)


def longest_chain(P: Poset) -> int:
    from .posets import longest_chain_length

    return longest_chain_length(P)


def chain_dist(X, k: int) -> Distribution:
    """The k-chain distribution: weight proportional to k-chains through p."""
    P = _carrier(X)
    r = longest_chain(P)
    if not 0 <= k <= r:
        raise ValueError(f"k={k} out of range 0..{r} for this poset")
    through = chain_counts_through(P, k)[k]
    total = sum(through)
    return Distribution([Fraction(t, total) for t in through])


def _saturated_chains(order, preds) -> list[int]:
    """counts[x] = number of saturated chains from an element with no preds
    up to x; ``order`` lists the elements with every x after its preds."""
    counts = [0] * len(preds)
    for x in order:
        counts[x] = sum([counts[y] for y in preds[x]]) if preds[x] else 1
    return counts


def maxchain_dist(X) -> Distribution:
    """Weight proportional to the number of maximal chains through p."""
    P = _carrier(X)
    order = P.topological_order()
    up = _saturated_chains(order, P.down_covers)
    down = _saturated_chains(order[::-1], P.up_covers)
    through = [u * d for u, d in zip(up, down)]
    total = sum(through)
    return Distribution([Fraction(t, total) for t in through])


# --- multichain distributions -----------------------------------------------


def _multichain_dist(X, m: int, per_chain) -> Distribution:
    """Weight of p proportional to sum_k per_chain(k) * #{k-chains through p}."""
    if m < 0:
        raise ValueError("m must be >= 0")
    P = _carrier(X)
    rows = chain_counts_through(P, min(m, longest_chain(P)))
    coeffs = [per_chain(k) for k in range(len(rows))]
    weights = [sum([c * row[p] for c, row in zip(coeffs, rows)]) for p in range(P.n)]
    total = sum(weights)
    return Distribution([Fraction(w, total) for w in weights])


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
