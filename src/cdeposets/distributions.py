"""Exact probability distributions on finite posets and ideal lattices.

All of the distributions here (uniform, rank, k-chain, maxchain, the two
multichain flavors) are exact rational weight vectors, computed by counting
rather than enumeration.  Every function takes a raw Poset or an
IdealLattice J(P); a lattice is never turned into a Poset on its ideals.

Chains are counted by walks of the strict steps, which map a vector g to,
for each x, the sum of g over the elements strictly below x (or above x,
for the up step); ``_steps`` returns the pair:

* on a raw poset, the sums over the strict down-set (up-set) lists;
* on J(P), the subset-sum zeta transform trimmed to the ideals, run over one
  list of the Hasse edges (``edges()``) grouped by the element they add, with
  the elements of P in a linear extension, minus the input; the up step runs
  the list in reverse.  That is O(#Hasse edges) per step instead of
  O(#comparable pairs of ideals).

``_chain_moments`` is the one walk behind ``cde.cde_report``: a downward
walk carrying, per element p, the count a(p) of k-chains topped by p and the
total b(p) of stat over them, a' = step(a), b' = step(b) + stat * a'.  Their
sums A_k, B_k give the k-chain expectation B_k / ((k+1) A_k) and, weighted
by C(m, k) or C(m+1, k+1), the multichain ones (``CdeReport``).  The
per-element distributions glue a walk down from p to one up from p in
``chain_counts_through``: an m-multichain whose support is a k-chain can be
formed in C(m, k) ways, so the mchain weight of p is
sum_k C(m, k) * #{k-chains through p}, and the mmchain weight (positions)
sum_k C(m+1, k+1) * #{k-chains through p}.

Maximal chains come from a saturated-chain sweep over one cover list, run
forward and in reverse: on a poset the covers in a linear extension, on J(P)
``edges()``, whose ideal order sorts by cardinality.  ``tableaux`` reads
every tableau count off ``_maxchain_weights``.  Toggle-symmetry is a
lattice notion and takes an IdealLattice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .ideals import IdealLattice
from .posets import _bits, longest_chain_length, rank_info


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
    n = X.n
    return Distribution([Fraction(1, n)] * n)


def rank_dist(L: IdealLattice) -> Distribution:
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


# --- chain counts: strict walks, one saturated-chain sweep -----------------


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


def chain_counts_through(X, k_max: int):
    """rows[k][p] = number of k-chains passing through p, for k = 0..k_max."""
    down, up = _walks(X, k_max)
    return [_glue(down, up, k) for k in range(k_max + 1)]


def _chain_moments(X, stat, k_max: int):
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


def longest_chain(X) -> int:
    """Length of a longest chain; on J(P) that is |P|."""
    if isinstance(X, IdealLattice):
        return X.base.n
    return longest_chain_length(X)


def chain_dist(X, k: int) -> Distribution:
    """The k-chain distribution: weight proportional to k-chains through p."""
    r = longest_chain(X)
    if not 0 <= k <= r:
        raise ValueError(f"k={k} out of range 0..{r} for this poset")
    return _normalized(_glue(*_walks(X, k), k))


def _normalized(weights) -> Distribution:
    total = sum(weights)
    return Distribution([Fraction(w, total) for w in weights])


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


def _maxchain_weights(X) -> list[int]:
    """Number of maximal chains through each p."""
    if isinstance(X, IdealLattice):
        # edges() runs in canonical ideal order, which sorts by cardinality
        edges = [(i, j) for i, j, _ in X.edges()]
    else:
        edges = [(p, q) for p in X.topological_order() for q in X.up_covers[p]]
    from_bottom = _saturated_chains(X.n, edges)
    to_top = _saturated_chains(X.n, [(q, p) for p, q in reversed(edges)])
    return [u * d for u, d in zip(from_bottom, to_top)]


def maxchain_dist(X) -> Distribution:
    """Weight proportional to the number of maximal chains through p."""
    return _normalized(_maxchain_weights(X))


# --- multichain distributions -----------------------------------------------


def _multichain_dist(X, m: int, per_chain) -> Distribution:
    """Weight of p proportional to sum_k per_chain(k) * #{k-chains through p}."""
    if m < 0:
        raise ValueError("m must be >= 0")
    rows = chain_counts_through(X, min(m, longest_chain(X)))
    coeffs = [per_chain(k) for k in range(len(rows))]
    return _normalized([sum([c * row[p] for c, row in zip(coeffs, rows)]) for p in range(X.n)])


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
    """True iff E(mu; T+_p) = E(mu; T-_p) exactly, for every p: each weight
    adds to the balance of the bits of ``up[i]`` and subtracts from ``down[i]``'s."""
    if len(mu) != L.n:
        raise ValueError("distribution length does not match the lattice")
    balance = [0] * L.base.n
    for w, u, d in zip(mu, L.up, L.down):
        if w:
            for p in _bits(u):
                balance[p] += w
            for p in _bits(d):
                balance[p] -= w
    return not any(balance)


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


def _chain_combination(X, m: int, weight) -> Distribution:
    """sum_k weight(k, #{k-chains}) * chain(k) over k = 0..min(m, longest
    chain), normalized; every k-chain has k+1 elements, so the k-chain count
    is the row sum of the through-counts over k+1."""
    parts = []
    for k, through in enumerate(chain_counts_through(X, min(m, longest_chain(X)))):
        total = sum(through)
        if total:
            parts.append((weight(k, total // (k + 1)), _normalized(through)))
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
