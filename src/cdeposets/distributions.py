"""Exact probability distributions on finite posets and ideal lattices.

All of the distributions here (uniform, k-chain, maxchain) are exact
rational weight vectors, computed by counting rather than enumeration.
Every function takes a raw Poset or an IdealLattice J(P); a lattice is never
turned into a Poset on its ideals.

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
k-chain distribution glues a walk down from p to one up from p in
``chain_counts_through``.

Maximal chains come from a saturated-chain sweep over one cover list, run
forward and in reverse: on a poset the covers in a linear extension, on J(P)
``edges()``, whose ideal order sorts by cardinality.  ``tableaux`` reads
every tableau count off ``_maxchain_weights``.  Toggle-symmetry is a
lattice notion and takes an IdealLattice.
"""

from __future__ import annotations

from fractions import Fraction

from .ideals import IdealLattice
from .posets import _bits, longest_chain_length


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


def uniform(X) -> Distribution:
    n = X.n
    return Distribution([Fraction(1, n)] * n)


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
    return _normalized(chain_counts_through(X, k)[k])


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


# --- toggle-symmetry ----------------------------------------------------------


def is_toggle_symmetric(L: IdealLattice, mu) -> bool:
    """True iff E(mu; T+_p) = E(mu; T-_p) exactly, for every p: each weight
    adds to the balance of the bits of ``up[i]`` and subtracts from ``down[i]``'s.

    ``mu`` may be any sequence of nonnegative weights, one per ideal, such as a
    Distribution or integer numerators: the test is scale-invariant, so the
    weights need not sum to one."""
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
