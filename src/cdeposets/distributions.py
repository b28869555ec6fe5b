"""Exact probability distributions on finite posets and ideal lattices.

Distributions are exact rational weight vectors (``Distribution``); the
library builds the uniform one and takes expectations.  Every function takes
a raw Poset or an IdealLattice J(P); a lattice is never turned into a Poset
on its ideals.

Chains are counted in one down pass over the order (``_chain_polys``): each
element carries the polynomials in t that count the chains topped there by
length and sum a statistic over them, packed into one int, so one sum over
the elements below each element gives every chain length at once.  On J(P)
that sum is an online zeta transform over the ideals, one add per Hasse
edge.  ``_width`` bounds the coefficients so that none carries into the
next.  ``_chain_moments``, behind ``cde.cde_report``, reads off the sum of
every element's polynomials the number A_k of k-chains and the sum B_k of
the statistic over them, which give the k-chain expectation
B_k / ((k+1) A_k) and, weighted by C(m, k) or C(m+1, k+1), the multichain
ones (``CdeReport``).  It checks the decoded digits against what is known
without them and raises ArithmeticError when the width was too narrow.

Maximal chains come from a saturated-chain sweep over one cover list, run
forward and in reverse: on a poset the covers in a linear extension, on J(P)
``edges()``, whose ideal order sorts by cardinality.
``cde._maxchain_expectation`` weights ddeg by ``_maxchain_weights`` for the
maxchain expectation of a raw poset in ``cde_report`` and of every ``cde``
and ``mcde`` row of ``cde.scan_family``, which so skips the chain pass, and
``tableaux`` reads every tableau count off ``_maxchain_weights``.
Toggle-symmetry is a lattice notion and takes an IdealLattice.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

from .ideals import IdealLattice
from .posets import _bits, _heights


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


# --- chain counts: packed chain polynomials, one saturated-chain sweep -----


def _levels(X) -> list[int]:
    """N_h, the number of elements of height h, for h = 0..r; a chain climbs
    at least one level per step.  On J(P) the height of an ideal is its size."""
    if isinstance(X, IdealLattice):
        hs = [m.bit_count() for m in X.ideals]
    else:
        hs = _heights(X)
    levels = [0] * (max(hs, default=0) + 1)
    for h in hs:
        levels[h] += 1
    return levels


def _chain_lengths(P) -> list[int]:
    """The sizes of the chains of a partition of P into chains, first fit
    in topological order."""
    tops, lengths = [], []
    for x in P.topological_order():
        below = P.strict_down[x]
        for i, top in enumerate(tops):
            if below >> top & 1:
                tops[i] = x
                lengths[i] += 1
                break
        else:
            tops.append(x)
            lengths.append(1)
    return lengths


def _width(X, top: int) -> tuple[int, int]:
    """(width, r): the bits per coefficient that hold every A_k and B_k, for
    k = 0..r, of a statistic with values in 0..top, and the length r of a
    longest chain.

    A k-chain takes its k + 1 elements from distinct levels, so A_k is at
    most e_{k+1}(N_0, .., N_r), the elementary symmetric polynomial of the
    level sizes.  On J(P) a k-chain I_0 < .. < I_k is also fixed by the
    order-preserving map sending p in P to the first i with p in I_i (k + 1
    when there is none).  On a chain of c elements of P that map is one of
    the C(k + 1 + c, c) weakly increasing maps into 0..k+1, so over a
    partition of P into chains A_k <= prod C(k + 1 + c, c), which is at most
    (k + 2)^|P|.  Each k-chain adds at most (k + 1) * top to B_k.  Every
    coefficient that ``_chain_polys`` forms is a sum of nonnegative terms of
    one A_k or B_k, so none of them reaches 2^width and no digit carries
    into the next.
    """
    levels = _levels(X)
    r = len(levels) - 1
    e = [1] + [0] * (r + 1)  # e[j] = e_j of the levels read so far
    for h, size in enumerate(levels):
        for j in range(h + 1, 0, -1):
            e[j] += size * e[j - 1]
    lengths = _chain_lengths(X.base) if isinstance(X, IdealLattice) else None
    bound = 0
    for k in range(r + 1):
        count = e[k + 1]
        if lengths is not None:
            count = min(count, prod([comb(k + 1 + c, c) for c in lengths]))
        bound = max(bound, count, (k + 1) * top * count)
    return bound.bit_length(), r


def _chain_polys(X, width: int, r: int, stat):
    """Yield c(x) for every element x, after every element below x, with
    x's chain polynomials packed into c(x).

    a(x) = 1 + t * sum_{y < x} a(y) counts by t^k the k-chains topped by x,
    and b(x) = stat(x) a(x) + t sum_{y < x} b(y) sums over them the
    statistic summed along the chain.  Both have degree at most r, the
    length of a longest chain, and c(x) = a(x) + 2^width b(x) at
    t = 2^(2 width): the digit pairs (a_k, b_k) sit side by side, so an
    element of height h needs only h + 1 pairs.  Given the packed sum R of
    c(y) over y < x, c(x) = 1 + t R + 2^width stat(x) a(x), where
    a(x) = 1 + t R_a is read off the a digits of t R.

    On a raw poset R is one sum over the strict down-set.  On J(P) it is an
    online subset-sum zeta transform.  With the elements of P numbered in a
    linear extension (renumbered when their ids are not one), h_j(I) sums c
    over the ideals J <= I with I - J among the elements numbered below j,
    so that h_{j+1}(I) = h_j(I) + h_j(I - j) when j is removable from I.
    h_j(I) changes only at the removable elements of I, so I keeps the
    prefix list h(I)[m], its value after the first m of them, and R(I) is
    the sum, over each removable q, of h(I - q)[m] with m the number of
    removable elements of I - q numbered below q: one add per Hasse edge.
    The ideals run level by level, and only the previous level's lists are
    kept.
    """
    step = 2 * width
    # the a digits: the low width bits of each step
    low = int("0" + ("0" * width + "1" * width) * (r + 1), 2)

    def packed(below, s):
        c = 1 + (below << step)
        if s:
            c += s * (1 + ((below & low) << step)) << width
        return c

    if not isinstance(X, IdealLattice):
        c = [0] * X.n
        for x in X.topological_order():
            c[x] = packed(sum([c[y] for y in _bits(X.strict_down[x])]), stat[x])
            yield c[x]
        return
    P = X.base
    masks, covers = X.ideals, X.down
    if any(p > q for p, q in P.covers):
        place = [0] * P.n
        for i, q in enumerate(P.topological_order()):
            place[q] = 1 << i
        masks = [sum([place[p] for p in _bits(m)]) for m in masks]
        covers = [sum([place[p] for p in _bits(m)]) for m in covers]
    prev, level, size = {}, {}, -1
    for mask, cover, s in zip(masks, covers, stat):
        if mask.bit_count() != size:
            prev, level, size = level, {}, mask.bit_count()
        below, sums = 0, []
        rest = cover
        while rest:
            bit = rest & -rest
            rest ^= bit
            other, prefix = prev[mask ^ bit]
            below += prefix[(other & bit - 1).bit_count()]
            sums.append(below)
        c = packed(below, s)
        level[mask] = (cover, [c, *[c + x for x in sums]])
        yield c


def _chain_moments(X, stat):
    """[(number of k-chains, sum over the k-chains of stat summed over the
    chain's elements) for k = 0..r], for a statistic of nonnegative
    integers: the digits of the sum of every element's packed chain
    polynomials.

    The width of ``_width`` holds every digit by the bound proved there.
    The decoded digits are still checked against what is known without
    them: one 0-chain per element, stat summed once over those, and nothing
    above degree r; a failure raises ArithmeticError, also under -O.  A
    carry out of a digit after B_0 that stays at or below B_r would pass
    that check: the bound, not the check, rules it out.
    """
    width, r = _width(X, max(stat, default=0))
    total = sum(_chain_polys(X, width, r, stat))
    mask = (1 << width) - 1
    digits = [total >> width * k & mask for k in range(2 * (r + 1))]
    counts, sums = digits[0::2], digits[1::2]
    if counts[0] != X.n or sums[0] != sum(stat) or total >> width * 2 * (r + 1):
        raise ArithmeticError("packed chain moments overflowed their width")
    return list(zip(counts, sums))


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


# --- toggle-symmetry ----------------------------------------------------------


def is_toggle_symmetric(L: IdealLattice, mu) -> bool:
    """True iff E(mu; T+_p) = E(mu; T-_p) exactly, for every p: each weight
    adds to the balance of the bits of ``up[i]`` and subtracts from ``down[i]``'s.

    ``mu`` may be any sequence of nonnegative weights, one per ideal, such as a
    Distribution or integer numerators: the test is scale-invariant, so the
    weights need not sum to one."""
    if len(mu) != L.n:
        raise ValueError("distribution length does not match the lattice")
    balance = [0] * (L.base.n + 1)  # element p at index p + 1
    for w, u, d in zip(mu, L.up, L.down):
        if w:
            while u:
                low = u & -u
                balance[low.bit_length()] += w
                u ^= low
            while d:
                low = d & -d
                balance[low.bit_length()] -= w
                d ^= low
    return not any(balance)
