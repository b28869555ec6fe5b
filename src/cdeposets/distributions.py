"""Exact probability distributions on finite posets and ideal lattices.

All of the distributions here (uniform, k-chain, maxchain) are exact
rational weight vectors, computed by counting rather than enumeration.
Every function takes a raw Poset or an IdealLattice J(P); a lattice is never
turned into a Poset on its ideals.

Chains are counted in one pass over the order (``_chain_polys``): each
element carries the polynomials in t that count the chains topped there by
length and sum a statistic over them, packed into one int, so one sum over
the elements below each element gives every chain length at once.  On J(P)
that sum is an online zeta transform over the ideals, one add per Hasse
edge.  ``_width`` bounds the coefficients so that none carries into the
next.  ``_chain_moments``, behind ``cde.cde_report``, reads off the sum of
every element's polynomials the number A_k of k-chains and the sum B_k of
the statistic over them, which give the k-chain expectation
B_k / ((k+1) A_k) and, weighted by C(m, k) or C(m+1, k+1), the multichain
ones (``CdeReport``).  ``chain_counts_through`` runs the pass down and up,
cut off above the largest k asked for, and multiplies the two polynomials
of each element.  Both check the decoded
digits against what is known without them and raise ArithmeticError when
the width was too narrow.

Maximal chains come from a saturated-chain sweep over one cover list, run
forward and in reverse: on a poset the covers in a linear extension, on J(P)
``edges()``, whose ideal order sorts by cardinality.  ``tableaux`` reads
every tableau count off ``_maxchain_weights``.  Toggle-symmetry is a
lattice notion and takes an IdealLattice.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

from .ideals import IdealLattice
from .posets import _bits, _heights, longest_chain_length


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


def _width(X, top: int, k_max: int) -> tuple[int, int]:
    """(width, r): the bits per coefficient that hold every A_k and B_k, for
    k = 0..min(k_max, r), of a statistic with values in 0..top (top = 0
    counts chains only), and the length r of a longest chain.

    A k-chain takes its k + 1 elements from distinct levels, so A_k is at
    most e_{k+1}(N_0, .., N_r), the elementary symmetric polynomial of the
    level sizes.  On J(P) a k-chain I_0 < .. < I_k is also fixed by the
    order-preserving map sending p in P to the first i with p in I_i (k + 1
    when there is none).  On a chain of c elements of P that map is one of
    the C(k + 1 + c, c) weakly increasing maps into 0..k+1, so over a
    partition of P into chains A_k <= prod C(k + 1 + c, c), which is at most
    (k + 2)^|P|.  Each k-chain adds at most (k + 1) * top to B_k.  Every
    coefficient of degree at most k_max that ``_chain_polys`` or a product
    of its outputs forms is a sum of nonnegative terms of one A_k or B_k, so
    none of them reaches 2^width and no digit carries into the next; a carry
    out of a higher degree only moves bits further up.
    """
    levels = _levels(X)
    r = len(levels) - 1
    degree = min(k_max, r)
    e = [1] + [0] * (degree + 1)  # e[j] = e_j of the levels read so far
    for h, size in enumerate(levels):
        for j in range(min(h, degree) + 1, 0, -1):
            e[j] += size * e[j - 1]
    lengths = _chain_lengths(X.base) if isinstance(X, IdealLattice) else None
    bound = 0
    for k in range(degree + 1):
        count = e[k + 1]
        if lengths is not None:
            count = min(count, prod([comb(k + 1 + c, c) for c in lengths]))
        bound = max(bound, count, (k + 1) * top * count)
    return bound.bit_length(), r


def _chain_polys(X, width: int, degree: int, stat=None, up: bool = False):
    """Yield (x, c(x)) for every element x, after every element below x
    (above x when ``up``), with x's chain polynomials packed into c(x).

    a(x) = 1 + t * sum_{y < x} a(y) counts by t^k the k-chains topped by x
    (with bottom x when ``up``), and b(x) = stat(x) a(x) + t sum_{y < x} b(y)
    sums over them the statistic summed along the chain.  Both are cut off
    above ``degree`` (nothing is cut when that is the length of a longest
    chain), and c(x) = a(x) + 2^width b(x) at t = 2^(2 width): the digit
    pairs (a_k, b_k) sit side by side, so an element of height h needs only
    h + 1 pairs.  Without a statistic c(x) = a(x) at t = 2^width.  Given the
    packed sum R of c(y) over y < x, c(x) = 1 + t R + 2^width stat(x) a(x),
    where a(x) = 1 + t R_a is read off the a digits of t R.

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
    kept.  The up pass is the same on J(P)^op = J(P^op), with the addable
    elements and the extension reversed: highest number first.
    """
    if stat is None:
        stat, step = [0] * X.n, width
    else:
        step = 2 * width
    # the a digits: the low width bits of each step
    low = int("0" + ("0" * (step - width) + "1" * width) * (degree + 1), 2)
    cut = step * degree

    def packed(below, s):
        if below >> cut:  # the terms that t R would lift above degree
            below &= (1 << cut) - 1
        c = 1 + (below << step)
        if s:
            c += s * (1 + ((below & low) << step)) << width
        return c

    if not isinstance(X, IdealLattice):
        order = X.topological_order()
        below = X.strict_up if up else X.strict_down
        c = [0] * X.n
        for x in reversed(order) if up else order:
            c[x] = packed(sum([c[y] for y in _bits(below[x])]), stat[x])
            yield x, c[x]
        return
    P = X.base
    masks, covers = X.ideals, X.up if up else X.down
    if any(p > q for p, q in P.covers):
        place = [0] * P.n
        for i, q in enumerate(P.topological_order()):
            place[q] = 1 << i
        masks = [sum([place[p] for p in _bits(m)]) for m in masks]
        covers = [sum([place[p] for p in _bits(m)]) for m in covers]
    prev, level, size = {}, {}, -1
    for i in range(X.n - 1, -1, -1) if up else range(X.n):
        mask, cover = masks[i], covers[i]
        if mask.bit_count() != size:
            prev, level, size = level, {}, mask.bit_count()
        below, sums = 0, []
        rest = cover
        if up:
            while rest:
                bit = 1 << rest.bit_length() - 1
                rest ^= bit
                other, prefix = prev[mask ^ bit]
                below += prefix[(other & -bit).bit_count()]
                sums.append(below)
        else:
            while rest:
                bit = rest & -rest
                rest ^= bit
                other, prefix = prev[mask ^ bit]
                below += prefix[(other & bit - 1).bit_count()]
                sums.append(below)
        c = packed(below, stat[i])
        level[mask] = (cover, [c, *[c + x for x in sums]])
        yield i, c


def _digits(value: int, width: int, count: int) -> list[int]:
    mask = (1 << width) - 1
    return [value >> width * k & mask for k in range(count)]


def chain_counts_through(X, k_max: int):
    """rows[k][p] = number of k-chains passing through p, for k = 0..k_max:
    the coefficients of down(p) * up(p), the polynomials counting the chains
    topped by p and those with bottom p, multiplied packed.  Both are cut
    off above degree k_max, which leaves the product exact up to there.

    The rows are checked against the chain counts A_k of the down pass: each
    k-chain passes through k + 1 elements, so row k sums to (k + 1) A_k."""
    width, r = _width(X, 0, k_max)
    degree = min(k_max, r)
    down = [0] * X.n
    total = 0
    for x, c in _chain_polys(X, width, degree):
        down[x] = c
        total += c
    through = [0] * X.n
    for x, c in _chain_polys(X, width, degree, up=True):
        through[x] = down[x] * c
    counts = _digits(total, width, degree + 1)
    mask = (1 << width) - 1
    rows = [[t >> width * k & mask for t in through] for k in range(degree + 1)]
    if (
        counts[0] != X.n
        or total >> width * (degree + 1)
        or any([sum(row) != (k + 1) * a for k, (row, a) in enumerate(zip(rows, counts))])
    ):
        raise ArithmeticError("packed chain counts overflowed their width")
    return rows + [[0] * X.n for _ in range(k_max - r)]


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
    width, r = _width(X, max(stat, default=0), X.n)
    total = sum(c for _, c in _chain_polys(X, width, r, stat))
    digits = _digits(total, width, 2 * (r + 1))
    counts, sums = digits[0::2], digits[1::2]
    if counts[0] != X.n or sums[0] != sum(stat) or total >> width * 2 * (r + 1):
        raise ArithmeticError("packed chain moments overflowed their width")
    return list(zip(counts, sums))


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
