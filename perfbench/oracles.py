"""Independent oracles for the benchmark's output checks.

Nothing here imports cdeposets.  Every answer is computed from a relation
list (pairs ``(p, q)`` meaning p < q, not necessarily covers) by code that
shares no logic with the library: ideals are enumerated by include/exclude
recursion over a topological order, chains by explicit enumeration, and
tableau counts by hook products or by counting linear extensions.  Element
numbering follows the library's documented conventions (row-major boxes,
``p * b + q`` for chain products) so that ideal-indexed answers can be
compared entry by entry; ideals are sorted in the documented canonical
order: cardinality, then lexicographic on the sorted member list.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial, lcm


class Oracle:
    """J(P) of a finite poset, recomputed from its relation list."""

    def __init__(self, n: int, relations):
        self.n = n
        self.relations = sorted({(int(p), int(q)) for p, q in relations})
        self.pred = [0] * n  # direct relation partners below, as masks
        self.succ = [0] * n
        for p, q in self.relations:
            self.pred[q] |= 1 << p
            self.succ[p] |= 1 << q
        self.order = _topological(n, self.relations)
        self.below = [0] * n  # strict down-set masks (transitive)
        for p in self.order:
            m = self.pred[p]
            for q in members(self.pred[p]):
                m |= self.below[q]
            self.below[p] = m
        self.above = [0] * n
        for p in range(n):
            for q in members(self.below[p]):
                self.above[q] |= 1 << p
        self.rank = [0] * n  # length of the longest chain ending at p
        for p in self.order:
            self.rank[p] = max((self.rank[q] + 1 for q in members(self.pred[p])), default=0)
        self.rank_blocks = [[] for _ in range(max(self.rank, default=-1) + 1)]
        for p in range(n):
            self.rank_blocks[self.rank[p]].append(p)
        self._ideals = None

    # --- the base poset ------------------------------------------------

    def covers(self) -> list[tuple[int, int]]:
        out = []
        for q in range(self.n):
            for p in members(self.below[q]):
                between = self.above[p] & self.below[q]
                if not between:
                    out.append((p, q))
        return sorted(out)

    # --- the ideal lattice -----------------------------------------------

    @property
    def ideals(self) -> list[int]:
        if self._ideals is None:
            found = []

            def rec(k, mask):
                if k == len(self.order):
                    found.append(mask)
                    return
                p = self.order[k]
                rec(k + 1, mask)
                if self.pred[p] & ~mask == 0:
                    rec(k + 1, mask | 1 << p)

            rec(0, 0)
            found.sort(key=lambda m: (m.bit_count(), members(m)))
            self._ideals = found
        return self._ideals

    def is_ideal(self, mask: int) -> bool:
        return all(self.below[p] & ~mask == 0 for p in members(mask))

    def addable(self, mask: int, p: int) -> bool:
        return not mask >> p & 1 and self.pred[p] & ~mask == 0

    def removable(self, mask: int, p: int) -> bool:
        return bool(mask >> p & 1) and self.succ[p] & mask == 0

    def ddeg(self, mask: int) -> int:
        """Number of maximal elements of the ideal."""
        return sum(1 for p in members(mask) if self.succ[p] & mask == 0)

    def density(self) -> Fraction:
        js = self.ideals
        return Fraction(sum(self.ddeg(m) for m in js), len(js))

    def toggle(self, mask: int, p: int) -> int:
        if self.addable(mask, p) or self.removable(mask, p):
            return mask ^ 1 << p
        return mask

    def rowmotion(self, mask: int) -> int:
        """Down-closure of the minimal elements of the complement."""
        new = 0
        for p in range(self.n):
            if self.addable(mask, p):
                new |= 1 << p | self.below[p]
        return new

    def rank_permuted(self, mask: int, sigma) -> int:
        """tau_{sigma(0)} o ... o tau_{sigma(r)}: rank sigma(r) toggles first."""
        for s in reversed(sigma):
            for p in self.rank_blocks[s]:
                mask = self.toggle(mask, p)
        return mask

    def certificate_holds(self, c: Fraction, kappa) -> bool:
        """ddeg = c + sum_p kappa_p (T+_p - T-_p) on every ideal."""
        for m in self.ideals:
            total = c
            for p in range(self.n):
                total += kappa[p] * (self.addable(m, p) - self.removable(m, p))
            if total != self.ddeg(m):
                return False
        return True

    def is_toggle_symmetric(self, weights) -> bool:
        for p in range(self.n):
            plus = sum(w for w, m in zip(weights, self.ideals) if self.addable(m, p))
            minus = sum(w for w, m in zip(weights, self.ideals) if self.removable(m, p))
            if plus != minus:
                return False
        return True

    def linear_extensions(self) -> int:
        """Number of linear extensions: paths from the empty ideal to P."""
        count = {0: 1}
        for m in self.ideals:  # canonical order is by cardinality
            for p in range(self.n):
                if self.addable(m, p):
                    nxt = m | 1 << p
                    count[nxt] = count.get(nxt, 0) + count[m]
        return count[(1 << self.n) - 1]


def _topological(n: int, relations) -> list[int]:
    indeg = [0] * n
    succ = [[] for _ in range(n)]
    for p, q in relations:
        succ[p].append(q)
        indeg[q] += 1
    ready = [p for p in range(n) if indeg[p] == 0]
    order = []
    while ready:
        p = ready.pop(0)
        order.append(p)
        for q in succ[p]:
            indeg[q] -= 1
            if indeg[q] == 0:
                ready.append(q)
    if len(order) != n:
        raise ValueError("relations contain a cycle")
    return order


def members(mask: int) -> list[int]:
    out = []
    p = 0
    while mask:
        if mask & 1:
            out.append(p)
        mask >>= 1
        p += 1
    return out


# --- posets by their definitions ------------------------------------------


def chain_product(a: int, b: int):
    """a x b with element (i, j) numbered i*b + j."""
    rels = []
    for i in range(a):
        for j in range(b):
            if j + 1 < b:
                rels.append((i * b + j, i * b + j + 1))
            if i + 1 < a:
                rels.append((i * b + j, (i + 1) * b + j))
    return a * b, rels


def box_poset(boxes):
    """Boxes numbered in the given (row-major) order; u < v when v is the
    east or south neighbour of u."""
    index = {box: k for k, box in enumerate(boxes)}
    rels = []
    for (i, j), k in index.items():
        for nb in ((i, j + 1), (i + 1, j)):
            if nb in index:
                rels.append((k, index[nb]))
    return len(boxes), rels


def skew_boxes(outer, inner=()):
    """Row-major boxes of outer/inner, translated so the occupied rows start
    at row 1 and the leftmost occupied column is column 1."""
    inner = list(inner) + [0] * (len(outer) - len(inner))
    rows = [i for i in range(len(outer)) if outer[i] > inner[i]]
    if not rows:
        return []
    off = min(inner[i] for i in rows)
    return [
        (i - rows[0] + 1, j - off)
        for i in range(rows[0], rows[-1] + 1)
        for j in range(inner[i] + 1, outer[i] + 1)
    ]


def shifted_boxes(strict):
    return [(i, j) for i in range(1, len(strict) + 1) for j in range(i, i + strict[i - 1])]


def propeller(a: int):
    """P_{a,1,1,a}: a chain w of a, two parallel single elements, a chain z of a."""
    n = 2 * a + 2
    w, x, y, z = list(range(a)), a, a + 1, list(range(a + 2, n))
    rels = [(w[i], w[i + 1]) for i in range(a - 1)]
    rels += [(z[i], z[i + 1]) for i in range(a - 1)]
    rels += [(w[-1], x), (w[-1], y), (x, z[0]), (y, z[0])]
    return n, rels


def two_row_interval(b: int):
    """[empty, b^2] of Young's lattice, numbered by the canonical order of
    the ideals of the 2 x b box poset."""
    base = Oracle(*box_poset(skew_boxes([b, b])))
    js = base.ideals
    index = {m: k for k, m in enumerate(js)}
    rels = [
        (index[m], index[m | 1 << p])
        for m in js
        for p in range(base.n)
        if base.addable(m, p)
    ]
    return len(js), rels


def exceptional(path) -> tuple[int, list]:
    """P(E6) or P(E7) from the library's data file, the input both sides read."""
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    return d["n"], [tuple(c) for c in d["covers"]]


def parse_parts(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text.strip() else []


# --- closed forms from the theorems ---------------------------------------

# Rowmotion order on J(P) for a minuscule P is the Coxeter number.
def minuscule_constants(tag: str, params) -> tuple[Fraction, int, int]:
    """(tCDE constant c, |J|, rowmotion order)."""
    if tag == "axb":
        a, b = params
        return Fraction(a * b, a + b), comb(a + b, a), a + b
    if tag == "b2":
        (b,) = params
        return Fraction(b + 2, 4), 2 ** (b + 1), 2 * (b + 1)
    if tag == "pa11a":
        (a,) = params
        return Fraction(1), 2 * a + 4, 2 * a + 2
    if tag == "E6":
        return Fraction(4, 3), 27, 12
    if tag == "E7":
        return Fraction(3, 2), 56, 18
    raise ValueError(tag)


def hook_product(parts) -> int:
    """f^lambda = N! / prod of hook lengths."""
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    prod = 1
    for i, row in enumerate(parts):
        for j in range(row):
            prod *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(parts)) // prod


def shifted_hook_product(strict) -> int:
    """g^lambda = N! / prod of shifted hook lengths.  The shifted hook of
    (i, j) is the box, the boxes east of it, the boxes south of it, and when
    j+1 is a row, every box of row j+1."""
    boxes = set(shifted_boxes(strict))
    prod = 1
    for i, j in boxes:
        east = sum(1 for (r, c) in boxes if r == i and c > j)
        south = sum(1 for (r, c) in boxes if c == j and r > i)
        row_after = strict[j] if j < len(strict) else 0
        prod *= 1 + east + south + row_after
    return factorial(sum(strict)) // prod


def barely_count(boxes) -> int:
    """Standard barely set-valued tableaux: one box holds two values x < y.
    Splitting that box into x below y turns each tableau into a linear
    extension of the split poset, so the count is a sum of extension counts."""
    n, rels = box_poset(boxes)
    total = 0
    for b in range(n):
        hi = n  # the new element carries the larger value of box b
        split = []
        for p, q in rels:
            if p == b:
                split.append((hi, q))
            else:
                split.append((p, q))
        split.append((b, hi))
        total += Oracle(n + 1, split).linear_extensions()
    return total


def partitions(max_size: int, strict: bool = False) -> list[tuple[int, ...]]:
    out = []

    def rec(left, top, acc):
        if left == 0:
            out.append(tuple(acc))
            return
        for p in range(min(left, top), 0, -1):
            rec(left - p, p - 1 if strict else p, acc + [p])

    for size in range(1, max_size + 1):
        rec(size, size, [])
    return out


def partition_count(max_size: int, strict: bool = False) -> int:
    """Number of (strict) partitions of 1..max_size, by the generating product."""
    coeff = [1] + [0] * max_size
    for part in range(1, max_size + 1):
        if strict:
            for s in range(max_size, part - 1, -1):
                coeff[s] += coeff[s - part]
        else:
            for s in range(part, max_size + 1):
                coeff[s] += coeff[s - part]
    return sum(coeff[1:])


# --- brute-force chain statistics ----------------------------------------


class TooMany(Exception):
    """A brute-force enumeration went past its cap."""


def chain_expectations(elems, less, ddeg, cap: int = 200_000):
    """E(chain_k; ddeg) for k = 0..r by listing every chain x0 < ... < xk.

    ``elems`` are hashable elements, ``less(x, y)`` the strict order.  Raises
    TooMany once more than ``cap`` chains have been listed.
    """
    up = {x: [y for y in elems if less(x, y)] for x in elems}
    weighted: dict[int, int] = {}
    count: dict[int, int] = {}
    listed = 0

    def rec(x, k, acc):
        nonlocal listed
        listed += 1
        if listed > cap:
            raise TooMany
        weighted[k] = weighted.get(k, 0) + acc
        count[k] = count.get(k, 0) + 1
        for y in up[x]:
            rec(y, k + 1, acc + ddeg[y])

    for x in elems:
        rec(x, 0, ddeg[x])
    return [Fraction(weighted[k], (k + 1) * count[k]) for k in range(len(count))]


def maxchain_expectation(elems, covers, ddeg, cap: int = 200_000) -> Fraction:
    """Weight on x proportional to the maximal chains through x; ``covers``
    maps each element to the elements covering it."""
    covered = {y for x in elems for y in covers[x]}
    minimal = [x for x in elems if x not in covered]
    weighted = 0
    size = 0
    listed = 0

    def rec(x, acc, length):
        nonlocal weighted, size, listed
        if not covers[x]:
            listed += 1
            if listed > cap:
                raise TooMany
            weighted += acc
            size += length
            return
        for y in covers[x]:
            rec(y, acc + ddeg[y], length + 1)

    for x in minimal:
        rec(x, ddeg[x], 1)
    return Fraction(weighted, size)


def multichain_expectations(elems, less, ddeg, m: int, cap: int = 200_000):
    """(E(mchain_m; ddeg), E(mmchain_m; ddeg)) by listing x0 <= ... <= xm.

    mchain weighs x by the multichains containing it, mmchain by the number
    of positions it occupies.
    """
    upeq = {x: [y for y in elems if y == x or less(x, y)] for x in elems}
    contain_w = contain_n = occ_w = total = 0
    listed = 0

    def rec(seq):
        nonlocal contain_w, contain_n, occ_w, total, listed
        if len(seq) == m + 1:
            listed += 1
            if listed > cap:
                raise TooMany
            distinct = set(seq)
            contain_w += sum(ddeg[x] for x in distinct)
            contain_n += len(distinct)
            occ_w += sum(ddeg[x] for x in seq)
            total += 1
            return
        for y in upeq[seq[-1]]:
            rec(seq + [y])

    for x in elems:
        rec([x])
    return Fraction(contain_w, contain_n), Fraction(occ_w, (m + 1) * total)


def lattice_chain_view(o: Oracle):
    """(elements, strict order, covers, ddeg) of J(P), elements being masks."""
    js = o.ideals
    covers = {m: [m | 1 << p for p in range(o.n) if o.addable(m, p)] for m in js}
    return js, (lambda x, y: x != y and x & y == x), covers, {m: o.ddeg(m) for m in js}


def poset_chain_view(o: Oracle):
    """(elements, strict order, covers, ddeg) of P; ddeg counts lower covers."""
    covers = {p: [] for p in range(o.n)}
    lower = [0] * o.n
    for p, q in o.covers():
        covers[p].append(q)
        lower[q] += 1
    return list(range(o.n)), (lambda x, y: bool(o.below[y] >> x & 1)), covers, lower


def orbit_order(sizes) -> int:
    return lcm(*sizes) if sizes else 1
