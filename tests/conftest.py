"""Shared helpers: fixture loading, random posets, brute-force oracles."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from cdeposets import Distribution, Poset
from cdeposets.minuscule import parse_family
from cdeposets.posets import load_poset
from cdeposets.shapes import parse_shape
from shape_oracle import skew_rows

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fix_a() -> Poset:
    return load_poset(FIXTURES / "fix-a.json")


@pytest.fixture(scope="session")
def fix_b() -> Poset:
    return load_poset(FIXTURES / "fix-b.json")


@pytest.fixture(scope="session")
def fix_c() -> Poset:
    return load_poset(FIXTURES / "fix-c.json")


@pytest.fixture(scope="session")
def fix_d() -> Poset:
    return load_poset(FIXTURES / "fix-d.json")


def load_witness_table():
    with open(FIXTURES / "witness-shifted-4-2.json", encoding="utf-8") as fh:
        return json.load(fh)


def random_poset(rng: random.Random, max_n: int = 6, density: float = 0.35) -> Poset:
    n = rng.randint(1, max_n)
    rels = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return Poset(n, rels)


# lattices of every kind the fast routes are checked on: minuscule,
# exceptional, shifted, straight and skew
NAMED = [
    "minuscule:E6",
    "minuscule:E7",
    "minuscule:axb:5x6",
    "shifted:4,2",
    "shifted:6,4,2",
    "shifted:8,6,4,2",
    "straight:7,5,3,1",
    "skew:7,6,5,4/3,1",
]


def named_poset(literal: str) -> Poset:
    if literal.startswith("minuscule:"):
        return parse_family(literal).realized
    return parse_shape(literal).poset()


def relabelled_posets(count: int = 220, seed: int = 2016):
    """``count`` seeded random posets of 0-8 elements, relabelled at random."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 8)
        density = rng.choice((0.2, 0.35, 0.5))
        perm = list(range(n))
        rng.shuffle(perm)
        rels = [
            (perm[i], perm[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        yield Poset(n, rels)


# --- brute-force oracles (independent of the library's DP routes) -------------


def brute_ideals(P: Poset) -> set[int]:
    """All downward-closed subsets by direct filtering of the power set."""
    out = set()
    for mask in range(1 << P.n):
        if all(P.strict_down[p] & ~mask == 0 for p in range(P.n) if mask >> p & 1):
            out.add(mask)
    return out


def brute_multichains(P: Poset, m: int) -> list[tuple[int, ...]]:
    out = []

    def rec(seq):
        if len(seq) == m + 1:
            out.append(tuple(seq))
            return
        for x in range(P.n):
            if not seq or seq[-1] == x or P.less(seq[-1], x):
                rec(seq + [x])

    rec([])
    return out


def brute_mchain(P: Poset, m: int) -> Distribution:
    mcs = brute_multichains(P, m)
    through = [sum(1 for c in mcs if p in c) for p in range(P.n)]
    return Distribution([Fraction(t, sum(through)) for t in through])


def brute_mmchain(P: Poset, m: int) -> Distribution:
    mcs = brute_multichains(P, m)
    occ = [sum(c.count(p) for c in mcs) for p in range(P.n)]
    return Distribution([Fraction(o, (m + 1) * len(mcs)) for o in occ])


def brute_kchains(P: Poset, k: int) -> list[tuple[int, ...]]:
    out = []

    def rec(seq):
        if len(seq) == k + 1:
            out.append(tuple(seq))
            return
        for x in range(P.n):
            if not seq or P.less(seq[-1], x):
                rec(seq + [x])

    rec([])
    return out


def maximal_chains(P: Poset) -> list[tuple[int, ...]]:
    """Every maximal chain: from a minimal element up covers to a maximal one."""
    out = []

    def rec(seq):
        if not P.up_covers[seq[-1]]:
            out.append(tuple(seq))
        for y in P.up_covers[seq[-1]]:
            rec(seq + [y])

    for s in sorted(set(range(P.n)).difference(q for _, q in P.covers)):
        rec([s])
    return out


def linear_extensions(P: Poset) -> list[tuple[int, ...]]:
    """Every linear extension: the orders of the elements that keep each cover."""
    return [
        order
        for order in permutations(range(P.n))
        if all(order.index(p) < order.index(q) for p, q in P.covers)
    ]


def component_key(shape) -> tuple:
    """Connected components of a skew shape, each normalized; shapes with the
    same key have identical tableau counts (their constraints decouple)."""
    comps = []
    cur = []
    for lo, hi in skew_rows(shape):
        if cur and hi <= cur[-1][0]:
            comps.append(tuple(cur))
            cur = []
        cur.append((lo, hi))
    comps.append(tuple(cur))
    normed = []
    for c in comps:
        off = min(lo for lo, _ in c)
        normed.append(tuple((lo - off, hi - off) for lo, hi in c))
    return tuple(sorted(normed))


def point_mass(X, i: int) -> Distribution:
    """Weight 1 on element i of X (a poset or an ideal lattice)."""
    return Distribution([Fraction(1) if j == i else Fraction(0) for j in range(X.n)])


def random_toggle_symmetric(L, rng: random.Random) -> Distribution:
    """Uniform plus a random perturbation from the toggle-symmetry kernel,
    scaled to keep all weights nonnegative."""
    from dense_oracle import dense_nullspace
    from lattice_oracle import toggle_tables

    rows = [[Fraction(1)] * L.n]
    for plus, minus in zip(*toggle_tables(L.base, L.ideals)):
        rows.append([Fraction(a - b) for a, b in zip(plus, minus)])
    basis = dense_nullspace(rows)
    if not basis:
        from cdeposets import uniform

        return uniform(L)
    v = [Fraction(0)] * L.n
    for vec in basis:
        c = Fraction(rng.randint(-3, 3))
        if c:
            v = [a + c * b for a, b in zip(v, vec)]
    base = Fraction(1, L.n)
    worst = min((x for x in v if x < 0), default=None)
    if worst is None:
        scale = Fraction(1)
    else:
        scale = (base / -worst) / 2
    return Distribution([base + scale * x for x in v])
