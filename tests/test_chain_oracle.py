"""Chain statistics of J(P) from the zeta walk over the Hasse edges against
the same functions run on L.as_poset(), which walk the comparable pairs of
ideals: every Fraction equal."""

import random

import pytest

from cdeposets import build_lattice, build_poset, cde_report
from cdeposets.distributions import (
    chain_count,
    chain_counts_through,
    chain_dist,
    maxchain_dist,
    mchain_dist,
    mmchain_dist,
)
from cdeposets.minuscule import parse_family
from cdeposets.posets import load_poset
from cdeposets.shapes import parse_shape

from conftest import FIXTURES

# beyond this many ideals chain_dist is compared at a few k only, because
# the comparable-pairs route takes O(k * |J|^2) per k
ALL_K_MAX_IDEALS = 200


def _assert_same(L):
    report = cde_report(L)
    assert L._poset is None, "cde_report(J(P)) must not build the lattice poset"
    P = L.as_poset()
    assert report == cde_report(P)
    n = L.base.n
    assert chain_counts_through(L, n + 1) == chain_counts_through(P, n + 1)
    if L.n <= ALL_K_MAX_IDEALS:
        ks = range(n + 1)
    else:
        ks = sorted({0, 1, 2, n // 2, n - 1, n})
    for k in ks:
        assert chain_counts_through(L, k) == chain_counts_through(P, k)
        assert chain_dist(L, k) == chain_dist(P, k)
    for k in range(n + 2):
        assert chain_count(L, k) == chain_count(P, k)
    assert maxchain_dist(L) == maxchain_dist(P)
    for m in range(4):
        assert mchain_dist(L, m) == mchain_dist(P, m)
        assert mmchain_dist(L, m) == mmchain_dist(P, m)


@pytest.mark.parametrize(
    "literal",
    [
        "minuscule:E6",
        "minuscule:E7",
        "minuscule:axb:3x4",
        "minuscule:axb:4x5",
        "minuscule:axb:5x6",
        "minuscule:b2:5",
        "shifted:6,4,2",
        "skew:6,5,4/2",
    ],
)
def test_named_lattices_match_poset_route(literal):
    if literal.startswith("minuscule:"):
        P = parse_family(literal).realized
    else:
        P = parse_shape(literal).poset()
    _assert_same(build_lattice(P))


@pytest.mark.parametrize("name", ["fix-a", "fix-b", "fix-c", "fix-d"])
def test_fixture_lattices_match_poset_route(name):
    _assert_same(build_lattice(load_poset(FIXTURES / f"{name}.json")))


def test_random_posets_match_poset_route():
    rng = random.Random(4)
    for _ in range(100):
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
        _assert_same(build_lattice(build_poset(n, rels)))
