import random
from fractions import Fraction
from itertools import combinations

import pytest

from cdeposets import (
    Distribution,
    Poset,
    build_lattice,
    cde_report,
    chain,
    direct_product,
    expectation,
    is_toggle_symmetric,
    uniform,
)
from cdeposets.distributions import _chain_moments, _maxchain_weights
from cdeposets.shapes import Partition, ShiftedShape, SkewShape

from conftest import (
    brute_kchains,
    brute_mchain,
    brute_mmchain,
    brute_multichains,
    load_witness_table,
    point_mass,
    random_poset,
)
from distribution_oracle import (
    chain_dist,
    convert_chain_to_mchain,
    convert_chain_to_mmchain,
    mchain_dist,
    mmchain_dist,
    necklace_count,
    normalized,
    rank_dist,
    walk_counts_through,
)


def test_distribution_invariants():
    with pytest.raises(ValueError):
        Distribution([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        Distribution([Fraction(3, 2), Fraction(-1, 2)])


def test_uniform_2x2_lattice():
    L = build_lattice(direct_product(chain(2), chain(2)))
    assert uniform(L).weights == (Fraction(1, 6),) * 6


def test_rank_dist_2x2():
    L = build_lattice(direct_product(chain(2), chain(2)))
    mu = rank_dist(L)
    support = [sorted(L.members(i)) for i, w in enumerate(mu) if w]
    assert support == [[], [0], [0, 1, 2], [0, 1, 2, 3]]
    assert all(w in (0, Fraction(1, 4)) for w in mu)
    assert expectation(mu, L.ddeg) == 1
    assert is_toggle_symmetric(L, mu)


def test_rank_dist_rejects_ungraded_base(fix_a):
    with pytest.raises(ValueError):
        rank_dist(build_lattice(fix_a))


def test_chain_dist_on_fix_a_poset(fix_a):
    ddeg = tuple(fix_a.ddeg(p) for p in range(fix_a.n))
    chains = cde_report(fix_a).chain_expectations
    assert chains[1] == Fraction(13, 14)
    assert expectation(chain_dist(fix_a, 1), ddeg) == Fraction(13, 14)
    assert chain_dist(fix_a, 0) == uniform(fix_a)
    # a longest chain of fix-a has length 2: no 3-chain expectation
    assert len(chains) == 3


def test_chain_dist_on_j_fix_c(fix_c):
    L = build_lattice(fix_c)
    chains = cde_report(L).chain_expectations
    assert chains[1] == Fraction(83, 52)
    assert chains[0] == Fraction(8, 5)
    assert chains[6] == Fraction(8, 5)


def test_chain_counts_match_enumeration():
    """The moments of the pass and the walk's through-counts, against every
    k-chain listed."""
    rng = random.Random(2)
    for _ in range(10):
        P = random_poset(rng, 5)
        ddeg = [P.ddeg(p) for p in range(P.n)]
        moments = _chain_moments(P, ddeg)
        r = len(moments) - 1
        assert not brute_kchains(P, r + 1)
        for k, through in enumerate(walk_counts_through(P, r)):
            chains = brute_kchains(P, k)
            assert moments[k] == (len(chains), sum([ddeg[p] for c in chains for p in c]))
            assert through == [sum(1 for c in chains if p in c) for p in range(P.n)]


def test_maxchain_2x2_lattice_and_point():
    L = build_lattice(direct_product(chain(2), chain(2)))
    mu = normalized(_maxchain_weights(L))
    assert expectation(mu, L.ddeg) == 1
    assert normalized(_maxchain_weights(chain(1))) == point_mass(chain(1), 0)


def test_maxchain_fix_b(fix_b):
    assert cde_report(fix_b).maxchain_expectation == Fraction(17, 16)


def test_maxchain_equals_top_chain_on_graded_lattices():
    rng = random.Random(6)
    for _ in range(10):
        P = random_poset(rng, 5)
        L = build_lattice(P)
        assert normalized(_maxchain_weights(L)) == chain_dist(L, P.n)


def test_mchain_zero_is_uniform():
    P = Poset(4, [(0, 1), (1, 2), (0, 3)])
    assert mchain_dist(P, 0) == uniform(P)
    assert mmchain_dist(P, 0) == uniform(P)


def test_mchain_on_chain_poset_matches_enumeration():
    P = chain(2)
    assert mchain_dist(P, 2) == brute_mchain(P, 2)
    assert mmchain_dist(P, 2) == brute_mmchain(P, 2)


def test_multichain_distributions_match_enumeration():
    rng = random.Random(14)
    for _ in range(12):
        P = random_poset(rng, 5)
        for m in range(4):
            assert mchain_dist(P, m) == brute_mchain(P, m)
            assert mmchain_dist(P, m) == brute_mmchain(P, m)


def test_mmchain_toggle_symmetric_on_small_lattices():
    rng = random.Random(17)
    for _ in range(12):
        P = random_poset(rng, 5)
        L = build_lattice(P)
        for m in range(5):
            assert is_toggle_symmetric(L, mmchain_dist(L, m))
            assert is_toggle_symmetric(L, mchain_dist(L, m))


def test_expectation_basics():
    P = chain(3)
    assert expectation(uniform(P), (1, 1, 1)) == 1
    with pytest.raises(ValueError):
        expectation(uniform(P), (1, 1))


def test_interval_31_and_32_expectations():
    for parts, density, maxexp in (
        ((3, 1), Fraction(8, 7), Fraction(17, 15)),
        ((3, 2), Fraction(11, 9), Fraction(37, 30)),
    ):
        L = build_lattice(SkewShape(Partition(parts)).poset())
        assert expectation(uniform(L), L.ddeg) == density
        assert cde_report(L).maxchain_expectation == maxexp


def test_fixture_witness_table_is_toggle_symmetric():
    doc = load_witness_table()
    L = build_lattice(ShiftedShape(Partition((4, 2))).poset())
    mu = Distribution([Fraction(s) for s in doc["weights"]])
    assert is_toggle_symmetric(L, mu)
    assert expectation(mu, L.ddeg) == Fraction(13, 11)


def test_point_mass_not_toggle_symmetric():
    L = build_lattice(chain(2))
    assert not is_toggle_symmetric(L, point_mass(L, 0))


def test_chain_dists_toggle_symmetric():
    rng = random.Random(23)
    for _ in range(10):
        P = random_poset(rng, 5)
        L = build_lattice(P)
        for through in walk_counts_through(L, P.n):
            assert is_toggle_symmetric(L, through)


def test_necklace_counts():
    assert necklace_count(5, 0) == 1
    assert necklace_count(3, 1) == 2
    # cross-check f(4,2) by summing orbit sizes back to C(4,2)
    assert necklace_count(4, 2) == 2

    def zeta(S, n):
        s = sorted(S)
        base = n + 1 - s[-1]
        return frozenset([base] + [base + x for x in s[:-1]])

    orbits = {}
    for tup in combinations(range(1, 5), 2):
        S = frozenset(tup)
        orbit = {S}
        T = zeta(S, 4)
        while T != S:
            orbit.add(T)
            T = zeta(T, 4)
        orbits[frozenset(orbit)] = len(orbit)
    assert sum(orbits.values()) == 6 and len(orbits) == 2


def test_necklace_lower_bound():
    from math import comb

    for n in range(1, 9):
        for k in range(n + 1):
            assert necklace_count(n, k) >= Fraction(comb(n, k), k + 1)


def test_conversion_identities_zero():
    P = Poset(3, [(0, 2), (1, 2)])
    assert convert_chain_to_mchain(P, 0) == uniform(P)
    assert convert_chain_to_mmchain(P, 0) == uniform(P)


def test_conversion_identities_exact():
    rng = random.Random(31)
    for _ in range(15):
        P = random_poset(rng, 5)
        for m in range(6):
            assert convert_chain_to_mchain(P, m) == mchain_dist(P, m)
            assert convert_chain_to_mmchain(P, m) == mmchain_dist(P, m)


def test_occurrence_counts_brute_force():
    # spot-check the occurrence DP against raw enumeration
    P = Poset(4, [(0, 1), (1, 2), (0, 3)])
    mcs = brute_multichains(P, 3)
    occ = [sum(c.count(p) for c in mcs) for p in range(P.n)]
    mu = mmchain_dist(P, 3)
    total = 4 * len(mcs)
    assert list(mu) == [Fraction(o, total) for o in occ]


def _projection_weights(JX, JY, k):
    """Weight of chain(i)_X in the X-marginal of chain(k) on X x Y.

    A k-chain of the product decomposes into an i-chain of X, a j-chain of
    Y, and an interleaving whose steps may advance one or both coordinates;
    averaging block lengths over the C(k,i) step compositions gives
    w_{k,i} = C(k,i) * N^X_i * sum_j C(i, i+j-k) * N^Y_j.
    """
    from math import comb

    def chain_counts(X):
        return [a for a, _ in _chain_moments(X, [0] * X.n)]

    counts_x, counts_y = chain_counts(JX), chain_counts(JY)
    weights = {}
    for i in range(min(k, len(counts_x) - 1) + 1):
        inner = 0
        for j in range(max(0, k - i), min(k, len(counts_y) - 1) + 1):
            d = i + j - k
            if 0 <= d <= i:
                inner += comb(i, d) * counts_y[j]
        w = comb(k, i) * counts_x[i] * inner
        if w:
            weights[i] = w
    return weights


def test_product_projection_of_chain_distributions():
    from cdeposets import build_lattice, direct_product
    from distribution_oracle import convex_combination

    rng = random.Random(47)
    for _ in range(12):
        P = random_poset(rng, 4)
        Q = random_poset(rng, 4)
        JP = build_lattice(P).as_poset()
        JQ = build_lattice(Q).as_poset()
        prod = direct_product(JP, JQ)
        # a longest chain of J(P) has length |P|
        rows_p = walk_counts_through(JP, P.n)
        for k, through in enumerate(walk_counts_through(prod, P.n + Q.n)):
            mu = normalized(through)
            marginal = [
                sum(mu[p * JQ.n + q] for q in range(JQ.n)) for p in range(JP.n)
            ]
            weights = _projection_weights(JP, JQ, k)
            combo = convex_combination(
                [(w, normalized(rows_p[i])) for i, w in weights.items()]
            )
            assert list(combo) == marginal


def test_product_preserves_mcde():
    from cdeposets import cde_report, chain, direct_product

    assert cde_report(direct_product(chain(2), chain(3))).is_mcde
    # both factors mCDE with different edge densities; the product stays mCDE
    from cdeposets.posets import load_poset
    from pathlib import Path

    fix_b = load_poset(
        Path(__file__).resolve().parent.parent / "fixtures" / "fix-b.json"
    )
    rep = cde_report(direct_product(fix_b, chain(2)))
    assert rep.is_mcde and not rep.is_cde
