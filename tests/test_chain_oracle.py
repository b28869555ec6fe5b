"""Chain statistics of J(P) from the packed one-pass polynomials against
the same functions run on L.as_poset(), which sum over the comparable pairs
of ideals, and against the k-step walk of ``distribution_oracle``: every
count and every Fraction equal.  The multichain expectations read off
``cde_report``'s chain moments are checked against the expectations of the
per-element mchain/mmchain distributions, which the oracle builds from the
walk.  The maxchain weights and the linear extension count share one
saturated-chain sweep on both routes, so they are also checked against
brute-force enumeration."""

import random

import pytest

from cdeposets import Poset, build_lattice, cde_report, cli, distributions
from cdeposets.cde import _ddeg_stat
from cdeposets.distributions import _chain_moments, _maxchain_weights, expectation
from cdeposets.ideals import IdealLattice
from cdeposets.minuscule import parse_family
from cdeposets.posets import chain, load_poset
from cdeposets.shapes import parse_shape

from conftest import FIXTURES, linear_extensions, maximal_chains
from distribution_oracle import mchain_dist, mmchain_dist, walk_counts_through, walk_moments
from poset_oracle import antichain, disjoint_union
from tableau_oracle import count_linear_extensions


def _assert_moments_route(X, report, ms):
    """The multichain expectations from the chain moments equal those of the
    mchain/mmchain distributions."""
    ddeg = _ddeg_stat(X)
    for m in ms:
        assert report.multichain_expectations(m) == (
            expectation(mchain_dist(X, m), ddeg),
            expectation(mmchain_dist(X, m), ddeg),
        ), m


def _no_poset(L):
    raise AssertionError("cde_report(J(P)) must not build the lattice poset")


def _assert_same(L):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IdealLattice, "as_poset", _no_poset)
        report = cde_report(L)
    P = L.as_poset()
    assert report == cde_report(P)
    n = L.base.n
    through = walk_counts_through(L, n + 1)
    assert through == walk_counts_through(P, n + 1)
    # the k-chain counts of the moments, from the through-counts
    counts = [sum(row) // (k + 1) for k, row in enumerate(through)]
    assert [a for a, _ in report.chain_moments] + [0] == counts
    assert _maxchain_weights(L) == _maxchain_weights(P)
    for m in range(4):
        assert mchain_dist(L, m) == mchain_dist(P, m)
        assert mmchain_dist(L, m) == mmchain_dist(P, m)
    _assert_moments_route(L, report, range(4))


def _poset(literal):
    if literal.startswith("minuscule:"):
        return parse_family(literal).realized
    return parse_shape(literal).poset()


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
    _assert_same(build_lattice(_poset(literal)))


@pytest.mark.parametrize("name", ["fix-a", "fix-b", "fix-c", "fix-d"])
def test_fixture_lattices_match_poset_route(name):
    _assert_same(build_lattice(load_poset(FIXTURES / f"{name}.json")))


def _random_poset(rng, n):
    density = rng.choice((0.2, 0.35, 0.5))
    perm = list(range(n))
    rng.shuffle(perm)
    rels = [
        (perm[i], perm[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return Poset(n, rels)


def test_random_posets_match_poset_route():
    rng = random.Random(4)
    for _ in range(100):
        _assert_same(build_lattice(_random_poset(rng, rng.randint(0, 8))))


def test_multichain_moments_match_distributions_on_random_posets():
    rng = random.Random(15)
    raw = [load_poset(FIXTURES / f"fix-{c}.json") for c in "abcd"]
    raw += [_random_poset(rng, rng.randint(1, 7)) for _ in range(60)]
    for P in raw:
        for X in (P, build_lattice(P)):
            report = cde_report(X)
            r = len(report.chain_expectations) - 1
            _assert_moments_route(X, report, [*range(6), r + 1, r + 3])
    with pytest.raises(ValueError, match="m must be >= 0"):
        cde_report(P).multichain_expectations(-1)


def _maxchain_brute(X):
    """The number of maximal chains that contain each p."""
    through = [0] * X.n
    for c in maximal_chains(X):
        for p in c:
            through[p] += 1
    return through


def test_maxchain_dist_matches_brute_force_on_raw_posets():
    rng = random.Random(12)
    for _ in range(150):
        P = _random_poset(rng, rng.randint(1, 9))
        if rng.random() < 0.5:
            P = disjoint_union(P, _random_poset(rng, rng.randint(1, 5)))
        if rng.random() < 0.3:
            P = disjoint_union(P, antichain(rng.randint(1, 3)))
        assert _maxchain_weights(P) == _maxchain_brute(P)


def test_maxchain_dist_matches_brute_force_on_lattices():
    rng = random.Random(13)
    for _ in range(40):
        L = build_lattice(_random_poset(rng, rng.randint(0, 6)))
        assert _maxchain_weights(L) == _maxchain_brute(L.as_poset())


def test_linear_extension_count_matches_enumeration():
    rng = random.Random(14)
    for _ in range(150):
        P = _random_poset(rng, rng.randint(0, 7))
        assert count_linear_extensions(P) == len(linear_extensions(P))


def _assert_walk(X):
    """The one-pass moments, of ddeg and of a statistic of huge values, equal
    the k-step walk's, which finds no chain longer than theirs."""
    for stat in (list(_ddeg_stat(X)), [10**40 + 7 * (x % 5) for x in range(X.n)]):
        moments = _chain_moments(X, stat)
        assert moments + [(0, 0)] == walk_moments(X, stat, len(moments))


@pytest.mark.parametrize(
    "literal",
    [
        "minuscule:E6",
        "minuscule:E7",
        "minuscule:axb:1x1",
        "minuscule:axb:2x5",
        "minuscule:axb:3x4",
        "minuscule:axb:4x5",
        "minuscule:axb:5x6",
        "minuscule:axb:6x6",
        "minuscule:b2:5",
        "shifted:3,2,1",
        "shifted:5,4,3,2,1",
        "shifted:6,4,2",
        "shifted:10,8,6,4,2",
        "skew:6,5,4/2",
        "skew:4,3,2/2,1",
        "skew:5,3,1/2",
    ],
)
def test_one_pass_matches_walk_on_named_lattices(literal):
    L = build_lattice(_poset(literal))
    _assert_walk(L)
    if L.n <= 100:
        _assert_walk(L.as_poset())


def test_one_pass_matches_walk_on_random_posets():
    # _random_poset shuffles the ids, so they need not be a linear extension
    rng = random.Random(20)
    for _ in range(200):
        P = _random_poset(rng, rng.randint(0, 9))
        _assert_walk(P)
        _assert_walk(build_lattice(P))


@pytest.mark.parametrize(
    "P",
    [
        antichain(10),
        disjoint_union(chain(3), disjoint_union(chain(3), chain(2))),
        disjoint_union(antichain(4), chain(5)),
    ],
    ids=["antichain-10", "chains-3-3-2", "antichain-4-chain-5"],
)
def test_one_pass_matches_walk_on_wide_posets(P):
    _assert_walk(P)
    _assert_walk(build_lattice(P))


def test_too_narrow_width_raises(monkeypatch, capsys):
    L = build_lattice(parse_shape("straight:3,2").poset())
    for width in (1, 2):
        monkeypatch.setattr(distributions, "_width", lambda X, top: (width, X.base.n))
        with pytest.raises(ArithmeticError, match="overflowed their width"):
            cde_report(L)
    assert cli.main(["analyze", "--shape", "straight:3,2"]) == 4
    assert "overflowed their width" in capsys.readouterr().out
