"""J(P) from the level-by-level enumeration with addable masks, and the
dynamics maps from the per-ideal label masks, against the element-by-element
reference routes: equal lattices and equal maps."""

import random

import pytest

from cdeposets import antichain, build_lattice, build_poset
from cdeposets.dynamics import (
    antichain_cardinality,
    gyration_map,
    gyration_sigma,
    homomesy_report,
    orbit_decomposition,
    rank_permuted_rowmotion_map,
    rowmotion,
    rowmotion_map,
    rowmotion_via_linear_extension,
)
from cdeposets.ideals import LatticeBudgetError
from cdeposets.minuscule import parse_family
from cdeposets.posets import load_poset, rank_info
from cdeposets.shapes import parse_shape

from conftest import FIXTURES
from lattice_oracle import build_lattice_reference, rank_permuted_by_toggles

GOLDEN_SHAPES = [
    "shifted:2,1",
    "shifted:3,2,1",
    "shifted:4,2",
    "shifted:5,3,1",
    "skew:4,3,2/2,1",
    "skew:4,3,3,3/2,2",
    "straight:1",
    "straight:3,2",
    "straight:4,3,2",
]


def _raises_budget(build, P, budget) -> bool:
    try:
        build(P, budget)
    except LatticeBudgetError:
        return True
    return False


def _assert_same(P, seed=0):
    L = build_lattice(P)
    ref = build_lattice_reference(P, budget=1 << 24)
    assert L.ideals == ref.ideals
    assert L.index == ref.index
    assert L.hasse == ref.hasse
    assert L.ddeg == ref.ddeg

    info = rank_info(P)
    maps = [rowmotion_map(L)]
    if info.is_ranked:
        sigma = list(range(info.top_rank + 1))
        random.Random(seed).shuffle(sigma)
        maps += [gyration_map(L), rank_permuted_rowmotion_map(L, sigma)]
    for mapping in maps:
        orbit_decomposition(L, mapping)
        homomesy_report(L, mapping, antichain_cardinality(L))
    assert L._t_plus is None and L._t_minus is None, "the maps built the tables"
    assert L.t_plus == ref.t_plus
    assert L.t_minus == ref.t_minus

    row = maps[0]
    assert row == [rowmotion(L, i) for i in range(L.n)]
    assert row == rowmotion_via_linear_extension(L, P.topological_order())
    if info.is_ranked:
        assert maps[1] == rank_permuted_by_toggles(L, gyration_sigma(len(sigma)))
        assert maps[2] == rank_permuted_by_toggles(L, sigma)
        assert rank_permuted_rowmotion_map(L, range(len(sigma))) == row
    else:
        with pytest.raises(ValueError):
            gyration_map(L)

    for budget in (L.n - 1, L.n):
        assert _raises_budget(build_lattice, P, budget) == _raises_budget(
            build_lattice_reference, P, budget
        )
    assert not _raises_budget(build_lattice, P, L.n)
    if P.n:
        assert _raises_budget(build_lattice, P, L.n - 1)


@pytest.mark.parametrize(
    "literal",
    [
        "minuscule:E6",
        "minuscule:E7",
        "minuscule:axb:3x4",
        "minuscule:axb:4x5",
        "minuscule:axb:5x5",
        "minuscule:axb:5x6",
        "minuscule:axb:6x6",
        "minuscule:b2:5",
        "minuscule:pa11a:4",
        *GOLDEN_SHAPES,
    ],
)
def test_named_lattices_match_reference(literal):
    if literal.startswith("minuscule:"):
        P = parse_family(literal).realized
    else:
        P = parse_shape(literal).poset()
    _assert_same(P, seed=len(literal))


@pytest.mark.parametrize("name", ["fix-a", "fix-b", "fix-c", "fix-d"])
def test_fixture_lattices_match_reference(name):
    _assert_same(load_poset(FIXTURES / f"{name}.json"))


@pytest.mark.parametrize("n", range(7))
def test_antichains_match_reference(n):
    _assert_same(antichain(n), seed=n)


def test_random_posets_match_reference():
    rng = random.Random(5)
    for seed in range(100):
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
        _assert_same(build_poset(n, rels), seed=seed)
