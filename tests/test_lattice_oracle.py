"""J(P) from the level-by-level enumeration with addable masks, the dynamics
maps from the per-ideal label masks, and every reader of T+-_p from those
masks, against the element-by-element reference routes and tables: equal
lattices, equal maps and equal statistics."""

import random
from fractions import Fraction

import pytest

from cdeposets import (
    Distribution,
    antichain,
    build_lattice,
    build_poset,
    certify_tcde,
    expectation,
    g_thrall,
    is_toggle_symmetric,
    maxchain_dist,
    rook,
    tableau_counts,
    toggleability,
    uniform,
)
from cdeposets import tableaux
from cdeposets.cde import _identity_failure
from cdeposets.dynamics import (
    antichain_cardinality,
    gyration_map,
    gyration_sigma,
    homomesy_report,
    orbit_decomposition,
    rank_permuted_rowmotion_map,
    rowmotion,
    rowmotion_map,
    signed_toggleability,
)
from cdeposets.ideals import LatticeBudgetError
from cdeposets.minuscule import parse_family
from cdeposets.posets import load_poset, rank_info
from cdeposets.shapes import ShiftedShape, parse_shape

from conftest import FIXTURES, point_mass, random_toggle_symmetric
from lattice_oracle import (
    build_lattice_reference,
    rank_permuted_by_toggles,
    rowmotion_via_linear_extension,
)

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
    assert tuple(L.edges()) == ref.hasse
    assert L.edge_count() == len(ref.hasse)
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
    _assert_readers_match_tables(L, ref, random.Random(seed))

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
    assert _raises_budget(build_lattice, P, L.n - 1)


def _toggle_symmetric_from_tables(ref, mu) -> bool:
    return all(
        sum(w for w, t in zip(mu, plus) if t) == sum(w for w, t in zip(mu, minus) if t)
        for plus, minus in zip(ref.t_plus, ref.t_minus)
    )


def _identity_failure_from_tables(ref, c, kappa, scale, empty_full):
    n = len(ref.ideals)
    extra = [0] * n
    extra[0] = 1
    extra[-1] = -1
    for i in range(n):
        total = c - scale * ref.ddeg[i] + empty_full * extra[i]
        for p, (plus, minus) in enumerate(zip(ref.t_plus, ref.t_minus)):
            total += kappa[p] * (plus[i] - minus[i])
        if total:
            return i
    return None


def _assert_readers_match_tables(L, ref, rng):
    """Every reader of T+-_p from the label masks against the oracle tables."""
    nP = L.base.n
    for p in range(nP):
        assert toggleability(L, p) == (ref.t_plus[p], ref.t_minus[p])
        assert signed_toggleability(L, p) == tuple(
            [a - b for a, b in zip(ref.t_plus[p], ref.t_minus[p])]
        )

    weights = [Fraction(rng.randint(0, 3)) for _ in range(L.n)]
    weights[0] += 1
    dists = [uniform(L), point_mass(L, 0), point_mass(L, L.n - 1)]
    dists.append(Distribution([w / sum(weights) for w in weights]))
    if L.n <= 200:
        dists.append(random_toggle_symmetric(L, rng))
    for mu in dists:
        assert is_toggle_symmetric(L, mu) == _toggle_symmetric_from_tables(ref, mu)

    cert = certify_tcde(L)
    cases = [] if cert is None else [(cert.c, cert.kappa, 1, 0)]
    for _ in range(4):
        kappa = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nP)]
        scale, empty_full = rng.randint(1, 3), rng.randint(-2, 2)
        # hold on the empty ideal, so that a failure, if any, comes later
        c = -sum(k * plus[0] for k, plus in zip(kappa, ref.t_plus))
        c -= empty_full * (-1 if L.n == 1 else 1)
        cases.append((c, kappa, scale, empty_full))
    for c, kappa, scale, empty_full in cases:
        assert _identity_failure(L, c, kappa, scale, empty_full) == (
            _identity_failure_from_tables(ref, c, kappa, scale, empty_full)
        )
    if cert is not None:
        assert _identity_failure(L, cert.c, cert.kappa) is None


@pytest.mark.parametrize("literal", GOLDEN_SHAPES)
def test_shape_readers_match_tables(literal, monkeypatch):
    """rook, and the diagonal statistic of the shifted barely count, against
    the same sums over the oracle tables."""
    shape = parse_shape(literal)
    L = build_lattice(shape.poset())
    ref = build_lattice_reference(shape.poset(), budget=1 << 24)
    diagonal = shape.diagonal
    for i, j in shape.boxes:
        vals = [0] * L.n
        for k, (x, y) in enumerate(shape.boxes):
            plus, minus = ref.t_plus[k], ref.t_minus[k]
            on = (x, y) in diagonal
            for idx in range(L.n):
                if x <= i and y <= j:
                    vals[idx] += plus[idx]
                if x >= i and y >= j:
                    vals[idx] += minus[idx]
                if x < i and y < j and not on:
                    vals[idx] -= minus[idx]
                if x > i and y > j and not on:
                    vals[idx] -= plus[idx]
        assert rook(shape, L, i, j) == tuple([Fraction(v) for v in vals])
    if isinstance(shape, ShiftedShape):
        lam, n = shape.strict, shape.n_boxes
        diag = [shape.box_index[(i, i)] for i in range(1, lam.length + 1)]
        ddeg = [sum(minus[idx] for minus in ref.t_minus) for idx in range(L.n)]
        stat = [
            2 * ddeg[idx] - sum(ref.t_minus[p][idx] for p in diag)
            for idx in range(L.n)
        ]
        mu = maxchain_dist(L)
        expected_primed = (n + 1) * 2 ** (n + 1) * g_thrall(lam) * expectation(mu, ddeg)
        expected = (
            (n + 1) * 2 ** (n - lam.length) * g_thrall(lam)
            * expectation(mu, stat)
        )
        # the maxchain distribution is toggle-symmetric, so the counts alone
        # would not tell T-_p from T+_p: record the statistics they average
        seen = []

        def recording(mu, values):
            seen.append(list(values))
            return expectation(mu, values)

        monkeypatch.setattr(tableaux, "expectation", recording)
        counts = tableau_counts(shape)
        assert counts["barely_formula"] == expected_primed
        assert counts["barely_diag_unprimed_formula"] == expected
        assert seen == [ddeg, stat]


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
