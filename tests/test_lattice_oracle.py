"""J(P) from the depth-first enumeration with its label masks, the dynamics
maps from the per-ideal label masks, and every reader of T+-_p from those
masks, against the element-by-element reference routes and tables: equal
lattices, equal maps and equal statistics."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from cdeposets import (
    Distribution,
    Poset,
    build_lattice,
    cde_report,
    certify_tcde,
    chain,
    find_witness,
    is_toggle_symmetric,
    tableau_counts,
    uniform,
)
from cdeposets import tableaux
from cdeposets.cde import _identity_holds, _ideal_columns
from cdeposets.dynamics import (
    antichain_cardinality,
    gyration_map,
    gyration_sigma,
    homomesy_report,
    orbit_decomposition,
    rank_permuted_rowmotion_map,
    rowmotion_map,
)
from cdeposets.ideals import LatticeBudgetError
from cdeposets.minuscule import exceptional_poset, parse_family
from cdeposets.posets import load_poset, rank_info
from cdeposets.shapes import ShiftedShape, parse_shape

from conftest import FIXTURES, point_mass, random_toggle_symmetric
from dense_oracle import _dense_columns, _signed_tables, densify
from lattice_oracle import (
    build_lattice_reference,
    identity_failure_from_tables,
    rank_permuted_by_toggles,
    rowmotion,
    rowmotion_via_linear_extension,
)
from poset_oracle import antichain, components, disjoint_union, random_relations
from shape_oracle import rook

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


def _budget_message(build, P, budget):
    """The LatticeBudgetError message of build(P, budget), or None."""
    try:
        build(P, budget)
    except LatticeBudgetError as exc:
        return str(exc)
    return None


def _assert_same_lattice(P, ref):
    """The ideals, their index, edges, down-degrees and label masks, and the
    budget at which the build starts to fail, against the reference."""
    L = build_lattice(P)
    assert L.ideals == ref.ideals
    assert L.index == ref.index
    assert tuple(L.edges()) == ref.hasse
    assert L.edge_count() == len(ref.hasse)
    assert L.ddeg == ref.ddeg
    for masks, table in ((L.up, ref.t_plus), (L.down, ref.t_minus)):
        assert masks == tuple(
            [sum([col[i] << p for p, col in enumerate(table)]) for i in range(L.n)]
        )
    assert _budget_message(build_lattice, P, L.n) is None
    assert _budget_message(build_lattice, P, L.n - 1) == (
        f"J(P) exceeds the ideal budget of {L.n - 1}"
    )
    return L


def _assert_same(P, seed=0):
    ref = build_lattice_reference(P, budget=1 << 24)
    L = _assert_same_lattice(P, ref)

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
        assert _budget_message(build_lattice, P, budget) == _budget_message(
            build_lattice_reference, P, budget
        )


def _toggle_symmetric_from_tables(ref, mu) -> bool:
    return all(
        sum(w for w, t in zip(mu, plus) if t) == sum(w for w, t in zip(mu, minus) if t)
        for plus, minus in zip(ref.t_plus, ref.t_minus)
    )


def _assert_readers_match_tables(L, ref, rng):
    """Every reader of T+-_p from the label masks against the oracle tables."""
    nP = L.base.n
    signed = _signed_tables(L)
    for p in range(nP):
        plus, minus = [u >> p & 1 for u in L.up], [d >> p & 1 for d in L.down]
        assert (tuple(plus), tuple(minus)) == (ref.t_plus[p], ref.t_minus[p])
        assert [a - b for a, b in zip(plus, minus)] == signed[p]

    weights = [Fraction(rng.randint(0, 3)) for _ in range(L.n)]
    weights[0] += 1
    dists = [uniform(L), point_mass(L, 0), point_mass(L, L.n - 1)]
    dists.append(Distribution([w / sum(weights) for w in weights]))
    if L.n <= 200:
        dists.append(random_toggle_symmetric(L, rng))
    for mu in dists:
        assert is_toggle_symmetric(L, mu) == _toggle_symmetric_from_tables(ref, mu)

    cases = []
    for _ in range(4):
        kappa = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nP)]
        scale, empty_full = rng.randint(1, 3), rng.randint(-2, 2)
        # hold on the empty ideal, so that a failure, if any, comes later
        c = -sum(k * plus[0] for k, plus in zip(kappa, ref.t_plus))
        c -= empty_full * (-1 if L.n == 1 else 1)
        cases.append((c, kappa, scale, empty_full))
    # the certificates hold: the plain one as it is, the empty/full one
    # scaled by 2, as an identity of 2 ddeg
    for scale, cert in zip((1, 2), (certify_tcde(L), certify_tcde(L, True))):
        if cert is not None:
            assert cert.validate(L)
            kappa = [scale * k for k in cert.kappa]
            cases.append((scale * cert.c, kappa, scale, scale * cert.empty_full))
    for case in cases:
        assert _identity_holds(L, *case) == (identity_failure_from_tables(ref, *case) is None)


@pytest.mark.parametrize("literal", GOLDEN_SHAPES)
def test_shape_readers_match_tables(literal, monkeypatch):
    """rook, and the statistics of every barely formula count, against the
    same sums over the oracle tables."""
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
    n = shape.n_boxes
    families = {"barely": (0, [1] * n)}
    if isinstance(shape, ShiftedShape):
        unprimed = [1 if box in diagonal else 2 for box in shape.boxes]
        families = {
            "barely": (n + 1, [1] * n),
            "barely_diag_unprimed": (n - shape.strict.length, unprimed),
        }
    # weight i + 1 on ideal i is not toggle-symmetric, so reading T+_p in
    # place of T-_p changes the sums; the empty ideal keeps its count of
    # maximal chains, which the product formulas check
    weights = [i + 1 for i in range(L.n)]
    weights[0] = tableaux._maxchain_weights(L)[0]
    monkeypatch.setattr(tableaux, "_maxchain_weights", lambda X: weights)
    # these weights are not chain counts, so the split-box sweep, which
    # tableau_counts checks against the formula, is left out
    monkeypatch.setattr(tableaux, "SKEW_BOX_BUDGET", 0)
    monkeypatch.setattr(tableaux, "SHIFTED_BOX_BUDGET", 0)
    counts = tableau_counts(shape)
    for name, (power, box_weight) in families.items():
        minus, plus = [
            sum(
                w * v * col[idx]
                for v, col in zip(box_weight, table)
                for idx, w in enumerate(weights)
            )
            for table in (ref.t_minus, ref.t_plus)
        ]
        assert minus != plus
        assert counts[f"{name}_formula"] == 2**power * minus


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


def _shuffled_random_poset(rng, max_n):
    """A random poset on shuffled labels, which need not follow the order."""
    n = rng.randint(0, max_n)
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


def test_random_posets_match_reference():
    rng = random.Random(5)
    for seed in range(100):
        _assert_same(_shuffled_random_poset(rng, 8), seed=seed)


def test_interleaved_disjoint_unions_match_reference():
    """Disjoint unions of 2-3 random posets relabelled by a seeded
    permutation, so that their components interleave in id order and the
    depth-first search switches between them from one element to the next."""
    rng = random.Random(2015)
    interleaved = 0
    for seed in range(50):
        U = Poset(0, [])
        for _ in range(rng.randint(2, 3)):
            k = rng.randint(2, 3)
            U = disjoint_union(U, Poset(k, random_relations(rng, k, acyclic=True)))
        perm = list(range(U.n))
        rng.shuffle(perm)
        P = Poset(U.n, [(perm[p], perm[q]) for p, q in U.covers])
        interleaved += any(c[-1] - c[0] >= len(c) for c in components(P))
        _assert_same(P, seed=seed)
    assert interleaved > 30  # 40 of the 50


def test_a_deep_chain_matches_reference():
    """J(chain(1500)): the first path takes "in" 1,500 times, past the
    default recursion limit of 1,000, so the search must keep its own stack."""
    P = chain(1500)
    L = _assert_same_lattice(P, build_lattice_reference(P, budget=1 << 24))
    assert L.n == 1501 and L.ddeg == (0,) + (1,) * 1500


def test_paths_that_need_no_index_leave_it_unbuilt():
    """The ideal index is built on first read, and certification, the
    witness search, the chain pass, rowmotion and homomesy never read it."""
    for literal in ("minuscule:axb:3x4", "shifted:4,2"):
        if literal.startswith("minuscule:"):
            P = parse_family(literal).realized
        else:
            P = parse_shape(literal).poset()
        L = build_lattice(P)
        certified = certify_tcde(L) is not None
        assert (find_witness(L) is None) == certified
        cde_report(L)
        homomesy_report(L, rowmotion_map(L), antichain_cardinality(L))
        assert L._index is None, literal
        assert L.index == build_lattice_reference(P, budget=1 << 24).index
        assert L._index is L.index


def test_bit_walks_reach_bit_79_of_a_chain():
    """J(chain(80)): its up and down masks reach bit 79, the last row of the
    toggle balance and of the witness columns."""
    P = chain(80)
    L = build_lattice(P)
    ref = build_lattice_reference(P, budget=1 << 24)
    assert max(L.up).bit_length() == max(L.down).bit_length() == 80
    # on a chain lattice only equal weights balance every toggle
    fractions, ints = [Fraction(1, 81)] * 81, [3] * 81
    perturbed = ints.copy()
    perturbed[-1] += 1  # the full ideal, where only element 79 is removable
    for mu in (fractions, ints, perturbed):
        assert is_toggle_symmetric(L, mu) == _toggle_symmetric_from_tables(ref, mu)
    assert is_toggle_symmetric(L, fractions) and is_toggle_symmetric(L, ints)
    assert not is_toggle_symmetric(L, perturbed)
    assert [densify(col, 82) for col in _ideal_columns(L)] == [
        list(col) for col in _dense_columns(L)[0]
    ]


def test_budget_sweep_raises_exactly_below_the_ideal_count():
    """Every budget from 1 to |J| + 1: the error, with the reference's
    message, exactly when the budget is below |J|."""
    rng = random.Random(13)
    posets = [_shuffled_random_poset(rng, 7) for _ in range(25)]
    posets += [antichain(5), parse_family("minuscule:axb:3x3").realized]
    for P in posets:
        size = len(build_lattice_reference(P, budget=1 << 24).ideals)
        for budget in range(1, size + 2):
            message = _budget_message(build_lattice, P, budget)
            assert message == _budget_message(build_lattice_reference, P, budget)
            if budget < size:
                assert message == f"J(P) exceeds the ideal budget of {budget}"
            else:
                assert message is None


def _words_with_runs(num_ranks, rng, count):
    """Rank words for the merged-run check: gyration, its reverse (evens then
    odds), words made of long runs of pairwise non-adjacent ranks, and
    shuffles."""
    gyration = gyration_sigma(num_ranks)
    evens_odds = tuple(range(0, num_ranks, 2)) + tuple(range(1, num_ranks, 2))
    words = [gyration, gyration[::-1], evens_odds]
    for stride in (3, 4):
        words.append(tuple(r for start in range(stride) for r in range(start, num_ranks, stride)))
    while len(words) < count:
        ranks = list(range(num_ranks))
        rng.shuffle(ranks)
        if len(words) % 2:
            # split into non-adjacent runs, each sorted, runs in random order
            runs = []
            for r in ranks:
                run = next((g for g in runs if all(abs(r - t) > 1 for t in g)), None)
                if run is None:
                    runs.append([r])
                else:
                    run.append(r)
            rng.shuffle(runs)
            ranks = [r for run in runs for r in sorted(run, reverse=rng.random() < 0.5)]
        if tuple(ranks) not in words:
            words.append(tuple(ranks))
    return words


def _assert_rank_words_match_toggles(P, words):
    L = build_lattice(P)
    for sigma in words:
        assert rank_permuted_rowmotion_map(L, sigma) == rank_permuted_by_toggles(L, sigma)


@pytest.mark.parametrize("literal", ["shifted:3,2,1", "minuscule:axb:2x3"])
def test_every_rank_word_matches_toggles(literal):
    if literal.startswith("minuscule:"):
        P = parse_family(literal).realized
    else:
        P = parse_shape(literal).poset()
    num_ranks = rank_info(P).top_rank + 1
    _assert_rank_words_match_toggles(P, permutations(range(num_ranks)))


@pytest.mark.parametrize("name", ["minuscule:axb:4x5", "E6"])
def test_seeded_rank_words_match_toggles(name):
    P = exceptional_poset(name) if name == "E6" else parse_family(name).realized
    num_ranks = rank_info(P).top_rank + 1
    words = _words_with_runs(num_ranks, random.Random(name), 30)
    assert len(set(words)) == 30 and all(sorted(w) == list(range(num_ranks)) for w in words)
    _assert_rank_words_match_toggles(P, words)


def test_rank_words_on_a_ranked_but_not_graded_poset():
    P = disjoint_union(chain(2), chain(4))
    info = rank_info(P)
    assert info.is_ranked and not info.is_graded
    _assert_rank_words_match_toggles(P, permutations(range(info.top_rank + 1)))
