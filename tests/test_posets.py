import json
import random
from fractions import Fraction

import pytest

from cdeposets import (
    CycleError,
    Poset,
    cde_report,
    chain,
    direct_product,
    dual,
    is_isomorphic,
    rank_info,
)
from cdeposets.posets import (
    PosetError,
    _bits,
    _heights,
    poset_from_dict,
)
from cdeposets.serialize import dumps

from conftest import brute_kchains, maximal_chains, random_poset
from poset_oracle import (
    antichain,
    brute_order,
    components,
    disjoint_union,
    random_relations,
    rank_info_reference,
)


def test_bits_matches_plain_loop():
    rng = random.Random(7)
    masks = [0, 1, (1 << 64) - 1]
    masks += [rng.getrandbits(rng.randrange(1, 7001)) for _ in range(60)]
    masks += [sum([1 << rng.randrange(7000) for _ in range(30)]) for _ in range(20)]
    for mask in masks:
        expected = [i for i in range(mask.bit_length()) if mask >> i & 1]
        assert _bits(mask) == expected


def test_build_reduces_redundant_relations():
    P = Poset(3, [(0, 1), (1, 2), (0, 2)])
    assert P.covers == ((0, 1), (1, 2))
    # the implied relation (0, 2) is no Hasse edge: a 3-chain has 2 edges
    assert cde_report(P).edge_density == Fraction(2, 3)


def test_singleton():
    P = Poset(1, [])
    assert P.n == 1 and P.covers == ()


def test_fix_a_construction(fix_a):
    assert fix_a.n == 5
    assert fix_a.covers == ((0, 2), (0, 3), (1, 2), (1, 3), (2, 4))


def test_cycle_rejected_with_cycle():
    with pytest.raises(CycleError) as info:
        Poset(3, [(0, 1), (1, 2), (2, 0)])
    cyc = info.value.cycle
    assert len(cyc) >= 3 and set(cyc) <= {0, 1, 2}
    with pytest.raises(CycleError):
        Poset(2, [(0, 0)])
    with pytest.raises(CycleError) as info:
        Poset(2, [(0, 1), (1, 0)])
    assert info.value.cycle == [0, 1, 0]


def test_construction_matches_brute_force_closure():
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(0, 9)
        rels = random_relations(rng, n, acyclic=True)
        covers, strict_up, strict_down = brute_order(n, rels)
        P = Poset(n, rels)
        assert (P.covers, P.strict_up, P.strict_down) == (covers, strict_up, strict_down)
        assert P.up_covers == tuple(tuple(q for a, q in covers if a == p) for p in range(n))
        assert P.down_covers == tuple(tuple(a for a, q in covers if q == p) for p in range(n))


def test_reported_cycle_is_a_real_cycle():
    rng = random.Random(77)
    cyclic = 0
    for _ in range(600):
        n = rng.randint(1, 9)
        rels = random_relations(rng, n, acyclic=False)
        if brute_order(n, rels) is not None:
            assert Poset(n, rels).n == n
            continue
        cyclic += 1
        with pytest.raises(CycleError) as info:
            Poset(n, rels)
        cycle = info.value.cycle
        assert len(cycle) >= 3 and cycle[0] == cycle[-1]
        assert all(pair in rels for pair in zip(cycle, cycle[1:]))
    assert cyclic > 200


def test_out_of_range_relation():
    with pytest.raises(PosetError):
        Poset(2, [(0, 5)])


def test_negative_size_rejected():
    # left to later code, a negative n builds a J(P) of one ideal
    for n in (-1, -2):
        with pytest.raises(PosetError, match="n >= 0"):
            Poset(n, [])
    assert Poset(0, []).n == 0


@pytest.mark.parametrize(
    "n, relations, match",
    [
        (2, [(0, 1.7)], "relation ids must be integers"),
        (3, [("0", "2")], "relation ids must be integers"),
        (2.5, [], "integer number of elements"),
    ],
)
def test_non_integer_ids_rejected(n, relations, match):
    # int() would truncate 1.7 to 1 and parse "0" and "2"
    with pytest.raises(PosetError, match=match):
        Poset(n, relations)


def test_transitive_reduction_idempotent():
    rng = random.Random(3)
    for _ in range(30):
        P = random_poset(rng)
        again = Poset(P.n, P.covers)
        assert again.covers == P.covers


def test_dual_involution(fix_a):
    assert dual(dual(fix_a)) == fix_a
    assert is_isomorphic(dual(chain(3)), chain(3))


def test_dual_reverses_covers():
    P = Poset(3, [(0, 1), (1, 2)])
    assert dual(P).covers == ((1, 0), (2, 1))


def test_union_product_commute_up_to_iso():
    rng = random.Random(5)
    for _ in range(8):
        P = random_poset(rng, 4)
        Q = random_poset(rng, 4)
        assert is_isomorphic(disjoint_union(P, Q), disjoint_union(Q, P))
        assert is_isomorphic(direct_product(P, Q), direct_product(Q, P))


def test_product_associative_up_to_iso():
    A, B, C = chain(2), antichain(2), chain(3)
    assert is_isomorphic(
        direct_product(direct_product(A, B), C),
        direct_product(A, direct_product(B, C)),
    )
    assert is_isomorphic(
        disjoint_union(disjoint_union(A, B), C),
        disjoint_union(A, disjoint_union(B, C)),
    )


def test_product_of_graded_ranks_add():
    P = direct_product(chain(3), chain(2))
    info = rank_info(P)
    assert info.is_graded and info.top_rank == 3  # (3-1) + (2-1)


def test_rank_info_fix_a(fix_a):
    info = rank_info(fix_a)
    assert info.is_ranked and not info.is_graded
    assert info.rank == (0, 0, 1, 1, 2)


def test_rank_info_chain():
    for a in range(1, 6):
        info = rank_info(chain(a))
        assert info.is_graded and info.top_rank == a - 1


def test_rank_info_fix_d(fix_d):
    # three rank levels; every maximal chain has length 2
    info = rank_info(fix_d)
    assert info.is_graded and info.top_rank == 2


def test_rank_info_unrankable():
    # a diamond with sides of different lengths cannot carry a rank function
    P = Poset(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    assert not rank_info(P).is_ranked


def test_rank_info_matches_reference_route():
    rng = random.Random(4096)
    ranked = unranked = 0
    for _ in range(1200):
        n = rng.randint(0, 10)
        P = Poset(n, random_relations(rng, n, acyclic=True))
        info = rank_info(P)
        assert info == rank_info_reference(P), P
        ranked += info.is_ranked
        unranked += not info.is_ranked
    assert ranked > 500 and unranked > 100
    # disjoint unions relabelled by a random permutation, so that their
    # components interleave in id order, with ranked and non-ranked
    # components mixed
    interleaved = mixed = ranked_unions = 0
    for _ in range(400):
        parts = []
        for _ in range(rng.randint(2, 3)):
            k = rng.randint(1, 9)
            parts.append(Poset(k, random_relations(rng, k, acyclic=True)))
        U = parts[0]
        for Q in parts[1:]:
            U = disjoint_union(U, Q)
        perm = list(range(U.n))
        rng.shuffle(perm)
        P = Poset(U.n, [(perm[p], perm[q]) for p, q in U.covers])
        info = rank_info(P)
        assert info == rank_info_reference(P), P
        comps = components(P)
        assert len(comps) >= len(parts)
        interleaved += any(c[-1] - c[0] >= len(c) for c in comps)
        mixed += len({rank_info(Q).is_ranked for Q in parts}) == 2
        ranked_unions += info.is_ranked
    assert interleaved > 300 and mixed > 80 and ranked_unions > 200


def test_enumerate_chains_fix_a(fix_a):
    assert len(brute_kchains(fix_a, 1)) == 7
    assert len(brute_kchains(fix_a, 0)) == fix_a.n


def test_maximal_chains_2x2():
    P = direct_product(chain(2), chain(2))
    maxes = maximal_chains(P)
    assert len(maxes) == 2 and all(len(c) - 1 == 2 for c in maxes)


def test_graded_maximal_chains_start_at_rank_zero():
    rng = random.Random(9)
    checked = 0
    while checked < 10:
        P = random_poset(rng)
        info = rank_info(P)
        if not info.is_graded:
            continue
        checked += 1
        for c in maximal_chains(P):
            assert info.rank[c[0]] == 0


def test_graded_iff_all_maximal_chains_have_one_length():
    rng = random.Random(341)
    graded = ranked = 0
    for _ in range(1500):
        n = rng.randint(0, 9)
        density = rng.choice((0.15, 0.3, 0.5))
        perm = list(range(n))
        rng.shuffle(perm)
        P = Poset(
            n,
            [
                (perm[i], perm[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < density
            ],
        )
        lengths = {len(c) - 1 for c in maximal_chains(P)}
        info = rank_info(P)
        assert info.is_graded == (len(lengths) <= 1), P
        ranked += info.is_ranked
        graded += info.is_graded
    assert ranked - graded > 300 and graded > 300


def test_longest_chain_length(fix_a):
    assert max(_heights(fix_a)) == 2
    assert max(_heights(chain(4))) == 3
    # the chain pass reads the same length off its levels
    assert len(cde_report(fix_a).chain_expectations) == 3


def test_isomorphism_relabeling():
    rng = random.Random(12)
    for _ in range(10):
        P = random_poset(rng, 6)
        perm = list(range(P.n))
        rng.shuffle(perm)
        Q = Poset(P.n, [(perm[a], perm[b]) for a, b in P.covers])
        assert is_isomorphic(P, Q)
    assert not is_isomorphic(chain(3), disjoint_union(chain(2), chain(1)))
    assert not is_isomorphic(chain(3), chain(4))


def test_json_round_trip(fix_b, tmp_path):
    text = dumps(fix_b.to_dict()) + "\n"
    P = poset_from_dict(json.loads(text))
    assert P == fix_b
    with pytest.raises(PosetError):
        poset_from_dict({"n": 2})


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2.5, "relations": []},
        {"n": True, "relations": []},
        {"n": -1, "relations": []},
        {"n": "2", "relations": []},
        {"n": 2, "relations": [[0.9, 1]]},
        {"n": 2, "relations": [[True, 1]]},
        {"n": 2, "relations": [[0, 1, 1]]},
        {"n": 2, "relations": [], "labels": 5},
        {"n": 2, "relations": [], "labels": ["a", 1]},
    ],
)
def test_poset_from_dict_rejects_non_integers(doc):
    with pytest.raises(PosetError, match="malformed poset document"):
        poset_from_dict(doc)


def test_poset_from_dict_reads_integers():
    P = poset_from_dict({"n": 3, "relations": [[0, 1], [1, 2], [0, 2]]})
    assert P == chain(3)
    assert poset_from_dict({"n": 0, "relations": []}).n == 0


def test_star_import_binds_no_module():
    from types import ModuleType

    import cdeposets

    namespace = {}
    exec("from cdeposets import *", namespace)
    assert not [k for k, v in namespace.items() if isinstance(v, ModuleType)]
    assert {"cde_report", "tableau_counts", "Poset"} <= set(cdeposets.__all__)
    # names that moved to the test oracles, or were deleted, are not exported
    moved = {
        "Chain", "antichain", "chain_dist", "convert_chain_to_mchain",
        "convert_chain_to_mmchain", "count_linear_extensions", "disjoint_union",
        "enumerate_chains", "maxchain_dist", "mchain_dist", "mmchain_dist",
        "necklace_count", "rank_dist", "rook", "rook_placement",
        "rowmotion", "shifted_rook_placement", "toggle", "toggleability",
    }
    assert not moved & set(cdeposets.__all__)
