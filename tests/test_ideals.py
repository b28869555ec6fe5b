import random
import tracemalloc

import pytest

from cdeposets import (
    Poset,
    build_lattice,
    chain,
    direct_product,
    dual,
    is_isomorphic,
)
from cdeposets.ideals import LatticeBudgetError
from cdeposets.minuscule import parse_family
from cdeposets.shapes import ShiftedShape, Partition

from conftest import brute_ideals, random_poset
from lattice_oracle import dump, toggle, toggle_tables
from poset_oracle import antichain, disjoint_union


def test_2x2_lattice_counts():
    L = build_lattice(direct_product(chain(2), chain(2)))
    assert L.n == 6
    assert L.edge_count() == 6


def test_antichain_lattice():
    L = build_lattice(antichain(2))
    assert L.n == 4 and L.edge_count() == 4


def test_shifted_321_lattice_against_brute_force():
    P = ShiftedShape(Partition((3, 2, 1))).poset()
    L = build_lattice(P)
    assert set(L.ideals) == brute_ideals(P)
    assert L.n == 8 and L.edge_count() == 8


def test_lattice_matches_brute_force_on_random_posets():
    rng = random.Random(21)
    for _ in range(25):
        P = random_poset(rng)
        L = build_lattice(P)
        assert set(L.ideals) == brute_ideals(P)


def test_canonical_order_2x2():
    P = direct_product(chain(2), chain(2))
    L = build_lattice(P)
    assert [L.members(i) for i in range(6)] == [
        [],
        [0],
        [0, 1],
        [0, 2],
        [0, 1, 2],
        [0, 1, 2, 3],
    ]


def test_toggle_three_cases():
    P = direct_product(chain(2), chain(2))
    L = build_lattice(P)
    empty = L.index[0]
    assert L.members(toggle(L, empty, 0)) == [0]
    # 3 is neither addable nor removable at the empty ideal
    assert toggle(L, empty, 3) == empty
    # toggling is an involution where it moves
    for i in range(L.n):
        for p in range(P.n):
            j = toggle(L, i, p)
            if j != i:
                assert toggle(L, j, p) == i


def test_toggleability_statistics():
    P = direct_product(chain(2), chain(2))
    L = build_lattice(P)
    t_plus, t_minus = toggle_tables(P, L.ideals)
    assert list(t_plus[0]) == [1 if L.ideals[i] == 0 else 0 for i in range(L.n)]
    # sum of T- over elements is the down-degree
    for i in range(L.n):
        assert sum(col[i] for col in t_minus) == L.ddeg[i]


def test_single_element_toggleability():
    L = build_lattice(chain(1))
    (t_plus,), (t_minus,) = toggle_tables(L.base, L.ideals)
    assert [a + b for a, b in zip(t_plus, t_minus)] == [1, 1]


def test_jaggedness_is_hasse_degree():
    rng = random.Random(4)
    for _ in range(10):
        P = random_poset(rng)
        L = build_lattice(P)
        lat = L.as_poset()
        cols = list(zip(*toggle_tables(P, L.ideals)))
        for i in range(L.n):
            degree = len(lat.up_covers[i]) + len(lat.down_covers[i])
            jag = sum(plus[i] + minus[i] for plus, minus in cols)
            assert jag == degree


def test_ideals_of_disjoint_union_factor():
    rng = random.Random(8)
    for _ in range(6):
        P = random_poset(rng, 3)
        Q = random_poset(rng, 3)
        L = build_lattice(disjoint_union(P, Q))
        prod = direct_product(
            build_lattice(P).as_poset(), build_lattice(Q).as_poset()
        )
        assert is_isomorphic(L.as_poset(), prod)


def test_dual_lattice_via_complementation(fix_a):
    L = build_lattice(fix_a)
    Ld = build_lattice(dual(fix_a))
    full = (1 << fix_a.n) - 1
    # I -> P \ I maps J(P) onto J(P*), reversing order
    complements = {full & ~mask for mask in L.ideals}
    assert complements == set(Ld.ideals)
    assert is_isomorphic(L.as_poset(), dual(Ld.as_poset()))


def test_budget_guard():
    with pytest.raises(LatticeBudgetError):
        build_lattice(antichain(8), budget=10)


def test_budget_below_one_counts_the_empty_ideal():
    # J(P) always holds the empty ideal, so no lattice fits a budget of 0
    for P in (antichain(0), Poset(0, [])):
        assert build_lattice(P, budget=1).n == 1
        for budget in (0, -1):
            with pytest.raises(LatticeBudgetError):
                build_lattice(P, budget=budget)


def test_dump_shape():
    L = build_lattice(chain(2))
    d = dump(L)
    assert d["n_ideals"] == 3
    assert d["ideals"] == [[], [0], [0, 1]]
    assert d["ddeg"] == [0, 1, 1]


def test_lattice_graded_of_rank_n():
    from cdeposets import rank_info

    rng = random.Random(29)
    for _ in range(8):
        P = random_poset(rng)
        L = build_lattice(P)
        info = rank_info(L.as_poset())
        assert info.is_graded and info.top_rank == P.n
        # rank of an ideal in J(P) is its cardinality
        assert all(
            info.rank[i] == L.ideals[i].bit_count() for i in range(L.n)
        )
        # edge count equals the total down-degree
        assert L.edge_count() == sum(L.ddeg)


@pytest.mark.parametrize("literal", ["antichain:20", "antichain:40", "minuscule:axb:12x12"])
def test_a_failed_build_holds_memory_bounded_by_the_budget(literal):
    """Until it raises ``LatticeBudgetError``, ``build_lattice`` holds at most
    80 KiB + 200 bytes per unit of budget (the ``tracemalloc`` peak): the
    ideals stored before the budget runs out, plus the element tables and
    the search stack.  At budget 4,096 the peaks were 503, 510 and 709 KB
    (123, 125 and 173 bytes per unit, the 144-bit masks of 12x12 taking the
    most), and the bound of 901 KB leaves 27% headroom over the largest.
    The bound is a gate: lower it when the build gets leaner, never raise
    it to pass."""
    budget = 4096
    if literal.startswith("antichain:"):
        P = antichain(int(literal.partition(":")[2]))
    else:
        P = parse_family(literal).realized
    tracemalloc.start()
    try:
        build_lattice(P, budget)
    except LatticeBudgetError:
        peak = tracemalloc.get_traced_memory()[1]
    else:
        peak = None
    finally:
        tracemalloc.stop()
    assert peak is not None, f"J({literal}) fits in {budget} ideals"
    assert peak <= 80 * 1024 + 200 * budget, peak
