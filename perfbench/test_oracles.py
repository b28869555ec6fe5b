"""Hand-checked cases for the benchmark's oracles and checks.

Run with ``python3 -m pytest perfbench``; no cdeposets import is needed.
"""

from fractions import Fraction
from math import comb

import pytest

import checks as C
import oracles as O


def test_two_by_two():
    o = O.Oracle(*O.chain_product(2, 2))
    # elements 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1)
    assert o.ideals == [0b0000, 0b0001, 0b0011, 0b0101, 0b0111, 0b1111]
    assert [o.ddeg(m) for m in o.ideals] == [0, 1, 1, 1, 2, 1]
    assert o.density() == 1 == Fraction(2 * 2, 2 + 2)
    assert O.barely_count(O.skew_boxes([2, 2])) == 10


@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (3, 3), (3, 5)])
def test_chain_product_closed_forms(a, b):
    o = O.Oracle(*O.chain_product(a, b))
    c, size, order = O.minuscule_constants("axb", (a, b))
    assert len(o.ideals) == size == comb(a + b, a)
    assert o.density() == c
    orbit_lengths = set()
    for m in o.ideals:
        x, k = o.rowmotion(m), 1
        while x != m:
            x, k = o.rowmotion(x), k + 1
        orbit_lengths.add(k)
    assert O.orbit_order(sorted(orbit_lengths)) == order


def test_relations_need_not_be_covers():
    # a 3-chain given with its transitive relation as well
    o = O.Oracle(3, [(0, 1), (1, 2), (0, 2)])
    assert o.ideals == [0, 1, 3, 7]
    assert o.covers() == [(0, 1), (1, 2)]


def test_canonical_order_is_size_then_lex():
    o = O.Oracle(3, [])  # antichain: every subset is an ideal
    assert o.ideals == [0, 1, 2, 4, 3, 5, 6, 7]


@pytest.mark.parametrize("b", [1, 2, 3])
def test_two_row_interval(b):
    o = O.Oracle(*O.two_row_interval(b))
    c, size, _ = O.minuscule_constants("b2", (b,))
    assert o.n == comb(b + 2, 2)
    assert (o.density(), len(o.ideals)) == (c, size)


def test_propeller():
    for a in (1, 2, 3):
        o = O.Oracle(*O.propeller(a))
        c, size, _ = O.minuscule_constants("pa11a", (a,))
        assert (o.density(), len(o.ideals)) == (c, size)


def test_hook_products():
    assert O.hook_product([2, 1]) == 2
    assert O.hook_product([3, 2]) == 5
    assert O.hook_product([3, 3, 3]) == 42
    assert O.shifted_hook_product([2, 1]) == 1
    assert O.shifted_hook_product([3, 1]) == 2
    assert O.shifted_hook_product([3, 2, 1]) == 2
    for parts in ([4, 2, 1], [5, 3, 1], [3, 2]):
        boxes = O.shifted_boxes(parts)
        assert O.shifted_hook_product(parts) == O.Oracle(*O.box_poset(boxes)).linear_extensions()


def test_barely_counts_by_hand():
    assert O.barely_count(O.skew_boxes([1])) == 1
    assert O.barely_count(O.skew_boxes([2])) == 2  # {1,2}|3 and 1|{2,3}
    assert O.barely_count(O.skew_boxes([1, 1])) == 2


def test_skew_boxes_translate():
    assert O.skew_boxes([3, 2], [1]) == [(1, 2), (1, 3), (2, 1), (2, 2)]
    assert O.skew_boxes([3, 2], [1, 1]) == [(1, 1), (1, 2), (2, 1)]
    assert O.skew_boxes([3, 3], [3]) == [(1, 1), (1, 2), (1, 3)]


def test_partition_counts():
    assert O.partition_count(5) == 1 + 2 + 3 + 5 + 7
    assert O.partition_count(6, strict=True) == 1 + 1 + 2 + 2 + 3 + 4
    assert len(O.partitions(8)) == O.partition_count(8)
    assert len(O.partitions(12, strict=True)) == O.partition_count(12, strict=True)


def test_brute_force_chains_on_a_raw_poset():
    # the 5-element poset that is CDE but not mCDE
    o = O.Oracle(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4)])
    elems, less, covers, ddeg = O.poset_chain_view(o)
    chains = O.chain_expectations(elems, less, ddeg)
    assert chains == [Fraction(1), Fraction(13, 14), Fraction(1)]
    assert O.maxchain_expectation(elems, covers, ddeg) == Fraction(1)


def test_brute_force_multichains_on_a_chain():
    # on a 2-chain x < y with ddeg (0, 1), 1-multichains are xx, xy, yy
    elems, less, ddeg = [0, 1], (lambda a, b: a < b), [0, 1]
    mchain, mmchain = O.multichain_expectations(elems, less, ddeg, 1)
    assert mchain == Fraction(2, 4)  # x in 2 of them, y in 2
    assert mmchain == Fraction(3, 6)  # y occupies 3 of the 6 positions


def test_brute_force_cap():
    o = O.Oracle(8, [])
    elems, less, _, ddeg = O.lattice_chain_view(o)
    with pytest.raises(O.TooMany):
        O.chain_expectations(elems, less, ddeg, cap=1000)


def test_gyration_has_the_rowmotion_order():
    o = O.Oracle(*O.chain_product(3, 4))
    gyration = C._mapper(o, "gyration")
    for m in o.ideals:
        x, k = gyration(m), 1
        while x != m:
            x, k = gyration(x), k + 1
        assert 7 % k == 0


def test_certificate_and_witness_checks():
    # J(2x2) is tCDE with c = 1; at the empty ideal only T+_0 is 1, so
    # 0 = 1 + kappa_0 gives kappa_0 = -1, and so on up the lattice
    o = O.Oracle(*O.chain_product(2, 2))
    kappa = [Fraction(-1), Fraction(-1, 2), Fraction(-1, 2), Fraction(0)]
    assert o.certificate_holds(Fraction(1), kappa)
    assert not o.certificate_holds(Fraction(1), [0, 0, 0, 0])
    assert o.is_toggle_symmetric([Fraction(1, 6)] * 6)
    assert not o.is_toggle_symmetric([1, 0, 0, 0, 0, 0])


def test_scan_csv_check_reads_quoted_cells():
    rows = '[{"input": "straight:1,1", "holds": true}]'
    C.check_scan_csv(0, 'holds,input\nTrue,"straight:1,1"\n', rows)
    with pytest.raises(C.CheckError):
        C.check_scan_csv(0, "holds,input\nTrue,straight:1,1\n", rows)
