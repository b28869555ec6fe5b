import random
from fractions import Fraction
from itertools import permutations

import pytest

from cdeposets import (
    Poset,
    build_lattice,
    chain,
    direct_product,
    expectation,
    is_toggle_symmetric,
    rowmotion_map,
)
from cdeposets import dynamics
from cdeposets.dynamics import (
    antichain_cardinality,
    gyration_map,
    gyration_sigma,
    homomesy_report,
    orbit_decomposition,
    rank_permuted_rowmotion_map,
)
from cdeposets.posets import rank_info
from cdeposets.shapes import Partition, ShiftedShape, SkewShape

from conftest import linear_extensions, random_poset
from dense_oracle import _signed_tables
from lattice_oracle import (
    apply_toggle_word,
    orbit_uniform,
    rowmotion,
    rowmotion_via_linear_extension,
)
from shape_oracle import _row_counts


def shifted_lattice(parts):
    return ShiftedShape(Partition(parts)), build_lattice(
        ShiftedShape(Partition(parts)).poset()
    )


def test_rowmotion_shifted_321_steps():
    shape, L = shifted_lattice((3, 2, 1))

    def ideal_partition(idx):
        return Partition(tuple(_row_counts(shape, L, idx, shape.strict.length)))

    empty = L.index[0]
    one = rowmotion(L, empty)
    assert ideal_partition(one).parts == (1,)
    idx_21 = next(i for i in range(L.n) if ideal_partition(i).parts == (2, 1))
    assert ideal_partition(rowmotion(L, idx_21)).parts == (3,)
    # full ideal maps to the empty ideal
    assert rowmotion(L, L.n - 1) == empty


def test_rowmotion_equals_all_linear_extensions():
    rng = random.Random(19)
    for _ in range(20):
        P = random_poset(rng, 6)
        L = build_lattice(P)
        rm = rowmotion_map(L)
        for ext in linear_extensions(P):
            assert rowmotion_via_linear_extension(L, ext) == rm


def test_identity_sigma_is_rowmotion():
    for P in (
        direct_product(chain(2), chain(2)),
        SkewShape(Partition((4, 2))).poset(),
        ShiftedShape(Partition((3, 2, 1))).poset(),
    ):
        L = build_lattice(P)
        r = rank_info(P).top_rank
        assert rank_permuted_rowmotion_map(L, tuple(range(r + 1))) == rowmotion_map(L)


def test_gyration_orbit_of_empty_on_42():
    shape = SkewShape(Partition((4, 2)))
    L = build_lattice(shape.poset())
    g = gyration_map(L)
    dec = orbit_decomposition(L, g)
    empty = L.index[0]
    orbit = next(o for o in dec.orbits if empty in o)
    start = orbit.index(empty)
    names = [
        tuple(c for c in _row_counts(shape, L, orbit[(start + t) % len(orbit)], shape.a) if c)
        for t in range(len(orbit))
    ]
    assert names == [
        (),
        (2, 1),
        (4, 2),
        (3,),
        (1, 1),
        (2,),
        (4, 1),
        (3, 2),
        (1,),
    ]


def test_sigma_validation():
    L = build_lattice(SkewShape(Partition((4, 2))).poset())
    with pytest.raises(ValueError):
        rank_permuted_rowmotion_map(L, (0, 1))
    P = Poset(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])  # not ranked
    with pytest.raises(ValueError):
        gyration_map(build_lattice(P))


def test_all_sigma_share_orbit_size_multiset():
    L = build_lattice(SkewShape(Partition((4, 2))).poset())
    sizes = set()
    for sigma in permutations(range(4)):
        dec = orbit_decomposition(L, rank_permuted_rowmotion_map(L, sigma))
        sizes.add(tuple(sorted(dec.sizes)))
    assert len(sizes) == 1


def test_orbit_decomposition_2x2():
    L = build_lattice(direct_product(chain(2), chain(2)))
    dec = orbit_decomposition(L, rowmotion_map(L))
    assert sorted(dec.sizes) == [2, 4]
    assert dec.order() == 4
    identity = orbit_decomposition(L, list(range(L.n)))
    assert identity.sizes == [1] * L.n
    with pytest.raises(ValueError):
        orbit_decomposition(L, [0] * L.n)


def test_rowmotion_order_small_rectangles():
    for a in range(1, 4):
        for b in range(1, 4):
            L = build_lattice(direct_product(chain(a), chain(b)))
            assert orbit_decomposition(L, rowmotion_map(L)).order() == a + b


def test_homomesy_2x2():
    L = build_lattice(direct_product(chain(2), chain(2)))
    rep = homomesy_report(L, rowmotion_map(L), antichain_cardinality(L))
    assert rep["homomesic"] and rep["constant"] == "1/1"
    assert rep["orbit_averages"] == ["1/1", "1/1"]


def test_homomesy_all_sigma_shifted_321():
    _, L = shifted_lattice((3, 2, 1))
    for sigma in permutations(range(5)):
        rep = homomesy_report(
            L, rank_permuted_rowmotion_map(L, sigma), antichain_cardinality(L)
        )
        assert rep["homomesic"] and rep["constant"] == "1/1"


def test_promotion_word_negative_control():
    # V poset a, b < c with the promotion-style word tau_b tau_c tau_a
    P = Poset(3, [(0, 2), (1, 2)])
    L = build_lattice(P)
    mapping = [apply_toggle_word(L, (1, 2, 0), i) for i in range(L.n)]
    dec = orbit_decomposition(L, mapping)
    as_sets = [
        {tuple(sorted(L.members(i))) for i in orbit} for orbit in dec.orbits
    ]
    assert {(), (0, 1)} in as_sets
    bad_orbit = dec.orbits[as_sets.index({(), (0, 1)})]
    t_c = _signed_tables(L)[2]
    assert sum(t_c[i] for i in bad_orbit) != 0


def test_orbit_uniform_toggle_symmetric_fixtures():
    for P in (
        ShiftedShape(Partition((3, 2, 1))).poset(),
        SkewShape(Partition((4, 2))).poset(),
        direct_product(chain(2), chain(2)),
    ):
        L = build_lattice(P)
        r = rank_info(P).top_rank
        for sigma in permutations(range(r + 1)):
            mapping = rank_permuted_rowmotion_map(L, sigma)
            for orbit in orbit_decomposition(L, mapping).orbits:
                assert is_toggle_symmetric(L, orbit_uniform(L, orbit))


def test_signed_toggleability_zero_mesic_under_rowmotion():
    rng = random.Random(33)
    for _ in range(10):
        P = random_poset(rng, 5)
        L = build_lattice(P)
        dec = orbit_decomposition(L, rowmotion_map(L))
        for stat in _signed_tables(L):
            for orbit in dec.orbits:
                assert sum(stat[i] for i in orbit) == 0


def test_gyration_sigma_shape():
    assert gyration_sigma(5) == (1, 3, 0, 2, 4)


@pytest.mark.parametrize(
    "bad",
    [
        lambda n: [0] + list(range(1, n - 1)) + [0],  # a repeated value
        lambda n: list(range(n - 1)),  # too short
        lambda n: list(range(n + 1)),  # too long
        lambda n: list(range(n - 1)) + [n],  # out of range
        lambda n: [-1] + list(range(1, n)),  # negative
    ],
)
def test_orbit_decomposition_rejects_a_non_bijection(bad):
    L = build_lattice(direct_product(chain(2), chain(3)))
    with pytest.raises(ValueError, match="mapping is not a bijection on the ideals"):
        orbit_decomposition(L, bad(L.n))


def test_gyration_reads_the_ranks_once_and_flips_twice(monkeypatch):
    L = build_lattice(direct_product(chain(4), chain(5)))
    expected = rank_permuted_rowmotion_map(L, gyration_sigma(8))
    calls = []

    def counting_rank_info(P):
        calls.append(P)
        return rank_info(P)

    class CountingIndex(dict):
        lookups = 0

        def __getitem__(self, mask):
            CountingIndex.lookups += 1
            return dict.__getitem__(self, mask)

    monkeypatch.setattr(dynamics, "rank_info", counting_rank_info)
    monkeypatch.setattr(L, "_index", CountingIndex(L.index))
    assert gyration_map(L) == expected
    assert len(calls) == 1
    # evens, then odds: one index pass each, not one per rank
    assert CountingIndex.lookups == 2 * L.n
