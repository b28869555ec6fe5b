import random
from fractions import Fraction

import pytest

from cdeposets import (
    build_lattice,
    chain,
    direct_product,
    expectation,
    is_isomorphic,
)
from cdeposets.shapes import (
    Partition,
    ShiftedShape,
    SkewShape,
    classify_shifted_balanced,
    iter_connected_skew_shapes,
    iter_partitions,
    iter_strict_partitions,
    parse_shape,
    rectangle,
    staircase,
)

from conftest import random_toggle_symmetric
from lattice_oracle import toggle_tables
from poset_oracle import components
from shape_oracle import (
    render_ideal,
    rook,
    rook_placement,
    shifted_class_density,
    shifted_contained_corners,
    shifted_corners,
    shifted_corners_attacking,
    shifted_rook_placement,
    skew_contained_corners,
    skew_corners_attacking,
    stretch,
)
from tableau_oracle import count_linear_extensions


def test_partition_basics():
    lam = Partition((4, 3, 3))
    assert lam.size == 10 and lam.length == 3 and not lam.is_strict
    assert lam.conjugate().parts == (3, 3, 3, 1)
    assert Partition((3, 2)).is_strict
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((2, 0, 1))
    with pytest.raises(ValueError, match="partition parts must be nonnegative"):
        Partition((2, -1))
    assert Partition((2, 1, 0, 0)).parts == (2, 1)
    for parts in ((2.7, "1"), (2.7,), ("1",), (2.0, 1)):
        with pytest.raises(ValueError, match="partition parts must be integers"):
            Partition(parts)
    with pytest.raises(ValueError, match="partition parts must be integers"):
        SkewShape(Partition((2.7,)))


def test_skew_shape_normalization():
    s = SkewShape(Partition((4, 3, 3, 3)), Partition((2, 2)))
    assert s.a == 4 and s.b == 4 and s.n_boxes == 9
    assert s.is_connected()
    # leading empty rows are translated away
    t = SkewShape(Partition((3, 3, 2)), Partition((3, 1)))
    assert t.a == 2 and t.b == 3 and t.n_boxes == 4


def test_skew_poset_fixture():
    s = parse_shape("skew:4,3,3,3/2,2")
    P = s.poset()
    assert P.n == 9 and len(components(P)) == 1


def test_rectangle_poset_is_chain_product():
    for a, b in ((2, 2), (2, 3), (3, 4)):
        assert is_isomorphic(
            SkewShape(rectangle(a, b)).poset(), direct_product(chain(a), chain(b))
        )


def test_shifted_321_poset():
    P = ShiftedShape(Partition((3, 2, 1))).poset()
    assert P.n == 6
    assert count_linear_extensions(P) == 2


def test_balanced_examples():
    assert parse_shape("skew:4,3,3,3/2,2").is_balanced()
    for a in range(1, 4):
        for b in range(1, 4):
            assert SkewShape(rectangle(a, b)).is_balanced()
    for d in range(1, 5):
        assert SkewShape(staircase(d)).is_balanced()
    assert not parse_shape("straight:3,1").is_balanced()
    assert not parse_shape("straight:3,2").is_balanced()
    assert stretch(SkewShape(staircase(2)), 2, 2).is_balanced()
    with pytest.raises(ValueError):
        SkewShape(Partition((3, 1)), Partition((2,))).is_balanced()


def test_corner_positions_fixture():
    s = parse_shape("skew:4,3,3,3/2,2")
    corners = dict(s.corners())
    assert corners == {"NW": (2, 2), "SE": (1, 3)}
    assert skew_corners_attacking(s, 3, 3) == [("NW", (2, 2))]
    assert skew_corners_attacking(s, 1, 3) == [("SE", (1, 3))]


def test_shifted_corners():
    ss = ShiftedShape(Partition((8, 6, 5, 2, 1)))
    assert shifted_corners(ss) == [(3, 5), (1, 7)]
    assert shifted_corners_attacking(ss, 2, 4) == [(3, 5)]
    # staircases have no outward corners
    assert shifted_corners(ShiftedShape(staircase(4))) == []


def test_classification():
    assert classify_shifted_balanced(Partition((3, 2, 1))).kind == "type1"
    cls = classify_shifted_balanced(Partition((3, 2)))
    assert (cls.kind, cls.n, cls.k) == ("type2", 2, 0)
    assert shifted_class_density(cls) == 1
    cls = classify_shifted_balanced(Partition((4, 2)))
    assert (cls.kind, cls.n, cls.k) == ("trapezoid", 4, 1)
    assert classify_shifted_balanced(Partition((4, 3, 1))) is None
    assert classify_shifted_balanced(Partition((8, 6, 5, 2, 1))).kind == "type1"
    assert classify_shifted_balanced(Partition((9, 7, 5, 4, 3))).kind == "type2"


def test_type1_density_value():
    cls = classify_shifted_balanced(Partition((8, 6, 5, 2, 1)))
    assert (cls.n, cls.k) == (5, 3)
    assert shifted_class_density(cls) == Fraction(5 + 1 + 3, 4)


def test_rook_pointwise_identity_ordinary():
    s = parse_shape("skew:4,3,3,3/2,2")
    L = build_lattice(s.poset())
    for i, j in s.boxes:
        R = rook(s, L, i, j)
        attacking = set(skew_corners_attacking(s, i, j))
        for idx in range(L.n):
            contained = sum(
                1 for c in skew_contained_corners(s, L, idx) if c in attacking
            )
            assert R[idx] - contained == 1


@pytest.mark.parametrize("parts", [(3, 2, 1), (4, 3, 1), (3, 2)])
def test_shifted_rook_pointwise_identity(parts):
    lam = Partition(parts)
    ss = ShiftedShape(lam)
    L = build_lattice(ss.poset())
    for i, j in ss.boxes:
        R = rook(ss, L, i, j)
        attacking = set(shifted_corners_attacking(ss, i, j))
        for idx in range(L.n):
            contained = sum(
                1 for c in shifted_contained_corners(ss, L, idx) if c in attacking
            )
            assert R[idx] - contained == 1


def test_shifted_rook_reference_ideals():
    lam = Partition((8, 6, 5, 2, 1))
    ss = ShiftedShape(lam)
    L = build_lattice(ss.poset())
    R = rook(ss, L, 2, 4)

    def ideal_index(nu_parts):
        mask = 0
        for k, (i, j) in enumerate(ss.boxes):
            cols = nu_parts[i - 1] if i - 1 < len(nu_parts) else 0
            if j < i + cols:
                mask |= 1 << k
        return L.index[mask]

    attacking = set(shifted_corners_attacking(ss, 2, 4))
    blue = ideal_index((5, 4, 2, 1))
    red = ideal_index((8, 6, 4, 2))
    assert R[blue] == 1 and shifted_contained_corners(ss, L, blue) == []
    red_contained = [c for c in shifted_contained_corners(ss, L, red) if c in attacking]
    assert R[red] == 2 and red_contained == [(3, 5)]


def test_rook_attack_expectation_ordinary():
    rng = random.Random(3)
    s = parse_shape("skew:3,2/1")
    L = build_lattice(s.poset())
    t_minus = toggle_tables(L.base, L.ideals)[1]
    for _ in range(5):
        mu = random_toggle_symmetric(L, rng)
        for i, j in s.boxes:
            lhs = expectation(mu, rook(s, L, i, j))
            # row plus column sums; the rook's own box is attacked twice
            rhs = sum(
                ((x == i) + (y == j))
                * expectation(mu, t_minus[s.box_index[(x, y)]])
                for x, y in s.boxes
            )
            assert lhs == rhs


def test_shifted_rook_attack_expectation():
    rng = random.Random(5)
    lam = Partition((4, 3, 1))
    ss = ShiftedShape(lam)
    L = build_lattice(ss.poset())
    t_minus = toggle_tables(L.base, L.ideals)[1]
    for _ in range(5):
        mu = random_toggle_symmetric(L, rng)
        for i, j in ss.boxes:
            lhs = expectation(mu, rook(ss, L, i, j))
            rhs = Fraction(0)
            for x, y in ss.boxes:
                hits = 0
                if y == j:
                    hits += 1
                if x == i:
                    hits += 1
                if x == y and (x < i or y > j):
                    hits += 1
                rhs += hits * expectation(mu, t_minus[ss.box_index[(x, y)]])
            assert lhs == rhs


def test_diagonal_toggle_identity_type1():
    for parts in ((3, 2, 1), (4, 3, 1), (2, 1), (5, 4, 3, 2, 1)):
        lam = Partition(parts)
        assert lam.parts[-1] == 1
        ss = ShiftedShape(lam)
        L = build_lattice(ss.poset())
        diag = [ss.box_index[(i, i)] for i in range(1, lam.length + 1)]
        t_plus, t_minus = toggle_tables(L.base, L.ideals)
        cols = [(t_plus[p], t_minus[p]) for p in diag]
        for idx in range(L.n):
            total = sum(plus[idx] + minus[idx] for plus, minus in cols)
            assert total == 1


def test_rook_placement_reference_grid_validates():
    s = parse_shape("skew:4,3,3,3/2,2")
    reference = {
        (1, 3): 0, (1, 4): 4,
        (2, 3): 4,
        (3, 1): 0, (3, 2): 0, (3, 3): 4,
        (4, 1): 4, (4, 2): 4, (4, 3): -4,
    }
    _assert_placement_conditions(s, reference)
    solved = rook_placement(s)
    _assert_placement_conditions(s, solved)


def _assert_placement_conditions(s, r):
    for i in range(1, s.a + 1):
        assert sum(v for (x, _), v in r.items() if x == i) == s.b
    for j in range(1, s.b + 1):
        assert sum(v for (_, y), v in r.items() if y == j) == s.a
    for corner in s.corners():
        agg = sum(
            r[(i, j)] for i, j in s.boxes if corner in skew_corners_attacking(s, i, j)
        )
        assert agg == 0


def test_rook_placement_unbalanced_still_row_column():
    s = parse_shape("straight:3,1")
    r = rook_placement(s)
    for i in range(1, s.a + 1):
        assert sum(v for (x, _), v in r.items() if x == i) == s.b
    for j in range(1, s.b + 1):
        assert sum(v for (_, y), v in r.items() if y == j) == s.a


def test_shifted_placement_type1_reference():
    r = shifted_rook_placement(Partition((8, 6, 5, 2, 1)))
    expected = {
        (1, 1): -5, (1, 2): 5, (1, 8): 2,
        (2, 2): -3, (2, 3): 3, (2, 7): 2,
        (3, 3): -1, (3, 4): 1, (3, 6): 2,
        (4, 4): 1, (4, 5): 1,
        (5, 5): 1,
    }
    nonzero = {box: v for box, v in r.items() if v}
    assert nonzero == expected
    assert sum(r.values()) == 8 + 1


def test_shifted_placement_type2_reference():
    r = shifted_rook_placement(Partition((9, 7, 5, 4, 3)))
    expected = {
        (1, 1): -6, (1, 2): 6, (1, 9): 2,
        (2, 2): -4, (2, 3): 4, (2, 8): 2,
        (3, 3): -2, (3, 4): 4,
        (4, 4): -2, (4, 5): 4,
        (5, 5): -2, (5, 6): 2, (5, 7): 2,
    }
    nonzero = {box: v for box, v in r.items() if v}
    assert nonzero == expected
    assert sum(r.values()) == 9 + 1


def test_shifted_placement_staircase():
    r = shifted_rook_placement(Partition((3, 2, 1)))
    assert r[(1, 1)] == 0  # 3 - lambda_1
    assert sum(r.values()) == 4  # lambda_1 + 1


def test_shifted_placement_rejects_trapezoid():
    with pytest.raises(ValueError):
        shifted_rook_placement(Partition((4, 2)))


def test_parse_shape_literals():
    assert parse_shape("straight:3,2").outer.parts == (3, 2)
    s = parse_shape("skew:4,3,3,3/2,2")
    assert s.inner.parts == (2, 2)
    assert parse_shape("shifted:3,2,1").strict.parts == (3, 2, 1)
    with pytest.raises(ValueError):
        parse_shape("weird:1")


def test_generators():
    assert sum(1 for _ in iter_partitions(4)) == 1 + 2 + 3 + 5
    assert [p.parts for p in iter_strict_partitions(3)] == [
        (1,),
        (2,),
        (3,),
        (2, 1),
    ]
    shapes = list(iter_connected_skew_shapes(3))
    assert all(s.is_connected() and s.n_boxes <= 3 for s in shapes)
    # all connected 2-box shapes: domino horizontal, domino vertical
    two = [s for s in shapes if s.n_boxes == 2]
    assert len(two) == 2


def test_balanced_shape_counts_by_frame():
    # up to translation there are 3^(gcd(a,b)-1) balanced shapes of height a
    # and width b; check the frames that fit in the 10-box enumeration
    from math import gcd

    shapes = list(iter_connected_skew_shapes(10))
    for a, b in ((1, 1), (1, 4), (2, 3), (2, 2), (3, 3), (2, 4)):
        if a * b > 10:
            continue
        count = sum(
            1
            for s in shapes
            if s.a == a and s.b == b and s.is_balanced()
        )
        assert count == 3 ** (gcd(a, b) - 1), (a, b, count)


def test_render_ideal():
    s = parse_shape("straight:2,1")
    L = build_lattice(s.poset())
    assert render_ideal(s, L, L.n - 1).splitlines() == ["##", "#"]
    assert render_ideal(s, L, L.index[0]).splitlines() == ["..", "."]
    s = parse_shape("shifted:3,1")
    L = build_lattice(s.poset())
    assert render_ideal(s, L, L.index[0b0011]).splitlines() == ["##.", " ."]
    assert render_ideal(s, L, L.n - 1).splitlines() == ["###", " #"]
