import random
from fractions import Fraction

import pytest

from cdeposets import (
    LatticeBudgetError,
    Poset,
    build_lattice,
    expectation,
    f_hook,
    g_thrall,
    tableau_counts,
)
from cdeposets.distributions import _maxchain_weights
from cdeposets.shapes import (
    Partition,
    ShiftedShape,
    SkewShape,
    iter_partitions,
    iter_strict_partitions,
    parse_shape,
)
from cdeposets.tableaux import _split_box_count, hook_lengths, shifted_hook_lengths

from distribution_oracle import normalized
from lattice_oracle import toggle_tables
from shape_oracle import skew_shapes
from tableau_oracle import (
    barely_count,
    barely_fillings,
    count_linear_extensions,
    f_aitken,
    shifted_barely_count,
)


def test_f_values():
    assert f_hook(Partition((2, 2))) == 2
    assert f_aitken(SkewShape(Partition((2, 2)))) == 2
    assert f_aitken(SkewShape(Partition(()))) == 1
    assert sorted(hook_lengths(Partition((2, 1))).values()) == [1, 1, 3]
    assert f_hook(Partition((2, 1))) == 2


def test_g_values():
    assert g_thrall(Partition((2, 1))) == 1
    assert g_thrall(Partition((1,))) == 1
    assert g_thrall(Partition((3, 2, 1))) == 2
    assert sorted(shifted_hook_lengths(Partition((3, 2, 1))).values()) == [
        1,
        2,
        3,
        3,
        4,
        5,
    ]
    with pytest.raises(ValueError):
        g_thrall(Partition((2, 2)))


def test_aitken_hook_linear_extensions_agree_straight():
    for lam in iter_partitions(7):
        shape = SkewShape(lam)
        le = count_linear_extensions(shape.poset())
        assert f_aitken(shape) == f_hook(lam) == le


def test_aitken_linear_extensions_agree_skew_samples():
    shapes = [
        ("4,3,3,3", "2,2"),
        ("3,2", "1"),
        ("4,4", "2"),
        ("5,1", ""),
        ("3,3,1", "2"),
        ("4,2,2", "1,1"),
    ]
    for outer, inner in shapes:
        shape = parse_shape(f"skew:{outer}/{inner}" if inner else f"straight:{outer}")
        assert f_aitken(shape) == count_linear_extensions(shape.poset())


def test_aitken_on_disconnected_shape():
    shape = SkewShape(Partition((3, 1)), Partition((1,)))
    assert not shape.is_connected()
    assert f_aitken(shape) == count_linear_extensions(shape.poset())


def test_g_matches_shifted_linear_extensions():
    for lam in iter_strict_partitions(7):
        assert g_thrall(lam) == count_linear_extensions(ShiftedShape(lam).poset())


def test_barely_2x2():
    shape = SkewShape(Partition((2, 2)))
    counts = tableau_counts(shape)
    assert counts["barely_brute_force"] == barely_count(shape) == 10
    assert counts["barely_formula"] == 10


def test_barely_budget(monkeypatch):
    # above the box budget the split-box counts are left out, the formulas stay
    skew = tableau_counts(SkewShape(Partition((4, 4, 2))))
    assert set(skew) == {"standard", "standard_hook", "barely_formula"}
    shifted = tableau_counts(ShiftedShape(Partition((5, 4, 3, 2, 1))))
    assert set(shifted) == {
        "standard_unprimed",
        "barely_formula",
        "barely_diag_unprimed_formula",
    }
    nine = SkewShape(Partition((3, 3, 3)))
    assert "barely_brute_force" in tableau_counts(nine)
    monkeypatch.setattr("cdeposets.tableaux.SKEW_BOX_BUDGET", 8)
    assert "barely_brute_force" not in tableau_counts(nine)
    assert "barely_brute_force" in tableau_counts(ShiftedShape(Partition((3, 2, 1))))


def test_shifted_barely_21():
    lam = Partition((2, 1))
    counts = tableau_counts(ShiftedShape(lam))
    assert counts["barely_brute_force"] == shifted_barely_count(lam) == 48
    assert counts["barely_formula"] == 48
    assert shifted_barely_count(lam, diagonally_unprimed=True) == 8
    assert counts["barely_diag_unprimed_brute_force"] == 8
    assert counts["barely_diag_unprimed_formula"] == 8


def test_shifted_barely_321():
    lam = Partition((3, 2, 1))
    counts = tableau_counts(ShiftedShape(lam))
    assert counts["barely_formula"] == 4 * 7 * 32 * 2  # 1792
    assert counts["barely_diag_unprimed_formula"] == 3 * 7 * 4 * 2
    assert counts["barely_brute_force"] == shifted_barely_count(lam) == 1792
    assert counts["barely_diag_unprimed_brute_force"] == 168
    assert shifted_barely_count(lam, diagonally_unprimed=True) == 168


def test_barely_formula_matches_brute_force_small():
    shapes = [
        SkewShape(Partition((3, 2))),
        SkewShape(Partition((2, 2, 1))),
        SkewShape(Partition((3, 2)), Partition((1,))),
        SkewShape(Partition((4, 3)), Partition((2,))),
        SkewShape(Partition((3, 1))),
    ]
    for shape in shapes:
        counts = tableau_counts(shape)
        assert counts["barely_formula"] == counts["barely_brute_force"] == barely_count(shape)


def test_shifted_barely_small_both_variants():
    for lam in iter_strict_partitions(5):
        counts = tableau_counts(ShiftedShape(lam))
        for name, unprimed in (("barely", False), ("barely_diag_unprimed", True)):
            assert (
                counts[f"{name}_formula"]
                == counts[f"{name}_brute_force"]
                == shifted_barely_count(lam, diagonally_unprimed=unprimed)
            )


def test_type1_diagonal_expectation_half():
    for parts in ((2, 1), (3, 2, 1), (4, 3, 1), (4, 3, 2, 1)):
        lam = Partition(parts)
        shape = ShiftedShape(lam)
        L = build_lattice(shape.poset())
        diag = [shape.box_index[(i, i)] for i in range(1, lam.length + 1)]
        t_minus = toggle_tables(L.base, L.ideals)[1]
        minus = [t_minus[p] for p in diag]
        stat = [sum(col[idx] for col in minus) for idx in range(L.n)]
        assert expectation(normalized(_maxchain_weights(L)), stat) == Fraction(1, 2)


def test_balanced_barely_product_formula():
    # balanced shapes: count = ab/(a+b) (N+1) f
    shape = SkewShape(Partition((2, 2)))
    assert tableau_counts(shape)["barely_formula"] == Fraction(2 * 2, 2 + 2) * 5 * 2
    skew = parse_shape("skew:4,3,3,3/2,2")
    assert tableau_counts(skew)["barely_formula"] == Fraction(4 * 4, 4 + 4) * 10 * f_aitken(skew)


def test_barely_fillings_golden():
    fillings = barely_fillings(SkewShape(Partition((2,))))
    assert fillings == [((1,), (2, 3)), ((1, 2), (3,))]
    # a column of two boxes: strict, so the double always carries a gap
    fillings = barely_fillings(SkewShape(Partition((1, 1))))
    assert fillings == [((1,), (2, 3)), ((1, 2), (3,))]
    for parts in ((2,), (1, 1), (2, 2), (3, 2), (2, 2, 1)):
        shape = SkewShape(Partition(parts))
        assert len(barely_fillings(shape)) == tableau_counts(shape)["barely_brute_force"]
    assert len(barely_fillings(SkewShape(Partition((2, 2))))) == 10


def _split(P, x):
    """P with x split into a 2-chain x < n, n = P.n: x keeps its lower
    covers and n takes over its upper covers."""
    rels = [(P.n if p == x else p, q) for p, q in P.covers]
    return Poset(P.n + 1, rels + [(x, P.n)])


def test_split_box_count_matches_split_poset_extensions():
    posets = [
        parse_shape(literal).poset()
        for literal in (
            "skew:3,2/1",
            "skew:4,3,2/2,1",
            "skew:3,3,3/1",
            "skew:4,4/2",
            "skew:5,3,1/2",
        )
    ]
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(0, 8)
        density = rng.choice((0.15, 0.35, 0.6))
        rels = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        posets.append(Poset(n, rels))
    for P in posets:
        L = build_lattice(P)
        per_box = [count_linear_extensions(_split(P, x)) for x in range(P.n)]
        assert _split_box_count(L, [1] * P.n) == sum(per_box)
        weight = [rng.randint(0, 5) for _ in range(P.n)]
        assert _split_box_count(L, weight) == sum([w * e for w, e in zip(weight, per_box)])


def test_split_box_count_matches_formula_straight_to_12_boxes(monkeypatch):
    monkeypatch.setattr("cdeposets.tableaux.SKEW_BOX_BUDGET", 12)
    shapes = [SkewShape(lam) for lam in iter_partitions(12)]
    assert len(shapes) == 271
    for shape in shapes:
        counts = tableau_counts(shape)
        assert counts["barely_brute_force"] == counts["barely_formula"], shape


def test_shifted_split_box_count_matches_formula_to_15_boxes(monkeypatch):
    monkeypatch.setattr("cdeposets.tableaux.SHIFTED_BOX_BUDGET", 15)
    shapes = list(iter_strict_partitions(15))
    assert len(shapes) == 136
    for lam in shapes:
        counts = tableau_counts(ShiftedShape(lam))
        for name in ("barely", "barely_diag_unprimed"):
            assert counts[f"{name}_brute_force"] == counts[f"{name}_formula"], (lam.parts, name)


def test_tableau_counts_checks_the_budget_before_the_standard_counts(monkeypatch):
    # a column of 150 boxes: J(P) has 151 ideals
    def no_count(*args, **kwargs):
        raise AssertionError("the standard count ran before the budget check")

    monkeypatch.setattr("cdeposets.tableaux._maxchain_weights", no_count)
    with pytest.raises(LatticeBudgetError):
        tableau_counts(parse_shape("straight:" + ",".join(["1"] * 150)), budget=5)


def test_tableau_counts_runs_no_determinant(monkeypatch):
    # on a column of k boxes the Aitken determinant is k x k
    def no_det(*args, **kwargs):
        raise AssertionError("an elimination ran on the report path")

    monkeypatch.setattr("cdeposets.linalg._eliminate", no_det)
    monkeypatch.setattr("cdeposets.linalg.solve", no_det)
    for k in (80, 150):
        counts = tableau_counts(parse_shape("straight:" + ",".join(["1"] * k)))
        assert counts["standard"] == 1
        assert counts["barely_formula"] == k


def test_standard_counts_match_the_determinant_and_thrall():
    for shape in skew_shapes(7):
        assert tableau_counts(shape)["standard"] == f_aitken(shape), shape
    for lam in iter_strict_partitions(15):
        assert tableau_counts(ShiftedShape(lam))["standard_unprimed"] == g_thrall(lam), lam


@pytest.mark.parametrize(
    "literal, formula", [("shifted:3,2,1", g_thrall), ("straight:3,2", f_hook)]
)
def test_product_formula_mismatch_raises(literal, formula, monkeypatch):
    # the product formula checks the standard count of the maxchain sweep
    monkeypatch.setattr(f"cdeposets.tableaux.{formula.__name__}", lambda lam: formula(lam) + 1)
    with pytest.raises(ArithmeticError):
        tableau_counts(parse_shape(literal))


@pytest.mark.parametrize("literal", ["straight:3,2", "shifted:3,2,1"])
def test_split_box_mismatch_raises(literal, monkeypatch):
    # the split-box sweep is checked against the formula on every report
    real = _split_box_count
    monkeypatch.setattr(
        "cdeposets.tableaux._split_box_count", lambda L, weight: real(L, weight) + 1
    )
    with pytest.raises(ArithmeticError, match="split-box count"):
        tableau_counts(parse_shape(literal))
