"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every comparison is exact rational equality (tolerance zero).  Each test
prints a single PASS line on success (visible with ``pytest -s``); a failing
assertion marks the criterion red.
"""

import random
from fractions import Fraction
from itertools import permutations

from cdeposets import (
    Distribution,
    build_lattice,
    cde_report,
    certify_tcde,
    chain,
    direct_product,
    dual,
    expectation,
    find_witness,
    is_isomorphic,
    is_toggle_symmetric,
    rank_info,
    rowmotion_map,
    uniform,
)
from cdeposets.distributions import _maxchain_weights
from cdeposets.dynamics import (
    antichain_cardinality,
    homomesy_report,
    orbit_decomposition,
    rank_permuted_rowmotion_map,
)
from cdeposets.minuscule import (
    exceptional_poset,
    propeller_poset,
    rectangle_interval_poset,
    verify_e6_e7_certificates,
)
from cdeposets.shapes import (
    Partition,
    ShiftedShape,
    SkewShape,
    classify_shifted_balanced,
    iter_connected_skew_shapes,
    iter_partitions,
    iter_strict_partitions,
    rectangle,
    staircase,
)
from cdeposets.tableaux import (
    f_hook,
    g_thrall,
    tableau_counts,
)

from dense_oracle import _signed_tables
from distribution_oracle import (
    chain_dist,
    convert_chain_to_mchain,
    convert_chain_to_mmchain,
    mchain_dist,
    mmchain_dist,
    normalized,
    rank_dist,
)
from lattice_oracle import apply_toggle_word, orbit_uniform, toggle_tables
from shape_oracle import (
    rook,
    shifted_class_density,
    shifted_contained_corners,
    shifted_corners_attacking,
    shifted_rook_placement,
    skew_shapes,
    stretch,
)
from tableau_oracle import barely_count, count_linear_extensions, f_aitken, shifted_barely_count

from conftest import (
    brute_mchain,
    brute_mmchain,
    component_key,
    load_witness_table,
    random_poset,
)


def _passed(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_counterexample_regressions(fix_a, fix_b, fix_c, fix_d):
    assert cde_report(fix_a).chain_expectations[1] == Fraction(13, 14)

    assert cde_report(fix_b).maxchain_expectation == Fraction(17, 16)

    L = build_lattice(fix_c)
    chains = cde_report(L).chain_expectations
    assert chains[1] == Fraction(83, 52)
    assert expectation(uniform(L), L.ddeg) == Fraction(8, 5)
    assert chains[6] == Fraction(8, 5)

    Pd = dual(fix_d)
    ddeg_d = tuple(Pd.ddeg(p) for p in range(Pd.n))
    assert cde_report(Pd).chain_expectations[2] == Fraction(7, 6)
    assert expectation(uniform(Pd), ddeg_d) == 1
    _passed("criterion 1 (counterexample regressions)")


def test_criterion_02_motivating_example():
    L = build_lattice(direct_product(chain(2), chain(2)))
    assert expectation(uniform(L), L.ddeg) == 1
    mu = normalized(_maxchain_weights(L))
    assert expectation(mu, L.ddeg) == 1
    assert list(mu) == [
        Fraction(2, 10),
        Fraction(2, 10),
        Fraction(1, 10),
        Fraction(1, 10),
        Fraction(2, 10),
        Fraction(2, 10),
    ]
    _passed("criterion 2 (motivating 2x2 example)")


def _balanced_shapes_up_to(max_boxes: int):
    return [s for s in iter_connected_skew_shapes(max_boxes) if s.is_balanced()]


def test_criterion_03_balanced_shape_theorem():
    shapes = _balanced_shapes_up_to(10)
    named = [
        SkewShape(Partition((4, 3, 3, 3)), Partition((2, 2))),
        SkewShape(rectangle(2, 3)),
        SkewShape(staircase(4)),
    ]
    keys = {component_key(s) for s in shapes}
    assert all(component_key(s) in keys for s in named)
    # delta_2 o 2^2 has 12 boxes; the criterion names it explicitly
    shapes.append(stretch(SkewShape(staircase(2)), 2, 2))
    assert len(shapes) > 50
    for s in shapes:
        L = build_lattice(s.poset())
        cert = certify_tcde(L)
        assert cert is not None, s
        assert cert.c == Fraction(s.a * s.b, s.a + s.b), s
    for parts, density, maxexp in (
        ((3, 1), Fraction(8, 7), Fraction(17, 15)),
        ((3, 2), Fraction(11, 9), Fraction(37, 30)),
    ):
        L = build_lattice(SkewShape(Partition(parts)).poset())
        assert certify_tcde(L) is None
        assert expectation(uniform(L), L.ddeg) == density
        assert cde_report(L).maxchain_expectation == maxexp
    _passed("criterion 3 (balanced skew shapes tCDE, ab/(a+b))")


def test_criterion_04_shifted_theorem():
    classified = 0
    for lam in iter_strict_partitions(10):
        cls = classify_shifted_balanced(lam)
        if cls is None or cls.kind == "trapezoid":
            continue
        classified += 1
        L = build_lattice(ShiftedShape(lam).poset())
        cert = certify_tcde(L)
        assert cert is not None, lam
        expected = (
            Fraction(cls.n + 1 + cls.k, 4)
            if cls.kind == "type1"
            else Fraction(cls.n, 2)
        )
        assert cert.c == expected, lam
        placement = shifted_rook_placement(lam, cls)
        assert sum(placement.values()) == lam.part(1) + 1
    assert classified >= 10

    for parts in ((3, 2, 1), (4, 3, 1), (3, 2)):
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
    _passed("criterion 4 (shifted Type1/Type2 theorem and rook identities)")


def test_criterion_05_trapezoids():
    for n in range(3, 7):
        lam = Partition((n, n - 2))
        L = build_lattice(ShiftedShape(lam).poset())
        rep = cde_report(L)
        assert rep.is_mcde, n
        assert rep.edge_density == Fraction(2 * (n - 1), n + 1), n

    L = build_lattice(ShiftedShape(Partition((4, 2))).poset())
    assert certify_tcde(L) is None
    witness = find_witness(L)
    assert witness is not None and witness.validate(L)

    doc = load_witness_table()
    mu = Distribution([Fraction(w) for w in doc["weights"]])
    assert is_toggle_symmetric(L, mu)
    value = expectation(mu, L.ddeg)
    assert value == Fraction(13, 11) and value != Fraction(6, 5)
    _passed("criterion 5 (trapezoid mCDE; (4,2) refutation and witnesses)")


def test_criterion_06_minuscule_theorems():
    rep = verify_e6_e7_certificates()
    assert rep["all_hold"]
    by_case = {r["case"]: r["c"] for r in rep["cases"]}
    assert by_case == {"E6": "4/3", "E7": "3/2"}

    cases = []
    for a in range(1, 5):
        for b in range(a, 5):
            cases.append((f"axb:{a}x{b}", direct_product(chain(a), chain(b)),
                          Fraction(a * b, a + b)))
    for b in range(1, 5):
        cases.append((f"b2:{b}", rectangle_interval_poset(b), Fraction(b + 2, 4)))
    for a in range(1, 4):
        cases.append((f"pa11a:{a}", propeller_poset(a, 1, 1, a), Fraction(1)))
    cases.append(("E6", exceptional_poset("e6"), Fraction(4, 3)))
    cases.append(("E7", exceptional_poset("e7"), Fraction(3, 2)))
    for name, P, expected in cases:
        cert = certify_tcde(build_lattice(P))
        assert cert is not None and cert.c == expected, name

    assert is_isomorphic(
        build_lattice(exceptional_poset("e6")).as_poset(), exceptional_poset("e7")
    )
    # the two-row rectangle interval with b=3 is the one whose ideals form the
    # 16-element exceptional poset (10 = |delta_4| elements force b=3)
    assert is_isomorphic(
        rectangle_interval_poset(3), ShiftedShape(staircase(4)).poset()
    )
    assert is_isomorphic(
        build_lattice(ShiftedShape(staircase(4)).poset()).as_poset(),
        exceptional_poset("e6"),
    )
    _passed("criterion 6 (minuscule lattices and posets tCDE; structure checks)")


def test_criterion_07_toggle_symmetry_lemmas():
    rng = random.Random(1234)
    graded_seen = 0
    for _ in range(100):
        P = random_poset(rng, 6)
        L = build_lattice(P)
        for k in range(P.n + 1):
            assert is_toggle_symmetric(L, chain_dist(L, k))
        for m in range(4):
            assert is_toggle_symmetric(L, mchain_dist(L, m))
            assert is_toggle_symmetric(L, mmchain_dist(L, m))
        for m in range(4):
            assert convert_chain_to_mchain(L, m) == mchain_dist(L, m)
            assert convert_chain_to_mmchain(L, m) == mmchain_dist(L, m)
        info = rank_info(P)
        if info.is_graded:
            graded_seen += 1
            mu = rank_dist(L)
            assert is_toggle_symmetric(L, mu)
            assert expectation(mu, L.ddeg) == Fraction(P.n, info.top_rank + 2)
    assert graded_seen > 5
    # conversions also validated against raw enumeration on the small posets
    for _ in range(10):
        P = random_poset(rng, 4)
        for m in range(4):
            assert mchain_dist(P, m) == brute_mchain(P, m)
            assert mmchain_dist(P, m) == brute_mmchain(P, m)
    _passed("criterion 7 (toggle-symmetry lemmas and conversion identities)")


def _sigmas(num_ranks: int, rng: random.Random, cap: int = 24):
    perms = list(permutations(range(num_ranks))) if num_ranks <= 4 else None
    if perms is not None and len(perms) <= cap:
        return perms
    out = {tuple(range(num_ranks))}
    odds = tuple(range(1, num_ranks, 2))
    evens = tuple(range(0, num_ranks, 2))
    out.add(odds + evens)
    while len(out) < cap:
        sigma = list(range(num_ranks))
        rng.shuffle(sigma)
        out.add(tuple(sigma))
    return sorted(out)


def test_criterion_08_dynamics():
    rng = random.Random(77)
    # orbit toggle-symmetry, exhaustively over sigma, on the fixture lattices
    fixtures = (
        ShiftedShape(Partition((3, 2, 1))).poset(),
        SkewShape(Partition((4, 2))).poset(),
        direct_product(chain(2), chain(2)),
    )
    for P in fixtures:
        L = build_lattice(P)
        r = rank_info(P).top_rank
        for sigma in permutations(range(r + 1)):
            mapping = rank_permuted_rowmotion_map(L, sigma)
            for orbit in orbit_decomposition(L, mapping).orbits:
                assert is_toggle_symmetric(L, orbit_uniform(L, orbit))

    for a in range(1, 5):
        for b in range(1, 5):
            L = build_lattice(direct_product(chain(a), chain(b)))
            assert orbit_decomposition(L, rowmotion_map(L)).order() == a + b

    # whenever criteria 3/4/6 certified c, antichain cardinality is c-mesic
    certified = []
    for s in _balanced_shapes_up_to(10):
        certified.append((s.poset(), Fraction(s.a * s.b, s.a + s.b)))
    for lam in iter_strict_partitions(10):
        cls = classify_shifted_balanced(lam)
        if cls is not None and cls.kind in ("type1", "type2"):
            certified.append((ShiftedShape(lam).poset(), shifted_class_density(cls)))
    for a in range(1, 5):
        for b in range(a, 5):
            certified.append(
                (direct_product(chain(a), chain(b)), Fraction(a * b, a + b))
            )
    for b in range(1, 5):
        certified.append((rectangle_interval_poset(b), Fraction(b + 2, 4)))
    for a in range(1, 4):
        certified.append((propeller_poset(a, 1, 1, a), Fraction(1)))
    certified.append((exceptional_poset("e6"), Fraction(4, 3)))
    for P, c in certified:
        L = build_lattice(P)
        r = rank_info(P).top_rank
        for sigma in _sigmas(r + 1, rng):
            rep = homomesy_report(
                L, rank_permuted_rowmotion_map(L, sigma), antichain_cardinality(L)
            )
            assert rep["homomesic"] and Fraction(rep["constant"]) == c, (P, sigma)

    # negative control: a promotion-style word on the 3-element V poset
    from cdeposets.posets import Poset

    V = Poset(3, [(0, 2), (1, 2)])
    LV = build_lattice(V)
    mapping = [apply_toggle_word(LV, (1, 2, 0), i) for i in range(LV.n)]
    orbits = orbit_decomposition(LV, mapping).orbits
    as_sets = [{tuple(sorted(LV.members(i))) for i in o} for o in orbits]
    assert {(), (0, 1)} in as_sets
    bad = orbits[as_sets.index({(), (0, 1)})]
    t_c = _signed_tables(LV)[2]
    assert sum(t_c[i] for i in bad) != 0
    _passed("criterion 8 (orbit toggle-symmetry, rowmotion order, c-mesy)")


def test_criterion_09_tableaux_oracles():
    for lam in iter_partitions(8):
        shape = SkewShape(lam)
        assert f_aitken(shape) == f_hook(lam) == count_linear_extensions(shape.poset())
    for lam in iter_strict_partitions(8):
        assert g_thrall(lam) == count_linear_extensions(ShiftedShape(lam).poset())
    assert g_thrall(Partition((3, 2, 1))) == 2

    # barely formula vs split-box count vs the backtracker for skew shapes
    # <= 7 boxes; shapes with the same connected-component multiset have
    # equal counts, so dedupe by that key
    seen = set()
    checked = 0
    for shape in skew_shapes(7):
        if shape.n_boxes == 0:
            continue
        key = component_key(shape)
        if key in seen:
            continue
        seen.add(key)
        checked += 1
        counts = tableau_counts(shape)
        assert counts["barely_formula"] == counts["barely_brute_force"] == barely_count(shape), (
            shape.outer.parts,
            shape.inner.parts,
        )
    assert checked > 400
    assert tableau_counts(SkewShape(rectangle(2, 2)))["barely_brute_force"] == 10

    for lam in iter_strict_partitions(6):
        counts = tableau_counts(ShiftedShape(lam))
        for name, unprimed in (("barely", False), ("barely_diag_unprimed", True)):
            assert (
                counts[f"{name}_formula"]
                == counts[f"{name}_brute_force"]
                == shifted_barely_count(lam, diagonally_unprimed=unprimed)
            ), (lam.parts, unprimed)
    counts = tableau_counts(ShiftedShape(Partition((2, 1))))
    assert counts["barely_brute_force"] == 48
    assert counts["barely_diag_unprimed_brute_force"] == 8
    counts = tableau_counts(ShiftedShape(Partition((3, 2, 1))))
    assert counts["barely_formula"] == 1792
    assert counts["barely_diag_unprimed_formula"] == 168

    for lam in iter_strict_partitions(10):
        cls = classify_shifted_balanced(lam)
        if cls is None or cls.kind != "type1":
            continue
        shape = ShiftedShape(lam)
        L = build_lattice(shape.poset())
        diag = [shape.box_index[(i, i)] for i in range(1, lam.length + 1)]
        t_minus = toggle_tables(L.base, L.ideals)[1]
        minus = [t_minus[p] for p in diag]
        stat = [sum(col[idx] for col in minus) for idx in range(L.n)]
        assert expectation(normalized(_maxchain_weights(L)), stat) == Fraction(1, 2), lam
    _passed("criterion 9 (tableau counting formulas vs brute-force oracles)")


def test_criterion_10_scan_reproduction():
    for lam in iter_partitions(12):
        shape = SkewShape(lam)
        rep = cde_report(build_lattice(shape.poset()))
        assert rep.is_cde == shape.is_balanced(), lam
    for lam in iter_strict_partitions(12):
        rep = cde_report(build_lattice(ShiftedShape(lam).poset()))
        assert rep.is_cde == (classify_shifted_balanced(lam) is not None), lam
    _passed("criterion 10 (CDE scans match the classifications)")
