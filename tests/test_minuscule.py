from fractions import Fraction

import pytest

from cdeposets import build_lattice, chain, direct_product, is_isomorphic
from cdeposets.ideals import LatticeBudgetError
from cdeposets.minuscule import (
    _load_exceptional,
    build_minuscule,
    exceptional_poset,
    parse_family,
    propeller_poset,
    rectangle_interval_poset,
    verify_e6_e7_certificates,
    verify_minuscule_theorems,
)
from cdeposets.shapes import ShiftedShape, staircase

from lattice_oracle import toggle_tables


def test_exceptional_sizes():
    assert exceptional_poset("e6").n == 16
    assert exceptional_poset("e7").n == 27


def test_propeller_small_cases():
    assert is_isomorphic(propeller_poset(1, 1, 1, 1), direct_product(chain(2), chain(2)))
    with pytest.raises(ValueError):
        propeller_poset(0, 1, 1, 1)


def test_chain_product_degenerate():
    case = build_minuscule("axb", 1, 4)
    assert is_isomorphic(case.realized, chain(4))


def test_identity_reports():
    rep = verify_e6_e7_certificates()
    assert rep["all_hold"]
    by_case = {r["case"]: r for r in rep["cases"]}
    assert by_case["E6"]["c"] == "4/3" and by_case["E6"]["n_ideals"] == 27
    assert by_case["E7"]["c"] == "3/2" and by_case["E7"]["n_ideals"] == 56


def test_identity_negative_control():
    # zeroing one kappa must break the pointwise identity
    P = exceptional_poset("e6")
    kappa = [Fraction(k) for k in _load_exceptional("e6")["kappa"]]
    kappa[3] = Fraction(0)
    L = build_lattice(P)
    cols = list(zip(*toggle_tables(P, L.ideals)))
    holds = all(
        3 * L.ddeg[i]
        + sum(kappa[p] * (cols[p][1][i] - cols[p][0][i]) for p in range(P.n))
        == 4
        for i in range(L.n)
    )
    assert not holds


def test_a_kappa_typo_fails_the_transcription_gate(monkeypatch):
    """One kappa entry of E7 off by one: the quadratic-form check reports the
    identity broken, and the E6/E7 verification fails."""
    real = _load_exceptional

    def typo(name):
        data = real(name)
        if name == "e7":
            data["kappa"][5] += 1
        return data

    monkeypatch.setattr("cdeposets.minuscule._load_exceptional", typo)
    rep = verify_e6_e7_certificates()
    assert not rep["all_hold"]
    assert rep["cases"][1] == {
        "case": "E7",
        "holds": False,
        "note": "transcription bug: identity fails",
    }
    assert rep["cases"][0]["holds"]


def test_parse_family_bounds_the_b2_lattice_by_the_budget():
    # J(2x200) has 20,301 ideals; the budget stops it before they are built
    with pytest.raises(LatticeBudgetError, match="ideal budget of 5"):
        parse_family("minuscule:b2:200", budget=5)
    assert parse_family("minuscule:b2:3", budget=10).realized.n == 10


def test_parse_family():
    assert parse_family("minuscule:axb:3x4").realized.n == 12
    assert parse_family("minuscule:b2:4").realized.n == 15
    assert parse_family("minuscule:pa11a:3").realized.n == 8
    assert parse_family("minuscule:E6").realized.n == 16
    assert parse_family("minuscule:E7").realized.n == 27
    with pytest.raises(ValueError):
        parse_family("bogus:E6")


def test_rectangle_interval_is_shifted_staircase():
    assert is_isomorphic(rectangle_interval_poset(3), ShiftedShape(staircase(4)).poset())


def test_j_e6_is_e7():
    assert is_isomorphic(
        build_lattice(exceptional_poset("e6")).as_poset(), exceptional_poset("e7")
    )


def test_minuscule_theorems():
    rep = verify_minuscule_theorems()
    assert rep["all_hold"], rep
