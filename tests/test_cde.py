import random
from fractions import Fraction

import pytest

from cdeposets import (
    Distribution,
    LatticeBudgetError,
    build_lattice,
    cde,
    cde_report,
    certify_tcde,
    chain,
    cli,
    direct_product,
    dual,
    expectation,
    find_witness,
    is_toggle_symmetric,
    rank_info,
    scan_family,
    uniform,
)
from cdeposets.cde import TcdeCertificate, TcdeWitness
from cdeposets.serialize import rat_str
from cdeposets.shapes import (
    Partition,
    ShiftedShape,
    SkewShape,
    iter_partitions,
    iter_strict_partitions,
    rectangle,
)

from conftest import (
    NAMED,
    named_poset,
    random_poset,
    random_toggle_symmetric,
    relabelled_posets,
)
from poset_oracle import disjoint_union


def test_report_fix_a(fix_a):
    rep = cde_report(fix_a)
    assert rep.edge_density == 1
    assert rep.maxchain_expectation == 1
    assert rep.chain_expectations == (1, Fraction(13, 14), 1)
    assert rep.is_cde and not rep.is_mcde


def test_report_fix_b(fix_b):
    rep = cde_report(fix_b)
    assert rep.is_mcde and not rep.is_cde
    assert rep.maxchain_expectation == Fraction(17, 16)
    assert all(x == 1 for x in rep.chain_expectations)


def test_report_j_fix_c(fix_c):
    rep = cde_report(build_lattice(fix_c))
    assert rep.edge_density == Fraction(8, 5)
    assert rep.chain_expectations[1] == Fraction(83, 52)
    assert rep.is_cde and not rep.is_mcde


def test_certificate_rectangle_2x3():
    L = build_lattice(SkewShape(rectangle(2, 3)).poset())
    cert = certify_tcde(L)
    assert cert is not None and cert.c == Fraction(6, 5)
    assert cert.validate(L)


def test_certificate_e6_kappa_scaling():
    from cdeposets.minuscule import _load_exceptional, exceptional_poset

    L = build_lattice(exceptional_poset("e6"))
    cert = certify_tcde(L)
    assert cert.c == Fraction(4, 3)
    fig = [Fraction(k) for k in _load_exceptional("e6")["kappa"]]
    assert cert.kappa == tuple(k / 3 for k in fig)


def test_certificate_absent_for_shifted_42():
    L = build_lattice(ShiftedShape(Partition((4, 2))).poset())
    assert certify_tcde(L) is None


def test_certificate_soundness_random_toggle_symmetric():
    rng = random.Random(42)
    cases = [
        SkewShape(rectangle(2, 3)).poset(),
        ShiftedShape(Partition((3, 2, 1))).poset(),
        direct_product(chain(2), chain(3)),
    ]
    for P in cases:
        L = build_lattice(P)
        cert = certify_tcde(L)
        assert cert is not None
        for _ in range(200):
            mu = random_toggle_symmetric(L, rng)
            assert is_toggle_symmetric(L, mu)
            assert expectation(mu, L.ddeg) == cert.c


def test_witness_for_shifted_42():
    L = build_lattice(ShiftedShape(Partition((4, 2))).poset())
    witness = find_witness(L)
    assert witness is not None
    assert witness.validate(L)
    assert witness.expectation != Fraction(6, 5)
    # the half-step keeps the witness strictly positive
    mu = Distribution([Fraction(w, witness.den) for w in witness.ints])
    assert all(w > 0 for w in mu)


def test_witness_absent_on_tcde_lattices(fix_a):
    assert find_witness(build_lattice(chain(4))) is None
    assert find_witness(build_lattice(direct_product(chain(2), chain(2)))) is None


def test_refutation_completeness():
    rng = random.Random(55)
    refuted = 0
    for _ in range(40):
        P = random_poset(rng, 6)
        L = build_lattice(P)
        cert = certify_tcde(L)
        witness = find_witness(L)
        assert (cert is None) == (witness is not None)
        if witness is not None:
            refuted += 1
            assert witness.validate(L)
    assert refuted > 0


def test_tcde_implies_mcde_implies_cde():
    rng = random.Random(61)
    for _ in range(25):
        P = random_poset(rng, 5)
        L = build_lattice(P)
        rep = cde_report(L)
        if certify_tcde(L) is not None:
            assert rep.is_mcde
        if rep.is_mcde:
            assert rep.is_cde


def test_duality_preserves_certificates():
    rng = random.Random(77)
    for _ in range(20):
        P = random_poset(rng, 5)
        c1 = certify_tcde(build_lattice(P))
        c2 = certify_tcde(build_lattice(dual(P)))
        assert (c1 is None) == (c2 is None)
        if c1 is not None:
            assert c1.c == c2.c


def test_products_add_certificate_constants():
    rng = random.Random(83)
    found = 0
    for _ in range(20):
        P = random_poset(rng, 3)
        Q = random_poset(rng, 3)
        cp = certify_tcde(build_lattice(P))
        cq = certify_tcde(build_lattice(Q))
        if cp is None or cq is None:
            continue
        found += 1
        cpq = certify_tcde(build_lattice(disjoint_union(P, Q)))
        assert cpq is not None and cpq.c == cp.c + cq.c
    assert found > 0


def test_graded_base_density_formula():
    rng = random.Random(91)
    for _ in range(30):
        P = random_poset(rng, 5)
        info = rank_info(P)
        L = build_lattice(P)
        cert = certify_tcde(L)
        if cert is not None and info.is_graded:
            assert cert.c == Fraction(P.n, info.top_rank + 2)


def test_empty_full_constraint_flag():
    L = build_lattice(ShiftedShape(Partition((4, 2))).poset())
    cert = certify_tcde(L, empty_full_constraint=True)
    assert cert is not None and cert.c == Fraction(6, 5)
    # the identity needs the coefficient on [I = empty] - [I = full]
    assert cert.empty_full == Fraction(-1, 5) and cert.validate(L)
    assert not TcdeCertificate(cert.c, cert.kappa).validate(L)
    assert cert.to_dict()["empty_full"] == "-1/5"
    # a zero coefficient is left out of the report
    staircase = build_lattice(ShiftedShape(Partition((3, 2, 1))).poset())
    assert "empty_full" not in certify_tcde(staircase, True).to_dict()


def test_propeller_lattices_density_one():
    from cdeposets.minuscule import propeller_poset

    for a in range(1, 4):
        for d in range(1, 4):
            cert = certify_tcde(build_lattice(propeller_poset(a, 1, 1, d)))
            assert cert is not None and cert.c == 1


def test_invalid_certificate_fails_validation(fix_a):
    L = build_lattice(chain(2))
    bad = TcdeCertificate(c=Fraction(5), kappa=(Fraction(0),) * 2)
    assert not bad.validate(L)


def test_certificate_with_a_wrong_kappa_length_fails_validation():
    """A kappa with an entry more or less than P has elements fails, even
    when the entries it shares with a valid certificate are right."""
    L = build_lattice(chain(2))
    cert = certify_tcde(L)
    assert cert.validate(L)
    for kappa in (cert.kappa + (Fraction(7),), cert.kappa + (Fraction(0),), cert.kappa[:1], ()):
        assert not TcdeCertificate(cert.c, kappa).validate(L)


def test_invalid_witness_fails_validation():
    L = build_lattice(ShiftedShape(Partition((4, 2))).poset())
    w = find_witness(L)
    ints, den, value = list(w.ints), w.den, w.expectation
    assert w.validate(L)
    # toggle-symmetry is scale-invariant
    assert TcdeWitness(tuple([3 * x for x in ints]), 3 * den, value).validate(L)

    def tampered(i, j, amount):
        out = list(ints)
        out[i] -= amount
        out[j] += amount
        return tuple(out)

    # two ideals with equal ddeg but different signed toggle vectors: moving
    # weight between them keeps the expectation and breaks the toggle balance
    i, j = next(
        (i, j)
        for i in range(L.n)
        for j in range(i)
        if L.ddeg[i] == L.ddeg[j] and (L.up[i], L.down[i]) != (L.up[j], L.down[j])
    )
    bad = [
        # one unit moved: sum and expectation kept, toggle balance broken
        TcdeWitness(tampered(i, j, 1), den, value),
        TcdeWitness(tuple(ints), den, value + Fraction(1, den)),
        # a negative numerator, sum kept
        TcdeWitness(tampered(0, 1, ints[0] + 1), den, value),
        TcdeWitness(tuple(ints), den + 1, value),
        # uniform: toggle-symmetric, but its expectation is the density
        TcdeWitness((1,) * L.n, L.n, Fraction(L.edge_count(), L.n)),
    ]
    assert [x.validate(L) for x in bad] == [False] * len(bad)


def test_scan_family():
    assert list(scan_family([], "cde")) == []
    rows = list(
        scan_family(
            [("chain3", chain(3)), ("fixture", direct_product(chain(2), chain(2)))],
            "tcde",
        )
    )
    assert [r["holds"] for r in rows] == [True, True]
    with pytest.raises(ValueError):
        list(scan_family([], "bogus"))
    # J(chain(3)) has 4 ideals
    assert len(list(scan_family([("chain3", chain(3))], "cde", budget=4))) == 1
    with pytest.raises(LatticeBudgetError):
        list(scan_family([("chain3", chain(3))], "cde", budget=3))
    # one budget for the whole scan: two J(chain(3)) need 8 ideals
    items = [("a", chain(3)), ("b", chain(3))]
    assert len(list(scan_family(items, "tcde", budget=8))) == 2
    with pytest.raises(LatticeBudgetError, match="the ideal budget of 7$"):
        list(scan_family(items, "tcde", budget=7))


def _scan_items(family):
    """The (name, poset) pairs of a scan family, named as ``scan`` names them."""
    if family == "straight-shapes:8":
        return [
            (f"straight:{','.join(map(str, lam.parts))}", SkewShape(lam).poset())
            for lam in iter_partitions(8)
        ]
    if family == "strict-partitions:10":
        return [
            (f"shifted:{','.join(map(str, lam.parts))}", ShiftedShape(lam).poset())
            for lam in iter_strict_partitions(10)
        ]
    if family == "named":
        return [(literal, named_poset(literal)) for literal in NAMED]
    return [(f"random-{i}", P) for i, P in enumerate(relabelled_posets())]


def _report_rows(items, predicate):
    """Scan rows built from ``cde_report``, which runs the k-chain pass on
    every lattice: the slow route the scan is checked against."""
    rows = []
    for name, P in items:
        report = cde_report(build_lattice(P))
        rows.append(
            {
                "input": name,
                "predicate": predicate,
                "edge_density": rat_str(report.edge_density),
                "holds": report.is_cde if predicate == "cde" else report.is_mcde,
                "maxchain_expectation": rat_str(report.maxchain_expectation),
            }
        )
    return rows


SCAN_FAMILIES = ["straight-shapes:8", "strict-partitions:10", "named", "random"]


@pytest.mark.parametrize("family", SCAN_FAMILIES)
@pytest.mark.parametrize("predicate", ["cde", "mcde"])
def test_scan_rows_match_cde_report(family, predicate):
    items = _scan_items(family)
    expected = _report_rows(items, predicate)
    assert list(scan_family(items, predicate)) == expected
    # both verdicts occur in every family
    assert {row["holds"] for row in expected} == {True, False}


def test_mcde_scan_refutes_a_cde_row(fix_c):
    # J(fix-c) is CDE but not mCDE, so the k-chain pass decides its mcde
    # row; every CDE row of the SCAN_FAMILIES is also mCDE
    items = [("fix-c", fix_c), ("chain3", chain(3))]
    for predicate, holds in (("cde", [True, True]), ("mcde", [False, True])):
        rows = list(scan_family(items, predicate))
        assert rows == _report_rows(items, predicate)
        assert [r["holds"] for r in rows] == holds


def test_cde_scan_runs_no_chain_pass(monkeypatch, capsys):
    def no_chain_pass(X, stat):
        raise AssertionError("the cde scan ran the k-chain pass")

    monkeypatch.setattr(cde, "_chain_moments", no_chain_pass)
    for argv in (
        ["--predicate", "cde"],
        ["--format", "csv"],
        ["--predicate", "cde", "--format", "csv"],
    ):
        assert cli.main(["scan", "--family", "straight-shapes:8", *argv]) == 0
        assert len(capsys.readouterr().out.splitlines()) > 66
    # the patch bites: an mcde scan has CDE rows and fails on them
    assert cli.main(["scan", "--family", "straight-shapes:8", "--predicate", "mcde"]) == 4
    assert "ran the k-chain pass" in capsys.readouterr().out


@pytest.mark.parametrize("family", SCAN_FAMILIES)
def test_mcde_scan_runs_the_chain_pass_once_per_cde_row(monkeypatch, family):
    items = _scan_items(family)
    cde_rows = [P for (_, P), r in zip(items, _report_rows(items, "cde")) if r["holds"]]
    calls = []
    real = cde._chain_moments

    def counted(X, stat):
        calls.append(X)
        return real(X, stat)

    monkeypatch.setattr(cde, "_chain_moments", counted)
    list(scan_family(items, "mcde"))
    assert [L.base for L in calls] == cde_rows


OPTIMIZED_CHECKS = """
import sys
from types import SimpleNamespace

from cdeposets import build_lattice, cde, certify_tcde, cli, distributions, find_witness, linalg
from cdeposets import tableaux
from cdeposets.cde import _refute
from cdeposets.shapes import parse_shape

print("optimize", sys.flags.optimize)
real_solve = linalg.solve


def corrupt_solve(matrix):
    d, x = real_solve(matrix)
    return d, [x[0] + 1] + x[1:]


linalg.solve = corrupt_solve
for literal in ("shifted:3,2,1", "shifted:4,2"):
    L = build_lattice(parse_shape(literal).poset())
    for fn in (certify_tcde, find_witness):
        try:
            print(fn.__name__, literal, fn(L))
        except ArithmeticError:
            print(fn.__name__, literal, "rejected")
print("exit", cli.main(["cert-tcde", "--shape", "shifted:3,2,1"]))

# a split-box sweep one off its formula count
real_split = tableaux._split_box_count
tableaux._split_box_count = lambda L, weight: real_split(L, weight) + 1
print("exit", cli.main(["count-tableaux", "--shape", "straight:3,2"]))
tableaux._split_box_count = real_split

# exact solves again, but the witness elimination that cde calls returns a
# solution off by one in its first entry
linalg.solve = real_solve
real_eliminate = linalg._eliminate


def corrupt_eliminate(columns, m):
    chosen, d, y = real_eliminate(columns, m)
    return chosen, d, None if y is None else [y[0] + 1] + y[1:]


cde.linalg = SimpleNamespace(solve=real_solve, _eliminate=corrupt_eliminate)
L = build_lattice(parse_shape("shifted:4,2").poset())
print("certify_tcde shifted:4,2", certify_tcde(L))
for fn in (_refute, find_witness):
    try:
        print(fn.__name__, "shifted:4,2", fn(L))
    except ArithmeticError:
        print(fn.__name__, "shifted:4,2", "rejected")
print("exit", cli.main(["cert-tcde", "--shape", "shifted:4,2"]))

# a valid witness with one unit of weight moved between two ideals of equal
# ddeg: only the toggle balance can reject it
cde.linalg = linalg
w = _refute(L)
i, j = next(
    (i, j)
    for i in range(L.n)
    for j in range(i)
    if L.ddeg[i] == L.ddeg[j] and (L.up[i], L.down[i]) != (L.up[j], L.down[j])
)
ints = list(w.ints)
ints[i] -= 1
ints[j] += 1
print("validate", w.validate(L), cde.TcdeWitness(tuple(ints), w.den, w.expectation).validate(L))

# a Gram route that reads the all-ones column as twice itself: the identity
# still holds, with c halved, so only the edge-density guard can reject it
real_gram = cde._gram
L = build_lattice(parse_shape("shifted:3,2,1").poset())


def doubled_ones(L, empty_full):
    gram = real_gram(L, empty_full)
    for row in gram:
        row[0] *= 2
    gram[0] = [2 * g for g in gram[0]]
    return gram


cde._gram = doubled_ones
for fn in (certify_tcde, find_witness):
    try:
        print(fn.__name__, "shifted:3,2,1", fn(L))
    except ArithmeticError:
        print(fn.__name__, "shifted:3,2,1", "rejected")
print("exit", cli.main(["cert-tcde", "--shape", "shifted:3,2,1"]))
cde._gram = real_gram

# a bordered Gram whose <ddeg, ddeg> corner is negated, which no Gram has:
# H (x, -d) reads it as a negative squared residual
def negative_corner(L, empty_full):
    gram = real_gram(L, empty_full)
    gram[-1][-1] = -gram[-1][-1]
    return gram


cde._gram = negative_corner
print("exit", cli.main(["cert-tcde", "--shape", "shifted:4,2"]))
cde._gram = real_gram


# a Gram with a negative diagonal entry, which no Gram has: the symmetric
# solve meets it as a negative pivot
def negative_diagonal(L, empty_full):
    gram = real_gram(L, empty_full)
    gram[1][1] = -gram[1][1]
    return gram


cde._gram = negative_diagonal
try:
    print("certify_tcde shifted:3,2,1", certify_tcde(L))
except ArithmeticError:
    print("certify_tcde shifted:3,2,1 rejected")
print("exit", cli.main(["cert-tcde", "--shape", "shifted:3,2,1"]))
cde._gram = real_gram

# solve takes only square symmetric matrices
for matrix in ([[1, 0]], [[1, 0], [0]], [[1, 2], [3, 4]]):
    try:
        print("solve", linalg.solve(matrix))
    except ValueError as e:
        print("solve", e)

# a chain-polynomial width too narrow for the chain counts
distributions._width = lambda X, top: (2, X.base.n)
print("exit", cli.main(["analyze", "--shape", "straight:3,2"]))
"""


def test_corrupted_solves_are_rejected_under_python_O():
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout.splitlines()
    assert out[0] == "optimize 1"
    assert out[1:5] == [
        "certify_tcde shifted:3,2,1 rejected",
        "find_witness shifted:3,2,1 rejected",
        "certify_tcde shifted:4,2 rejected",
        "find_witness shifted:4,2 rejected",
    ]
    assert [line for line in out if line.startswith("exit")] == ["exit 4"] * 7
    first = out.index("exit 4")
    split = out.index("exit 4", first + 1)
    second = out.index("exit 4", split + 1)
    guard = out.index("exit 4", second + 1)
    residual = out.index("exit 4", guard + 1)
    pivot = out.index("exit 4", residual + 1)
    assert json.loads("\n".join(out[5:first])) == {
        "error": "internal error: ArithmeticError: exact solve failed on a consistent system"
    }
    assert json.loads("\n".join(out[first + 1 : split])) == {
        "error": "internal error: ArithmeticError: split-box count 38, the barely formula 37"
    }
    assert out[split + 1 : split + 4] == [
        "certify_tcde shifted:4,2 None",
        "_refute shifted:4,2 rejected",
        "find_witness shifted:4,2 rejected",
    ]
    assert json.loads("\n".join(out[split + 4 : second])) == {
        "error": "internal error: ArithmeticError: exact elimination failed on a consistent system"
    }
    assert out[second + 1] == "validate True False"
    assert out[second + 2 : second + 4] == [
        "certify_tcde shifted:3,2,1 rejected",
        "find_witness shifted:3,2,1 rejected",
    ]
    assert json.loads("\n".join(out[second + 4 : guard])) == {
        "error": "internal error: ArithmeticError: "
        "certified c = 1/2 is not the edge density 1"
    }
    assert json.loads("\n".join(out[guard + 1 : residual])) == {
        "error": "internal error: ArithmeticError: the matrix is not positive semidefinite"
    }
    assert out[residual + 1] == "certify_tcde shifted:3,2,1 rejected"
    assert json.loads("\n".join(out[residual + 2 : pivot])) == {
        "error": "internal error: ArithmeticError: the matrix is not positive semidefinite"
    }
    assert out[pivot + 1 : pivot + 4] == [
        "solve solve needs a nonempty square matrix",
        "solve solve needs a nonempty square matrix",
        "solve solve needs a symmetric matrix",
    ]
    assert out[-1] == "exit 4"
    assert json.loads("\n".join(out[pivot + 4 : -1])) == {
        "error": "internal error: ArithmeticError: packed chain moments overflowed their width"
    }
