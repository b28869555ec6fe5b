"""The Gram route for tCDE certificates and witnesses against the dense
Fraction route in dense_oracle.py: equal to_dict() output, bit for bit.
Every certificate, with and without the empty/full column, also validates:
its identity holds on every ideal.  The Gram counted on the cover pattern
equals the full A^T A entry by entry, and so do its A^T ddeg border and
<ddeg, ddeg> corner.  The residual verdict of the Gram route, like the
H v = 0 check behind ``validate``, agrees with the per-ideal check of
lattice_oracle.py, a nonzero residual being a witness direction.  The unit-image witness scan of sparse columns agrees with the
column-by-column elimination of dense ones."""

import random
from fractions import Fraction
from operator import mul

import pytest

from cdeposets import Poset, build_lattice, certify_tcde, find_witness, linalg
from cdeposets.cde import (
    TcdeCertificate,
    _gram,
    _ideal_columns,
    _refute,
    _transpose,
)
from cdeposets.minuscule import parse_family
from cdeposets.shapes import parse_shape

from conftest import NAMED, named_poset, relabelled_posets
from dense_oracle import (
    _dense_columns,
    _echelon,
    _signed_tables,
    certify_tcde_dense,
    dense_gram,
    densify,
    eliminate_by_columns,
    find_witness_dense,
    sparse,
    transpose_bits,
)
from lattice_oracle import build_lattice_reference, identity_failure_from_tables


def _named_lattice(literal):
    return build_lattice(named_poset(literal))


def _dict(x):
    return None if x is None else x.to_dict()


def _assert_same(L):
    witness = _dict(find_witness_dense(L))
    for empty_full in (False, True):
        cert = certify_tcde(L, empty_full)
        assert _dict(cert) == _dict(certify_tcde_dense(L, empty_full))
        assert cert is None or cert.validate(L)
        # the CLI's cert-tcde route: refuted with the extra column means
        # refuted without it
        if cert is None:
            assert _refute(L).to_dict() == witness
    assert _dict(find_witness(L)) == witness


@pytest.mark.parametrize("literal", NAMED)
def test_named_lattices_match_dense_route(literal):
    _assert_same(_named_lattice(literal))


@pytest.mark.parametrize("literal", NAMED)
def test_transpose_matches_reference_on_named_lattices(literal):
    L = _named_lattice(literal)
    for masks, width in (
        (L.up, L.base.n),
        (L.down, L.base.n),
        (L.ddeg, max(L.ddeg).bit_length()),
    ):
        assert _transpose(masks, width) == transpose_bits(masks, width)


def test_transpose_matches_reference_on_random_masks():
    rng = random.Random(1606)
    for width in range(41):
        assert _transpose([0], width) == transpose_bits([0], width)
        for count in (1, 2, 9, 64):
            masks = [rng.getrandbits(width) for _ in range(count)]
            if width:
                masks[rng.randrange(count)] |= 1 << (width - 1)  # top bit set
            assert _transpose(masks, width) == transpose_bits(masks, width)


def test_empty_poset_matches_dense_route():
    # the single ideal is both empty and full
    L = build_lattice(Poset(0, []))
    _assert_same(L)
    assert certify_tcde(L, empty_full_constraint=True).c == 0


def test_random_relabelled_posets_match_dense_route():
    refuted = 0
    for P in relabelled_posets():
        L = build_lattice(P)
        _assert_same(L)
        refuted += certify_tcde(L) is None
    assert refuted > 50


def _assert_residual_verdict(L):
    """Return how many of the two Gram solves (without and with the
    empty/full column) were refuted.

    H (y, -d) is 0 but for its last entry, minus the residual integer of
    the Gram route, d <ddeg, ddeg> - y^T A^T ddeg.  The scaled residual
    d r = d ddeg - A y is built per ideal from the oracle tables; it is 0
    exactly when the per-ideal check and ``validate`` pass the Gram
    solution and certify_tcde certifies, it is orthogonal to every column
    of A, and d times the residual integer is its squared norm.  A refuted
    lattice's r is a witness direction: sum r = 0, <T_p, r> = 0 and
    <ddeg, r> = ||r||^2 > 0."""
    nP = L.base.n
    ref = build_lattice_reference(L.base, budget=1 << 24)
    ends = [0] * L.n  # [I = empty] - [I = full]; a single ideal counts as full
    ends[0] = 1
    ends[-1] = -1
    refuted = 0
    for empty_full in (False, True):
        cols = [[1] * L.n, *_signed_tables(L)] + ([ends] if empty_full else [])
        gram = _gram(L, empty_full)
        d, y = linalg.solve(gram)
        *normal, last = [sum(map(mul, row, [*y, -d])) for row in gram]
        rhs, corner = [row[-1] for row in gram[:-1]], gram[-1][-1]
        residual = -last
        assert normal == [0] * len(y)
        assert residual == d * corner - sum(map(mul, y, rhs))
        scaled = [
            d * dd - sum([col[i] * x for col, x in zip(cols, y)])
            for i, dd in enumerate(L.ddeg)
        ]
        cert = certify_tcde(L, empty_full)
        identity = (y[0], y[1 : nP + 1], d, y[-1] if empty_full else 0)
        per_ideal = identity_failure_from_tables(ref, *identity)
        candidate = TcdeCertificate(
            Fraction(y[0], d),
            tuple([Fraction(k, d) for k in y[1 : nP + 1]]),
            Fraction(identity[-1], d),
        )
        assert (per_ideal is None) == candidate.validate(L)
        assert (per_ideal is None) == (cert is not None) == (not any(scaled))
        assert (residual == 0) == (cert is not None)
        norm = sum([r * r for r in scaled])
        assert residual * d == norm
        assert [sum(map(mul, col, scaled)) for col in cols] == [0] * len(cols)
        if cert is None:
            assert d * sum(map(mul, L.ddeg, scaled)) == norm > 0
            refuted += 1
    return refuted


@pytest.mark.parametrize("literal", NAMED)
def test_named_residual_verdict_matches_per_ideal_check(literal):
    _assert_residual_verdict(_named_lattice(literal))


def test_random_residual_verdict_matches_per_ideal_check():
    assert _assert_residual_verdict(build_lattice(Poset(0, []))) == 0
    refuted = sum([_assert_residual_verdict(build_lattice(P)) for P in relabelled_posets()])
    assert refuted > 100


def _assert_gram_on_cover_pattern(L):
    """The full A^T A and A^T ddeg, from the oracle tables: <1, T_p> = 0,
    <T_p, T_q> = 0 unless p = q or one covers the other, and the library's
    Gram, counted on that pattern and bordered by A^T ddeg and
    <ddeg, ddeg>, equals them entry by entry."""
    nP = L.base.n
    pattern = {(p, p) for p in range(nP)} | set(L.base.covers)
    for empty_full in (False, True):
        gram, rhs = dense_gram(L, empty_full)
        assert gram[0][1 : nP + 1] == [0] * nP
        for p in range(nP):
            for q in range(nP):
                if (p, q) not in pattern and (q, p) not in pattern:
                    assert gram[p + 1][q + 1] == 0, (p, q)
        border = [*rhs, sum([x * x for x in L.ddeg])]
        bordered = [row + [b] for row, b in zip(gram, rhs)] + [border]
        assert _gram(L, empty_full) == bordered


@pytest.mark.parametrize("literal", NAMED)
def test_named_gram_is_counted_on_the_cover_pattern(literal):
    _assert_gram_on_cover_pattern(_named_lattice(literal))


def test_random_gram_is_counted_on_the_cover_pattern():
    _assert_gram_on_cover_pattern(build_lattice(Poset(0, [])))
    for P in relabelled_posets():
        _assert_gram_on_cover_pattern(build_lattice(P))


def _assert_scan_matches_slow_route(L):
    """The unit-image elimination behind the witness scan returns the
    (chosen, d, y) of the column-by-column one on the dense columns; True
    when e_last is reached."""
    columns, e_last = _dense_columns(L)
    chosen, d, y = linalg._eliminate(_ideal_columns(L), len(e_last))
    assert ([(i, columns[i]) for i, _ in chosen], d, y) == eliminate_by_columns(columns, e_last)
    return y is not None


@pytest.mark.parametrize("literal", NAMED)
def test_named_witness_scan_matches_column_by_column_route(literal):
    L = _named_lattice(literal)
    assert _assert_scan_matches_slow_route(L) == (certify_tcde(L) is None)


def test_random_witness_scan_matches_column_by_column_route():
    refuted = sum(
        [_assert_scan_matches_slow_route(build_lattice(P)) for P in relabelled_posets(400, 1968)]
    )
    assert refuted > 100


@pytest.mark.parametrize("literal", NAMED)
def test_ideal_columns_match_dense_columns(literal):
    L = _named_lattice(literal)
    m = L.base.n + 2
    assert [densify(col, m) for col in _ideal_columns(L)] == [
        list(col) for col in _dense_columns(L)[0]
    ]


def test_lex_first_columns_stop_once_the_target_is_in_their_span():
    """The eliminator behind the witness reads the ideals' columns only up to
    the first chosen one that puts e_last in their span."""
    L = build_lattice(parse_shape("skew:7,6,5,4/3,1").poset())
    columns, e_last = _dense_columns(L)
    read = []

    def counting():
        for i, col in enumerate(sparse(columns)):
            read.append(i)
            yield col

    chosen, d, y = linalg._eliminate(counting(), len(e_last))
    assert y is not None
    assert len(read) < L.n
    assert chosen[-1][0] == read[-1]
    pivots = [c for _, c in _echelon([list(map(Fraction, r)) for r in zip(*columns)])]
    assert [i for i, _ in chosen] == pivots[: len(chosen)]
    assert [densify(col, len(e_last)) for _, col in chosen] == [
        list(columns[i]) for i, _ in chosen
    ]
    # d * v = y solves the chosen block exactly
    assert [
        sum(columns[i][r] * x for (i, _), x in zip(chosen, y)) for r in range(len(e_last))
    ] == [d * e for e in e_last]


def test_lex_first_columns_raise_when_the_target_is_out_of_reach():
    L = build_lattice(parse_family("minuscule:axb:2x3").realized)
    assert certify_tcde(L) is not None
    columns, e_last = _dense_columns(L)
    _, _, y = linalg._eliminate(iter(sparse(columns)), len(e_last))
    assert y is None
    with pytest.raises(ArithmeticError):
        _refute(L)
