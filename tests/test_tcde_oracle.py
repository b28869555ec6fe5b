"""The Gram route for tCDE certificates and witnesses against the dense
Fraction route in dense_oracle.py: equal to_dict() output, bit for bit.
Every certificate, with and without the empty/full column, also validates:
its identity holds on every ideal."""

import random
from fractions import Fraction

import pytest

from cdeposets import Poset, build_lattice, certify_tcde, find_witness, linalg
from cdeposets.cde import _refute, _transpose
from cdeposets.minuscule import parse_family
from cdeposets.shapes import parse_shape

from dense_oracle import (
    _echelon,
    _signed_tables,
    certify_tcde_dense,
    find_witness_dense,
    transpose_bits,
)

NAMED = [
    "minuscule:E6",
    "minuscule:E7",
    "minuscule:axb:5x6",
    "shifted:4,2",
    "shifted:6,4,2",
    "shifted:8,6,4,2",
    "straight:7,5,3,1",
    "skew:7,6,5,4/3,1",
]


def _named_lattice(literal):
    if literal.startswith("minuscule:"):
        return build_lattice(parse_family(literal).realized)
    return build_lattice(parse_shape(literal).poset())


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
    rng = random.Random(2016)
    refuted = 0
    for _ in range(220):
        n = rng.randint(0, 8)
        density = rng.choice((0.2, 0.35, 0.5))
        perm = list(range(n))
        rng.shuffle(perm)
        rels = [
            (perm[i], perm[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        L = build_lattice(Poset(n, rels))
        _assert_same(L)
        refuted += certify_tcde(L) is None
    assert refuted > 50


def _dense_columns(L):
    """The columns of [1; T_p; ddeg], one per ideal, and e_last."""
    rows = [[1] * L.n, *_signed_tables(L), list(L.ddeg)]
    return list(zip(*rows)), [0] * (len(rows) - 1) + [1]


def test_lex_first_columns_stop_once_the_target_is_in_their_span():
    """The eliminator behind the witness reads the ideals' columns only up to
    the first chosen one that puts e_last in their span."""
    L = build_lattice(parse_shape("skew:7,6,5,4/3,1").poset())
    columns, e_last = _dense_columns(L)
    read = []

    def counting():
        for i, col in enumerate(columns):
            read.append(i)
            yield col

    chosen, d, y = linalg._eliminate(counting(), e_last)
    assert y is not None
    assert len(read) < L.n
    assert chosen[-1][0] == read[-1]
    pivots = [c for _, c in _echelon([list(map(Fraction, r)) for r in zip(*columns)])]
    assert [i for i, _ in chosen] == pivots[: len(chosen)]
    assert [col for _, col in chosen] == [columns[i] for i, _ in chosen]
    # d * v = y solves the chosen block exactly
    assert [sum(col[r] * x for (_, col), x in zip(chosen, y)) for r in range(len(e_last))] == [
        d * e for e in e_last
    ]


def test_lex_first_columns_raise_when_the_target_is_out_of_reach():
    L = build_lattice(parse_family("minuscule:axb:2x3").realized)
    assert certify_tcde(L) is not None
    columns, e_last = _dense_columns(L)
    _, _, y = linalg._eliminate(iter(columns), e_last)
    assert y is None
    with pytest.raises(ArithmeticError):
        _refute(L)
