"""The Gram route for tCDE certificates and witnesses against the dense
Fraction route in dense_oracle.py: equal to_dict() output, bit for bit."""

import random

import pytest

from cdeposets import build_lattice, build_poset, certify_tcde, find_witness
from cdeposets.cde import _decide, _refute
from cdeposets.minuscule import parse_family
from cdeposets.shapes import parse_shape

from dense_oracle import certify_tcde_dense, find_witness_dense


def _dict(x):
    return None if x is None else x.to_dict()


def _assert_same(L):
    witness = _dict(find_witness_dense(L))
    for empty_full in (False, True):
        assert _dict(certify_tcde(L, empty_full)) == _dict(
            certify_tcde_dense(L, empty_full)
        )
        # the CLI's cert-tcde route: one Gram solve, then the witness from it
        cert, gram = _decide(L, empty_full)
        if cert is None:
            assert _refute(L, gram).to_dict() == witness
    assert _dict(find_witness(L)) == witness


@pytest.mark.parametrize(
    "literal",
    [
        "minuscule:E6",
        "minuscule:E7",
        "minuscule:axb:5x6",
        "shifted:4,2",
        "shifted:6,4,2",
        "shifted:8,6,4,2",
        "straight:7,5,3,1",
        "skew:7,6,5,4/3,1",
    ],
)
def test_named_lattices_match_dense_route(literal):
    if literal.startswith("minuscule:"):
        P = parse_family(literal).realized
    else:
        P = parse_shape(literal).poset()
    _assert_same(build_lattice(P))


def test_empty_poset_matches_dense_route():
    # the single ideal is both empty and full
    L = build_lattice(build_poset(0, []))
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
        L = build_lattice(build_poset(n, rels))
        _assert_same(L)
        refuted += certify_tcde(L) is None
    assert refuted > 50
