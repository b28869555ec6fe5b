"""The corners read off row intervals against the lattice-path oracle, and
the rook identity R_ij(I) = 1 + #(corners of C_ij on I's border) swept over
small shapes."""

import pytest

from cdeposets import build_lattice
from cdeposets.shapes import (
    ShiftedShape,
    iter_connected_skew_shapes,
    iter_strict_partitions,
)

import shape_oracle as oracle


def test_skew_corners_match_the_path_oracle():
    shapes = oracle.skew_shapes(6)
    assert any(not s.is_connected() for s in shapes)
    for s in shapes:
        assert s.corners() == oracle.skew_corners(s), s


def _assert_rook_identity(shape):
    L = build_lattice(shape.poset())
    if isinstance(shape, ShiftedShape):
        attacks, contains = oracle.shifted_corners_attacking, oracle.shifted_contained_corners
    else:
        attacks, contains = oracle.skew_corners_attacking, oracle.skew_contained_corners
    contained = [set(contains(shape, L, idx)) for idx in range(L.n)]
    for i, j in shape.boxes:
        attacking = set(attacks(shape, i, j))
        R = oracle.rook(shape, L, i, j)
        for idx in range(L.n):
            assert R[idx] - len(contained[idx] & attacking) == 1, (shape, (i, j), idx)


@pytest.mark.parametrize(
    "shapes",
    [
        pytest.param(lambda: iter_connected_skew_shapes(7), id="skew<=7"),
        pytest.param(
            lambda: (ShiftedShape(lam) for lam in iter_strict_partitions(10)),
            id="shifted<=10",
        ),
    ],
)
def test_rook_identity_sweep(shapes):
    for shape in shapes():
        _assert_rook_identity(shape)


def test_connected_generator_is_the_filtered_one():
    def key(s):
        return s.outer, s.inner

    for n in range(1, 8):
        connected = [key(s) for s in iter_connected_skew_shapes(n)]
        assert len(set(connected)) == len(connected), n
        assert set(connected) == {key(s) for s in oracle.skew_shapes(n) if s.is_connected()}, n
