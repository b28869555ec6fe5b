import random
from fractions import Fraction
from itertools import permutations
from operator import mul

import pytest

from cdeposets import build_lattice, certify_tcde, linalg
from cdeposets.cde import _gram
from cdeposets.shapes import parse_shape

from dense_oracle import _echelon, dense_solve, eliminate_by_columns, sparse
from tableau_oracle import dense_det


def _random_matrix(rng, m, n):
    rows = [[rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.3:  # force a dependent row
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    return rows


def _leibniz_det(matrix):
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


def _e_last(m):
    return [0] * (m - 1) + [1]


def _eliminate_solve(A):
    """The free-variables-zero solution of A x = e_last read off
    ``_eliminate`` over A's columns, given sparse, as (d, x), or None."""
    chosen, d, y = linalg._eliminate(sparse(zip(*A)), len(A))
    if y is None:
        return None
    x = [0] * len(A[0])
    for (c, _), v in zip(chosen, y):
        x[c] = v
    return d, x


def _random_with_last_row(rng, m, n):
    """A random matrix whose last row is sometimes zero, so that it never
    pivots, besides the dependent rows of ``_random_matrix``."""
    A = _random_matrix(rng, m, n)
    if rng.random() < 0.15:
        A[-1] = [0] * n
    return A


def test_integer_elimination_matches_dense_fraction_route():
    rng = random.Random(1968)
    inconsistent = 0
    for _ in range(1500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = _random_with_last_row(rng, m, n)
        got = _eliminate_solve(A)
        want = dense_solve(A, _e_last(m))
        if got is None:
            assert want is None
            inconsistent += 1
        else:
            d, x = got
            assert d != 0 and all(isinstance(v, int) for v in x)
            assert [Fraction(v, d) for v in x] == want
    assert 300 < inconsistent < 1200


def test_elimination_matches_the_column_by_column_route():
    """The unit-image elimination of sparse columns, their pairs in any
    order, gives the (chosen, d, y) of the reference that reduces every
    dense column it reads against every pivot, with target e_last, and
    hands back the chosen columns as it read them."""
    rng = random.Random(1606)
    out_of_reach = 0
    for _ in range(1500):
        m, n = rng.randint(1, 7), rng.randint(1, 9)
        A = _random_with_last_row(rng, m, n)
        dense = list(zip(*A))
        columns = sparse(dense)
        for col in columns:
            rng.shuffle(col)
        chosen, d, y = linalg._eliminate(columns, m)
        assert [col for _, col in chosen] == [columns[i] for i, _ in chosen]
        assert ([(i, dense[i]) for i, _ in chosen], d, y) == eliminate_by_columns(
            dense, _e_last(m)
        )
        out_of_reach += y is None
    assert 300 < out_of_reach < 1200


def _gram_of(rng, m, n):
    """A^T A for a random m x n integer A, singular when A has dependent
    columns; one column is sometimes a copy or sum of others, or zero."""
    A = _random_matrix(rng, m, n)
    if n > 2 and rng.random() < 0.4:
        j, kind = rng.randrange(2, n), rng.randrange(3)
        for row in A:
            row[j] = (0, row[0] + row[1], row[0])[kind]
    cols = list(zip(*A))
    return A, [[sum(map(mul, u, v)) for v in cols] for u in cols]


def _bordered_gram_of(rng, m, n):
    """(A, b, G, H): A and its Gram G as in ``_gram_of``, a random b, in A's
    column span about a third of the time, and the Gram H of [A | b], G
    bordered by A^T b and <b, b>."""
    A, G = _gram_of(rng, m, n)
    b = [rng.randint(-4, 4) for _ in range(m)]
    if rng.random() < 0.3:
        z = [rng.randint(-2, 2) for _ in range(n)]
        b = [sum(map(mul, row, z)) for row in A]
    border = [sum(map(mul, col, b)) for col in zip(*A)]
    H = [row + [u] for row, u in zip(G, border)]
    return A, b, G, H + [border + [sum(map(mul, b, b))]]


def _rank(G):
    return len(_echelon([[Fraction(v) for v in row] for row in G]))


def test_symmetric_solve_matches_dense_fraction_route():
    """On the Grams of [A | b] for random integer matrices A, the right-hand
    sides A^T b give the dense route's free-variables-zero solution, which
    on a singular Gram picks the lex-first independent columns."""
    rng = random.Random(2018)
    singular = 0
    for _ in range(1500):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        _, _, G, H = _bordered_gram_of(rng, m, n)
        d, x, _ = linalg.solve(H)
        want = dense_solve(G, [row[-1] for row in H[:-1]])
        singular += _rank(G) < n
        assert d > 0 and all(isinstance(v, int) for v in x)
        assert [Fraction(v, d) for v in x] == want
    assert singular > 800


def test_symmetric_solve_returns_the_scaled_squared_residual():
    """On the Grams of random [M | b], singular ones included, x / d is the
    dense route's free-variables-zero solution of the normal equations and
    r = d (beta - b^T x / d) = d ||b - M x / d||^2, which is 0 exactly when
    M x = b is consistent."""
    rng = random.Random(1606)
    singular = exact = 0
    for _ in range(1500):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        M, b, G, H = _bordered_gram_of(rng, m, n)
        rhs = [row[-1] for row in H[:-1]]
        d, x, r = linalg.solve(H)
        assert d > 0 and all(isinstance(v, int) for v in [*x, r])
        assert [Fraction(v, d) for v in x] == dense_solve(G, rhs)
        assert r == d * (H[-1][-1] - Fraction(sum(map(mul, rhs, x)), d))
        residual = [d * v - sum(map(mul, row, x)) for row, v in zip(M, b)]
        assert r * d == sum([v * v for v in residual])
        assert (r == 0) == (dense_solve(M, b) is not None)
        singular += _rank(G) < n
        exact += r == 0
    assert singular > 800 and 300 < exact < 1200


def test_symmetric_solve_reads_no_column_once_the_target_is_spanned():
    """The rows the solve reads of a certified lattice's bordered Gram with
    the empty/full column: the corner, then the columns only until the
    residual is 0, so never the empty/full column; a lattice certified only
    with that column reads it."""
    reads = []

    class Counting(list):
        def __getitem__(self, i):
            reads.append(i % len(self))
            return list.__getitem__(self, i)

    for literal, certified_without in (("shifted:3,2,1", True), ("shifted:4,2", False)):
        L = build_lattice(parse_shape(literal).poset())
        nP = L.base.n
        assert (certify_tcde(L) is not None) == certified_without
        assert certify_tcde(L, True) is not None
        reads.clear()
        d, x, r = linalg.solve(Counting(_gram(L, True)))
        assert r == 0 and reads[0] == nP + 2
        assert (nP + 1 in reads) != certified_without
        assert reads[1:] == list(range(len(reads) - 1))


def test_oracle_determinant_matches_leibniz():
    """The dense determinant behind the Aitken oracle, on random squares with
    Fraction entries, as the Aitken rows have."""
    rng = random.Random(1968)
    for _ in range(1500):
        n = rng.randint(0, 5)
        A = _random_matrix(rng, n, n)
        A = [[Fraction(v, rng.choice((1, 1, 2, 3))) for v in row] for row in A]
        assert dense_det(A) == _leibniz_det(A)
    assert dense_det([]) == 1
    assert dense_det([[1, 2], [2, 4]]) == 0
    assert dense_det([[0, 1], [1, 0]]) == -1


def test_degenerate_shapes():
    assert linalg.solve([[0]]) == (1, [], 0)
    assert linalg.solve([[0, 0], [0, 0]]) == (1, [0], 0)
    assert linalg.solve([[0, 0], [0, 1]]) == (1, [0], 1)
    assert _eliminate_solve([[0, 0]]) is None
    assert _eliminate_solve([[0, 3]]) == (3, [0, 1])
    assert _eliminate_solve([[1, 2], [0, 0]]) is None
    assert linalg._eliminate([], 2) == ([], 1, None)


def test_solve_refuses_what_is_not_symmetric_psd():
    for matrix in ([], [[1, 0]], [[1], [0]], [[1, 0], [0]], [[1, 2], [3, 4]], [[0, 1], [0, 0]]):
        with pytest.raises(ValueError):
            linalg.solve(matrix)
    # symmetric, with a negative eigenvalue that a pivot, the target's
    # reduced diagonal or a zero pivot over a nonzero target entry meets
    for matrix in (
        [[-1]],
        [[0, 1], [1, 0]],
        [[1, 2], [2, 1]],
        [[4, 0, 2], [0, 1, 0], [2, 0, -3]],
        [[4, 0, 2, 1], [0, 1, 0, 0], [2, 0, -3, 0], [1, 0, 0, 5]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 1]],
    ):
        with pytest.raises(ArithmeticError):
            linalg.solve(matrix)


def test_elimination_reads_no_column_once_the_target_is_spanned():
    """Reading stops at the first column that pivots on the last row, which
    puts e_last in the span; when the last row never pivots every column is
    read and y is None."""
    read = []

    def counting(A):
        for i, col in enumerate(sparse(zip(*A))):
            read.append(i)
            yield col

    A = [[1, 0, 2, 0, 1], [0, 1, 3, 0, 1], [0, 0, 0, 1, 1]]
    chosen, d, y = linalg._eliminate(counting(A), 3)
    assert ([i for i, _ in chosen], d, y) == ([0, 1, 3], 1, [0, 0, 1])
    assert read == [0, 1, 2, 3]
    read.clear()
    # the second column pivots on the last row at once: 2 v_1 = 1
    chosen, d, y = linalg._eliminate(counting([[1, 0, 5], [0, 0, 7], [0, 2, 1]]), 3)
    assert ([i for i, _ in chosen], d, y) == ([0, 1], 2, [0, 1])
    assert read == [0, 1]
    read.clear()
    # a row swap before the last row pivots: v = (0, -1, 1)
    chosen, d, y = linalg._eliminate(counting([[0, 1, 1, 4], [3, 0, 0, 4], [0, 2, 3, 4]]), 3)
    assert ([i for i, _ in chosen], d, y) == ([0, 1, 2], 3, [0, -3, 3])
    assert read == [0, 1, 2]
    read.clear()
    # the last row is the sum of the others: e_last is out of reach
    chosen, d, y = linalg._eliminate(counting([[1, 0, 1], [0, 1, 1], [1, 1, 2]]), 3)
    assert ([i for i, _ in chosen], d, y) == ([0, 1], 1, None)
    assert read == [0, 1, 2]
