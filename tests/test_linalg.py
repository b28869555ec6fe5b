import random
from fractions import Fraction
from itertools import permutations

from cdeposets import linalg

from dense_oracle import dense_solve
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


def test_integer_elimination_matches_dense_fraction_route():
    rng = random.Random(1968)
    inconsistent = 0
    for _ in range(1500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = _random_matrix(rng, m, n)
        b = [rng.randint(-3, 3) for _ in range(m)]
        got = linalg.solve(A, b)
        want = dense_solve(A, b)
        if got is None:
            assert want is None
            inconsistent += 1
        else:
            d, x = got
            assert d != 0 and all(isinstance(v, int) for v in x)
            assert [Fraction(v, d) for v in x] == want
    assert inconsistent > 100


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
    assert linalg.solve([], []) == (1, [])
    assert linalg.solve([[0, 0]], [0]) == (1, [0, 0])
    assert linalg.solve([[0, 0]], [1]) is None


def test_solve_reads_no_column_once_the_rhs_is_spanned(monkeypatch):
    real = linalg._eliminate
    read = []

    def counting(columns, target):
        def gen():
            for i, col in enumerate(columns):
                read.append(i)
                yield col

        return real(gen(), target)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    A = [[1, 0, 2, 0], [0, 1, 3, 0], [0, 0, 0, 1]]
    assert linalg.solve(A, [0, 2, 0]) == (1, [0, 2, 0, 0])
    assert read == [0, 1]
    read.clear()
    assert linalg.solve(A, [0, 0, 0]) == (1, [0, 0, 0, 0])
    assert read == []
    read.clear()
    assert linalg.solve(A, [1, 1, 1]) == (1, [1, 1, 0, 1])
    assert read == [0, 1, 2, 3]
