"""The integer Bareiss routines against a plain Fraction elimination."""

import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import int_null_vector
from epsmult._exactla import bareiss, int_det, rank


def fraction_rref(rows):
    """(reduced row echelon form, pivot columns, determinant if square)."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0])
    pivots = []
    det = Fraction(1)
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if p is None:
            det = Fraction(0)
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            det = -det
        det *= m[r][col]
        m[r] = [a / m[r][col] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m, pivots, det


def random_matrix(rng, nrows, ncols, rank=None):
    """Integer matrix; with rank given, a product of two random factors."""
    if rank is None:
        return [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(row[k] * right[k][j] for k in range(rank)) for j in range(ncols)]
            for row in left]


@pytest.fixture
def mats():
    return random.Random(1968)


class TestBareiss:
    def test_reduced_form_matches_fractions(self, mats):
        for _ in range(300):
            nrows, ncols = mats.randint(1, 5), mats.randint(1, 6)
            rank = mats.choice((None, mats.randint(0, min(nrows, ncols))))
            rows = random_matrix(mats, nrows, ncols, rank)
            m, pivots, _ = bareiss(rows)
            ref, ref_pivots, _ = fraction_rref(rows)
            assert pivots == ref_pivots
            if pivots:
                scale = m[len(pivots) - 1][pivots[-1]]
                assert all(m[i][c] == (scale if i == j else 0)
                           for j, c in enumerate(pivots) for i in range(nrows))
                assert [[Fraction(x, scale) for x in row] for row in m[:len(pivots)]] \
                    == ref[:len(pivots)]

    def test_input_untouched(self):
        rows = [[2, 1], [4, 3]]
        bareiss(rows)
        assert rows == [[2, 1], [4, 3]]


class TestDet:
    def test_matches_fractions(self, mats):
        for _ in range(300):
            n = mats.randint(1, 5)
            rows = random_matrix(mats, n, n, mats.choice((None, None, mats.randint(0, n))))
            assert int_det(rows) == fraction_rref(rows)[2]

    def test_sign_of_row_swaps(self):
        assert int_det([[1, 0], [0, 1]]) == 1
        assert int_det([[0, 1], [1, 0]]) == -1
        assert int_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert int_det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1

    def test_singular_is_zero(self):
        assert int_det([[1, 2], [2, 4]]) == 0
        assert int_det([[0, 0], [0, 0]]) == 0
        assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


class TestNullVector:
    """The null-vector helper of the ray-scan oracle in conftest."""

    @pytest.mark.parametrize("nullity", [1, 2])
    def test_wide_matrices(self, mats, nullity):
        for _ in range(200):
            d = mats.randint(1, 4)
            rows = random_matrix(mats, d, d + 1, rank=d + 1 - nullity)
            _, pivots, _ = fraction_rref(rows)
            vec = int_null_vector(rows)
            if len(pivots) != d:
                assert vec is None
                continue
            assert vec is not None
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
            g = 0
            for v in vec:
                g = gcd(g, v)
            assert g == 1
            free = next(c for c in range(d + 1) if c not in pivots)
            assert vec[free] > 0

    def test_full_rank_square_has_none(self, mats):
        for _ in range(50):
            n = mats.randint(1, 4)
            rows = random_matrix(mats, n, n)
            if fraction_rref(rows)[2] != 0:
                assert int_null_vector(rows) is None

    def test_known_vectors(self):
        assert int_null_vector([[1, 1]]) == (-1, 1)
        assert int_null_vector([[2, 4, 6], [0, 0, 3]]) == (-2, 1, 0)
        assert int_null_vector([[0, 1]]) == (1, 0)
        assert int_null_vector([[0, 0]]) is None
        assert int_null_vector([]) is None


class TestRank:
    SHAPES = [(40, 11), (11, 40), (25, 6), (6, 25), (5, 5), (1, 7), (7, 1)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_fractions(self, mats, shape):
        nrows, ncols = shape
        for _ in range(20):
            r = mats.choice((None, mats.randint(0, min(nrows, ncols))))
            rows = random_matrix(mats, nrows, ncols, r)
            expected = len(fraction_rref(rows)[1])
            assert rank(rows) == expected
            if r is not None:
                assert expected <= r

    def test_products_are_rank_deficient(self, mats):
        for _ in range(50):
            r = mats.randint(1, 5)
            rows = random_matrix(mats, 40, 11, rank=r)
            assert rank(rows) == len(fraction_rref(rows)[1]) <= r

    def test_degenerate(self):
        assert rank([]) == 0
        assert rank([[0, 0, 0]]) == 0
        assert rank([[0], [0]]) == 0
        assert rank([[1, 2], [2, 4], [3, 6]]) == 1
