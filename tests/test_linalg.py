"""Exact linear algebra over Q and prime fields.

Oracle values were computed by hand on small matrices; the random loops
check structural identities (rank of transpose, kernel membership, solve
round-trips) that hold for every well-formed input.
"""

import random
from fractions import Fraction

import pytest

from ualie.errors import DimensionMismatch
from ualie.linalg import (
    Matrix,
    Subspace,
    kernel,
    kernel_dim_fast,
    rank,
    rref,
    solve,
    vec_add,
    vec_scale,
    vec_sub,
    vector_is_zero,
    vectors_equal,
)
from ualie.scalars import QQ, PrimeField


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def random_matrix(rng, F, m, n, span=5):
    rows = []
    for _ in range(m):
        if F.kind == "Q":
            rows.append([Fraction(rng.randint(-span, span)) for _ in range(n)])
        else:
            rows.append([F.from_int(rng.randrange(F.order)) for _ in range(n)])
    return Matrix.from_rows(F, rows)


def test_matrix_construction_and_access():
    M = Matrix.from_rows(QQ, frac_rows([[1, 2], [3, 4]]))
    assert (M.rows, M.cols) == (2, 2)
    assert M.at(1, 0) == 3
    assert M.row(0) == [Fraction(1), Fraction(2)]
    I = Matrix.identity(QQ, 3)
    assert I.at(2, 2) == 1 and I.at(0, 2) == 0
    Z = Matrix.zero(QQ, 2, 3)
    assert Z.is_zero_matrix()


def test_rank_hand_examples():
    M = Matrix.from_rows(QQ, frac_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]]))
    assert rank(M) == 2
    assert rank(Matrix.identity(QQ, 4)) == 4
    assert rank(Matrix.zero(QQ, 3, 3)) == 0
    F5 = PrimeField(5)
    # second row is 2 * first row mod 5
    M5 = Matrix.from_rows(F5, [[1, 2], [2, 4]])
    assert rank(M5) == 1


def test_rref_idempotent_and_pivots():
    M = Matrix.from_rows(QQ, frac_rows([[0, 2, 4], [1, 1, 1], [1, 3, 5]]))
    R, pivots = rref(M)
    assert pivots == [0, 1]
    R2, pivots2 = rref(R)
    assert pivots2 == pivots
    for i in range(R.rows):
        assert R.row(i) == R2.row(i)
    # pivot columns are standard basis columns
    for r, c in enumerate(pivots):
        col = [R.at(i, c) for i in range(R.rows)]
        assert col[r] == 1 and all(x == 0 for i, x in enumerate(col) if i != r)


def test_rank_equals_rank_of_transpose_random():
    rng = random.Random(41)
    for F in (QQ, PrimeField(3), PrimeField(7)):
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            M = random_matrix(rng, F, m, n)
            assert rank(M) == rank(M.transpose())


def test_kernel_vectors_are_killed():
    rng = random.Random(17)
    for F in (QQ, PrimeField(5)):
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 6)
            M = random_matrix(rng, F, m, n)
            K = kernel(M)
            assert K.dim == n - rank(M)
            for v in K.basis.row_list():
                assert vector_is_zero(F, M.mat_vec(v))


def test_kernel_dim_fast_matches_kernel_over_prime_fields():
    """The sparse mod-p nullity equals the RREF kernel for small and large p,
    on empty, zero-row-padded, low-rank and random matrices."""
    rng = random.Random(2161)
    for p in (2, 3, 5, 101, 2**31 - 1, 2**61 - 1):
        F = PrimeField(p)
        for _ in range(40):
            rows, cols = rng.randint(0, 7), rng.randint(1, 7)
            if rng.random() < 0.5:  # a product of rank at most inner
                inner = rng.randint(0, 3)
                b = [[rng.randrange(p) for _ in range(inner)] for _ in range(rows)]
                c = [[rng.randrange(p) for _ in range(cols)] for _ in range(inner)]
                data = [
                    [sum(b[r][t] * c[t][j] for t in range(inner)) % p for j in range(cols)]
                    for r in range(rows)
                ]
            else:  # random rows, some of them zero
                data = [
                    [0] * cols if rng.random() < 0.3 else [rng.randrange(p) for _ in range(cols)]
                    for _ in range(rows)
                ]
            M = Matrix(F, rows, cols, [x for row in data for x in row])
            assert kernel_dim_fast(M) == kernel(M).dim


def test_solve_round_trip_random():
    rng = random.Random(4242)
    hits = 0
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, QQ, m, n)
        x = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        b = M.mat_vec(x)
        sol = solve(M, b)
        assert sol is not None  # b is in the column space by construction
        assert vectors_equal(QQ, M.mat_vec(sol), b)
        hits += 1
    assert hits == 60


def test_solve_detects_inconsistency():
    M = Matrix.from_rows(QQ, frac_rows([[1, 0], [1, 0]]))
    assert solve(M, [Fraction(1), Fraction(2)]) is None


def test_mat_mul_associativity_random():
    rng = random.Random(5)
    for _ in range(25):
        A = random_matrix(rng, QQ, rng.randint(1, 4), 3)
        B = random_matrix(rng, QQ, 3, rng.randint(1, 4))
        C = random_matrix(rng, QQ, B.cols, rng.randint(1, 4))
        left = A.mat_mul(B).mat_mul(C)
        right = A.mat_mul(B.mat_mul(C))
        for i in range(left.rows):
            assert left.row(i) == right.row(i)


def test_mat_mul_shape_check():
    A = Matrix.zero(QQ, 2, 3)
    B = Matrix.zero(QQ, 2, 3)
    with pytest.raises(DimensionMismatch):
        A.mat_mul(B)


def test_subspace_membership_and_dim():
    F = QQ
    v1 = frac_rows([[1, 0, 0]])[0]
    v2 = frac_rows([[0, 1, 0]])[0]
    S = Subspace.from_spanning(F, 3, [v1, v2, vec_add(F, v1, v2)])
    assert S.dim == 2
    assert S.contains(vec_sub(F, v1, vec_scale(F, Fraction(3), v2)))
    assert not S.contains(frac_rows([[0, 0, 1]])[0])
    assert Subspace.full(F, 3).dim == 3
    assert Subspace.zero(F, 3).dim == 0


def test_subspace_intersection_dims():
    """dim(U cap W) + dim(U + W) == dim U + dim W on random spans."""
    rng = random.Random(88)
    F = PrimeField(3)
    for _ in range(30):
        n = rng.randint(2, 5)
        U = Subspace.from_spanning(
            F, n, [random_matrix(rng, F, 1, n).row(0) for _ in range(rng.randint(1, n))]
        )
        W = Subspace.from_spanning(
            F, n, [random_matrix(rng, F, 1, n).row(0) for _ in range(rng.randint(1, n))]
        )
        cap = U.intersect(W)
        total = Subspace.from_spanning(F, n, U.basis.row_list() + W.basis.row_list())
        assert cap.dim + total.dim == U.dim + W.dim
        assert U.contains_subspace(cap) and W.contains_subspace(cap)


def test_subspace_equality_is_span_equality():
    F = QQ
    a = frac_rows([[1, 1]])[0]
    b = frac_rows([[2, 2]])[0]
    assert Subspace.from_spanning(F, 2, [a]) == Subspace.from_spanning(F, 2, [b])
    assert Subspace.from_spanning(F, 2, [a]) != Subspace.full(F, 2)


def test_matrix_json_round_trip():
    M = Matrix.from_rows(QQ, frac_rows([[1, -2], [0, 5]]))
    M2 = Matrix.from_json(QQ, M.to_json())
    assert M2.rows == M.rows and M2.cols == M.cols
    for i in range(2):
        assert M2.row(i) == M.row(i)
