"""Exact linear algebra over Q and prime fields.

Oracle values were computed by hand on small matrices; the random loops
check structural identities (rank of the transposed matrix, kernel
membership) that hold for every well-formed input.
"""

import math
import random
from fractions import Fraction

from ualie import _kernels
from ualie.linalg import (
    Matrix,
    Subspace,
    _reduce_span_and_kernel,
    kernel,
    rank,
    rref,
    span_and_kernel,
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
    Z = Matrix(QQ, 2, 3, [0] * 6)
    assert Z.is_zero_matrix()


def test_rank_hand_examples():
    M = Matrix.from_rows(QQ, frac_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]]))
    assert rank(M) == 2
    assert rank(Matrix.identity(QQ, 4)) == 4
    assert rank(Matrix(QQ, 3, 3, [0] * 9)) == 0
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
            T = Matrix.from_rows(F, [[M.at(r, c) for r in range(m)] for c in range(n)])
            assert rank(M) == rank(T)


def test_kernel_vectors_are_killed():
    rng = random.Random(17)
    for F in (QQ, PrimeField(5)):
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 6)
            M = random_matrix(rng, F, m, n)
            K = kernel(M)
            assert K.dim == n - rank(M)
            for v in K.basis.row_list():
                products = [F.zero] * m
                for r in range(m):
                    for x, y in zip(M.row(r), v):
                        products[r] = F.add(products[r], F.mul(x, y))
                assert vector_is_zero(F, products)


def test_subspace_membership_and_dim():
    F = QQ
    v1 = frac_rows([[1, 0, 0]])[0]
    v2 = frac_rows([[0, 1, 0]])[0]
    S = Subspace.from_spanning(F, 3, [v1, v2, vec_add(F, v1, v2)])
    assert S.dim == 2
    assert S.contains(vec_sub(F, v1, vec_scale(F, Fraction(3), v2)))
    assert not S.contains(frac_rows([[0, 0, 1]])[0])
    assert Subspace.full(F, 3).dim == 3
    assert Subspace.from_spanning(F, 3, []).dim == 0


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
        for v in cap.basis.row_list():
            assert U.contains(v) and W.contains(v)


def test_subspace_equality_is_span_equality():
    F = QQ
    a = frac_rows([[1, 1]])[0]
    b = frac_rows([[2, 2]])[0]
    assert Subspace.from_spanning(F, 2, [a]) == Subspace.from_spanning(F, 2, [b])
    assert Subspace.from_spanning(F, 2, [a]) != Subspace.full(F, 2)



def _certificate_outcomes(monkeypatch):
    outcomes = []
    real = _kernels.certified_kernel

    def spy(*args):
        res = real(*args)
        outcomes.append(res is not None)
        return res

    monkeypatch.setattr(_kernels, "certified_kernel", spy)
    return outcomes


def _sparse_rows(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def _low_rank_rows(rng, m, n, inner):
    """m x n rational rows B*C with inner dimension ``inner``, plus duplicate
    and zero rows, shuffled."""
    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    b = [[entry() for _ in range(inner)] for _ in range(m)]
    c = [[entry() for _ in range(n)] for _ in range(inner)]
    rows = [[QQ.add(0, sum(bt * ct[j] for bt, ct in zip(br, c))) for j in range(n)] for br in b]
    rows += [rng.choice(rows) for _ in range(rng.randint(0, 3))] + [[0] * n] * rng.randint(0, 2)
    rng.shuffle(rows)
    return _sparse_rows(rows)


def test_certified_span_and_kernel_match_one_rref_on_sparse_rational_rows(monkeypatch):
    rng = random.Random(5077)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 8)
        cases.append((n, _low_rank_rows(rng, rng.randint(1, 9), n, rng.randint(0, n))))
    outcomes = _certificate_outcomes(monkeypatch)
    for n, rows in cases:
        assert span_and_kernel(QQ, n, rows) == _reduce_span_and_kernel(QQ, n, rows)
    # small entries mostly lift; a dense rank-6 or -7 product can outgrow the
    # lift bound and fall back, with the same answer
    assert len(outcomes) == len(cases) and sum(outcomes) >= 50


def test_span_and_kernel_fall_back_where_the_kernel_does_not_lift(monkeypatch):
    """Kernel (1, M1, M1*M2, 0, ...) of [[M1, -1, 0, ...], [0, M2, -1, ...]]
    has entries past sqrt(p/2), so the certificate fails and one RREF decides;
    low-rank rows on the other columns ride along."""
    rng = random.Random(6151)
    bound = math.isqrt(_kernels.WITNESS_PRIME // 2)
    outcomes = _certificate_outcomes(monkeypatch)
    for _ in range(20):
        n = rng.randint(3, 7)
        m1, m2 = rng.randint(bound + 1, 10**9), rng.randint(bound + 1, 10**9)
        rows = [{0: m1, 1: -1}, {1: m2, 2: -1}]
        rows += [{c + 3: x for c, x in row.items()} for row in _low_rank_rows(rng, 4, n - 3, 1)]
        rng.shuffle(rows)
        span, ker = span_and_kernel(QQ, n, rows)
        assert (span, ker) == _reduce_span_and_kernel(QQ, n, rows)
        assert span.dim + ker.dim == n and ker.dim >= 1
    assert outcomes == [False] * 20
