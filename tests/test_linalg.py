"""Exact linear algebra over Q and finite fields, on sparse rows.

Oracle values were computed by hand on small matrices, and the dense
canonical RREF of ``dense_rref.py`` is the reference every sparse result
must match exactly; the random loops check structural identities (rank of
the transposed matrix, kernel membership, intersection dimensions) that hold
for every well-formed input.
"""

import math
import random

import pytest
from dense_rref import dense, dense_kernel, dense_rank, dense_span, dense_span_and_kernel

from ualie import _kernels
from ualie.errors import AmbientMismatch
from ualie.linalg import (
    Subspace,
    kernel_dim_fast,
    span_and_kernel,
    vec_add,
    vec_scale,
    vec_sub,
    vector_is_zero,
)
from ualie.scalars import QQ, PrimeField

F5 = PrimeField(5)


def random_rows(rng, F, m, n, span=3):
    """m dense random rows over F, about a third of the entries zero."""
    if F.kind == "Q":
        def entry():
            return QQ.div(rng.randint(-span, span), rng.randint(1, 2))
    else:
        elements = list(F.elements())

        def entry():
            return rng.choice(elements)
    return [[entry() if rng.random() < 0.67 else F.zero for _ in range(n)] for _ in range(m)]


def to_sparse(F, rows):
    """Dense rows over F as sparse rows, zeros left out."""
    return [{c: x for c, x in enumerate(row) if not F.is_zero(x)} for row in rows]


def matrix_times(F, rows, v):
    out = []
    for row in rows:
        acc = F.zero
        for x, y in zip(row, v):
            acc = F.add(acc, F.mul(x, y))
        out.append(acc)
    return out


def test_subspace_rows_and_vector_access():
    S = Subspace.from_spanning(QQ, 3, [{0: 2, 1: 4}, {1: 1, 2: 1}, {0: 0}, {}])
    # [2, 4, 0] -> [1, 2, 0], then back-substitution by [0, 1, 1]
    assert S.rows == {0: {0: 1, 2: -2}, 1: {1: 1, 2: 1}}
    assert list(S.rows) == [0, 1] and S.dim == 2
    assert S.vector(0) == [1, 0, -2] and S.vector(1) == [0, 1, 1]
    assert Subspace.from_spanning(QQ, 3, [{0: 0}, {}]).dim == 0
    with pytest.raises(AmbientMismatch):
        Subspace.from_spanning(QQ, 3, [{3: 1}])
    with pytest.raises(AmbientMismatch):
        S.contains([1, 0])


def test_rank_hand_examples():
    assert span_and_kernel(QQ, 3, to_sparse(QQ, [[1, 2, 3], [2, 4, 6], [1, 1, 1]]))[0].dim == 2
    identity = [{i: 1} for i in range(4)]
    assert span_and_kernel(QQ, 4, identity)[0].dim == 4
    span, ker = span_and_kernel(QQ, 3, [{}, {}, {}])
    assert (span.dim, ker.dim) == (0, 3)
    # second row is 2 * first row mod 5
    assert span_and_kernel(F5, 2, to_sparse(F5, [[1, 2], [2, 4]]))[0].dim == 1


def test_rref_idempotent_and_pivots():
    rows = to_sparse(QQ, [[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    span = span_and_kernel(QQ, 3, rows)[0]
    assert list(span.rows) == [0, 1]
    assert span == dense_span(QQ, dense(QQ, rows, 3), 3)
    assert span_and_kernel(QQ, 3, list(span.rows.values()))[0] == span
    # pivot columns are standard basis columns
    for pc, row in span.rows.items():
        assert row[pc] == 1 and min(row) == pc
        assert all(pc not in other for c, other in span.rows.items() if c != pc)


def test_rank_equals_rank_of_transpose_random():
    rng = random.Random(41)
    for F in (QQ, PrimeField(3), PrimeField(7)):
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            M = random_rows(rng, F, m, n)
            T = [[M[r][c] for r in range(m)] for c in range(n)]
            r = span_and_kernel(F, n, to_sparse(F, M))[0].dim
            assert r == span_and_kernel(F, m, to_sparse(F, T))[0].dim == dense_rank(F, M, n)


def test_span_and_kernel_match_the_dense_oracle():
    rng = random.Random(2203)
    for F in (QQ, F5):
        for _ in range(60):
            m, n = rng.randint(0, 7), rng.randint(1, 7)
            M = random_rows(rng, F, m, n)
            if m > 1 and rng.random() < 0.5:  # force a dependent row
                M.append(vec_add(F, M[0], vec_scale(F, F.from_int(2), M[1])))
            span, ker = span_and_kernel(F, n, to_sparse(F, M))
            assert (span, ker) == dense_span_and_kernel(F, M, n)
            assert kernel_dim_fast(F, n, to_sparse(F, M)) == ker.dim


def test_kernel_dim_fast_is_the_nullity_over_every_field():
    """n minus the dense oracle's rank, over Q and F_7; over Q the
    vectors it proves are as many and each is killed by every row."""
    rng = random.Random(9127)
    for F in (QQ, PrimeField(7)):
        for _ in range(60):
            m, n = rng.randint(0, 8), rng.randint(1, 8)
            M = random_rows(rng, F, m, n)
            if m > 1 and rng.random() < 0.5:  # force a dependent row
                M.append(vec_add(F, M[0], vec_scale(F, F.from_int(2), M[1])))
            proved = []
            k = kernel_dim_fast(F, n, to_sparse(F, M), proved)
            assert k == n - dense_rank(F, M, n)
            if F.kind == "Q":
                assert len(proved) == k
                for v in proved:
                    dense_v = [QQ.from_int(v.get(c, 0)) for c in range(n)]
                    assert vector_is_zero(QQ, matrix_times(QQ, M, dense_v))


def test_kernel_vectors_are_killed():
    rng = random.Random(17)
    for F in (QQ, F5):
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 6)
            M = random_rows(rng, F, m, n)
            K = span_and_kernel(F, n, to_sparse(F, M))[1]
            assert K.dim == n - dense_rank(F, M, n)
            for i in range(K.dim):
                assert vector_is_zero(F, matrix_times(F, M, K.vector(i)))


def test_subspace_membership_and_dim():
    F = QQ
    v1, v2 = [1, 0, 0], [0, 1, 0]
    S = Subspace.from_spanning(F, 3, to_sparse(F, [v1, v2, vec_add(F, v1, v2)]))
    assert S.dim == 2
    assert S.contains(vec_sub(F, v1, vec_scale(F, 3, v2)))
    assert not S.contains([0, 0, 1])
    assert Subspace.from_spanning(F, 3, [{i: 1} for i in range(3)]).dim == 3
    assert Subspace.from_spanning(F, 3, []).dim == 0


def test_subspace_intersection_dims():
    """dim(U cap W) + dim(U + W) == dim U + dim W on random spans, and the
    Zassenhaus intersection equals the kernel of the stacked annihilators,
    from the dense oracle."""
    rng = random.Random(88)
    for F in (PrimeField(3), QQ, F5):
        for _ in range(30):
            n = rng.randint(2, 5)
            U, W = (
                Subspace.from_spanning(F, n, to_sparse(F, random_rows(rng, F, k, n)))
                for k in (rng.randint(1, n), rng.randint(1, n))
            )
            cap = U.intersect(W)
            total = Subspace.from_spanning(F, n, [*U.rows.values(), *W.rows.values()])
            assert cap.dim + total.dim == U.dim + W.dim
            for i in range(cap.dim):
                assert U.contains(cap.vector(i)) and W.contains(cap.vector(i))
            annihilators = [
                v for S in (U, W) for v in dense_kernel(F, dense(F, S.rows.values(), n), n)
            ]
            assert cap == dense_span(F, dense_kernel(F, annihilators, n), n)


def test_subspace_equality_is_span_equality():
    def span(F, *rows):
        return Subspace.from_spanning(F, 2, list(rows))

    assert span(QQ, {0: 1, 1: 1}) == span(QQ, {0: 2, 1: 2})
    assert span(QQ, {0: 1, 1: 1}) != span(QQ, {0: 1}, {1: 1})
    assert span(F5, {0: 1}) != span(QQ, {0: 1})


def _certificate_outcomes(monkeypatch):
    outcomes = []
    real = _kernels.certified_kernel

    def spy(*args):
        res = real(*args)
        outcomes.append(res is not None)
        return res

    monkeypatch.setattr(_kernels, "certified_kernel", spy)
    return outcomes


def _fallback_span_and_kernel(monkeypatch, n, rows):
    """`span_and_kernel` over Q with the certificate refused: one `_rref`."""
    with monkeypatch.context() as m:
        m.setattr(_kernels, "certified_kernel", lambda *args: None)
        return span_and_kernel(QQ, n, rows)


def _low_rank_rows(rng, m, n, inner):
    """m x n rational rows B*C with inner dimension ``inner``, plus duplicate
    and zero rows, shuffled."""
    def entry():
        return QQ.div(rng.randint(-3, 3), rng.randint(1, 4))

    b = [[entry() for _ in range(inner)] for _ in range(m)]
    c = [[entry() for _ in range(n)] for _ in range(inner)]
    rows = [[QQ.add(0, sum(bt * ct[j] for bt, ct in zip(br, c))) for j in range(n)] for br in b]
    rows += [rng.choice(rows) for _ in range(rng.randint(0, 3))] + [[0] * n] * rng.randint(0, 2)
    rng.shuffle(rows)
    return to_sparse(QQ, rows)


def test_certified_span_and_kernel_match_one_rref_on_sparse_rational_rows(monkeypatch):
    rng = random.Random(5077)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 8)
        cases.append((n, _low_rank_rows(rng, rng.randint(1, 9), n, rng.randint(0, n))))
    outcomes = _certificate_outcomes(monkeypatch)
    for n, rows in cases:
        got = span_and_kernel(QQ, n, rows)
        assert got == _fallback_span_and_kernel(monkeypatch, n, rows)
        assert got == dense_span_and_kernel(QQ, dense(QQ, rows, n), n)
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
        assert (span, ker) == dense_span_and_kernel(QQ, dense(QQ, rows, n), n)
        assert span.dim + ker.dim == n and ker.dim >= 1
    assert outcomes == [False] * 20
