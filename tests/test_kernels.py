"""Integer kernels: Bareiss rank over Z, the one sparse reducer over any
field, and the lifted mod-p certificate, whose nullities (read by
`linalg.kernel_dim_fast`) must agree with Bareiss and fall back to it."""

import math
import random
import time

from dense_rref import dense_rank

from ualie import _kernels
from ualie.linalg import kernel_dim_fast
from ualie.scalars import QQ, PrimeField

WITNESS_FIELD = _kernels.WITNESS_FIELD


def _sparse(entries, rows, cols):
    """Flat row-major integer entries as sparse rows ``{column: int}``."""
    flat = [entries[r * cols : (r + 1) * cols] for r in range(rows)]
    return [{c: x for c, x in enumerate(row) if x} for row in flat]


def test_backend_reports_itself():
    assert _kernels.BACKEND == "pure"


def test_int_rank_agrees_with_exact_rational_rank():
    rng = random.Random(1009)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        entries = [rng.randint(-9, 9) for _ in range(rows * cols)]
        dense = [entries[r * cols : (r + 1) * cols] for r in range(rows)]
        assert _kernels.int_rank(entries, rows, cols) == dense_rank(QQ, dense, cols)


def test_rank_mod_p_drops_on_bad_primes():
    # the integer matrix [[2]] has rank 1 over Q but rank 0 mod 2
    assert _kernels.int_rank([2], 1, 1) == 1
    assert len(_kernels._rref(PrimeField(2), 1, [{0: 2}])) == 0
    assert len(_kernels._rref(PrimeField(3), 1, [{0: 2}])) == 1


def test_int_rank_is_exact_where_the_witness_prime_vanishes():
    p = _kernels.WITNESS_PRIME
    assert len(_kernels._rref(WITNESS_FIELD, 2, [{0: p}, {1: p}])) == 0
    assert _kernels.int_rank([p, 0, 0, p], 2, 2) == 2
    assert kernel_dim_fast(QQ, 2, [{0: p}, {1: p}]) == 0


def _certified_nullity(int_rows, cols):
    """The exact nullity, from the full kernel of `certified_kernel`."""
    pivots, kernel = _kernels.certified_kernel(int_rows, cols)
    assert len(pivots) + len(kernel) == cols
    return len(kernel)


def test_kernel_dim_fast_complements_rank():
    rng = random.Random(13)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = [rng.randint(-4, 4) for _ in range(rows * cols)]
        r = _kernels.int_rank(entries, rows, cols)
        sparse = _sparse(entries, rows, cols)
        assert _certified_nullity(sparse, cols) == cols - r
        assert kernel_dim_fast(QQ, cols, sparse) == cols - r


def _count_bareiss(monkeypatch):
    """Count calls of `_kernels.int_rank`, wherever they come from."""
    calls = []
    original = _kernels.int_rank

    def spy(entries, rows, cols):
        calls.append((rows, cols))
        return original(entries, rows, cols)

    monkeypatch.setattr(_kernels, "int_rank", spy)
    return calls


def _product(rng, rows, inner, cols, lo, hi):
    b = [[rng.randint(lo, hi) for _ in range(inner)] for _ in range(rows)]
    c = [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(inner)]
    return [sum(b[r][t] * c[t][j] for t in range(inner)) for r in range(rows) for j in range(cols)]


def test_kernel_dim_fast_certifies_rank_deficient_products(monkeypatch):
    """B*C with inner dimension < cols has a kernel; small entries lift."""
    rng = random.Random(2031)
    cases = []
    for _ in range(60):
        cols = rng.randint(2, 7)
        rows = rng.randint(1, 9)
        inner = rng.randint(1, cols - 1)
        entries = _product(rng, rows, inner, cols, -3, 3)
        cases.append((entries, rows, cols, cols - _kernels.int_rank(entries, rows, cols)))
    calls = _count_bareiss(monkeypatch)
    for entries, rows, cols, nullity in cases:
        sparse = _sparse(entries, rows, cols)
        assert _certified_nullity(sparse, cols) == nullity >= 1
        assert kernel_dim_fast(QQ, cols, sparse) == nullity
    assert calls == []  # every one is decided by the lifted certificate


def test_kernel_dim_fast_falls_back_when_kernel_entries_do_not_lift(monkeypatch):
    """Kernel (1, M1, M1*M2) of [[M1, -1, 0], [0, M2, -1]] has entries past
    sqrt(p/2), so the lift or its exact check fails and Bareiss decides."""
    rng = random.Random(4099)
    bound = math.isqrt(_kernels.WITNESS_PRIME // 2)
    for _ in range(20):
        m1, m2 = rng.randint(bound + 1, 10**9), rng.randint(bound + 1, 10**9)
        calls = _count_bareiss(monkeypatch)
        assert kernel_dim_fast(QQ, 3, [{0: m1, 1: -1}, {1: m2, 2: -1}]) == 1
        assert calls == [(2, 3)]
        monkeypatch.undo()
        # a random product with big entries: the answer still matches Bareiss
        cols = rng.randint(3, 6)
        entries = _product(rng, cols, cols - 1, cols, -(10**6), 10**6)
        r = _kernels.int_rank(entries, cols, cols)
        sparse = _sparse(entries, cols, cols)
        cert = _kernels.certified_kernel(sparse, cols)
        assert cert is None or len(cert[1]) == cols - r
        assert kernel_dim_fast(QQ, cols, sparse) == cols - r


def test_kernel_dim_fast_exact_check_rejects_a_lift_that_is_only_a_kernel_mod_p(monkeypatch):
    """[p, 0; 0, 1] mod p has kernel (1, 0), which lifts, but p * 1 != 0."""
    p = _kernels.WITNESS_PRIME
    calls = _count_bareiss(monkeypatch)
    proved = []
    assert kernel_dim_fast(QQ, 2, [{0: p}, {1: 1}], proved) == 0
    assert proved == []  # a vector that fails the exact check is never kept
    assert calls == [(2, 2)]


def test_c_condition_rejections_on_sl5_do_not_reach_bareiss(monkeypatch):
    from ualie import analysis, linalg
    from ualie.constructions import build_catalog

    g = build_catalog("sl", QQ, n=5)
    nullities = []
    original = linalg.kernel_dim_fast

    def spy_nullity(field, n, rows, proved=None):
        nullities.append(original(field, n, rows, proved))
        return nullities[-1]

    monkeypatch.setattr(analysis, "kernel_dim_fast", spy_nullity)
    calls = _count_bareiss(monkeypatch)
    res = analysis.c_condition(g)
    assert res.outcome == analysis.OUTCOME_HOLDS
    rejected = [k for k in nullities if k > 0]
    assert len(rejected) >= 10 and nullities[-1] == 0
    assert calls == [(2 * g.dim, g.dim)]  # only the witness re-verification


def test_c_condition_stage_2_rejects_by_proved_vectors_on_sl7(monkeypatch):
    """sl(7) rejects all 48 candidates e_j against the sum s of the basis.
    Only 6 of them are eliminated, each storing its whole certified kernel,
    as many exact vectors of C(e_j) ∩ C(s) as its nullity, with no Bareiss;
    every other e_j is skipped because a vector stored before it commutes
    with e_j, which is checked here with the algebra's own bracket.  Only
    the witness (found by the even/odd stage) reaches Bareiss."""
    from fractions import Fraction

    from ualie import analysis, linalg
    from ualie.constructions import build_catalog

    g = build_catalog("sl", QQ, n=7)
    n = g.dim
    basis = [g.basis_vector(j) for j in range(n)]
    s = [Fraction(1)] * n
    ad_s = g.ad_rows(s)
    eliminated = {}  # candidate j -> (vectors stored before it, its nullity)
    stored = []  # the stage's list of stored vectors, once seen
    original = linalg.kernel_dim_fast

    def spy(field, cols, rows, proved=None):
        k = original(field, cols, rows, proved)
        if proved is not None:
            j = next(j for j in range(n) if rows == g.ad_rows(basis[j]) + ad_s)
            eliminated[j] = (len(proved) - k, k)
            stored[:] = [proved]
        return k

    monkeypatch.setattr(analysis, "kernel_dim_fast", spy)
    calls = _count_bareiss(monkeypatch)
    res = analysis.c_condition(g)
    assert res.outcome == analysis.OUTCOME_HOLDS
    assert res.witness[0] == [1 - i % 2 for i in range(n)]
    assert calls == [(2 * n, n)]

    proved = stored[0]
    assert len(eliminated) == 6
    counts = list(eliminated.values())
    assert all(k > 0 for _, k in counts)
    assert [before for before, _ in counts] == [sum(k for _, k in counts[:i]) for i in range(6)]
    assert len(proved) == sum(k for _, k in counts)
    dense = [[Fraction(v.get(c, 0)) for c in range(n)] for v in proved]
    zero = [Fraction(0)] * n
    for j, (before, k) in eliminated.items():
        for v in dense[before : before + k]:
            assert v != zero and g.bracket(s, v) == zero and g.bracket(basis[j], v) == zero
    for j in range(n):
        if j in eliminated:
            continue
        before = max((b + k for i, (b, k) in eliminated.items() if i < j), default=0)
        assert any(g.bracket(basis[j], v) == zero for v in dense[:before]), j


def test_certified_kernel_is_linear_on_singleton_rows():
    """20,000 rows {i: 1}: no stored row meets a later pivot, so the
    back-elimination scan never runs.  A scan per row makes this quadratic:
    about 9 s on a shared 2-vCPU VM."""
    n = 20_000
    start = time.perf_counter()
    pivots, kernel = _kernels.certified_kernel([{i: 1} for i in range(n)], n)
    assert time.perf_counter() - start < 2.0
    assert pivots == list(range(n)) and kernel == {}
