"""Integer kernels: Bareiss rank over Z, the sparse reducer mod p, and the
lifted mod-p certificate, whose nullities must agree with Bareiss and fall
back to it."""

import math
import random
from fractions import Fraction

from ualie import _kernels
from ualie.linalg import Matrix, rank
from ualie.scalars import QQ


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
        m = Matrix.from_rows(
            QQ,
            [[Fraction(entries[r * cols + c]) for c in range(cols)] for r in range(rows)],
        )
        assert _kernels.int_rank(entries, rows, cols) == rank(m)


def test_rank_mod_p_drops_on_bad_primes():
    # the integer matrix [[2]] has rank 1 over Q but rank 0 mod 2
    assert _kernels.int_rank([2], 1, 1) == 1
    assert len(_kernels.rref_mod_p([{0: 2}], 1, 2)) == 0
    assert len(_kernels.rref_mod_p([{0: 2}], 1, 3)) == 1


def test_int_rank_is_exact_where_the_witness_prime_vanishes():
    p = _kernels.WITNESS_PRIME
    assert len(_kernels.rref_mod_p([{0: p}, {1: p}], 2, p)) == 0
    assert _kernels.int_rank([p, 0, 0, p], 2, 2) == 2
    assert _kernels.int_kernel_dim([{0: p}, {1: p}], 2) == 0


def test_int_kernel_dim_complements_rank():
    rng = random.Random(13)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = [rng.randint(-4, 4) for _ in range(rows * cols)]
        r = _kernels.int_rank(entries, rows, cols)
        assert _kernels.int_kernel_dim(_sparse(entries, rows, cols), cols) == cols - r


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


def test_int_kernel_dim_certifies_rank_deficient_products(monkeypatch):
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
        assert _kernels.int_kernel_dim(_sparse(entries, rows, cols), cols) == nullity >= 1
    assert calls == []  # every one is decided by the lifted certificate


def test_int_kernel_dim_falls_back_when_kernel_entries_do_not_lift(monkeypatch):
    """Kernel (1, M1, M1*M2) of [[M1, -1, 0], [0, M2, -1]] has entries past
    sqrt(p/2), so the lift or its exact check fails and Bareiss decides."""
    rng = random.Random(4099)
    bound = math.isqrt(_kernels.WITNESS_PRIME // 2)
    for _ in range(20):
        m1, m2 = rng.randint(bound + 1, 10**9), rng.randint(bound + 1, 10**9)
        calls = _count_bareiss(monkeypatch)
        assert _kernels.int_kernel_dim([{0: m1, 1: -1}, {1: m2, 2: -1}], 3) == 1
        assert calls == [(2, 3)]
        monkeypatch.undo()
        # a random product with big entries: the answer still matches Bareiss
        cols = rng.randint(3, 6)
        entries = _product(rng, cols, cols - 1, cols, -(10**6), 10**6)
        r = _kernels.int_rank(entries, cols, cols)
        assert _kernels.int_kernel_dim(_sparse(entries, cols, cols), cols) == cols - r


def test_int_kernel_dim_exact_check_rejects_a_lift_that_is_only_a_kernel_mod_p(monkeypatch):
    """[p, 0; 0, 1] mod p has kernel (1, 0), which lifts, but p * 1 != 0."""
    p = _kernels.WITNESS_PRIME
    calls = _count_bareiss(monkeypatch)
    assert _kernels.int_kernel_dim([{0: p}, {1: 1}], 2) == 0
    assert calls == [(2, 2)]


def test_c_condition_rejections_on_sl5_do_not_reach_bareiss(monkeypatch):
    from ualie import analysis, linalg
    from ualie.constructions import build_catalog

    g = build_catalog("sl", QQ, n=5)
    nullities = []
    original = linalg.kernel_dim_fast

    def spy_nullity(field, n, rows):
        nullities.append(original(field, n, rows))
        return nullities[-1]

    monkeypatch.setattr(analysis, "kernel_dim_fast", spy_nullity)
    calls = _count_bareiss(monkeypatch)
    res = analysis.c_condition(g)
    assert res.outcome == analysis.OUTCOME_HOLDS
    rejected = [k for k in nullities if k > 0]
    assert len(rejected) >= 10 and nullities[-1] == 0
    assert calls == [(2 * g.dim, g.dim)]  # only the witness re-verification
