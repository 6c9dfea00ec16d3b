"""Integer-rank kernels: the compiled extension and the pure fallback must
agree entry for entry, and the dispatcher must honour the escape hatch."""

import os
import random
import subprocess
import sys
from fractions import Fraction

from ualie import _kernels, _pure
from ualie.linalg import Matrix, rank
from ualie.scalars import QQ

try:
    from ualie import _accel

    HAVE_ACCEL = True
except ImportError:
    HAVE_ACCEL = False


def test_backend_reports_itself():
    assert _kernels.BACKEND in ("compiled", "pure")
    if HAVE_ACCEL:
        assert _kernels.BACKEND == "compiled"


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


def test_compiled_and_pure_agree():
    if _kernels.BACKEND != "compiled":
        return  # fallback build: nothing to compare against
    rng = random.Random(77)
    for _ in range(80):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        entries = [rng.randint(-50, 50) for _ in range(rows * cols)]
        assert _kernels.int_rank(entries, rows, cols) == _pure.int_rank(
            entries, rows, cols
        )
        p = rng.choice([2, 3, 5, 101])
        assert _kernels.rank_mod_p(entries, rows, cols, p) == _pure.rank_mod_p(
            entries, rows, cols, p
        )


def test_compiled_overflow_bailout_matches_pure():
    """Entries big enough to overflow the int64 fast path must still give
    the exact answer via the big-integer rerun."""
    if _kernels.BACKEND != "compiled":
        return
    big = 10**40
    entries = [big, big + 1, big - 1, big]
    assert _kernels.int_rank(entries, 2, 2) == _pure.int_rank(entries, 2, 2)


def test_rank_mod_p_drops_on_bad_primes():
    # the integer matrix [[2]] has rank 1 over Q but rank 0 mod 2
    assert _kernels.int_rank([2], 1, 1) == 1
    assert _kernels.rank_mod_p([2], 1, 1, 2) == 0
    assert _kernels.rank_mod_p([2], 1, 1, 3) == 1


def test_int_rank_is_exact_where_the_witness_prime_vanishes():
    p = _kernels.WITNESS_PRIME
    assert _kernels.rank_mod_p([p, 0, 0, p], 2, 2, p) == 0
    assert _kernels.int_rank([p, 0, 0, p], 2, 2) == 2
    assert _kernels.int_kernel_dim([p, 0, 0, p], 2, 2) == 0


def test_int_kernel_dim_complements_rank():
    rng = random.Random(13)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = [rng.randint(-4, 4) for _ in range(rows * cols)]
        r = _kernels.int_rank(entries, rows, cols)
        assert _kernels.int_kernel_dim(entries, rows, cols) == cols - r


def test_pure_escape_hatch_env_var():
    """UALIE_PURE=1 must force the fallback even when the extension exists."""
    code = (
        "from ualie import _kernels; "
        "print(_kernels.BACKEND)"
    )
    env = dict(os.environ, UALIE_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert out.stdout.strip() == "pure"
