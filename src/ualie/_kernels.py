"""Backend selector for the integer elimination kernels.

Prefers the compiled ``ualie._accel`` extension and falls back to the
pure-Python implementations in ``ualie._pure``.  Set ``UALIE_PURE=1`` to
force the fallback (used by the benchmark and the backend-equality tests).
Both backends return identical values on every input; the compiled int64
Bareiss bails out (returns -1) when intermediates could overflow and the
wrapper reruns the computation with big integers.

Two routes, kept apart on purpose: `int_kernel_dim` carries the modular
certificate (one elimination mod ``WITNESS_PRIME``, exact Bareiss only when
that is rank-deficient), while `int_rank` is Bareiss alone, so a witness
found through the modular route is re-verified by an independent one.
"""

from __future__ import annotations

import os

from . import _pure

try:  # pragma: no cover - exercised via BACKEND assertions
    from . import _accel  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover
    _accel = None

if os.environ.get("UALIE_PURE") == "1":
    _accel = None

BACKEND = "compiled" if _accel is not None else "pure"

# Fixed witness prime for the modular certificates: rows independent mod p
# are independent over Q for integer matrices (never a false accept).
WITNESS_PRIME = 2**31 - 1

_I64_SAFE = 1 << 30


def rank_mod_p(entries, rows: int, cols: int, p: int) -> int:
    """Exact rank over F_p; entries are arbitrary Python ints."""
    if _accel is not None and p < (1 << 31):
        return _accel.rank_mod_p_i64([e % p for e in entries], rows, cols, p)
    return _pure.rank_mod_p(entries, rows, cols, p)


def int_rank(entries, rows: int, cols: int) -> int:
    """Exact rank over Z/Q of an integer matrix by fraction-free Bareiss elimination.

    There is deliberately no modular shortcut here: witness re-verification
    relies on this routine sharing nothing with the modular certificate in
    `int_kernel_dim` that found the witness.
    """
    if min(rows, cols) == 0:
        return 0
    if _accel is not None:
        r = _accel.int_rank_i64(entries, rows, cols)
        if r >= 0:
            return r
    return _pure.int_rank(entries, rows, cols)


def int_kernel_dim(entries, rows: int, cols: int) -> int:
    """Exact nullity over Q of an integer matrix.

    This is where the modular certificate lives: modular rank never exceeds
    the rational rank, so full column rank mod the witness prime proves a
    zero kernel after one elimination.  Otherwise Bareiss (`int_rank`)
    decides exactly.
    """
    if cols == 0:
        return 0
    if not rows:
        return cols
    if rank_mod_p(entries, rows, cols, WITNESS_PRIME) == cols:
        return 0
    return cols - int_rank(entries, rows, cols)
