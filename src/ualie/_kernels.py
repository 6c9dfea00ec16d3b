"""Exact integer and mod-p elimination kernels, in pure Python.

Every elimination over Q that can be certified goes through one function,
`certified_kernel`: one sparse RREF mod ``WITNESS_PRIME`` (`rref_mod_p`),
the kernel vector of each free column lifted to Z by rational
reconstruction, and an exact integer check that every row annihilates
every lifted vector.  It serves both the nullities (`int_kernel_dim`) and
the canonical span and kernel of `linalg.span_and_kernel`.  Nullities over
F_p do not come here.

Two routes over Q, kept apart on purpose: the certificate finds witnesses,
while `int_rank` is Bareiss alone, so a witness found through the modular
route is re-verified by an independent one.  When a lift or the exact
check fails, the caller falls back to an exact elimination (Bareiss for a
nullity, a full RREF for a span).
"""

from __future__ import annotations

from math import isqrt, lcm

# There is one implementation; perfbench stamps this in its environment line.
BACKEND = "pure"

# Fixed witness prime for the modular certificate: rows independent mod p
# are independent over Q for integer matrices (never a false accept).
WITNESS_PRIME = 2**31 - 1

# Numerators and denominators up to this bound are reconstructed uniquely
# from a residue mod WITNESS_PRIME (2 * bound^2 < p).
_LIFT_BOUND = isqrt(WITNESS_PRIME // 2)


def int_rank(entries, rows: int, cols: int) -> int:
    """Exact rank over Z/Q of an integer matrix by fraction-free Bareiss elimination.

    There is deliberately no modular shortcut here: witness re-verification
    relies on this routine sharing nothing with `certified_kernel`, which
    found the witness.  Python's big integers keep every intermediate
    exact, and Bareiss keeps them minor-sized (the interior divisions are
    exact by construction).
    """
    m = [list(entries[r * cols : (r + 1) * cols]) for r in range(rows)]
    rank = 0
    prev = 1
    for c in range(cols):
        piv = -1
        for r in range(rank, rows):
            if m[r][c]:
                piv = r
                break
        if piv < 0:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        pv = prow[c]
        for r in range(rank + 1, rows):
            row = m[r]
            f = row[c]
            for j in range(c + 1, cols):
                row[j] = (pv * row[j] - f * prow[j]) // prev
            row[c] = 0
        prev = pv
        rank += 1
        if rank == rows:
            break
    return rank


def _sub_scaled_mod(dst: dict, f: int, src: dict, p: int):
    """dst -= f * src mod p on sparse rows, dropping entries that vanish."""
    for j, y in src.items():
        w = (dst.get(j, 0) - f * y) % p
        if w:
            dst[j] = w
        else:
            dst.pop(j, None)


def rref_mod_p(int_rows, n: int, p: int) -> dict:
    """Sparse RREF mod p of integer rows ``{column: int}`` with n columns.

    Rows are taken greedily in order.  Returns a map from each pivot column
    to its reduced row (pivot entry 1, zero in every other pivot column).
    Stops early at n pivots.
    """
    basis = {}
    for row in int_rows:
        v = {c: x % p for c, x in row.items() if x % p}
        for pc in [c for c in v if c in basis]:
            _sub_scaled_mod(v, v[pc], basis[pc], p)
        if not v:
            continue
        pc = min(v)
        if v[pc] != 1:
            inv = pow(v[pc], -1, p)
            v = {j: y * inv % p for j, y in v.items()}
        for b in basis.values():
            if pc in b:
                _sub_scaled_mod(b, b[pc], v, p)
        basis[pc] = v
        if len(basis) == n:
            break
    return basis


def _lift(x: int, p: int):
    """(num, den) with num = den * x mod p and |num|, den <= _LIFT_BOUND, or None."""
    if x <= _LIFT_BOUND:
        return x, 1
    if p - x <= _LIFT_BOUND:
        return x - p, 1
    r0, r1, s0, s1 = p, x, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > _LIFT_BOUND:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def certified_kernel(int_rows, n: int):
    """Pivot columns and an exact kernel basis of sparse integer rows, or None.

    Rows are ``{column: int}`` dicts with n columns.  One RREF mod the
    witness prime gives pivots and, per free column f, a kernel vector mod
    p: 1 at f, minus the f entry of each pivot row at that pivot, 0 on the
    other free columns.  Each is lifted to Z by rational reconstruction
    and checked to satisfy A v = 0 in exact integer arithmetic.  Then
    rank_Q >= rank_p (rows independent mod p are independent over Q) and
    the n - rank_p lifted vectors, independent through their free columns,
    bound the nullity from below, so both are exact and the mod-p pivots
    are the pivots of the RREF over Q.  Returns ``(pivots, kernel)`` with
    ``pivots`` ascending and ``kernel`` mapping each free column f to its
    integer vector ``{column: int}`` (v_f[f] > 0); full column rank mod p
    needs no lift.  None when a lift or the check fails.
    """
    p = WITNESS_PRIME
    basis = rref_mod_p(int_rows, n, p)
    kernel = {}
    for free in range(n):
        if free in basis:
            continue
        fracs = {free: (1, 1)}
        for pc, row in basis.items():
            x = row.get(free)
            if x:
                nd = _lift(p - x, p)
                if nd is None:
                    return None
                fracs[pc] = nd
        mult = lcm(*(d for _, d in fracs.values()))
        kernel[free] = {c: num * (mult // den) for c, (num, den) in fracs.items()}
    if kernel:
        columns = [[] for _ in range(n)]  # columns[c] = [(row, entry)], nonzero only
        for r, row in enumerate(int_rows):
            for c, x in row.items():
                columns[c].append((r, x))
        for v in kernel.values():
            out = {}
            for c, vc in v.items():
                for r, x in columns[c]:
                    out[r] = out.get(r, 0) + x * vc
            if any(out.values()):
                return None
    return sorted(basis), kernel


def int_kernel_dim(int_rows, n: int) -> int:
    """Exact nullity over Q of sparse integer rows ``{column: int}`` with n
    columns: the size of the `certified_kernel` basis, or, when the
    certificate fails, n minus the Bareiss rank (`int_rank`)."""
    cert = certified_kernel(int_rows, n)
    if cert is not None:
        return len(cert[1])
    entries = [row.get(c, 0) for row in int_rows for c in range(n)]
    return n - int_rank(entries, len(int_rows), n)
