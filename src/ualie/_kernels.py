"""Exact integer and mod-p elimination kernels, in pure Python.

One sparse reducer, `rref_mod_p`, serves every modular elimination: the
nullity certificate over Q (`int_kernel_dim`), the row selection of
`linalg.span_and_kernel`, and F_p nullities (`linalg.kernel_dim_fast`).

Two routes over Q, kept apart on purpose: `int_kernel_dim` carries the
modular certificate, while `int_rank` is Bareiss alone, so a witness found
through the modular route is re-verified by an independent one.  The
certificate is one sparse RREF mod ``WITNESS_PRIME``.  Full column rank mod
p proves a zero kernel; otherwise the kernel basis mod p is lifted to Q by
rational reconstruction and checked to be an exact kernel with integer dot
products, which pins the nullity; when a lift or a check fails, Bareiss
decides.
"""

from __future__ import annotations

from math import isqrt, lcm

# There is one implementation; perfbench stamps this in its environment line.
BACKEND = "pure"

# Fixed witness prime for the modular certificates: rows independent mod p
# are independent over Q for integer matrices (never a false accept).
WITNESS_PRIME = 2**31 - 1

# Numerators and denominators up to this bound are reconstructed uniquely
# from a residue mod WITNESS_PRIME (2 * bound^2 < p).
_LIFT_BOUND = isqrt(WITNESS_PRIME // 2)


def int_rank(entries, rows: int, cols: int) -> int:
    """Exact rank over Z/Q of an integer matrix by fraction-free Bareiss elimination.

    There is deliberately no modular shortcut here: witness re-verification
    relies on this routine sharing nothing with the modular certificate in
    `int_kernel_dim` that found the witness.  Python's big integers keep
    every intermediate exact, and Bareiss keeps them minor-sized (the
    interior divisions are exact by construction).
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


def rref_mod_p(int_rows, n: int, p: int):
    """Sparse RREF mod p of integer rows ``{column: int}`` with n columns.

    Rows are taken greedily in order; returns ``(basis, chosen)``, where
    ``basis`` maps each pivot column to its reduced row (pivot entry 1,
    zero in every other pivot column) and ``chosen`` lists the indices of
    the rows that were independent mod p.  Stops early at n pivots.
    """
    basis = {}
    chosen = []
    for idx, row in enumerate(int_rows):
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
        chosen.append(idx)
        if len(chosen) == n:
            break
    return basis, chosen


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


def _lifted_kernel_vector(basis: dict, free: int, p: int):
    """The mod-p kernel vector of free column ``free``, lifted to Z, or None.

    Mod p it is 1 at ``free``, minus the ``free`` entry of each pivot row
    at that pivot, and 0 on every other free column.
    """
    fracs = {free: (1, 1)}
    for pc, row in basis.items():
        x = row.get(free)
        if x:
            nd = _lift(p - x, p)
            if nd is None:
                return None
            fracs[pc] = nd
    mult = lcm(*(d for _, d in fracs.values()))
    return {c: num * (mult // den) for c, (num, den) in fracs.items()}


def int_kernel_dim(entries, rows: int, cols: int) -> int:
    """Exact nullity over Q of an integer matrix, by a lifted modular certificate.

    One sparse RREF mod the witness prime gives rank_p and, per free
    column, a kernel vector mod p.  Each is lifted to Z by rational
    reconstruction and checked to satisfy A v = 0 in exact integer
    arithmetic.  Since rank_Q >= rank_p, nullity_Q <= cols - rank_p; k =
    cols - rank_p exact kernel vectors, independent because each is
    nonzero only at its own free column among the free columns, give
    nullity_Q >= k, so the nullity is exactly k.  Full column rank mod p
    needs no lift.  When a lift or a check fails, Bareiss (`int_rank`)
    decides exactly.
    """
    if cols == 0:
        return 0
    if not rows:
        return cols
    p = WITNESS_PRIME
    int_rows = []
    for r in range(rows):
        row = entries[r * cols : (r + 1) * cols]
        int_rows.append({c: x for c, x in enumerate(row) if x})
    basis, _ = rref_mod_p(int_rows, cols, p)
    if len(basis) == cols:
        return 0
    columns = [[] for _ in range(cols)]  # columns[c] = [(row, entry)], nonzero only
    for r, row in enumerate(int_rows):
        for c, x in row.items():
            columns[c].append((r, x))
    for free in range(cols):
        if free in basis:
            continue
        v = _lifted_kernel_vector(basis, free, p)
        if v is None or any(_column_combination(columns, v).values()):
            return cols - int_rank(entries, rows, cols)
    return cols - len(basis)


def _column_combination(columns, v: dict) -> dict:
    """A v as sparse ``{row: entry}``, from the sparse columns of A."""
    out = {}
    for c, vc in v.items():
        for r, x in columns[c]:
            out[r] = out.get(r, 0) + x * vc
    return out
