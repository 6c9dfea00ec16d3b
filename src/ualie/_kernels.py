"""Exact elimination kernels, in pure Python: the package's one sparse row
reducer and the integer routines of the modular certificate over Q.

`_rref` is the only row reducer.  It works over any field, on sparse rows
``{column: scalar}``, in one pass per row: the row is reduced against the
stored pivots, scaled to 1 at its own, and cleared out of the stored rows,
so the canonical RREF is there at the end with no back-substitution.
`linalg` runs every span, kernel and intersection through it, over every
field, and the exact fallback over Q too.

Every elimination over Q that can be certified runs `_rref` over
``WITNESS_FIELD`` (F_p, p = ``WITNESS_PRIME``) on the integer rows, which
it reads mod p, and `certified_kernel` lifts the kernel vector of every
free column to Z by rational reconstruction (`_lifted_kernel`), each
checked exactly against the integer rows.  The pivots and the lifted
kernel give `linalg` its canonical spans and kernels and its exact
nullities; the lifted vectors are exact kernel vectors, which a caller may
keep.

Two routes over Q, kept apart on purpose: the certificate finds witnesses,
while `int_rank` is Bareiss alone, so a witness found through the modular
route is re-verified by an independent one.  When a lift or the exact
check fails, the caller falls back to an exact elimination (Bareiss for a
nullity, `_rref` over Q for a span and kernel).
"""

from __future__ import annotations

from math import isqrt, lcm

from .scalars import PrimeField

# There is one implementation; perfbench stamps this in its environment line.
BACKEND = "pure"

# Fixed witness prime for the modular certificate: rows independent mod p
# are independent over Q for integer matrices (never a false accept).
WITNESS_PRIME = 2**31 - 1
WITNESS_FIELD = PrimeField(WITNESS_PRIME)

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


def _add_row(field, basis: dict, cols: set, row: dict):
    """Reduce a copy of ``row`` and add it to the RREF ``basis`` when it is
    nonzero; return whether it was.

    The copy is cleared in the pivot columns of ``basis``: the rows of an
    RREF are zero in each other's pivot columns, so no pivot column comes
    back.  It is scaled to 1 at its pivot, and the stored rows that meet the
    new pivot column are cleared there against it, which writes them.
    ``cols`` holds every column a stored row has ever had; a pivot outside
    it meets no stored row, so their scan is skipped.  Back-elimination only
    adds columns of the new row, which join ``cols``.
    """
    F = field
    v = F.sparse(row)
    for pc in [c for c in v if c in basis]:
        F.sub_scaled(v, v[pc], basis[pc])
    if not v:
        return False
    pc = min(v)
    if v[pc] != F.one:
        inv = F.inv(v[pc])
        v = {j: F.mul(inv, y) for j, y in v.items()}
    if pc in cols:
        for b in basis.values():
            if pc in b:
                F.sub_scaled(b, b[pc], v)
    cols.update(v)
    basis[pc] = v
    return True


def _rref(field, n: int, rows: list) -> dict:
    """Canonical sparse RREF of rows ``{column: scalar}`` over ``field`` with
    n columns: a map from each pivot column, ascending, to its row (1 at the
    pivot, 0 in every other pivot column).

    Rows are read, never written: each is copied by the field's `sparse`,
    which drops zeros (and over F_p reduces integers, so integer rows can
    be passed as they are).  They are taken greedily in order, each in one
    pass (`_add_row`), and the reduction stops at n pivots.
    """
    basis, cols = {}, set()
    for row in rows:
        if len(basis) == n:
            break
        _add_row(field, basis, cols, row)
    return {pc: basis[pc] for pc in sorted(basis)}


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


def _lifted_kernel(basis, n: int):
    """Yield ``(f, v)`` for each free column f, ascending, of the RREF mod
    ``WITNESS_PRIME`` ``basis`` (see `_rref`).

    The kernel vector x of f is 1 at f, 0 at the other free columns, and
    -basis[e][f] at each pivot e.  Its entries are lifted to Z by rational
    reconstruction and cleared of denominators, so v is an integer vector
    with v[f] > 0, or None where an entry does not lift.  It is a kernel
    vector mod p only, until `_annihilates` checks it against the integer
    rows.
    """
    p = WITNESS_PRIME
    for f in range(n):
        if f in basis:
            continue
        x = {f: 1}
        for e, row in basis.items():
            y = row.get(f)
            if y:
                x[e] = p - y
        fracs = {c: _lift(y, p) for c, y in x.items()}
        if None in fracs.values():
            yield f, None
            continue
        mult = lcm(*(d for _, d in fracs.values()))
        yield f, {c: num * (mult // den) for c, (num, den) in fracs.items()}


def _annihilates(int_rows, n: int, vectors) -> bool:
    """Whether every integer row with n columns is orthogonal to every
    vector, in exact arithmetic."""
    columns = [[] for _ in range(n)]  # columns[c] = [(row, entry)], nonzero only
    for r, row in enumerate(int_rows):
        for c, x in row.items():
            columns[c].append((r, x))
    for v in vectors:
        out = {}
        for c, vc in v.items():
            for r, x in columns[c]:
                out[r] = out.get(r, 0) + x * vc
        if any(out.values()):
            return False
    return True


def certified_kernel(int_rows, n: int):
    """Pivot columns and an exact kernel basis of sparse integer rows, or None.

    Rows are ``{column: int}`` dicts with n columns.  One RREF mod the
    witness prime gives pivots and, per free column, a kernel vector mod p
    that `_lifted_kernel` lifts to Z; each is checked to satisfy A v = 0 in
    exact integer arithmetic.  Then rank_Q >= rank_p (rows independent mod
    p are independent over Q) and the n - rank_p lifted vectors, independent
    through their free columns, bound the nullity from below, so both are
    exact and the mod-p pivots are the pivots of the RREF over Q.  Returns
    ``(pivots, kernel)`` with ``pivots`` ascending and ``kernel`` mapping
    each free column f to its integer vector ``{column: int}`` (v_f[f] > 0);
    full column rank mod p needs no lift.  None when a lift or the check
    fails.
    """
    basis = _rref(WITNESS_FIELD, n, int_rows)
    kernel = {}
    for free, v in _lifted_kernel(basis, n):
        if v is None:
            return None
        kernel[free] = v
    if kernel and not _annihilates(int_rows, n, kernel.values()):
        return None
    return sorted(basis), kernel

