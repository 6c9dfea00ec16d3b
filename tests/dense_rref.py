"""The dense canonical RREF over a field's own operations, kept as the
oracle that the package's sparse routines are checked against.

It shares no code with `ualie.linalg`: rows are dense coordinate lists, and
each column, left to right, takes as pivot the first row at or below the
current pivot row with a nonzero entry, then clears that column in every
other row.
"""

from ualie.linalg import Subspace


def dense_rref(F, rows, ncols):
    """(nonzero rows of the canonical RREF, pivot columns) of dense rows."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        prow = len(pivots)
        sel = next((r for r in range(prow, len(rows)) if not F.is_zero(rows[r][c])), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        inv = F.inv(rows[prow][c])
        rows[prow] = [F.mul(inv, x) for x in rows[prow]]
        for r in range(len(rows)):
            if r != prow and not F.is_zero(rows[r][c]):
                f = rows[r][c]
                rows[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[r], rows[prow])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def dense_rank(F, rows, ncols):
    return len(dense_rref(F, rows, ncols)[1])


def dense_kernel(F, rows, ncols):
    """One right-kernel vector per free column f: 1 at f, -R[r][f] at pivot r."""
    R, pivots = dense_rref(F, rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F.zero] * ncols
        v[f] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R[r][f])
        basis.append(v)
    return basis


def dense_span(F, rows, ncols):
    """The row space as a `Subspace`, its rows read off the dense RREF."""
    R, pivots = dense_rref(F, rows, ncols)
    sparse = [{c: x for c, x in enumerate(row) if not F.is_zero(x)} for row in R]
    return Subspace(F, ncols, dict(zip(pivots, sparse)))


def dense_span_and_kernel(F, rows, ncols):
    return dense_span(F, rows, ncols), dense_span(F, dense_kernel(F, rows, ncols), ncols)


def dense(F, sparse_rows, ncols):
    """Sparse rows ``{column: scalar}`` as dense coordinate lists."""
    out = []
    for row in sparse_rows:
        v = [F.zero] * ncols
        for c, x in row.items():
            v[c] = x
        out.append(v)
    return out
