"""Exact linear algebra over any supported field.

Matrices store a field object plus a flat list of raw scalars in row-major
order.  Everything reduces to one canonical reduced row echelon form with
deterministic pivoting: columns are scanned left to right and the first row
with a nonzero entry (top to bottom) becomes the pivot, so equal subspaces
always canonicalize to equal bases.  No pivoting heuristics, no floats.

Over Q, the sparse row systems (the stacked adjoints behind the center and
the C-condition, the brackets behind the derived subalgebra) are certified
by `_kernels` on their integerized rows.  `span_and_kernel` reads the
canonical RREF straight off the pivots and the whole lifted kernel of
`_kernels.certified_kernel`, with one full RREF as the fallback when the
certificate fails.  `kernel_dim_fast` only tells a trivial kernel from a
nontrivial one: full rank mod p proves the first, and one lifted kernel
vector checked exactly proves the second, with Bareiss as the fallback.
Rows that several of its stacks share (`reduced_block`) are reduced mod p
once.  Over other fields both reduce the rows by one RREF.
"""

from __future__ import annotations

from math import lcm

from . import _kernels
from .errors import AmbientMismatch, DimensionMismatch
from .scalars import require_same_field


class Matrix:
    def __init__(self, field, rows: int, cols: int, entries: list):
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries  # flat, row-major, raw scalars

    @classmethod
    def from_rows(cls, field, rows_data):
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        flat = []
        for r in rows_data:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows")
            flat.extend(r)
        return cls(field, rows, cols, flat)

    @classmethod
    def identity(cls, field, n):
        e = [field.zero] * (n * n)
        for i in range(n):
            e[i * n + i] = field.one
        return cls(field, n, n, e)

    def at(self, r, c):
        return self.entries[r * self.cols + c]

    def row(self, r):
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def row_list(self):
        return [self.row(r) for r in range(self.rows)]

    def stack(self, other: "Matrix") -> "Matrix":
        require_same_field(self.field, other.field, "stacked matrices")
        if self.cols != other.cols:
            raise DimensionMismatch("stacking needs equal column counts")
        return Matrix(self.field, self.rows + other.rows, self.cols, self.entries + other.entries)

    def is_zero_matrix(self) -> bool:
        F = self.field
        return all(F.is_zero(e) for e in self.entries)


def rref(m: Matrix):
    """Canonical reduced row echelon form.

    Returns (R, pivot_columns).  Pivots are chosen deterministically: for
    each column left to right, the first row (top to bottom, at or below the
    current pivot row) with a nonzero entry.
    """
    F = m.field
    rows = [list(r) for r in m.row_list()]
    nr, nc = m.rows, m.cols
    pivots = []
    prow = 0
    for c in range(nc):
        sel = -1
        for r in range(prow, nr):
            if not F.is_zero(rows[r][c]):
                sel = r
                break
        if sel < 0:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        inv = F.inv(rows[prow][c])
        rows[prow] = [F.mul(inv, x) for x in rows[prow]]
        for r in range(nr):
            if r != prow and not F.is_zero(rows[r][c]):
                f = rows[r][c]
                rows[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[r], rows[prow])]
        pivots.append(c)
        prow += 1
        if prow == nr:
            break
    flat = [x for row in rows for x in row]
    return Matrix(F, nr, nc, flat), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel(m: Matrix) -> "Subspace":
    """Right kernel {x : m x = 0} as a canonical Subspace of F^cols."""
    if m.rows == 0:
        return Subspace.full(m.field, m.cols)
    r, pivots = rref(m)
    return _kernel_of_rref(r, pivots)


def _kernel_of_rref(r: Matrix, pivots) -> "Subspace":
    F = r.field
    n = r.cols
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fcol in free_cols:
        v = [F.zero] * n
        v[fcol] = F.one
        for prow_idx, pcol in enumerate(pivots):
            v[pcol] = F.neg(r.at(prow_idx, fcol))
        basis.append(v)
    return Subspace.from_spanning(F, n, basis)


def _span_of_rref(r: Matrix, pivots) -> "Subspace":
    rows = [r.row(i) for i in range(len(pivots))]
    basis = Matrix.from_rows(r.field, rows) if rows else Matrix(r.field, 0, r.cols, [])
    return Subspace(r.field, r.cols, basis)


class Subspace:
    """Subspace of F^n held as a canonical RREF basis (rows of ``basis``)."""

    def __init__(self, field, ambient_dim: int, basis: Matrix):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis  # dim x ambient_dim, canonical RREF, no zero rows

    @property
    def dim(self) -> int:
        return self.basis.rows

    @classmethod
    def from_spanning(cls, field, ambient_dim, vectors):
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch("spanning vector has wrong length")
        if not vectors:
            return cls(field, ambient_dim, Matrix(field, 0, ambient_dim, []))
        return _span_of_rref(*rref(Matrix.from_rows(field, vectors)))

    @classmethod
    def full(cls, field, n):
        return cls(field, n, Matrix.identity(field, n))

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector has wrong ambient dimension")
        F = self.field
        # reduce v against the RREF basis rows
        w = list(v)
        for i in range(self.basis.rows):
            row = self.basis.row(i)
            pcol = next(c for c in range(self.ambient_dim) if not F.is_zero(row[c]))
            f = w[pcol]
            if not F.is_zero(f):
                w = [F.sub(x, F.mul(f, y)) for x, y in zip(w, row)]
        return all(F.is_zero(x) for x in w)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the stacked constraint systems.

        Each subspace is the solution set of its complement's equations
        (the kernel of its basis matrix, transposed back as constraints);
        stacking both constraint sets and taking the kernel gives exactly
        the vectors annihilated by both complements.
        """
        require_same_field(self.field, other.field, "intersected subspaces")
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("subspaces of different ambient dimension")
        c1 = kernel(self.basis).basis  # constraints cutting out self
        c2 = kernel(other.basis).basis
        stacked = c1.stack(c2)
        if stacked.rows == 0:
            return Subspace.full(self.field, self.ambient_dim)
        return kernel(stacked)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis.entries == other.basis.entries
            and self.basis.rows == other.basis.rows
        )


def integerized_entries(m: Matrix):
    """Flat integer entries row-equivalent to a matrix over Q.

    Each row is scaled by the lcm of its denominators; row scaling keeps the
    row space and the kernel, so ranks and nullities agree with the original.
    A matrix of ``int`` scalars is already integral and is copied as it is.
    """
    if set(map(type, m.entries)) <= {int}:
        return list(m.entries)
    out = []
    for r in range(m.rows):
        row = m.row(r)
        mult = lcm(*(x.denominator for x in row)) if row else 1
        out.extend(x.numerator * (mult // x.denominator) for x in row)
    return out


def _integer_row(row: dict) -> dict:
    """A sparse rational row scaled by the lcm of its denominators; a row of
    ``int`` scalars is returned as it is (a copy per candidate pair of the
    C-condition fragments memory)."""
    if all(type(x) is int for x in row.values()):
        return row
    mult = lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (mult // x.denominator) for c, x in row.items() if x}


def _reduce_span_and_kernel(field, n: int, rows: list):
    """Span and kernel of sparse rows from one canonical RREF."""
    m = Matrix(field, len(rows), n, [row.get(c, field.zero) for row in rows for c in range(n)])
    r, pivots = rref(m)
    return _span_of_rref(r, pivots), _kernel_of_rref(r, pivots)


def span_and_kernel(field, n: int, rows: list):
    """Row space and right kernel of the matrix with sparse rows ``rows``.

    Each row is a ``{column: scalar}`` dict over ``field`` with n columns;
    both results are canonical Subspaces of F^n.  Over Q the integerized
    rows go through `_kernels.certified_kernel`: its pivots are those of
    the RREF over Q, and row pc of that RREF is 1 at pc and -v_f[pc]/v_f[f]
    at each free column f, from the lifted kernel vectors v_f.  When the
    certificate fails, and over finite fields, one RREF of all rows
    decides.  Canonical bases are unique, so both routes return identical
    subspaces.
    """
    if field.kind == "Q":
        cert = _kernels.certified_kernel([_integer_row(row) for row in rows], n)
        if cert is not None:
            pivots, ker = cert
            ents = [field.zero] * (len(pivots) * n)
            for i, pc in enumerate(pivots):
                ents[i * n + pc] = field.one
                for f, v in ker.items():
                    if pc in v:
                        ents[i * n + f] = field.div(-v[pc], v[f])
            r = Matrix(field, len(pivots), n, ents)
            return _span_of_rref(r, pivots), _kernel_of_rref(r, pivots)
    return _reduce_span_and_kernel(field, n, rows)


def reduced_block(field, n: int, rows: list):
    """Sparse rows over Q that several `kernel_dim_fast` stacks share,
    integerized and reduced mod the witness prime once
    (`_kernels.reduce_block`)."""
    return _kernels.reduce_block([_integer_row(row) for row in rows], n)


def kernel_dim_fast(field, n: int, rows: list, block=None) -> int:
    """Zero exactly when the matrix with sparse rows ``rows`` (as in
    `span_and_kernel`), stacked on the rows of ``block`` (a `reduced_block`,
    over Q only), has a trivial kernel; otherwise positive.

    Over Q this is `_kernels.int_kernel_dim` of the integerized rows: a
    positive value is proved exactly, by one lifted kernel vector or by
    Bareiss, but it is the nullity only on the Bareiss route.  Over every
    other field it is the nullity, from one RREF.
    """
    if field.kind == "Q":
        return _kernels.int_kernel_dim([_integer_row(row) for row in rows], n, block)
    return _reduce_span_and_kernel(field, n, rows)[1].dim


def vectors_equal(field, u, v) -> bool:
    return len(u) == len(v) and all(field.is_zero(field.sub(a, b)) for a, b in zip(u, v))


def vector_is_zero(field, v) -> bool:
    return all(field.is_zero(x) for x in v)


def vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_sub(field, u, v):
    return [field.sub(a, b) for a, b in zip(u, v)]


def vec_scale(field, c, v):
    return [field.mul(c, x) for x in v]
