"""Exact dense linear algebra over any supported field.

Matrices store a field object plus a flat list of raw scalars in row-major
order.  Everything reduces to one canonical reduced row echelon form with
deterministic pivoting: columns are scanned left to right and the first row
with a nonzero entry (top to bottom) becomes the pivot, so equal subspaces
always canonicalize to equal bases.  Intended for the small dimensions this
package works at (n <= ~30); no pivoting heuristics, no floats.

Over Q, tall matrices (the stacked adjoints behind the center, the brackets
behind the derived subalgebra) take the certified route of
`span_and_kernel`: integer rows, a selection of rows independent mod a
fixed prime, a Fraction RREF of only those, and an exact integer check
that every row annihilates the kernel found, with one full RREF as the
fallback when the check fails.  Nullities go through `kernel_dim_fast`,
whose integer kernels in `_kernels` carry a modular certificate of their
own.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import AmbientMismatch, DimensionMismatch
from .scalars import require_same_field


@dataclass
class Matrix:
    field: object
    rows: int
    cols: int
    entries: list  # flat, row-major, raw scalars

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries,"
                f" got {len(self.entries)}"
            )

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

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols, [field.zero] * (rows * cols))

    def at(self, r, c):
        return self.entries[r * self.cols + c]

    def row(self, r):
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def row_list(self):
        return [self.row(r) for r in range(self.rows)]

    def copy(self):
        return Matrix(self.field, self.rows, self.cols, list(self.entries))

    def transpose(self):
        e = [self.entries[r * self.cols + c] for c in range(self.cols) for r in range(self.rows)]
        return Matrix(self.field, self.cols, self.rows, e)

    def stack(self, other: "Matrix") -> "Matrix":
        require_same_field(self.field, other.field, "stacked matrices")
        if self.cols != other.cols:
            raise DimensionMismatch("stacking needs equal column counts")
        return Matrix(self.field, self.rows + other.rows, self.cols, self.entries + other.entries)

    def mat_vec(self, v):
        if len(v) != self.cols:
            raise DimensionMismatch("matrix-vector size mismatch")
        F = self.field
        out = []
        for r in range(self.rows):
            acc = F.zero
            base = r * self.cols
            for c in range(self.cols):
                x = v[c]
                if not F.is_zero(x):
                    acc = F.add(acc, F.mul(self.entries[base + c], x))
            out.append(acc)
        return out

    def mat_mul(self, other: "Matrix") -> "Matrix":
        require_same_field(self.field, other.field, "multiplied matrices")
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product size mismatch")
        F = self.field
        out = [F.zero] * (self.rows * other.cols)
        for r in range(self.rows):
            for k in range(self.cols):
                a = self.at(r, k)
                if F.is_zero(a):
                    continue
                for c in range(other.cols):
                    out[r * other.cols + c] = F.add(
                        out[r * other.cols + c], F.mul(a, other.at(k, c))
                    )
        return Matrix(F, self.rows, other.cols, out)

    def is_zero_matrix(self) -> bool:
        F = self.field
        return all(F.is_zero(e) for e in self.entries)

    def to_json(self):
        F = self.field
        return [[F.format(self.at(r, c)) for c in range(self.cols)] for r in range(self.rows)]

    @classmethod
    def from_json(cls, field, data):
        return cls.from_rows(field, [[field.parse(s) for s in row] for row in data])


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


def solve(m: Matrix, b):
    """One exact solution of m x = b (free variables zero), or None."""
    F = m.field
    if len(b) != m.rows:
        raise DimensionMismatch("rhs length mismatch")
    ents = []
    for r in range(m.rows):
        ents.extend(m.row(r))
        ents.append(b[r])
    aug = Matrix(F, m.rows, m.cols + 1, ents)
    r, pivots = rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None  # inconsistent: pivot in the augmented column
    x = [F.zero] * m.cols
    for prow_idx, pcol in enumerate(pivots):
        x[pcol] = r.at(prow_idx, m.cols)
    return x


@dataclass
class Subspace:
    """Subspace of F^n held as a canonical RREF basis (rows of ``basis``)."""

    field: object
    ambient_dim: int
    basis: Matrix  # dim x ambient_dim, canonical RREF, no zero rows

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

    @classmethod
    def zero(cls, field, n):
        return cls(field, n, Matrix(field, 0, n, []))

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

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(other.basis.row(i)) for i in range(other.dim))

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

    def to_json(self):
        return self.basis.to_json()


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
    """A sparse rational row scaled by the lcm of its denominators."""
    mult = lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (mult // x.denominator) for c, x in row.items() if x}


def _reduce_span_and_kernel(field, n: int, rows: list):
    """Span and kernel of sparse rows from one canonical RREF."""
    m = Matrix(field, len(rows), n, [row.get(c, field.zero) for row in rows for c in range(n)])
    r, pivots = rref(m)
    return _span_of_rref(r, pivots), _kernel_of_rref(r, pivots)


def _certified_span_and_kernel(field, n: int, rows: list):
    """The certified route over Q, or None when its exact check fails.

    Rows independent mod the witness prime are independent over Q, so their
    span sits inside the full row space; if every row annihilates their
    kernel, the two spans (and kernels) are equal.
    """
    from ._kernels import WITNESS_PRIME, rref_mod_p

    distinct = {}
    for row in rows:
        ints = _integer_row(row)
        if ints:
            distinct.setdefault(tuple(sorted(ints.items())), (row, ints))
    candidates = list(distinct.values())
    _, chosen = rref_mod_p([ints for _, ints in candidates], n, WITNESS_PRIME)
    if len(chosen) == n:  # full column rank mod p, hence over Q
        return Subspace.full(field, n), Subspace.zero(field, n)
    span, ker = _reduce_span_and_kernel(field, n, [candidates[k][0] for k in chosen])
    ker_ints = integerized_entries(ker.basis)
    for v in range(ker.dim):
        kv = ker_ints[v * n : (v + 1) * n]
        for _, ints in candidates:
            if sum(x * kv[c] for c, x in ints.items()):
                return None
    return span, ker


def span_and_kernel(field, n: int, rows: list):
    """Row space and right kernel of the matrix with sparse rows ``rows``.

    Each row is a ``{column: scalar}`` dict over ``field`` with n columns;
    both results are canonical Subspaces of F^n.  Over Q the certified route
    runs first: integerize the rows, drop zero and duplicate rows, select
    rows independent mod the witness prime (at most n), row-reduce only
    those, and check by integer dot products that every row annihilates
    the kernel found.  When that check fails, and over finite fields, one
    RREF of all rows decides.  Canonical bases are unique, so both routes
    return identical subspaces.
    """
    if field.kind == "Q":
        res = _certified_span_and_kernel(field, n, rows)
        if res is not None:
            return res
    return _reduce_span_and_kernel(field, n, rows)


def kernel_dim_fast(m: Matrix) -> int:
    """Exact nullity by the integer kernels in `_kernels`.

    Over Q, the lifted modular certificate of `int_kernel_dim`; over F_p,
    for every prime, cols minus the rank of one sparse RREF mod p
    (`rref_mod_p`); over other fields, `kernel`.
    """
    from . import _kernels

    F = m.field
    if F.kind == "Q":
        ints = integerized_entries(m)
        return _kernels.int_kernel_dim(ints, m.rows, m.cols)
    if F.kind == "Fp":
        rows = [{c: x for c, x in enumerate(m.row(r)) if x} for r in range(m.rows)]
        basis, _ = _kernels.rref_mod_p(rows, m.cols, F.p)
        return m.cols - len(basis)
    return kernel(m).dim


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
