"""Exact linear algebra over any supported field, on sparse rows.

A row is a ``{column: scalar}`` dict over a field, zeros left out.  A
subspace of F^n is held as its canonical reduced row echelon form: one row
per pivot column, pivots ascending, each row 1 at its pivot and 0 in every
other pivot column.  Canonical bases are unique, so equal subspaces always
have equal rows.  No pivoting heuristics, no floats.

There is one row reducer, `_kernels._rref`, the same for every field.
Over Q the sparse row systems (the stacked adjoints behind the center and
the C-condition, the brackets behind the derived subalgebra) are integerized
and reduced over the witness prime field, and certified by `_kernels`.
`span_and_kernel` reads the canonical RREF straight off the pivots and the
whole lifted kernel of `_kernels.certified_kernel`, and `kernel_dim_fast`
reads the nullity off the same certificate, with the integer rank
`_kernels.int_rank` as its fallback; the caller may keep the kernel vectors
it proves.
Everything else -- the fallback when the certificate fails, every other
field, and the spans and intersections of subspaces -- runs `_rref` over
the field itself.
"""

from __future__ import annotations

from math import lcm

from . import _kernels
from ._kernels import _add_row, _rref
from .errors import AmbientMismatch
from .scalars import require_same_field


class Subspace:
    """Subspace of F^n held as its canonical RREF: ``rows`` maps each pivot
    column, ascending, to its sparse row."""

    def __init__(self, field, ambient_dim: int, rows: dict):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vector(self, i: int) -> list:
        """Basis vector i (the row of the i-th pivot) as a dense coordinate list."""
        v = [self.field.zero] * self.ambient_dim
        for c, x in list(self.rows.values())[i].items():
            v[c] = x
        return v

    @classmethod
    def from_spanning(cls, field, ambient_dim, rows):
        """The span of sparse rows ``{column: scalar}`` in F^ambient_dim."""
        if any(not 0 <= c < ambient_dim for row in rows for c in row):
            raise AmbientMismatch("spanning row has a column outside the ambient space")
        return cls(field, ambient_dim, _rref(field, ambient_dim, rows))

    def completion(self) -> list:
        """The columns k, ascending, of the basis vectors e_k that complete
        the subspace to F^n greedily: e_k is taken when it lies outside the
        span of the rows and of the e_j taken before it."""
        F = self.field
        basis = {pc: dict(row) for pc, row in self.rows.items()}  # `_add_row` writes them
        cols = {c for row in basis.values() for c in row}
        return [k for k in range(self.ambient_dim) if _add_row(F, basis, cols, {k: F.one})]

    def contains(self, v) -> bool:
        """Whether the dense vector v lies in the subspace: v minus v[pc]
        times the row of each pivot pc must vanish."""
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector has wrong ambient dimension")
        F = self.field
        w = {c: x for c, x in enumerate(v) if not F.is_zero(x)}
        for pc, row in self.rows.items():
            if pc in w:
                F.sub_scaled(w, w[pc], row)
        return not w

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection by one Zassenhaus reduction.

        The canonical RREF of the rows [a | a] for each row a of self and
        [b | 0] for each row b of other, over 2n columns, has a row with
        pivot at or past n exactly for each row of the canonical RREF of the
        intersection, shifted right by n.
        """
        require_same_field(self.field, other.field, "intersected subspaces")
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("subspaces of different ambient dimension")
        n = self.ambient_dim
        stacked = [{**a, **{n + c: x for c, x in a.items()}} for a in self.rows.values()]
        stacked += other.rows.values()
        rows = _rref(self.field, 2 * n, stacked)
        return Subspace(self.field, n, {
            pc - n: {c - n: x for c, x in row.items()} for pc, row in rows.items() if pc >= n
        })

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )


def integerized_entries(rows) -> list:
    """Sparse integer rows row-equivalent to sparse rows over Q.

    Each row is scaled by the lcm of its denominators; row scaling keeps the
    row space and the kernel, so ranks and nullities agree with the original.
    A row of ``int`` scalars is passed through as it is (a copy per
    candidate pair of the C-condition fragments memory).
    """
    out = []
    for row in rows:
        if not all(type(x) is int for x in row.values()):
            mult = lcm(*(x.denominator for x in row.values()))
            row = {c: x.numerator * (mult // x.denominator) for c, x in row.items() if x}
        out.append(row)
    return out


def span_and_kernel(field, n: int, rows: list):
    """Row space and right kernel of the matrix with sparse rows ``rows``.

    Each row is a ``{column: scalar}`` dict over ``field`` with n columns;
    both results are canonical Subspaces of F^n.  Over Q the integerized
    rows go through `_kernels.certified_kernel`: its pivots are those of
    the RREF over Q, row pc of that RREF is 1 at pc and -v_f[pc]/v_f[f]
    at each free column f, from the lifted kernel vectors v_f, and the
    kernel is their span.  When the certificate fails, and over finite
    fields, the span is one `_rref` of all rows, and the kernel is spanned
    by the vectors x_f of its free columns f: 1 at f and -R[pc][f] at each
    pivot pc.  Canonical bases are unique, so both routes return identical
    subspaces.
    """
    if field.kind == "Q":
        cert = _kernels.certified_kernel(integerized_entries(rows), n)
        if cert is not None:
            pivots, ker = cert
            span = {pc: {pc: field.one} for pc in pivots}
            for f, v in ker.items():
                for pc, x in v.items():
                    if pc != f:
                        span[pc][f] = field.div(-x, v[f])
            return Subspace(field, n, span), Subspace.from_spanning(field, n, list(ker.values()))
    span = _rref(field, n, rows)
    ker = {f: {f: field.one} for f in range(n) if f not in span}
    for pc, row in span.items():
        for f, x in row.items():
            if f != pc:
                ker[f][pc] = field.neg(x)
    return Subspace(field, n, span), Subspace.from_spanning(field, n, list(ker.values()))


def kernel_dim_fast(field, n: int, rows: list, proved=None) -> int:
    """The nullity of the matrix with sparse rows ``rows`` (as in
    `span_and_kernel`).

    Over Q: the size of the lifted kernel of `_kernels.certified_kernel`
    on the integerized rows, whose exact vectors are appended to ``proved``
    when that list is given, or n minus the integer rank `_kernels.int_rank`
    of the same rows when the certificate fails.  Elsewhere: n minus the
    rank from one `_rref`.
    """
    if field.kind == "Q":
        int_rows = integerized_entries(rows)
        cert = _kernels.certified_kernel(int_rows, n)
        if cert is None:
            return n - _kernels.int_rank(int_rows, len(int_rows), n)
        if proved is not None:
            proved.extend(cert[1].values())
        return len(cert[1])
    return n - len(_rref(field, n, rows))


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
