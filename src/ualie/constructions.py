"""Builders for the algebra catalog, products, and seaweed subalgebras.

The catalog covers the matrix families gl, sl, t (upper triangular),
n (strictly upper triangular), heisenberg(k), abelian(d), the two-dimensional
nonabelian algebra s2, and two hand-picked study algebras: example_4_6
(a perfect six-dimensional algebra with one-dimensional center, built from
sl_2 acting on a Heisenberg algebra) and example_5_7 (a nine-dimensional
family of 5x5 matrices whose pairwise centralizers always meet nontrivially
although its center is zero).

Seaweed subalgebras of sl_n are determined by two compositions of n: the
included root positions are the above-diagonal ones within a top block plus
the below-diagonal ones within a bottom block, and the traceless diagonal.

Every matrix family (gl, t, n, sl, the seaweeds and example_5_7) comes from
one builder, `_matrix_algebra`.  It takes sparse basis matrices in pivot
form: each is 1 at its first position, its pivot, and 0 at the pivot of
every earlier one.  The coordinates of a commutator are then read off its
pivots in basis order, and a commutator outside the span is refused.

Every builder checks the dimension it would build before it builds any list
of that size: the matrix families against `MATRIX_DIM_CAP`, heisenberg and
abelian against `liecore.DIM_CAP`, the cap of algebra files.
"""

from __future__ import annotations

import heapq

from .errors import BadCharacteristic, BadParams, InvalidStructure, UnknownCatalogName
from .liecore import DIM_CAP, StructureConstantAlgebra
from .scalars import require_same_field

# a matrix family costs about dim^2 to build: gl(64), of dimension 4096,
# takes 1.4-2 s and 200 MB (2-vCPU VM, Python 3.11), gl(100) 11 s and 720 MB
MATRIX_DIM_CAP = 4096


def _require_dim(label, dim, cap):
    if dim > cap:
        raise BadParams(f"{label} would have dimension {dim}, past the cap {cap}")


# ---------------------------------------------------------------------------
# compositions and root sets


def validate_composition(n: int, parts) -> tuple:
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts) or sum(parts) != n:
        raise BadParams(f"{parts} is not a composition of {n}")
    return parts


def _blocks(parts):
    """Consecutive 1-based index blocks of a composition."""
    out = []
    start = 1
    for p in parts:
        out.append(range(start, start + p))
        start += p
    return out


def included_roots(n: int, top, bottom) -> frozenset:
    """1-based matrix positions (i, j), i != j, spanned by a seaweed.

    Above-diagonal positions whose row and column fall in the same top
    block, plus below-diagonal positions in the same bottom block.
    """
    top = validate_composition(n, top)
    bottom = validate_composition(n, bottom)
    roots = set()
    for blk in _blocks(top):
        for i in blk:
            for j in blk:
                if i < j:
                    roots.add((i, j))
    for blk in _blocks(bottom):
        for i in blk:
            for j in blk:
                if i > j:
                    roots.add((i, j))
    return frozenset(roots)


class SeaweedSpec:
    def __init__(self, n: int, top: tuple, bottom: tuple):
        self.n = n
        self.top = validate_composition(n, top)
        self.bottom = validate_composition(n, bottom)
        # a block of size p holds p(p-1)/2 roots; n - 1 diagonal elements
        dim = sum(p * (p - 1) // 2 for p in self.top + self.bottom) + n - 1
        _require_dim(self.label(), dim, MATRIX_DIM_CAP)

    def roots(self) -> frozenset:
        return included_roots(self.n, self.top, self.bottom)

    def label(self) -> str:
        t = "|".join(str(p) for p in self.top)
        b = "|".join(str(p) for p in self.bottom)
        return f"seaweed(n={self.n},top={t},bottom={b})"


# ---------------------------------------------------------------------------
# matrix algebras (sparse matrices are dicts over 0-based (row, col) positions)


def _sp_commutator(field, a: dict, b: dict) -> dict:
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if j == k:
                pos = (i, l)
                v = field.add(out.get(pos, field.zero), field.mul(x, y))
                out[pos] = v
            if l == i:
                pos = (k, j)
                v = field.sub(out.get(pos, field.zero), field.mul(y, x))
                out[pos] = v
    return {p: v for p, v in out.items() if not field.is_zero(v)}


def _matrix_algebra(name, field, mats, names):
    """The algebra with basis ``mats`` and the commutator as bracket.

    Pivot rule: ``mats[t]`` is 1 at its first position (its pivot) and 0 at
    the pivot of every earlier matrix.  Subtracting c*mats[t] then changes
    only the pivots of later matrices, so peeling the touched pivots in
    increasing t reads each coordinate c once, as the entry still there.
    A commutator with a remainder left is outside the span.
    """
    pivots = [next(iter(m)) for m in mats]
    pivot_of = {p: t for t, p in enumerate(pivots)}
    rows = [{i for i, _ in m} for m in mats]
    cols = [{j for _, j in m} for m in mats]
    brackets = {}
    for a, ma in enumerate(mats):
        for b in range(a + 1, len(mats)):
            if cols[a].isdisjoint(rows[b]) and cols[b].isdisjoint(rows[a]):
                continue  # ab = ba = 0: they commute
            rest = _sp_commutator(field, ma, mats[b])
            todo = [pivot_of[p] for p in rest if p in pivot_of]
            heapq.heapify(todo)
            row = {}
            while todo:
                t = heapq.heappop(todo)
                c = rest.get(pivots[t])
                if c is not None:
                    row[t] = c
                    field.sub_scaled(rest, c, mats[t])
                    for p in mats[t]:
                        if p in rest and p in pivot_of:
                            heapq.heappush(todo, pivot_of[p])
            if rest:
                raise InvalidStructure(f"{name}: span not closed under commutator at {rest}")
            if row:
                brackets[(a, b)] = row
    return StructureConstantAlgebra(name, field, len(mats), names, brackets)


def _unit_name(n, i, j):
    """Name of the matrix unit at 0-based (i, j) in n x n matrices."""
    return f"E{i + 1}{j + 1}" if n < 10 else f"E{i + 1},{j + 1}"


def _staircase_algebra(name, field, n, root_list):
    """Root positions (1-based) in sorted order, then H_k = E_kk - E_{k+1,k+1}."""
    roots = sorted(root_list)
    one = field.one
    mats = [{(i - 1, j - 1): one} for i, j in roots]
    mats += [{(k - 1, k - 1): one, (k, k): field.neg(one)} for k in range(1, n)]
    names = [_unit_name(n, i - 1, j - 1) for i, j in roots] + [f"H{k}" for k in range(1, n)]
    return _matrix_algebra(name, field, mats, names)


def build_seaweed(spec: SeaweedSpec, field) -> StructureConstantAlgebra:
    if field.char != 0 and field.char <= spec.n:
        raise BadCharacteristic(
            f"seaweeds need characteristic 0 or p > n, got p={field.char}, n={spec.n}"
        )
    return _staircase_algebra(spec.label(), field, spec.n, spec.roots())


# ---------------------------------------------------------------------------
# catalog


def _build_gl_like(name, field, n, keep):
    """Matrix units E_ij, in row-major order, at the positions ``keep`` admits."""
    positions = [(i, j) for i in range(n) for j in range(n) if keep(i, j)]
    return _matrix_algebra(
        name, field, [{p: field.one} for p in positions], [_unit_name(n, *p) for p in positions]
    )


def build_gl(field, n):
    if n < 1:
        raise BadParams("gl needs n >= 1")
    _require_dim(f"gl({n})", n * n, MATRIX_DIM_CAP)
    return _build_gl_like(f"gl({n})", field, n, lambda i, j: True)


def build_t(field, n):
    if n < 1:
        raise BadParams("t needs n >= 1")
    _require_dim(f"t({n})", n * (n + 1) // 2, MATRIX_DIM_CAP)
    return _build_gl_like(f"t({n})", field, n, lambda i, j: i <= j)


def build_n(field, n):
    if n < 1:
        raise BadParams("n needs n >= 1")
    _require_dim(f"n({n})", n * (n - 1) // 2, MATRIX_DIM_CAP)
    return _build_gl_like(f"n({n})", field, n, lambda i, j: i < j)


def build_sl(field, n):
    if n < 2:
        raise BadParams("sl needs n >= 2")
    _require_dim(f"sl({n})", n * n - 1, MATRIX_DIM_CAP)
    if n == 2:
        one = field.one
        mats = [{(0, 1): one}, {(0, 0): one, (1, 1): field.neg(one)}, {(1, 0): one}]
        return _matrix_algebra("sl(2)", field, mats, ["e", "h", "f"])
    if field.char != 0 and field.char <= n:
        # the staircase realization needs the H_k to stay a complement
        raise BadCharacteristic(f"sl({n}) catalog build needs char 0 or p > n")
    return _staircase_algebra(
        f"sl({n})", field, n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    )


def build_heisenberg(field, k):
    if k < 1:
        raise BadParams("heisenberg needs k >= 1")
    dim = 2 * k + 1
    _require_dim(f"heisenberg({k})", dim, DIM_CAP)
    names = [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(k)] + ["z"]
    brackets = {(i, k + i): {2 * k: field.one} for i in range(k)}
    return StructureConstantAlgebra(f"heisenberg({k})", field, dim, names, brackets)


def build_abelian(field, d):
    if d < 0:
        raise BadParams("abelian needs d >= 0")
    _require_dim(f"abelian({d})", d, DIM_CAP)
    return StructureConstantAlgebra(f"abelian({d})", field, d, None, {})


def build_s2(field):
    return StructureConstantAlgebra("s2", field, 2, ["h", "e"], {(0, 1): {1: field.one}})


def build_example_4_6(field):
    """Perfect 6-dimensional algebra with center spanned by z.

    sl_2 = <e,h,f> acts on the Heisenberg algebra <x,y,z>: h scales x and y
    by +1/-1, e sends y to x, f sends x to y, z is fixed (and central).
    """
    one = field.one
    two = field.add(one, one)
    return StructureConstantAlgebra(
        "example_4_6",
        field,
        6,
        ["e", "h", "f", "x", "y", "z"],
        {
            (0, 1): {0: field.neg(two)},
            (0, 2): {1: one},
            (1, 2): {2: field.neg(two)},
            (0, 4): {3: one},
            (1, 3): {3: one},
            (1, 4): {4: field.neg(one)},
            (2, 3): {4: one},
            (3, 4): {5: one},
        },
    )


def build_example_5_7(field):
    """Nine-dimensional family of 5x5 matrices with trivial center.

    A member has the scalar a on the first four diagonal entries, free
    entries at (1,3),(1,4),(1,5),(2,3),(2,4),(2,5),(3,5),(4,5) (1-based),
    and zeros elsewhere.  Commutators of members land in the four positions
    of the last column, so the family is commutator-closed.
    """
    one = field.one
    slots = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]
    mats = [{(k, k): one for k in range(4)}] + [{p: one} for p in slots]
    names = ["a"] + [f"a{i + 1}{j + 1}" for i, j in slots]
    return _matrix_algebra("example_5_7", field, mats, names)


CATALOG = {
    "gl": (build_gl, ("n",)),
    "sl": (build_sl, ("n",)),
    "t": (build_t, ("n",)),
    "n": (build_n, ("n",)),
    "heisenberg": (build_heisenberg, ("k",)),
    "abelian": (build_abelian, ("d",)),
    "s2": (build_s2, ()),
    "example_4_6": (build_example_4_6, ()),
    "example_5_7": (build_example_5_7, ()),
}

# smallest sensible parameters, used by `catalog list` so scripts (and the
# test suite) can drive every builtin mechanically
CATALOG_EXAMPLES = {
    "gl": {"n": 2},
    "sl": {"n": 2},
    "t": {"n": 3},
    "n": {"n": 3},
    "heisenberg": {"k": 1},
    "abelian": {"d": 2},
    "s2": {},
    "example_4_6": {},
    "example_5_7": {},
}


def build_catalog(name: str, field, **params) -> StructureConstantAlgebra:
    if name not in CATALOG:
        raise UnknownCatalogName(f"unknown catalog algebra {name!r}")
    builder, wanted = CATALOG[name]
    args = []
    for key in wanted:
        if key not in params or params[key] is None:
            raise BadParams(f"catalog algebra {name!r} needs parameter --{key}")
        args.append(int(params[key]))
    extra = {k for k, v in params.items() if v is not None and k not in wanted}
    if extra:
        raise BadParams(f"catalog algebra {name!r} does not take {sorted(extra)}")
    return builder(field, *args)


# ---------------------------------------------------------------------------
# products


def direct_sum(g1: StructureConstantAlgebra, g2: StructureConstantAlgebra, name=None):
    require_same_field(g1.field, g2.field, "summands")
    n1 = g1.dim
    brackets = {k: dict(v) for k, v in g1.brackets.items()}
    for (i, j), row in g2.brackets.items():
        brackets[(i + n1, j + n1)] = {k + n1: c for k, c in row.items()}
    return StructureConstantAlgebra(
        name or f"{g1.name}(+){g2.name}",
        g1.field,
        g1.dim + g2.dim,
        g1.basis_names + g2.basis_names,
        brackets,
    )
