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
the below-diagonal ones within a bottom block.  They are realized as actual
traceless staircase matrices and the structure constants are re-extracted
from matrix commutators.
"""

from __future__ import annotations

from .errors import BadCharacteristic, BadParams, InvalidStructure, UnknownCatalogName
from .liecore import StructureConstantAlgebra
from .scalars import require_same_field

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

    def roots(self) -> frozenset:
        return included_roots(self.n, self.top, self.bottom)

    def label(self) -> str:
        t = "|".join(str(p) for p in self.top)
        b = "|".join(str(p) for p in self.bottom)
        return f"seaweed(n={self.n},top={t},bottom={b})"


# ---------------------------------------------------------------------------
# sparse matrix helpers (dicts over 0-based (row, col) positions)


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


def _staircase_algebra(name, field, n, root_list):
    """Algebra spanned by root positions (1-based) plus the traceless diagonal.

    Basis: E_ij for each included root in row-major order, then the n-1
    diagonal generators H_k = E_kk - E_{k+1,k+1}.  Structure constants come
    from genuine matrix commutators; the coordinate extraction asserts the
    span is commutator-closed.
    """
    roots = sorted(root_list)
    dim = len(roots) + (n - 1)
    root_index = {rc: idx for idx, rc in enumerate(roots)}
    basis_mats = []
    names = []
    for (i, j) in roots:
        basis_mats.append({(i - 1, j - 1): field.one})
        names.append(f"E{i}{j}" if n < 10 else f"E{i},{j}")
    for k in range(1, n):
        basis_mats.append({(k - 1, k - 1): field.one, (k, k): field.neg(field.one)})
        names.append(f"H{k}")

    def extract(mat: dict):
        rest = dict(mat)
        coords = {}
        for (i, j), idx in root_index.items():
            v = rest.pop((i - 1, j - 1), None)
            if v is not None and not field.is_zero(v):
                coords[idx] = v
        # remainder must be traceless diagonal: prefix sums give H coefficients
        diag = [rest.pop((k, k), field.zero) for k in range(n)]
        if rest:
            raise InvalidStructure(f"{name}: span not closed under commutator at {rest}")
        acc = field.zero
        for k in range(n - 1):
            acc = field.add(acc, diag[k])
            if not field.is_zero(acc):
                coords[len(roots) + k] = acc
        if not field.is_zero(field.add(acc, diag[n - 1])):
            raise InvalidStructure(f"{name}: commutator has nonzero trace")
        return coords

    brackets = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            c = _sp_commutator(field, basis_mats[a], basis_mats[b])
            if c:
                row = extract(c)
                if row:
                    brackets[(a, b)] = row
    return StructureConstantAlgebra(name, field, dim, names, brackets)


def build_seaweed(spec: SeaweedSpec, field) -> StructureConstantAlgebra:
    if field.char != 0 and field.char <= spec.n:
        raise BadCharacteristic(
            f"seaweeds need characteristic 0 or p > n, got p={field.char}, n={spec.n}"
        )
    return _staircase_algebra(spec.label(), field, spec.n, spec.roots())


# ---------------------------------------------------------------------------
# catalog


def _build_gl_like(name, field, n, positions):
    index = {p: i for i, p in enumerate(positions)}
    one = field.one
    brackets = {}
    for a, (i, j) in enumerate(positions):
        for b in range(a + 1, len(positions)):
            k, l = positions[b]
            row = {}
            if j == k:
                idx = index[(i, l)]
                row[idx] = field.add(row.get(idx, field.zero), one)
            if l == i:
                idx = index[(k, j)]
                row[idx] = field.sub(row.get(idx, field.zero), one)
            row = {k2: v for k2, v in row.items() if not field.is_zero(v)}
            if row:
                brackets[(a, b)] = row
    names = [f"E{i + 1}{j + 1}" if n < 10 else f"E{i + 1},{j + 1}" for i, j in positions]
    return StructureConstantAlgebra(name, field, len(positions), names, brackets)


def build_gl(field, n):
    if n < 1:
        raise BadParams("gl needs n >= 1")
    return _build_gl_like(f"gl({n})", field, n, [(i, j) for i in range(n) for j in range(n)])


def build_t(field, n):
    if n < 1:
        raise BadParams("t needs n >= 1")
    return _build_gl_like(
        f"t({n})", field, n, [(i, j) for i in range(n) for j in range(n) if i <= j]
    )


def build_n(field, n):
    if n < 1:
        raise BadParams("n needs n >= 1")
    return _build_gl_like(
        f"n({n})", field, n, [(i, j) for i in range(n) for j in range(n) if i < j]
    )


def build_sl(field, n):
    if n < 2:
        raise BadParams("sl needs n >= 2")
    if n == 2:
        one = field.one
        two = field.add(one, one)
        return StructureConstantAlgebra(
            "sl(2)",
            field,
            3,
            ["e", "h", "f"],
            {
                (0, 1): {0: field.neg(two)},
                (0, 2): {1: one},
                (1, 2): {2: field.neg(two)},
            },
        )
    if field.char != 0 and field.char <= n:
        # the staircase realization needs the H_k to stay a complement
        raise BadCharacteristic(f"sl({n}) catalog build needs char 0 or p > n")
    alg = _staircase_algebra(
        f"sl({n})", field, n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    )
    return alg


def build_heisenberg(field, k):
    if k < 1:
        raise BadParams("heisenberg needs k >= 1")
    dim = 2 * k + 1
    names = [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(k)] + ["z"]
    brackets = {(i, k + i): {2 * k: field.one} for i in range(k)}
    return StructureConstantAlgebra(f"heisenberg({k})", field, dim, names, brackets)


def build_abelian(field, d):
    if d < 0:
        raise BadParams("abelian needs d >= 0")
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


_E57_SLOTS = [
    None,  # index 0 is the repeated diagonal parameter
    (0, 2),
    (0, 3),
    (0, 4),
    (1, 2),
    (1, 3),
    (1, 4),
    (2, 4),
    (3, 4),
]
_E57_NAMES = ["a", "a13", "a14", "a15", "a23", "a24", "a25", "a35", "a45"]


def _e57_matrix(field, coords):
    mat = {}
    a = coords[0]
    if not field.is_zero(a):
        for k in range(4):
            mat[(k, k)] = a
    for idx in range(1, 9):
        if not field.is_zero(coords[idx]):
            mat[_E57_SLOTS[idx]] = coords[idx]
    return mat


def _e57_extract(field, mat):
    rest = dict(mat)
    coords = [field.zero] * 9
    for idx in range(1, 9):
        v = rest.pop(_E57_SLOTS[idx], None)
        if v is not None:
            coords[idx] = v
    if rest:
        raise InvalidStructure(f"commutator left the 9-parameter family: {rest}")
    return coords


def build_example_5_7(field):
    """Nine-dimensional family of 5x5 matrices with trivial center.

    A member has the scalar a on the first four diagonal entries, free
    entries at (1,3),(1,4),(1,5),(2,3),(2,4),(2,5),(3,5),(4,5) (1-based),
    and zeros elsewhere.  Commutators of members land in the four positions
    of the last column, so the family is commutator-closed.
    """
    basis_mats = []
    for idx in range(9):
        coords = [field.zero] * 9
        coords[idx] = field.one
        basis_mats.append(_e57_matrix(field, coords))
    brackets = {}
    for i in range(9):
        for j in range(i + 1, 9):
            c = _sp_commutator(field, basis_mats[i], basis_mats[j])
            coords = _e57_extract(field, c)
            row = {k: v for k, v in enumerate(coords) if not field.is_zero(v)}
            if row:
                brackets[(i, j)] = row
    return StructureConstantAlgebra("example_5_7", field, 9, _E57_NAMES, brackets)


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
