"""The per-family matrix builders, kept as the oracle that
`ualie.constructions` is checked against.

They are the builders as they stood before every matrix family went
through one pivot-reading builder: gl, t and n from a closed form for the
commutators of matrix units, sl(n >= 3) and the seaweeds from staircase
matrices with a coordinate extractor of their own (prefix sums for the
diagonal, a trace check), sl(2) from hand-written constants, and
example_5_7 from a slot table with its own matrix and extractor helpers.
The sparse commutator is copied too, so no code is shared with the
package.  Each ``build_*`` keeps its parameter and characteristic guards.
"""

from ualie.errors import BadCharacteristic, BadParams, InvalidStructure
from ualie.liecore import StructureConstantAlgebra


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
    """Algebra spanned by root positions (1-based) plus the traceless diagonal:
    E_ij for each root in row-major order, then H_k = E_kk - E_{k+1,k+1}."""
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


def build_seaweed(spec, field) -> StructureConstantAlgebra:
    if field.char != 0 and field.char <= spec.n:
        raise BadCharacteristic(
            f"seaweeds need characteristic 0 or p > n, got p={field.char}, n={spec.n}"
        )
    return _staircase_algebra(spec.label(), field, spec.n, spec.roots())


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
        raise BadCharacteristic(f"sl({n}) catalog build needs char 0 or p > n")
    return _staircase_algebra(
        f"sl({n})", field, n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
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
