"""Lie algebras presented by structure constants over an exact field.

An algebra stores only the brackets [e_i, e_j] for i < j as sparse
coefficient rows; antisymmetry supplies the rest, so alternation holds by
construction and validation reduces to the Jacobi identity, which is checked
exhaustively over all basis triples from a table of basis brackets.
Elements are plain coordinate lists of raw scalars in the algebra's field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DimensionMismatch, InvalidStructure
from .linalg import Matrix, Subspace, kernel, kernel_dim_fast, span_and_kernel
from .scalars import field_from_json


@dataclass
class ValidationReport:
    ok: bool
    jacobi_failures: list  # [(i, j, k, defect coordinate list)]

    def first_failure(self):
        return self.jacobi_failures[0] if self.jacobi_failures else None


@dataclass
class SeriesResult:
    kind: str  # "derived" | "lower_central"
    subspaces: list  # strictly decreasing chain, starts at the full algebra
    reaches_zero: bool

    @property
    def dims(self):
        return tuple(s.dim for s in self.subspaces)


class StructureConstantAlgebra:
    """Finite-dimensional Lie algebra given by sparse structure constants.

    ``brackets`` maps (i, j) with i < j to {k: coefficient}; zero
    coefficients are dropped at construction.
    """

    def __init__(self, name, field, dim, basis_names=None, brackets=None):
        self.name = name
        self.field = field
        self.dim = dim
        if basis_names is None:
            basis_names = [f"e{i + 1}" for i in range(dim)]
        if len(basis_names) != dim:
            raise DimensionMismatch("basis_names length must equal dim")
        self.basis_names = list(basis_names)
        clean = {}
        for (i, j), row in (brackets or {}).items():
            if not (0 <= i < j < dim):
                raise InvalidStructure(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            crow = {}
            for k, c in row.items():
                if not 0 <= k < dim:
                    raise InvalidStructure(f"bracket ({i},{j}) hits invalid index {k}")
                if not field.is_zero(c):
                    crow[k] = c
            if crow:
                clean[(i, j)] = crow
        self.brackets = clean
        self._basis_ads = None
        self._center = None
        self._derived = None

    # -- elements ---------------------------------------------------------

    def zero_vector(self):
        return [self.field.zero] * self.dim

    def basis_vector(self, i):
        v = self.zero_vector()
        v[i] = self.field.one
        return v

    # -- bracket ----------------------------------------------------------

    def bracket(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element has wrong length")
        F = self.field
        out = [F.zero] * self.dim
        for (i, j), row in self.brackets.items():
            c = F.sub(F.mul(x[i], y[j]), F.mul(x[j], y[i]))
            if not F.is_zero(c):
                for k, s in row.items():
                    out[k] = F.add(out[k], F.mul(c, s))
        return out

    # -- adjoint operators and centralizers --------------------------------

    def ad_matrix(self, x) -> Matrix:
        """Matrix of y -> [x, y] in the basis (column j is [x, e_j])."""
        if len(x) != self.dim:
            raise DimensionMismatch("element has wrong length")
        F = self.field
        n = self.dim
        ents = [F.zero] * (n * n)
        for (i, j), row in self.brackets.items():
            xi, xj = x[i], x[j]
            if not F.is_zero(xi):
                for k, s in row.items():
                    ents[k * n + j] = F.add(ents[k * n + j], F.mul(xi, s))
            if not F.is_zero(xj):
                for k, s in row.items():
                    ents[k * n + i] = F.sub(ents[k * n + i], F.mul(xj, s))
        return Matrix(F, n, n, ents)

    def basis_ads(self):
        if self._basis_ads is None:
            self._basis_ads = [self.ad_matrix(self.basis_vector(i)) for i in range(self.dim)]
        return self._basis_ads

    def centralizer(self, x) -> Subspace:
        return kernel(self.ad_matrix(x))

    def center(self) -> Subspace:
        """Kernel of the stacked basis adjoints, computed once per algebra.

        Row (i, k) of the stack is row k of ad(e_i): the coefficient of e_k
        in [e_i, e_j] sits in column j.  The rows come straight from the
        sparse structure constants; `span_and_kernel` certifies the result.
        """
        if self._center is None:
            F = self.field
            rows = {}
            for (i, j), row in self.brackets.items():
                for k, c in row.items():
                    rows.setdefault((i, k), {})[j] = c
                    rows.setdefault((j, k), {})[i] = F.neg(c)
            self._center = span_and_kernel(F, self.dim, list(rows.values()))[1]
        return self._center

    def mutual_centralizer_dim(self, a, b) -> int:
        """dim (C(a) intersect C(b)) as the nullity of the stacked adjoints."""
        stacked = self.ad_matrix(a).stack(self.ad_matrix(b))
        return kernel_dim_fast(stacked)

    # -- derived structure --------------------------------------------------

    def derived_subalgebra(self) -> Subspace:
        """Span of the brackets [e_i, e_j], computed once per algebra."""
        if self._derived is None:
            rows = list(self.brackets.values())
            self._derived = span_and_kernel(self.field, self.dim, rows)[0]
        return self._derived

    def subspace_bracket(self, u: Subspace, v: Subspace) -> Subspace:
        vecs = []
        for i in range(u.dim):
            ui = u.basis.row(i)
            for j in range(v.dim):
                vecs.append(self.bracket(ui, v.basis.row(j)))
        return Subspace.from_spanning(self.field, self.dim, vecs)

    def series(self, kind: str) -> SeriesResult:
        if kind not in ("derived", "lower_central"):
            raise ValueError("kind must be 'derived' or 'lower_central'")
        full = Subspace.full(self.field, self.dim)
        chain = [full]
        cur = full
        while cur.dim > 0:
            nxt = (
                self.subspace_bracket(cur, cur)
                if kind == "derived"
                else self.subspace_bracket(full, cur)
            )
            if nxt.dim == cur.dim:
                break  # stabilized above zero
            chain.append(nxt)
            cur = nxt
        return SeriesResult(kind, chain, cur.dim == 0)

    def is_solvable(self) -> bool:
        return self.series("derived").reaches_zero

    def is_nilpotent(self) -> bool:
        return self.series("lower_central").reaches_zero

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Exhaustive Jacobi check over all basis triples i < j < k.

        A table of [e_a, e_b] for both orders, antisymmetry applied once, is
        built per call; each triple sums [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]]
        + [e_k, [e_i, e_j]] straight from it into one sparse defect.  For
        each (j, k) the table's support names the i for which some term can
        be nonzero; every other triple holds trivially and is skipped.
        Failures are listed with (j, k) outer and i inner, i ascending.
        """
        F = self.field
        add, mul, zero = F.add, F.mul, F.zero
        n = self.dim
        table = [{} for _ in range(n)]  # table[a][b] = [e_a, e_b], sparse
        for (a, b), row in self.brackets.items():
            table[a][b] = row
            table[b][a] = {k: F.neg(c) for k, c in row.items()}
        empty = {}
        failures = []
        for j in range(n):
            tj = table[j]
            for k in range(j + 1, n):
                tk = table[k]
                row_jk = tj.get(k, empty)
                # only i with [e_k, e_i], [e_i, e_j] or some [e_i, e_l], l in
                # [e_j, e_k], nonzero can fail
                support = set(tk).union(tj, *(table[l] for l in row_jk))
                for i in sorted(x for x in support if x < j):
                    ti = table[i]
                    acc = {}
                    for tx, d in ((ti, row_jk), (tj, tk.get(i, empty)), (tk, ti.get(j, empty))):
                        for l, cl in d.items():
                            for kk, s in tx.get(l, empty).items():
                                acc[kk] = add(acc.get(kk, zero), mul(cl, s))
                    if any(not F.is_zero(c) for c in acc.values()):
                        defect = [zero] * n
                        for kk, c in acc.items():
                            defect[kk] = c
                        failures.append((i, j, k, defect))
        return ValidationReport(not failures, failures)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        F = self.field
        items = []
        for (i, j) in sorted(self.brackets):
            row = self.brackets[(i, j)]
            items.append(
                {
                    "i": i,
                    "j": j,
                    "coeffs": {str(k): F.format(row[k]) for k in sorted(row)},
                }
            )
        return {
            "name": self.name,
            "field": F.to_json(),
            "dim": self.dim,
            "basis_names": self.basis_names,
            "brackets": items,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "StructureConstantAlgebra":
        try:
            field = field_from_json(obj["field"])
            dim = int(obj["dim"])
            name = obj.get("name", "algebra")
            basis_names = obj.get("basis_names")
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidStructure(f"malformed algebra file: {e}") from e
        brackets = {}
        for item in obj.get("brackets", []):
            try:
                i, j = int(item["i"]), int(item["j"])
                coeffs = item["coeffs"]
            except (KeyError, TypeError, ValueError) as e:
                raise InvalidStructure(f"malformed bracket entry: {e}") from e
            if i >= j:
                raise InvalidStructure(
                    f"bracket entry has i >= j ({i} >= {j}); store only i < j"
                )
            if (i, j) in brackets:
                raise InvalidStructure(f"duplicate bracket entry for ({i},{j})")
            brackets[(i, j)] = {int(k): field.parse(s) for k, s in coeffs.items()}
        return cls(name, field, dim, basis_names, brackets)

    @classmethod
    def load(cls, path) -> "StructureConstantAlgebra":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as e:
                raise InvalidStructure(f"not valid JSON: {e}") from e
        return cls.from_json_dict(obj)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def __repr__(self):
        return f"<{self.name}: dim {self.dim} over {self.field!r}>"

