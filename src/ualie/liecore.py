"""Lie algebras presented by structure constants over an exact field.

An algebra stores only the brackets [e_i, e_j] for i < j as sparse
coefficient rows; antisymmetry supplies the rest, so alternation holds by
construction and validation reduces to the Jacobi identity, which is checked
exhaustively over all basis triples from a table of basis brackets.
Elements are plain coordinate lists of raw scalars in the algebra's field.
"""

from __future__ import annotations

from .errors import DimensionMismatch, InvalidStructure
from .linalg import Subspace, kernel_dim_fast, span_and_kernel
from .scalars import field_from_json

DIM_CAP = 1 << 16  # lists of length dim are built per basis index


class ValidationReport:
    def __init__(self, ok: bool, jacobi_failures: list):
        self.ok = ok
        self.jacobi_failures = jacobi_failures  # [(i, j, k, defect coordinate list)]

    def first_failure(self):
        return self.jacobi_failures[0] if self.jacobi_failures else None


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

    def ad_matrix(self, x) -> list:
        """The nonzero sparse rows k, ascending, of ad(x): ``{j: coefficient of
        e_k in [x, e_j]}``.  Built straight from the brackets, not from
        `basis_ads`, for the independent re-verification of a witness."""
        if len(x) != self.dim:
            raise DimensionMismatch("element has wrong length")
        F = self.field
        rows = {}
        for (i, j), row in self.brackets.items():
            # [x, e_j] gains x_i [e_i, e_j] and [x, e_i] gains -x_j [e_i, e_j]
            for col, xc in ((j, x[i]), (i, F.neg(x[j]))):
                if F.is_zero(xc):
                    continue
                for k, s in row.items():
                    acc = rows.setdefault(k, {})
                    acc[col] = F.add(acc.get(col, F.zero), F.mul(xc, s))
        out = ({j: c for j, c in rows[k].items() if not F.is_zero(c)} for k in sorted(rows))
        return [row for row in out if row]

    def basis_ads(self):
        """Sparse rows of each ad(e_i) from the structure constants, computed
        once per algebra: ``basis_ads()[i]`` maps k to row k of ad(e_i),
        ``{j: coefficient of e_k in [e_i, e_j]}``; zero rows are left out."""
        if self._basis_ads is None:
            F = self.field
            ads = [{} for _ in range(self.dim)]
            for (i, j), row in self.brackets.items():
                for k, c in row.items():
                    ads[i].setdefault(k, {})[j] = c
                    ads[j].setdefault(k, {})[i] = F.neg(c)
            self._basis_ads = ads
        return self._basis_ads

    def ad_rows(self, x) -> list:
        """The nonzero sparse rows of ad(x), as sum_i x_i ad(e_i)."""
        if len(x) != self.dim:
            raise DimensionMismatch("element has wrong length")
        F = self.field
        rows = {}
        for xi, ad in zip(x, self.basis_ads()):
            if F.is_zero(xi):
                continue
            for k, row in ad.items():
                acc = rows.setdefault(k, {})
                for j, c in row.items():
                    acc[j] = F.add(acc.get(j, F.zero), F.mul(xi, c))
        out = []
        for row in rows.values():
            row = {j: c for j, c in row.items() if not F.is_zero(c)}
            if row:
                out.append(row)
        return out

    def centralizer(self, x) -> Subspace:
        """C(x), the kernel of the sparse rows of ad(x)."""
        return span_and_kernel(self.field, self.dim, self.ad_rows(x))[1]

    def center(self) -> Subspace:
        """Kernel of the stacked basis adjoints, computed once per algebra.

        The rows are those of `basis_ads`; `span_and_kernel` certifies the
        result.
        """
        if self._center is None:
            rows = [row for ad in self.basis_ads() for row in ad.values()]
            self._center = span_and_kernel(self.field, self.dim, rows)[1]
        return self._center

    def mutual_centralizer_dim(self, a, b) -> int:
        """The dimension of C(a) ∩ C(b): `kernel_dim_fast` of the stacked
        adjoints."""
        return kernel_dim_fast(self.field, self.dim, self.ad_rows(a) + self.ad_rows(b))

    # -- derived structure --------------------------------------------------

    def derived_subalgebra(self) -> Subspace:
        """Span of the brackets [e_i, e_j], computed once per algebra."""
        if self._derived is None:
            rows = list(self.brackets.values())
            self._derived = span_and_kernel(self.field, self.dim, rows)[0]
        return self._derived

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Exhaustive Jacobi check over all basis triples i < j < k.

        A table of [e_a, e_b] for both orders, antisymmetry applied once, is
        built per call; each triple sums [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]]
        + [e_k, [e_i, e_j]] straight from it into one sparse defect.  For
        each (j, k) the table's support names the i for which some term can
        be nonzero; every other triple holds trivially and is skipped.  A
        central e_j (an empty table row) is skipped outright: each of the
        three terms brackets with e_j, so its triples all hold.  Failures
        are listed with (j, k) outer and i inner, i ascending.
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
            if not tj:
                continue
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
        """Read the format `to_json_dict` writes; any other shape raises
        `InvalidStructure` and a bad scalar string the field's `BadParams`."""
        try:
            if not isinstance(obj["field"], dict):
                raise TypeError("field must be an object")
            field = field_from_json(obj["field"])
            dim = obj["dim"]
            if type(dim) is not int:
                raise TypeError(f"dim must be a JSON integer, got {dim!r}")
            if not 0 <= dim <= DIM_CAP:
                raise ValueError(f"dim must lie in [0, {DIM_CAP}], got {dim}")
            name = obj.get("name", "algebra")
            if not isinstance(name, str):
                raise TypeError(f"name must be a JSON string, got {name!r}")
            basis_names = obj.get("basis_names")
            items = obj.get("brackets", [])
            if not isinstance(items, list) or not isinstance(basis_names, (list, type(None))):
                raise TypeError("brackets and basis_names must be lists")
            if basis_names is not None and not all(isinstance(s, str) for s in basis_names):
                raise TypeError("basis_names must be JSON strings")
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidStructure(f"malformed algebra file: {e}") from e
        brackets = {}
        for item in items:
            try:
                i, j = item["i"], item["j"]
                if type(i) is not int or type(j) is not int:
                    raise TypeError(f"i and j must be JSON integers, got {i!r} and {j!r}")
                coeffs = item["coeffs"]
                if not isinstance(coeffs, dict) or not all(
                    isinstance(s, str) for s in coeffs.values()
                ):
                    raise TypeError("coeffs must map basis indices to scalar strings")
                # "01" or " 1" would read as 1 and could overwrite its twin
                bad = [k for k in coeffs if k != str(int(k))]
                if bad:
                    raise ValueError(f"basis indices {bad} are not written canonically")
                row = {int(k): s for k, s in coeffs.items()}
            except (KeyError, TypeError, ValueError) as e:
                raise InvalidStructure(f"malformed bracket entry: {e}") from e
            if i >= j:
                raise InvalidStructure(
                    f"bracket entry has i >= j ({i} >= {j}); store only i < j"
                )
            if (i, j) in brackets:
                raise InvalidStructure(f"duplicate bracket entry for ({i},{j})")
            brackets[(i, j)] = {k: field.parse(s) for k, s in row.items()}
        return cls(name, field, dim, basis_names, brackets)

    def __repr__(self):
        return f"<{self.name}: dim {self.dim} over {self.field!r}>"

