"""Output checks that do not use the package's own linear algebra.

A UA witness (a, b) claims that no nonzero x commutes with both a and b.
`witness_ok` re-checks that claim from the structure constants with the
small exact rank routine below, and `seaweed_witness_ok` from matrix
commutators in sl_n, so neither trusts `ualie.linalg` or `ualie._kernels`.
"""

from __future__ import annotations

from fractions import Fraction


def rank_exact(rows, ncols):
    """Rank over Q by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][c] / prow[c]
            if f:
                row = m[r]
                for j in range(c, ncols):
                    row[j] -= f * prow[j]
        rank += 1
    return rank


def _ad_rows(brackets, dim, x):
    """Rows of ad(x) (column j is [x, e_j]) from i < j structure constants."""
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, j), row in brackets.items():
        for k, c in row.items():
            c = Fraction(c)
            if x[i]:
                rows[k][j] += x[i] * c
            if x[j]:
                rows[k][i] -= x[j] * c
    return rows


def witness_ok(brackets, dim, witness) -> bool:
    """C(a) ∩ C(b) = 0 for a witness given as coordinate strings."""
    a = [Fraction(s) for s in witness["a"]]
    b = [Fraction(s) for s in witness["b"]]
    if len(a) != dim or len(b) != dim:
        return False
    return rank_exact(_ad_rows(brackets, dim, a) + _ad_rows(brackets, dim, b), dim) == dim


def seaweed_witness_ok(n, roots, witness) -> bool:
    """The same claim for a seaweed, from matrix commutators in sl_n.

    The basis is the root vectors E_ij in sorted order followed by
    H_k = E_kk - E_(k+1)(k+1); x ranges over that basis and each column of
    the stacked matrix holds the entries of [a, x] and [b, x].
    """
    roots = sorted(roots)
    dim = len(roots) + n - 1
    basis = [{(i - 1, j - 1): 1} for i, j in roots]
    basis += [{(k, k): 1, (k + 1, k + 1): -1} for k in range(n - 1)]

    def element(coords):
        out: dict = {}
        for c, mat in zip(coords, basis):
            if c:
                for pos, v in mat.items():
                    out[pos] = out.get(pos, 0) + c * v
        return out

    def commutator(x, y):
        out: dict = {}
        for (i, j), u in x.items():
            for (k, l), v in y.items():
                if j == k:
                    out[(i, l)] = out.get((i, l), 0) + u * v
                if l == i:
                    out[(k, j)] = out.get((k, j), 0) - v * u
        return out

    coords = [[Fraction(s) for s in witness[key]] for key in ("a", "b")]
    if any(len(c) != dim for c in coords):
        return False
    elements = [element(c) for c in coords]
    index = {(r, c): r * n + c for r in range(n) for c in range(n)}
    rows = [[Fraction(0)] * dim for _ in range(2 * n * n)]
    for col, x in enumerate(basis):
        for half, el in enumerate(elements):
            for pos, v in commutator(el, x).items():
                rows[half * n * n + index[pos]][col] += v
    return rank_exact(rows, dim) == dim


def check_report(rep, verdict, rule, witness_check=None):
    """None when a verdict report matches the expected table, else a reason."""
    got = (rep.get("verdict"), rep.get("rule"))
    if got != (verdict, rule):
        return f"got {got[0]}/{got[1]}, expected {verdict}/{rule}"
    if verdict == "UA":
        if not rep.get("witness") or witness_check is None:
            return "UA without a witness"
        if not witness_check(rep["witness"]):
            return "UA witness fails the exact rank check"
    elif verdict == "NOT_UA":
        return check_swap(rep.get("bijection"))
    elif not rep.get("open_problem_note"):
        return "UNKNOWN without a note"
    return None


def check_swap(bijection):
    if not bijection or bijection.get("kind") != "swap_pair":
        return "NOT_UA without a swap-pair certificate"
    if not bijection.get("verified"):
        return "swap certificate not verified"
    bad = [o["check"] for o in bijection.get("obligations", []) if not o.get("ok")]
    if bad or not bijection.get("obligations"):
        return f"swap obligations fail: {bad}"
    return None


# ---------------------------------------------------------------------------
# finite rings


def nonadditive_map_ok(r, s, evidence) -> bool:
    """A commutator-preserving bijection r -> s that breaks additivity at a pair.

    ``r`` and ``s`` are table dicts ({"add", "bracket"}); ``evidence`` holds
    the map and the pair (a, b) with map(a+b) != map(a) + map(b).
    """
    alpha, (a, b) = evidence["map"], evidence["pair"]
    n = len(r["add"])
    if sorted(alpha) != list(range(n)) or alpha[0] != 0:
        return False
    rb, sb = r["bracket"], s["bracket"]
    if any(alpha[rb[x][y]] != sb[alpha[x]][alpha[y]] for x in range(n) for y in range(n)):
        return False
    return alpha[r["add"][a][b]] != s["add"][alpha[a]][alpha[b]]
