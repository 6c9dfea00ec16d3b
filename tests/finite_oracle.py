"""The exhaustive ring-axiom scan and the entry-by-entry table expansion,
kept as the oracles that `ualie.finite` is checked against.

Both are the code as it stood before `FiniteLieRing.validate` decided
acceptance from a generating set and `from_algebra` built its tables by
additivity: `validate` is the O(N^3) scan (``self`` renamed ``ring``), and
`expand` is `from_algebra` without its cap and its axiom check, so it also
expands structure constants that break Jacobi.
"""

from ualie.finite import FiniteLieRing, FiniteValidation


def validate(ring) -> FiniteValidation:
    """Exhaustive axiom check: abelian group, ℤ-bilinear alternating
    bracket, Jacobi.  O(N^3) table lookups."""
    fails: list = []

    def note(msg):
        if len(fails) < 8:
            fails.append(msg)

    if not ring.well_formed():
        return FiniteValidation(False, ["tables malformed (shape or out-of-range entry)"])
    N, add, neg, brk = ring.order, ring.add, ring.neg, ring.bracket
    for a in range(N):
        if add[a][0] != a:
            note(f"0 is not neutral at {a}")
        if add[a][neg[a]] != 0:
            note(f"neg({a}) is not an inverse")
        for b in range(N):
            if add[a][b] != add[b][a]:
                note(f"addition not commutative at ({a},{b})")
    for a in range(N):
        for b in range(N):
            ab = add[a][b]
            for c in range(N):
                if add[ab][c] != add[a][add[b][c]]:
                    note(f"addition not associative at ({a},{b},{c})")
                    break
    for a in range(N):
        if brk[a][a] != 0:
            note(f"[x,x] != 0 at {a}")
        for b in range(N):
            if brk[a][b] != neg[brk[b][a]]:
                note(f"bracket not antisymmetric at ({a},{b})")
    for a in range(N):
        for b in range(N):
            ab = add[a][b]
            for c in range(N):
                if brk[ab][c] != add[brk[a][c]][brk[b][c]]:
                    note(f"bracket not additive in the left slot at ({a},{b},{c})")
                    break
    for a in range(N):
        for b in range(N):
            for c in range(N):
                j = add[add[brk[brk[a][b]][c]][brk[brk[b][c]][a]]][brk[brk[c][a]][b]]
                if j != 0:
                    note(f"Jacobi fails at ({a},{b},{c})")
                    break
    return FiniteValidation(not fails, fails)


def vector_index(v, p: int) -> int:
    idx = 0
    for k, digit in enumerate(v):
        idx += int(digit) * p**k
    return idx


def index_vector(idx: int, p: int, dim: int):
    return [(idx // p**k) % p for k in range(dim)]


def expand(g) -> FiniteLieRing:
    """The tables of a structure-constant algebra over F_p, one ``g.bracket``
    call per entry; element i is the vector of its base-p digits."""
    p = g.field.order
    N = p**g.dim
    vecs = [index_vector(i, p, g.dim) for i in range(N)]
    add = [[vector_index([(a + b) % p for a, b in zip(vecs[i], vecs[j])], p)
            for j in range(N)] for i in range(N)]
    neg = [vector_index([(-a) % p for a in vecs[i]], p) for i in range(N)]
    bracket = [[vector_index(g.bracket(vecs[i], vecs[j]), p) for j in range(N)]
               for i in range(N)]
    return FiniteLieRing(f"{g.name}/F_{p}", N, add, neg, bracket)
