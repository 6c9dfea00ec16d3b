"""Decision procedures for the unique-addition property.

Positive route: over an infinite field, an algebra whose center is zero and
which carries two elements with trivially intersecting centralizers (the
C-condition) has unique addition.  The search for such a pair runs a fixed
deterministic candidate schedule first and then seeded random trials; a miss
is only probabilistic and the report carries the exact failure bound (it
always misses on example_5_7: zero center, yet any two centralizers meet).

Negative route: a constructive criterion that swaps two carefully chosen
elements and fixes everything else.  When its hypotheses hold (more than
four elements, proper derived subalgebra, nonzero center, and more than two
cosets of the derived subalgebra if the center meets it trivially), the
swap preserves all commutators but breaks additivity, so the algebra cannot
have unique addition.  The three cases (commutative; center meeting the
derived subalgebra trivially; nontrivially) pick different swap pairs.

Also here: ampleness of seaweed root sets, a verdict driver combining the
above, and a central-extension injection that turns any non-perfect algebra
over a field with at least three scalars into a commutator-preserving,
non-additive embedding witness.

A `VerdictReport` reads its header (name, field, dimension, center
dimension, derived codimension) off the algebra and starts UNKNOWN; the
route that decides the question fills in only what it decides.
`check_ample` returns the dict that becomes a seaweed report's ``seaweed``
block, and `negative_criterion` the `BijectionDescription` (case, swap,
obligations, non-additivity witness) that becomes its ``bijection``.
"""

from __future__ import annotations

from . import _kernels
from .constructions import SeaweedSpec, build_abelian, build_seaweed, direct_sum
from .errors import (
    HypothesesNotMet,
    PerfectAlgebra,
    UnsupportedField,
)
from .liecore import StructureConstantAlgebra
from .linalg import (
    Subspace,
    integerized_entries,
    kernel_dim_fast,
    span_and_kernel,
    vec_add,
    vec_scale,
    vec_sub,
    vector_is_zero,
    vectors_equal,
)
from .rng import DEFAULT_SEED, OFFSET_C_CONDITION, XorShift64Star, child_seed

OUTCOME_HOLDS = "Holds"
OUTCOME_PROBABLY_FAILS = "ProbablyFails"
OUTCOME_CERTIFIED_FAILS = "CertifiedFails"

VERDICT_UA = "UA"
VERDICT_NOT_UA = "NOT_UA"
VERDICT_UNKNOWN = "UNKNOWN"

RULE_C_CONDITION = "C_CONDITION"
RULE_NEG_CASE = {1: "NEG_CASE_1", 2: "NEG_CASE_2", 3: "NEG_CASE_3"}
RULE_AMPLE_SEAWEED = "AMPLE_SEAWEED"
RULE_TRIVIAL_DIM_0 = "TRIVIAL_DIM_0"
RULE_NONE = "NONE"

NOTE_OPEN_TRIVIAL_CENTER = (
    "Open question: can a Lie ring with zero center fail unique addition? "
    "No example is known; the randomized search only bounds the chance that "
    "a disjoint centralizer pair was missed."
)
NOTE_OPEN_PERFECT_CENTER = (
    "Open question: does a perfect Lie algebra with nonzero center have "
    "unique addition? Both implemented criteria are silent here."
)

DEFAULT_TRIALS = 64
DEFAULT_BOUND = 1024


def _random_vector(field, n, rng, bound):
    return [field.random(rng, bound) for _ in range(n)]


def _format_vec(field, v):
    return [field.format(x) for x in v]


# ---------------------------------------------------------------------------
# C-condition


class CConditionResult:
    def __init__(self, outcome: str, witness: tuple | None, trials_run: int,
                 failure_bound: str | None, certificate: str | None):
        self.outcome = outcome
        self.witness = witness  # (a, b) coordinate lists
        self.trials_run = trials_run
        self.failure_bound = failure_bound  # e.g. "(9/2049)^64"
        self.certificate = certificate

    def witness_json(self, field):
        if self.witness is None:
            return None
        return {"a": _format_vec(field, self.witness[0]), "b": _format_vec(field, self.witness[1])}


def _verify_witness_exactly(g, a, b) -> bool:
    """Independent re-verification over Q that C(a) and C(b) meet only in zero.

    The integerized sparse stack [ad a; ad b], its rows built straight from
    the brackets (`ad_matrix`), must have rank dim by fraction-free
    elimination over Z (`_kernels.int_rank`), which shares no step with the
    modular certificate that found the pair.
    """
    rows = integerized_entries(g.ad_matrix(a) + g.ad_matrix(b))
    return _kernels.int_rank(rows, len(rows), g.dim) == g.dim


def c_condition(
    g: StructureConstantAlgebra,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    bound: int = DEFAULT_BOUND,
) -> CConditionResult:
    """Search for a pair of elements with trivially intersecting centralizers.

    The algebra must be over Q.  A nonzero center certifies failure
    outright; the deterministic schedule tries the unordered basis pairs
    i < j (the mutual centralizer is symmetric and (i, i) always fails),
    then each basis vector against the sum of all basis vectors, then the
    even-indexed sum against the odd-indexed sum; finally ``trials`` random
    pairs with coordinates uniform in [-bound, bound].  Every candidate is
    decided by the nullity `kernel_dim_fast` reads off the modular
    certificate (an exact integer rank, when it fails).  The second stage
    keeps every kernel vector the certificate proves: each lies in C(sum)
    exactly, so a later e_i that one of them also commutes with
    (ad(e_i) v = 0 in exact arithmetic) is rejected without elimination.
    A found witness is re-verified through an independent exact route
    before being reported.  Any other field raises
    ``UnsupportedField``: the criterion needs infinitely many scalars.
    """
    F = g.field
    n = g.dim
    if F.kind != "Q":
        raise UnsupportedField("the C-condition search runs over Q only")
    if g.center().dim > 0:
        return CConditionResult(OUTCOME_CERTIFIED_FAILS, None, 0, None, "nontrivial center")

    full = (1 << n) - 1

    def adjoint(rows):
        # the sparse rows of ad(x), with the mask of their nonzero columns
        mask = 0
        for row in rows:
            for c in row:
                mask |= 1 << c
        return rows, mask

    def commutes(ad_rows, v):
        # ad(x) v = 0 in exact arithmetic, for the sparse rows of ad(x)
        return not any(sum(y * v.get(c, 0) for c, y in row.items()) for row in ad_rows)

    def try_pair(a, b, ad_a, ad_b, proved=None):
        # a basis vector commuting with both elements (a column zero in
        # both adjoints) forces a nonzero mutual centralizer, and so does a
        # vector of ``proved`` (exact elements of C(b)) that ad(a) kills, so
        # such pairs are rejected without elimination
        if ad_a[1] | ad_b[1] != full:
            return False
        if proved and any(commutes(ad_a[0], v) for v in proved):
            return False
        if kernel_dim_fast(F, n, ad_a[0] + ad_b[0], proved) != 0:
            return False
        if not _verify_witness_exactly(g, a, b):
            raise HypothesesNotMet("witness failed exact re-verification")
        return True

    basis = [g.basis_vector(i) for i in range(n)]
    ads = [adjoint(list(ad.values())) for ad in g.basis_ads()]
    for i in range(n):
        for j in range(i + 1, n):
            if try_pair(basis[i], basis[j], ads[i], ads[j]):
                return CConditionResult(OUTCOME_HOLDS, (basis[i], basis[j]), 0, None, None)
    sum_all = [F.one] * n
    ad_sum = adjoint(g.ad_rows(sum_all))
    proved = []
    for i in range(n):
        if try_pair(basis[i], sum_all, ads[i], ad_sum, proved):
            return CConditionResult(OUTCOME_HOLDS, (basis[i], sum_all), 0, None, None)
    sum_even = [F.one if i % 2 == 0 else F.zero for i in range(n)]
    sum_odd = [F.one if i % 2 == 1 else F.zero for i in range(n)]
    if try_pair(sum_even, sum_odd,
                adjoint(g.ad_rows(sum_even)), adjoint(g.ad_rows(sum_odd))):
        return CConditionResult(OUTCOME_HOLDS, (sum_even, sum_odd), 0, None, None)

    rng = XorShift64Star(seed)
    for t in range(1, trials + 1):
        a = _random_vector(F, n, rng, bound)
        b = _random_vector(F, n, rng, bound)
        if try_pair(a, b, adjoint(g.ad_rows(a)), adjoint(g.ad_rows(b))):
            return CConditionResult(OUTCOME_HOLDS, (a, b), t, None, None)
    bound_str = f"({n}/{2 * bound + 1})^{trials}"
    return CConditionResult(OUTCOME_PROBABLY_FAILS, None, trials, bound_str, None)


# ---------------------------------------------------------------------------
# negative criterion


class BijectionDescription:
    def __init__(self, case: int, swap: tuple, obligations: list, nonadditivity: dict):
        self.case = case  # 1, 2, or 3
        self.swap = swap  # (u, v) coordinate lists
        self.obligations = obligations  # [(text, bool)], all verified
        self.nonadditivity = nonadditivity  # {"c": vec, "left": vec, "right": vec}

    def to_json_dict(self, field):
        return {
            "kind": "swap_pair",
            "swap": {
                "u": _format_vec(field, self.swap[0]),
                "v": _format_vec(field, self.swap[1]),
            },
            "obligations": [{"check": t, "ok": ok} for t, ok in self.obligations],
            "nonadditivity": {
                "c": _format_vec(field, self.nonadditivity["c"]),
                "alpha(u+c)": _format_vec(field, self.nonadditivity["left"]),
                "alpha(u)+alpha(c)": _format_vec(field, self.nonadditivity["right"]),
            },
            "verified": True,
        }


def _cardinality(field, dim):
    return None if field.kind == "Q" else field.order**dim


def _nonadditivity_candidates(g):
    """e_k, then nonzero 2e_k and 3e_k.  Past four elements one avoids u, v
    and v - u: over F_2, dim >= 3 and those hold at most two basis vectors;
    elsewhere dim >= 2 gives four candidates; dim 1 (v = 2u) leaves 3e_0."""
    F = g.field
    n = g.dim
    for k in range(n):
        yield g.basis_vector(k)
    for mult in (2, 3):
        c = F.from_int(mult)
        if not F.is_zero(c):
            for k in range(n):
                yield vec_scale(F, c, g.basis_vector(k))


def negative_criterion(g: StructureConstantAlgebra) -> BijectionDescription | None:
    """Constructive swap obstruction to unique addition, or None.

    Hypotheses: more than four elements, derived subalgebra D proper,
    center Z nonzero, and if Z meets D trivially, more than two cosets of D;
    that case swaps a + z1, a + z2 (a in D) when |Z| > 2, and u, u + z for
    the first basis vector u outside D + Z when Z = {0, z}.  The returned
    description carries the case, the swap pair, the exactly verified
    bracket obligations, and a non-additivity witness.
    """
    F = g.field
    card = _cardinality(F, g.dim)
    if card is not None and card <= 4:
        return None
    derived = g.derived_subalgebra()
    if derived.dim == g.dim:
        return None
    center = g.center()
    if center.dim == 0:
        return None
    zder = center.intersect(derived)
    if zder.dim == 0 and _cardinality(F, g.dim - derived.dim) == 2:  # |g/D| >= 2 here
        return None

    if derived.dim == 0:
        case = 1
        u = g.basis_vector(0)
        if g.dim >= 2:
            v = g.basis_vector(1)
        else:
            v = vec_scale(F, F.from_int(2), u)
        obligations = [
            ("all commutators vanish (commutative ring)", not g.brackets),
            ("ad(u) = 0", not g.ad_rows(u)),
            ("ad(v) = 0", not g.ad_rows(v)),
            ("u, v distinct and nonzero",
             not vector_is_zero(F, u) and not vector_is_zero(F, v) and not vectors_equal(F, u, v)),
        ]
    elif zder.dim == 0:
        case = 2
        z1 = center.vector(0)
        if _cardinality(F, center.dim) == 2:
            # Z = {0, z1}: u outside D and D + z1 exists as g/D has > 2 elements
            rows = [*derived.rows.values(), *center.rows.values()]
            u = g.basis_vector(Subspace.from_spanning(F, g.dim, rows).completion()[0])
            v = vec_add(F, u, z1)
        else:
            a = derived.vector(0)
            z2 = center.vector(1) if center.dim >= 2 else vec_scale(F, F.from_int(2), z1)
            u, v = vec_add(F, a, z1), vec_add(F, a, z2)
        obligations = _swap_obligations(g, derived, u, v)
    else:
        case = 3
        z = zder.vector(0)
        # derived is proper, so some basis vector lies outside it
        u = next(e for e in map(g.basis_vector, range(g.dim)) if not derived.contains(e))
        v = vec_add(F, u, z)
        obligations = _swap_obligations(g, derived, u, v)

    if not all(ok for _, ok in obligations):
        raise HypothesesNotMet(f"swap obligations failed: {obligations}")

    excluded = [g.zero_vector(), u, v, vec_sub(F, v, u)]
    cwit = None
    for cand in _nonadditivity_candidates(g):
        if not any(vectors_equal(F, cand, e) for e in excluded):
            cwit = cand
            break
    if cwit is None:
        raise HypothesesNotMet("no non-additivity witness found (ring too small?)")
    left = vec_add(F, u, cwit)  # alpha fixes u + c
    right = vec_add(F, v, cwit)  # alpha(u) + alpha(c) = v + c
    return BijectionDescription(case, (u, v), obligations,
                                {"c": cwit, "left": left, "right": right})


def _swap_obligations(g, derived, u, v):
    F = g.field
    same_ad = not g.ad_rows(vec_sub(F, u, v))  # ad is linear
    return [
        ("u outside the derived subalgebra (commutator values are fixed)", not derived.contains(u)),
        ("v outside the derived subalgebra (commutator values are fixed)", not derived.contains(v)),
        ("ad(u) = ad(v) (brackets cannot tell u from v)", same_ad),
        ("[u, v] = 0", vector_is_zero(F, g.bracket(u, v))),
        ("u != v", not vectors_equal(F, u, v)),
    ]


# ---------------------------------------------------------------------------
# seaweed ampleness


def check_ample(roots, n: int) -> dict:
    """Do the root differences e_i - e_j span the full traceless space?

    Equivalently: is the graph on {1..n} with one edge per included root
    connected?  Both computations (`_kernels.int_rank` and union-find) run
    and must agree.  Returns the ``seaweed`` block of a report:
    ``root_count``, ``span_dim``, ``components`` and ``ample``.
    """
    roots = sorted(set(roots))
    span_dim = _kernels.int_rank([{i - 1: 1, j - 1: -1} for (i, j) in roots], len(roots), n)
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in roots:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    components = len({find(i) for i in range(1, n + 1)})
    if span_dim != n - components:
        raise HypothesesNotMet("rank/connectivity bookkeeping disagrees")
    return {"root_count": len(roots), "span_dim": span_dim, "components": components,
            "ample": span_dim == n - 1}


# ---------------------------------------------------------------------------
# central extension injection


class InjectionResult:
    def __init__(self, extended: StructureConstantAlgebra, functional: list, x1: list,
                 witness_pair: tuple, obligations: list):
        self.extended = extended
        self.functional = functional  # row vector phi with phi(derived) = 0, phi(x1) = 1
        self.x1 = x1
        self.witness_pair = witness_pair  # (w1, w2) in g with beta(w1+w2) != beta(w1)+beta(w2)
        self.obligations = obligations  # [(text, bool)]

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok in self.obligations)

    def beta(self, x):
        """The injection g -> g + <z>: x + gamma(phi(x)) z, gamma(0)=0 else 1."""
        F = self.extended.field
        c = F.zero
        for ph, xi in zip(self.functional, x):
            c = F.add(c, F.mul(ph, xi))
        tail = F.zero if F.is_zero(c) else F.one
        return list(x) + [tail]


def central_extension_injection(g: StructureConstantAlgebra) -> InjectionResult:
    """Embed g into g + <z> (z central) preserving commutators, not addition.

    Needs a proper derived subalgebra and at least three scalars.  A linear
    functional phi vanishing on [g, g] with phi(x1) = 1 for some basis-
    completion vector x1 twists the embedding by gamma(phi(x)) z where gamma
    is the indicator of nonzero.  Both facts that preserve commutators are
    exact obligations: phi kills every basis commutator, so it kills
    [g, g]; and the extension brackets g as g does with z central, so
    [beta(x), beta(y)] = [x, y] = beta([x, y]) for all x, y.  Additivity
    fails at beta(x1 + x1) != beta(x1) + beta(x1), as 1 + 1 != 0 over Q and
    every F_p with p >= 3.
    """
    F = g.field
    if F.order is not None and F.order < 3:
        raise UnsupportedField("the twist needs at least three scalars")
    derived = g.derived_subalgebra()
    if derived.dim == g.dim:
        raise PerfectAlgebra("every element is a sum of commutators; no functional kills [g,g] only")

    n = g.dim
    comp = derived.completion()
    x1 = g.basis_vector(comp[0])
    # phi(x1) = 1 and phi kills [g, g] and the other completion vectors:
    # n - 1 independent conditions, so phi spans a kernel of dimension one
    rows = [*derived.rows.values(), *({k: F.one} for k in comp[1:])]
    phi = span_and_kernel(F, n, rows)[1].vector(0)
    phi = vec_scale(F, F.inv(phi[comp[0]]), phi)

    zline = build_abelian(F, 1)
    zline.name = "zline"
    s = direct_sum(g, zline, name=f"central_ext({g.name})")
    s.basis_names[-1] = "z"

    obligations = [
        ("phi vanishes on every basis commutator",
         all(F.is_zero(_sparse_dot(F, phi, row)) for row in g.brackets.values())),
        ("phi(x1) = 1", F.is_zero(F.sub(_dot(F, phi, x1), F.one))),
        ("beta([x,y]) = [beta(x),beta(y)]: the extension brackets g as g does, z central",
         s.brackets == g.brackets),
    ]
    result = InjectionResult(s, phi, x1, (x1, x1), obligations)
    left = result.beta(vec_add(F, x1, x1))
    right = vec_add(F, result.beta(x1), result.beta(x1))
    obligations.append(("beta(w1 + w2) != beta(w1) + beta(w2)",
                        not vectors_equal(F, left, right)))
    return result


def _dot(F, u, v):
    acc = F.zero
    for a, b in zip(u, v):
        acc = F.add(acc, F.mul(a, b))
    return acc


def _sparse_dot(F, u, row):
    acc = F.zero
    for k, c in row.items():
        acc = F.add(acc, F.mul(u[k], c))
    return acc


# ---------------------------------------------------------------------------
# top-level verdicts


class VerdictReport:
    """The report on one algebra: its header is read off ``g`` here, and the
    verdict starts UNKNOWN under rule NONE until a route decides it."""

    def __init__(self, g: StructureConstantAlgebra, seed: int):
        self.algebra = g.name
        self.field = g.field.to_json()
        self.dim = g.dim
        self.center_dim = g.center().dim
        self.derived_codim = g.dim - g.derived_subalgebra().dim
        self.verdict = VERDICT_UNKNOWN
        self.rule = RULE_NONE
        self.witness = None
        self.bijection = None
        self.confidence = None
        self.seed = seed
        self.open_problem_note = None
        self.seaweed = None

    def to_json_dict(self):
        out = {
            "algebra": self.algebra,
            "field": self.field,
            "dim": self.dim,
            "center_dim": self.center_dim,
            "derived_codim": self.derived_codim,
            "verdict": self.verdict,
            "rule": self.rule,
            "witness": self.witness,
            "bijection": self.bijection,
            "confidence": self.confidence,
            "seed": self.seed,
            "open_problem_note": self.open_problem_note,
        }
        if self.seaweed is not None:
            out["seaweed"] = self.seaweed
        return out


def verdict(
    g: StructureConstantAlgebra,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    bound: int = DEFAULT_BOUND,
) -> VerdictReport:
    """Decide UA / NOT_UA / UNKNOWN for a validated algebra.

    Over Q: dimension zero is trivially UA; with zero center the C-condition
    search decides UA or leaves the question open; with nonzero center the
    swap criterion decides NOT_UA or leaves it open.  Over a finite field the
    positive criterion is unavailable (it needs infinitely many scalars), so
    the swap criterion is tried first and rings of order at most
    ``finite.ENUM_CAP`` fall back to an exhaustive weak-unique-addition
    search.
    """
    F = g.field
    report = VerdictReport(g, seed)

    if g.dim == 0:
        if F.kind == "Q":
            report.verdict = VERDICT_UA
            report.rule = RULE_TRIVIAL_DIM_0
        else:
            # finite scalars: the positive route needs an infinite field
            report.open_problem_note = (
                "One-element ring: every commutator-preserving bijection is trivially "
                "additive, but the positive criterion is reserved for infinite fields."
            )
        return report
    if F.kind == "Q" and report.center_dim == 0:
        res = c_condition(g, trials=trials, seed=child_seed(seed, OFFSET_C_CONDITION),
                          bound=bound)
        if res.outcome == OUTCOME_HOLDS:
            report.verdict = VERDICT_UA
            report.rule = RULE_C_CONDITION
            report.witness = res.witness_json(F)
        else:
            report.confidence = {
                "trials": res.trials_run,
                "B": bound,
                "miss_probability_bound": res.failure_bound,
            }
            report.open_problem_note = NOTE_OPEN_TRIVIAL_CENTER
        return report
    neg = negative_criterion(g)
    if neg is not None:
        report.verdict = VERDICT_NOT_UA
        report.rule = RULE_NEG_CASE[neg.case]
        report.bijection = neg.to_json_dict(F)
        return report
    if F.kind == "Q":
        # over Q with nonzero center the criterion declines only when D = g
        report.open_problem_note = NOTE_OPEN_PERFECT_CENTER
        return report
    # over F_p only obstructions can be certified: exhaustive search on small rings
    from . import finite  # imported here: no Q verdict needs it

    order = F.order**g.dim
    if order <= finite.ENUM_CAP:
        wua, example = finite.is_wua(finite.from_algebra(g))
        if not wua:
            report.verdict = VERDICT_NOT_UA
            report.rule = RULE_NONE
            report.bijection = {
                "kind": "exhaustive_search",
                "map": example["map"],
                "pair": example["pair"],
                "note": "commutator-preserving non-additive self-bijection "
                        "found by exhaustive search",
            }
        else:
            report.open_problem_note = (
                f"All {order}-element self-bijections preserving commutators are "
                "additive (weak unique addition, verified exhaustively); unique "
                "addition against arbitrary reference rings remains undecided."
            )
        return report
    report.open_problem_note = (
        f"Ring order {order} exceeds the exhaustive-search cap {finite.ENUM_CAP}; "
        "no criterion applies over a finite field."
    )
    return report


def seaweed_verdict(
    spec: SeaweedSpec,
    field,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    bound: int = DEFAULT_BOUND,
) -> VerdictReport:
    """Verdict for a seaweed algebra, with the ampleness shortcut.

    Ample root set: the recipe pair (regular diagonal element, sum of all
    root vectors) is verified exactly to have trivially intersecting
    centralizers, giving UA over an infinite field without any search.
    Non-ample root sets have nonzero center and proper derived subalgebra,
    so the swap criterion applies.  Every case but the recipe's goes to
    `verdict`.
    """
    g = build_seaweed(spec, field)
    info = {"n": spec.n, "top": list(spec.top), "bottom": list(spec.bottom),
            **check_ample(spec.roots(), spec.n)}
    report = None
    if info["ample"] and field.kind == "Q":
        F, n, m = field, spec.n, info["root_count"]
        # diagonal entries n-1, n-2, ..., 0 are pairwise distinct; rewrite in
        # the H_k = E_kk - E_(k+1)(k+1) coordinates via prefix sums of the
        # entries shifted to trace zero (the shift, (n-1)/2, changes nothing:
        # H_k are traceless); b is the sum of the m root vectors
        shift = F.div(F.from_int(n - 1), F.from_int(2))
        a = [F.zero] * g.dim
        acc = F.zero
        for k in range(n - 1):
            acc = F.add(acc, F.sub(F.from_int(n - 1 - k), shift))
            a[m + k] = acc
        b = [F.one] * m + [F.zero] * (n - 1)
        # an ample root set always passes; the full search is the fallback
        if g.mutual_centralizer_dim(a, b) == 0:
            if not _verify_witness_exactly(g, a, b):
                raise HypothesesNotMet("recipe witness failed exact re-verification")
            report = VerdictReport(g, seed)
            report.verdict = VERDICT_UA
            report.rule = RULE_AMPLE_SEAWEED
            report.witness = {"a": _format_vec(F, a), "b": _format_vec(F, b)}
    if report is None:
        report = verdict(g, trials=trials, seed=seed, bound=bound)
    report.seaweed = info
    return report
