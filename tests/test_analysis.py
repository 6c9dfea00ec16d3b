"""Decision procedures: commuting-pair search, swap counterexamples, verdicts.

Expected values in this file were produced by the implementation once and
then checked by hand against the defining conditions (independent
centralizer computations, explicit bracket evaluations), so they serve as
frozen oracles from here on.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from dense_rref import dense, dense_rank, dense_rref

from ualie import analysis as an
from ualie.constructions import CATALOG_EXAMPLES, SeaweedSpec, build_catalog, build_seaweed
from ualie.errors import BadCharacteristic, HypothesesNotMet, PerfectAlgebra, UnsupportedField
from ualie.liecore import StructureConstantAlgebra
from ualie.linalg import Subspace
from ualie.scalars import QQ, PrimeField, Rationals

Z = Fraction(0)
O = Fraction(1)


# ---------------------------------------------------------------------------
# c_condition


def test_c_condition_sl2_certified_without_sampling():
    g = build_catalog("sl", QQ, n=2)
    res = an.c_condition(g)
    assert res.outcome == an.OUTCOME_HOLDS
    assert res.trials_run == 0  # found among deterministic candidates
    a, b = res.witness
    assert g.mutual_centralizer_dim(a, b) == 0


def test_c_condition_witness_survives_independent_check():
    """Re-derive the witness property from raw centralizer subspaces."""
    for name, kw in (("sl", {"n": 2}), ("s2", {}), ("sl", {"n": 3})):
        g = build_catalog(name, QQ, **kw)
        res = an.c_condition(g)
        assert res.outcome == an.OUTCOME_HOLDS
        a, b = res.witness
        cap = g.centralizer(a).intersect(g.centralizer(b))
        assert cap.dim == 0


def test_verify_witness_exactly_rejects_a_shared_centralizer():
    g = build_catalog("sl", QQ, n=2)
    h = g.basis_vector(g.basis_names.index("h"))
    assert not an._verify_witness_exactly(g, h, h)  # C(H) = <H> is shared


def test_verify_witness_exactly_accepts_catalog_witnesses():
    for name, kw in (("sl", {"n": 2}), ("s2", {}), ("sl", {"n": 4})):
        g = build_catalog(name, QQ, **kw)
        a, b = an.c_condition(g).witness
        assert an._verify_witness_exactly(g, a, b)


def test_verify_witness_exactly_is_fast_on_the_sparse_star_algebra():
    """[e_0, e_i] = e_i (i = 1..299): the re-verification of the witness
    works on the nonzero sparse adjoint rows.  A dense elimination of the
    600 x 300 stack took 1.4-2.2 s on a shared 2-vCPU VM."""
    n = 300
    g = StructureConstantAlgebra("star", QQ, n, None, {(0, i): {i: 1} for i in range(1, n)})
    res = an.c_condition(g)
    assert res.outcome == an.OUTCOME_HOLDS
    a, b = res.witness
    start = time.perf_counter()
    assert an._verify_witness_exactly(g, a, b)
    assert time.perf_counter() - start < 0.5


def test_c_condition_nontrivial_center_is_certified_failure():
    g = build_catalog("heisenberg", QQ, k=1)
    res = an.c_condition(g)
    assert res.outcome == an.OUTCOME_CERTIFIED_FAILS
    assert res.certificate == "nontrivial center"


def test_c_condition_refuses_a_witness_the_exact_check_rejects(monkeypatch):
    """A pair the certificate accepts is reported only after the exact
    re-verification: with every nullity read as 0, example_5_7 (zero center,
    yet any two centralizers meet) is refused, not certified UA."""
    monkeypatch.setattr(an, "kernel_dim_fast", lambda *args: 0)
    with pytest.raises(HypothesesNotMet, match="^witness failed exact re-verification$"):
        an.c_condition(build_catalog("example_5_7", QQ))


def test_c_condition_probable_failure_with_quoted_bound():
    g = build_catalog("example_5_7", QQ)
    res = an.c_condition(g)
    assert res.outcome == an.OUTCOME_PROBABLY_FAILS
    assert res.trials_run == 64
    assert res.failure_bound == "(9/2049)^64"


def test_c_condition_deterministic_across_runs():
    g = build_catalog("example_5_7", QQ)
    r1 = an.c_condition(g, trials=16, seed=12345)
    r2 = an.c_condition(g, trials=16, seed=12345)
    assert (r1.outcome, r1.witness, r1.failure_bound) == (
        r2.outcome,
        r2.witness,
        r2.failure_bound,
    )


def _rebased(g, seed):
    """g in a seeded basis f_i = sum_j P[i][j] e_j with rational P, so its
    structure constants are rational, not integral."""
    rng = random.Random(seed)
    n = g.dim
    while True:
        P = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        augmented = [P[i] + [O if j == i else Z for j in range(n)] for i in range(n)]
        R, pivots = dense_rref(QQ, augmented, 2 * n)
        if pivots == list(range(n)):
            break
    inv = [row[n:] for row in R]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = g.bracket(P[i], P[j])
            brackets[(i, j)] = {m: sum((w[k] * inv[k][m] for k in range(n)), Z) for m in range(n)}
    return StructureConstantAlgebra(f"{g.name}~{seed}", QQ, n, None, brackets)


def test_c_condition_matches_the_full_stack_oracle():
    """Stage 2 rejects by stored kernel vectors where it can; the oracle
    eliminates every candidate (``c_condition_oracle``).  Outcome, witness,
    trial count and failure bound must agree on sl(2..8), s2, example_5_7,
    example_5_7 in a rational basis (every stage runs there, on rows of
    fractions) and every seaweed with n <= 5."""
    import c_condition_oracle as oracle

    def key(res):
        return res.outcome, res.witness, res.trials_run, res.failure_bound, res.certificate

    algebras = [build_catalog("sl", QQ, n=k) for k in range(2, 9)]
    algebras += [build_catalog("s2", QQ), build_catalog("example_5_7", QQ)]
    algebras.append(_rebased(build_catalog("example_5_7", QQ), 103))
    comps = [c for r in range(1, 6) for c in itertools.product(range(1, 6), repeat=r)]
    for n in range(1, 6):
        ncomps = [c for c in comps if sum(c) == n]
        for top, bottom in itertools.product(ncomps, repeat=2):
            algebras.append(build_seaweed(SeaweedSpec(n, top, bottom), QQ))
    assert len(algebras) == 10 + 341
    outcomes = set()
    for g in algebras:
        got = key(an.c_condition(g))
        assert got == key(oracle.c_condition(g)), g.name
        outcomes.add(got[0])
    assert outcomes == {an.OUTCOME_HOLDS, an.OUTCOME_PROBABLY_FAILS, an.OUTCOME_CERTIFIED_FAILS}
    assert any(type(c) is Fraction and c.denominator > 1
               for row in algebras[9].brackets.values() for c in row.values())


def test_c_condition_refuses_finite_fields():
    # checked before the center: heisenberg over F_3 has a nonzero one
    for g in (
        build_catalog("sl", PrimeField(3), n=2),
        build_catalog("heisenberg", PrimeField(3), k=1),
    ):
        with pytest.raises(UnsupportedField):
            an.c_condition(g)


def test_verdict_over_fp_never_calls_c_condition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("c_condition called over a finite field")

    monkeypatch.setattr(an, "c_condition", refuse)
    assert an.verdict(build_catalog("sl", PrimeField(5), n=2)).verdict == an.VERDICT_UNKNOWN
    assert an.verdict(build_catalog("heisenberg", PrimeField(3), k=1)).verdict == an.VERDICT_NOT_UA


# ---------------------------------------------------------------------------
# negative criterion


def test_negative_criterion_gl2_case2():
    g = build_catalog("gl", QQ, n=2)
    res = an.negative_criterion(g)
    assert res.case == 2
    d = res.to_json_dict(QQ)
    assert d["kind"] == "swap_pair"
    assert d["swap"]["u"] == ["2", "0", "0", "0"]
    assert d["swap"]["v"] == ["3", "0", "0", "1"]
    assert all(ob["ok"] for ob in d["obligations"])
    assert d["verified"] is True


def test_negative_criterion_case1_commutative():
    F5 = PrimeField(5)
    g = build_catalog("abelian", F5, d=1)
    res = an.negative_criterion(g)
    assert res.case == 1
    d = res.to_json_dict(F5)
    assert d["swap"] == {"u": ["1"], "v": ["2"]}
    assert d["nonadditivity"] == {
        "c": ["3"],
        "alpha(u+c)": ["4"],
        "alpha(u)+alpha(c)": ["0"],
    }


def test_negative_criterion_case3_heisenberg():
    for F in (QQ, PrimeField(3)):
        g = build_catalog("heisenberg", F, k=1)
        res = an.negative_criterion(g)
        assert res.case == 3
        d = res.to_json_dict(F)
        # swap a <-> a+z with z central and a outside the derived subalgebra
        assert d["swap"]["u"] == ["1", "0", "0"]
        assert d["swap"]["v"] == ["1", "0", "1"]
        assert d["verified"] is True


def test_negative_criterion_hypothesis_gates():
    # perfect algebra: derived = everything
    assert an.negative_criterion(build_catalog("sl", QQ, n=2)) is None
    # trivial center
    assert an.negative_criterion(build_catalog("s2", QQ)) is None
    # too small: |R| = 4 over F_2
    assert an.negative_criterion(build_catalog("abelian", PrimeField(2), d=2)) is None


def test_negative_criterion_refuses_a_swap_whose_obligations_fail():
    """The swap is returned only when its bracket obligations hold: with the
    center of gl(2) replaced by the span of e_1 (= E12, not central), the
    swap E11 <-> E11 + E12 changes brackets and is refused."""
    g = build_catalog("gl", QQ, n=2)
    g._center = Subspace.from_spanning(QQ, g.dim, [{1: 1}])
    with pytest.raises(HypothesesNotMet, match="^swap obligations failed"):
        an.negative_criterion(g)


def test_negative_criterion_swap_really_preserves_brackets():
    """The described map differs from the identity only on {u, v}; check that
    every bracket involving u or v is unchanged after the swap."""
    g = build_catalog("gl", QQ, n=3)
    res = an.negative_criterion(g)
    assert res is not None
    u, v = res.swap
    F = g.field
    rng = random.Random(808)
    for _ in range(40):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(g.dim)]
        assert g.bracket(u, x) == g.bracket(v, x)


# ---------------------------------------------------------------------------
# ampleness of root sets


def test_check_ample_connected_spanning():
    res = an.check_ample(frozenset({(1, 2), (2, 1), (1, 3)}), 3)
    assert res == {"root_count": 3, "span_dim": 2, "components": 1, "ample": True}
    assert list(res) == ["root_count", "span_dim", "components", "ample"]


def test_check_ample_disconnected():
    res = an.check_ample(frozenset({(1, 2), (2, 1)}), 3)
    assert not res["ample"]
    assert res["components"] == 2 and res["span_dim"] == 1


def test_check_ample_empty():
    res = an.check_ample(frozenset(), 4)
    assert not res["ample"] and res["components"] == 4 and res["span_dim"] == 0


def test_ample_consistency_on_random_root_sets():
    """span_dim == n - components for difference-vector root sets."""
    rng = random.Random(271)
    for _ in range(40):
        n = rng.randint(2, 6)
        roots = set()
        for _ in range(rng.randint(0, n * 2)):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            if i != j:
                roots.add((i, j))
        res = an.check_ample(frozenset(roots), n)
        assert res["span_dim"] == n - res["components"]
        assert res["ample"] == (res["components"] == 1)


# ---------------------------------------------------------------------------
# central extension injection


def test_injection_s2():
    g = build_catalog("s2", QQ)
    res = an.central_extension_injection(g)
    assert res.all_ok
    assert res.functional == [O, Z]
    assert all(ok for _, ok in res.obligations)
    # beta maps into a space one dimension up and is injective on a sample
    img = res.beta([O, Z])
    assert len(img) == g.dim + 1


def test_injection_witness_pair_shows_nonadditivity():
    g = build_catalog("t", QQ, n=3)
    res = an.central_extension_injection(g)
    assert res.all_ok
    x, y = res.witness_pair
    F = g.field
    lhs = res.beta([F.add(a, b) for a, b in zip(x, y)])
    rhs = [F.add(a, b) for a, b in zip(res.beta(x), res.beta(y))]
    assert lhs != rhs


def test_injection_preserves_commutators_random():
    """[beta x, beta y], bracketed in the extension, equals beta([x, y]) on
    seeded pairs: a sampled reference for the exact bracket obligation."""
    rng = random.Random(33)

    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    cases = ((build_catalog("s2", QQ), rational), (build_catalog("t", QQ, n=3), rational),
             (build_catalog("gl", PrimeField(3), n=2), lambda: rng.randrange(3)))
    for g, draw in cases:
        res = an.central_extension_injection(g)
        for _ in range(300):
            x = [draw() for _ in range(g.dim)]
            y = [draw() for _ in range(g.dim)]
            lhs = res.extended.bracket(res.beta(x), res.beta(y))
            assert lhs == res.beta(g.bracket(x, y)), (g.name, x, y)
        assert res.all_ok, g.name


def test_injection_refuses_perfect_algebra():
    with pytest.raises(PerfectAlgebra):
        an.central_extension_injection(build_catalog("sl", QQ, n=2))


def _dense_injection_functional(g):
    """x1 and phi from the dense oracle: [g, g] from one dense RREF,
    completed by each basis vector, in index order, that raises the dense
    rank; phi is the first column of P^-1, P the completion (x1 first) over
    the rows of [g, g], read off the RREF of [P | I]."""
    F, n = g.field, g.dim
    derived = dense_rref(F, dense(F, g.brackets.values(), n), n)[0]
    comp = []
    for k in range(n):
        e = g.basis_vector(k)
        if dense_rank(F, comp + derived + [e], n) > len(comp) + len(derived):
            comp.append(e)
    P = comp + derived
    identity = [[F.one if c == r else F.zero for c in range(n)] for r in range(n)]
    R, pivots = dense_rref(F, [row + unit for row, unit in zip(P, identity)], 2 * n)
    assert pivots == list(range(n))
    return comp[0], [R[r][n] for r in range(n)]


def test_injection_functional_is_the_first_column_of_the_inverse_adapted_basis():
    checked = 0
    for F in (QQ, PrimeField(3), PrimeField(5), PrimeField(7)):
        for name, params in CATALOG_EXAMPLES.items():
            for scale in (0, 1) if params else (0,):
                try:
                    g = build_catalog(name, F, **{k: v + scale for k, v in params.items()})
                except BadCharacteristic:  # sl(3) over F_3
                    continue
                if dense_rank(F, dense(F, g.brackets.values(), g.dim), g.dim) == g.dim:
                    continue  # perfect: no injection
                res = an.central_extension_injection(g)
                assert res.all_ok, (name, F)
                assert (res.x1, res.functional) == _dense_injection_functional(g), (name, F)
                checked += 1
    assert checked >= 40


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_on_a_bracket_free_algebra_costs_linear_field_operations(monkeypatch):
    """The center, the derived subalgebra, their intersection and the swap
    obligations of a bracket-free algebra cost O(dim) field operations: at
    dim 1500 the verdict stays under 50 per dimension, where one dense
    RREF of a dim x dim matrix alone takes more than dim^2."""
    n = 1500
    g = StructureConstantAlgebra("flat", QQ, n)
    count = [0]
    for name in ("add", "sub", "mul", "div", "inv"):
        def spy(self, *args, _real=getattr(Rationals, name)):
            count[0] += 1
            return _real(self, *args)

        monkeypatch.setattr(Rationals, name, spy)
    rep = an.verdict(g)
    assert (rep.verdict, rep.rule) == (an.VERDICT_NOT_UA, an.RULE_NEG_CASE[1])
    assert 0 < count[0] <= 50 * n


def expect_verdict(name, kw, field, verdict, rule):
    g = build_catalog(name, field, **kw)
    rep = an.verdict(g)
    assert rep.verdict == verdict, (name, rep.verdict, rep.rule)
    assert rep.rule == rule, (name, rep.rule)
    return rep


def test_verdict_ua_by_commuting_pair():
    rep = expect_verdict("sl", {"n": 2}, QQ, an.VERDICT_UA, an.RULE_C_CONDITION)
    assert rep.witness is not None
    assert rep.confidence is None


def test_verdict_not_ua_case2():
    rep = expect_verdict("gl", {"n": 2}, QQ, an.VERDICT_NOT_UA, an.RULE_NEG_CASE[2])
    assert rep.bijection is not None
    assert rep.bijection["verified"] is True


def test_verdict_not_ua_nilpotent():
    expect_verdict("heisenberg", {"k": 1}, QQ, an.VERDICT_NOT_UA, an.RULE_NEG_CASE[3])
    expect_verdict("n", {"n": 3}, QQ, an.VERDICT_NOT_UA, an.RULE_NEG_CASE[3])


def test_verdict_unknown_trivial_center():
    rep = expect_verdict("example_5_7", {}, QQ, an.VERDICT_UNKNOWN, an.RULE_NONE)
    assert rep.confidence is not None
    assert rep.confidence["trials"] == 64
    assert rep.open_problem_note == an.NOTE_OPEN_TRIVIAL_CENTER


def test_verdict_unknown_perfect_with_center():
    rep = expect_verdict("example_4_6", {}, QQ, an.VERDICT_UNKNOWN, an.RULE_NONE)
    assert rep.open_problem_note == an.NOTE_OPEN_PERFECT_CENTER


def test_verdict_dim0():
    g = build_catalog("abelian", QQ, d=0)
    rep = an.verdict(g)
    assert rep.verdict == an.VERDICT_UA and rep.rule == an.RULE_TRIVIAL_DIM_0


def test_verdict_finite_field_never_claims_ua_from_c_condition():
    """The commuting-pair argument needs an infinite field; over F_p a clean
    pair must not upgrade to a UA verdict."""
    g = build_catalog("sl", PrimeField(5), n=2)
    rep = an.verdict(g)
    assert rep.verdict != an.VERDICT_UA


def test_verdict_finite_small_order_wua():
    g = build_catalog("abelian", PrimeField(2), d=2)  # Klein four-group
    rep = an.verdict(g)
    assert rep.verdict == an.VERDICT_UNKNOWN
    assert "additive" in rep.open_problem_note


@pytest.mark.parametrize("name, p, kw", [
    ("abelian", 5, {"d": 1}),
    ("abelian", 3, {"d": 2}),
    ("heisenberg", 2, {"k": 1}),
    ("gl", 2, {"n": 2}),
])
def test_verdict_exhaustive_route_returns_a_certified_flat_map(monkeypatch, name, p, kw):
    """With the swap criterion silenced, a small F_p algebra reaches the
    exhaustive WUA search.  Its NOT_UA must carry one flat block, kind,
    map, pair and note, whose map preserves every commutator of the
    expanded table and breaks additivity at the pair."""
    from ualie import finite as fin

    monkeypatch.setattr(an, "negative_criterion", lambda g: None)
    g = build_catalog(name, PrimeField(p), **kw)
    rep = an.verdict(g)
    assert (rep.verdict, rep.rule) == (an.VERDICT_NOT_UA, an.RULE_NONE), g.name
    assert list(rep.bijection) == ["kind", "map", "pair", "note"]
    assert rep.bijection["kind"] == "exhaustive_search"
    r = fin.from_algebra(g)
    m, (a, b) = rep.bijection["map"], rep.bijection["pair"]
    assert fin.verify_bijection(r, r, m), g.name
    assert m[r.add[a][b]] != r.add[m[a]][m[b]], g.name


def test_verdict_finite_negative_criterion():
    g = build_catalog("abelian", PrimeField(2), d=3)
    rep = an.verdict(g)
    assert rep.verdict == an.VERDICT_NOT_UA and rep.rule == an.RULE_NEG_CASE[1]


def test_verdict_json_key_order_stable():
    rep = an.verdict(build_catalog("sl", QQ, n=2))
    assert list(rep.to_json_dict().keys()) == [
        "algebra",
        "field",
        "dim",
        "center_dim",
        "derived_codim",
        "verdict",
        "rule",
        "witness",
        "bijection",
        "confidence",
        "seed",
        "open_problem_note",
    ]


# ---------------------------------------------------------------------------
# seaweed verdicts


def test_seaweed_sl2_recipe_witness():
    rep = an.seaweed_verdict(SeaweedSpec(2, (2,), (2,)), QQ)
    d = rep.to_json_dict()
    assert d["verdict"] == an.VERDICT_UA and d["rule"] == an.RULE_AMPLE_SEAWEED
    assert d["witness"] == {"a": ["0", "0", "1/2"], "b": ["1", "1", "0"]}
    assert d["seaweed"] == {
        "n": 2,
        "top": [2],
        "bottom": [2],
        "root_count": 2,
        "span_dim": 1,
        "components": 1,
        "ample": True,
    }


def test_seaweed_recipe_witness_verifies_independently():
    spec = SeaweedSpec(4, (1, 3), (4,))
    rep = an.seaweed_verdict(spec, QQ)
    assert rep.verdict == an.VERDICT_UA
    g = build_seaweed(spec, QQ)
    a = [Fraction(s) for s in rep.to_json_dict()["witness"]["a"]]
    b = [Fraction(s) for s in rep.to_json_dict()["witness"]["b"]]
    assert g.mutual_centralizer_dim(a, b) == 0


def test_seaweed_recipe_pair_holds_canonical_rationals(monkeypatch):
    """Over Q every integral scalar is an ``int``; the recipe pair that
    `seaweed_verdict` hands to `_verify_witness_exactly` keeps to that on
    every ample seaweed with n = 4."""
    pairs = []
    verify = an._verify_witness_exactly

    def spy(g, a, b):
        pairs.append((g.name, a, b))
        return verify(g, a, b)

    monkeypatch.setattr(an, "_verify_witness_exactly", spy)
    comps = [c for r in range(1, 5) for c in itertools.product(range(1, 5), repeat=r)
             if sum(c) == 4]
    ample = []
    for top, bottom in itertools.product(comps, repeat=2):
        spec = SeaweedSpec(4, top, bottom)
        if an.check_ample(spec.roots(), 4)["ample"]:
            ample.append(spec.label())
            assert an.seaweed_verdict(spec, QQ).verdict == an.VERDICT_UA
    assert "seaweed(n=4,top=2|2,bottom=4)" in ample
    assert [name for name, _, _ in pairs] == ample
    for name, a, b in pairs:
        for x in a + b:
            assert type(x) is int or x.denominator != 1, (name, x)


def test_seaweed_non_ample_routes_to_negative_criterion():
    rep = an.seaweed_verdict(SeaweedSpec(4, (2, 2), (2, 2)), QQ)
    assert rep.verdict == an.VERDICT_NOT_UA
    assert rep.to_json_dict()["seaweed"]["ample"] is False


def test_seaweed_n1_degenerate():
    rep = an.seaweed_verdict(SeaweedSpec(1, (1,), (1,)), QQ)
    assert rep.verdict == an.VERDICT_UA and rep.dim == 0
