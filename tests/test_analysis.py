"""Decision procedures: commuting-pair search, swap counterexamples, verdicts.

Expected values in this file were produced by the implementation once and
then checked by hand against the defining conditions (independent
centralizer computations, explicit bracket evaluations), so they serve as
frozen oracles from here on.
"""

import random
from fractions import Fraction

import pytest

from ualie import analysis as an
from ualie.constructions import SeaweedSpec, build_catalog, build_seaweed
from ualie.errors import PerfectAlgebra, UnsupportedField
from ualie.linalg import Subspace
from ualie.scalars import QQ, ExtensionField, PrimeField

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


def test_c_condition_nontrivial_center_is_certified_failure():
    g = build_catalog("heisenberg", QQ, k=1)
    res = an.c_condition(g)
    assert res.outcome == an.OUTCOME_CERTIFIED_FAILS
    assert res.certificate == "nontrivial center"


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


def test_c_condition_finite_field_exhaustive():
    g = build_catalog("sl", PrimeField(3), n=2)
    res = an.c_condition(g)
    # 3^6 = 729 pairs fit under the cap, so the search is exhaustive
    assert res.outcome in (an.OUTCOME_HOLDS, an.OUTCOME_CERTIFIED_FAILS)
    if res.outcome == an.OUTCOME_HOLDS:
        a, b = res.witness
        assert g.mutual_centralizer_dim(a, b) == 0


def test_c_condition_finite_field_over_cap_refuses():
    # centerless, so the cheap certificate cannot fire before the cap check
    g = build_catalog("sl", PrimeField(101), n=2)  # 101^6 pairs
    with pytest.raises(UnsupportedField):
        an.c_condition(g, pair_cap=1000)


# ---------------------------------------------------------------------------
# the nine-dimensional solvable family with trivial center


def test_refutation_report_clean_on_seeded_samples():
    rep = an.verify_example_5_7_refutation(samples=30, seed=999)
    assert rep.samples == 30
    assert rep.center_dim == 0
    assert rep.failures == []
    assert rep.all_ok


def test_refutation_witness_annihilates_both_sides():
    g = build_catalog("example_5_7", QQ)
    rng = random.Random(5150)
    for _ in range(10):
        A = [Fraction(rng.randint(-5, 5)) for _ in range(9)]
        B = [Fraction(rng.randint(-5, 5)) for _ in range(9)]
        D = an.refutation_witness(g, A, B)
        assert any(c != 0 for c in D)
        assert all(c == 0 for c in g.bracket(A, D))
        assert all(c == 0 for c in g.bracket(B, D))


# ---------------------------------------------------------------------------
# negative criterion


def test_negative_criterion_gl2_case2():
    g = build_catalog("gl", QQ, n=2)
    res = an.negative_criterion(g)
    assert res.case == 2
    d = res.description.to_json_dict(QQ)
    assert d["kind"] == "swap_pair"
    assert d["swap"]["u"] == ["2", "0", "0", "0"]
    assert d["swap"]["v"] == ["3", "0", "0", "1"]
    assert all(ob["ok"] for ob in d["obligations"])
    assert res.description.verified


def test_negative_criterion_case1_commutative():
    F5 = PrimeField(5)
    g = build_catalog("abelian", F5, d=1)
    res = an.negative_criterion(g)
    assert res.case == 1
    d = res.description.to_json_dict(F5)
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
        d = res.description.to_json_dict(F)
        # swap a <-> a+z with z central and a outside the derived subalgebra
        assert d["swap"]["u"] == ["1", "0", "0"]
        assert d["swap"]["v"] == ["1", "0", "1"]
        assert res.description.verified


def test_negative_criterion_hypothesis_gates():
    # perfect algebra: derived = everything
    assert an.negative_criterion(build_catalog("sl", QQ, n=2)) is None
    # trivial center
    assert an.negative_criterion(build_catalog("s2", QQ)) is None
    # too small: |R| = 4 over F_2
    assert an.negative_criterion(build_catalog("abelian", PrimeField(2), d=2)) is None


def test_negative_criterion_swap_really_preserves_brackets():
    """The described map differs from the identity only on {u, v}; check that
    every bracket involving u or v is unchanged after the swap."""
    g = build_catalog("gl", QQ, n=3)
    res = an.negative_criterion(g)
    assert res is not None
    d = res.description
    u, v = d.swap
    F = g.field
    rng = random.Random(808)
    for _ in range(40):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(g.dim)]
        assert g.bracket(u, x) == g.bracket(v, x)


# ---------------------------------------------------------------------------
# ampleness of root sets


def test_check_ample_connected_spanning():
    res = an.check_ample(frozenset({(1, 2), (2, 1), (1, 3)}), 3)
    assert res == an.AmpleResult(ample=True, span_dim=2, components=1, root_count=3)


def test_check_ample_disconnected():
    res = an.check_ample(frozenset({(1, 2), (2, 1)}), 3)
    assert not res.ample
    assert res.components == 2 and res.span_dim == 1


def test_check_ample_empty():
    res = an.check_ample(frozenset(), 4)
    assert not res.ample and res.components == 4 and res.span_dim == 0


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
        assert res.span_dim == n - res.components
        assert res.ample == (res.components == 1)


# ---------------------------------------------------------------------------
# suitable pairs, split presentations, admissibility


def sl3_cartan():
    g = build_catalog("sl", QQ, n=3)
    h = Subspace.from_spanning(
        QQ, 8, [[Z] * 6 + [O, Z], [Z] * 6 + [Z, O]]
    )
    return g, h


def test_suitable_pair_sl3_cartan():
    g, h = sl3_cartan()
    rep = an.check_suitable_pair(g, h)
    assert rep.suitable and rep.reason == "ok"
    assert rep.zero_block_dim == 2
    # six root weights with multiplicity one, plus the zero weight of h itself
    assert len(rep.weights) == 7
    mult = {w: m for w, m in rep.weights}
    assert mult[(Z, Z)] == 2
    assert sum(m for _, m in rep.weights) == 8


def test_suitable_pair_rejects_noncommutative():
    g = build_catalog("t", QQ, n=2)
    h = Subspace.from_spanning(QQ, 3, [[O, Z, Z], [Z, O, Z]])  # E11, E12
    rep = an.check_suitable_pair(g, h)
    assert not rep.suitable and rep.reason == "not_commutative"


def test_suitable_pair_center_inside_h_cannot_separate():
    # diagonal of t(2) contains the identity, whose weights all vanish
    g = build_catalog("t", QQ, n=2)
    h = Subspace.from_spanning(QQ, 3, [[O, Z, Z], [Z, Z, O]])  # E11, E22
    rep = an.check_suitable_pair(g, h)
    assert not rep.suitable and rep.reason == "weights_do_not_separate"


def heis_presentation():
    heis = build_catalog("heisenberg", QQ, k=1)
    return an.SplitPresentation(1, heis, [(O,), (Fraction(2),)], [[0, 1], [2]])


def test_split_presentation_checks_pass():
    rep = an.check_split_presentation(heis_presentation())
    assert rep.ok
    assert all(ok for _, ok, _ in rep.checks)
    assert rep.assembled is not None
    assert rep.assembled.dim == 4  # torus + heisenberg
    assert rep.assembled.validate().ok


def test_split_presentation_catches_bad_weights():
    heis = build_catalog("heisenberg", QQ, k=1)
    # weight of z must be the sum of the weights of x and y for a derivation
    p = an.SplitPresentation(1, heis, [(O,), (Fraction(3),)], [[0, 1], [2]])
    rep = an.check_split_presentation(p)
    assert not rep.ok
    failed = [name for name, ok, _ in rep.checks if not ok]
    assert "torus generators act as derivations" in failed

    # duplicate block weights are rejected before the derivation check
    p2 = an.SplitPresentation(1, heis, [(O,), (O,)], [[0, 1], [2]])
    rep2 = an.check_split_presentation(p2)
    assert not rep2.ok
    assert [name for name, ok, _ in rep2.checks if not ok] == [
        "weights pairwise distinct"
    ]


def test_admissible_no_zero_block():
    adm = an.check_admissible(heis_presentation())
    assert adm.status == "admissible"
    assert adm.trials_run == 0
    assert adm.note == "no zero-weight block, nothing to separate"


def test_admissible_zero_block_meets_center():
    ab2 = build_catalog("abelian", QQ, d=2)
    p = an.SplitPresentation(1, ab2, [(Z,), (O,)], [[0], [1]])
    adm = an.check_admissible(p)
    assert adm.status == "certified_not"
    assert adm.note == "the zero-weight block meets the center of n"


def test_admissible_deterministic_candidate():
    # strictly upper triangular 3x3 with torus ad(diag(1,1,0)):
    # weight(E12) = 0, weight(E13) = weight(E23) = 1
    n3 = build_catalog("n", QQ, n=3)
    p = an.SplitPresentation(1, n3, [(Z,), (O,)], [[0], [1, 2]])
    assert an.check_split_presentation(p).ok
    adm = an.check_admissible(p)
    assert adm.status == "admissible"
    assert adm.note == "deterministic candidate"
    x = adm.witness
    # the witness acts injectively on the zero-weight block: [E12, x] != 0
    e12 = [O, Z, Z]
    assert any(c != 0 for c in n3.bracket(e12, x))


# ---------------------------------------------------------------------------
# central extension injection


def test_injection_s2():
    g = build_catalog("s2", QQ)
    res = an.central_extension_injection(g)
    assert res.all_ok
    assert res.functional == [O, Z]
    assert res.checked_pairs == 100
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
    g = build_catalog("abelian", QQ, d=2)
    res = an.central_extension_injection(g)
    assert res.all_ok
    rng = random.Random(33)
    for _ in range(30):
        x = [Fraction(rng.randint(-6, 6)) for _ in range(2)]
        y = [Fraction(rng.randint(-6, 6)) for _ in range(2)]
        bx = res.beta(x)
        by = res.beta(y)
        # the extension is trivial on brackets: [beta x, beta y] = beta' [x,y]
        bracket_img = g.bracket(x, y) + [Fraction(0)]
        ext_bracket = bracket_img  # abelian: both sides are zero
        assert all(c == 0 for c in ext_bracket) or bx != by


def test_injection_refuses_perfect_algebra():
    with pytest.raises(PerfectAlgebra):
        an.central_extension_injection(build_catalog("sl", QQ, n=2))


def test_injection_char2_witness_uses_nonunit_scalar():
    F4 = ExtensionField(2, 2)
    g = build_catalog("abelian", F4, d=2)
    res = an.central_extension_injection(g)
    assert res.all_ok
    x, y = res.witness_pair
    assert x != y  # t = 1 would make beta(2x) = beta(0) trivially additive


# ---------------------------------------------------------------------------
# verdicts


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


def test_seaweed_non_ample_routes_to_negative_criterion():
    rep = an.seaweed_verdict(SeaweedSpec(4, (2, 2), (2, 2)), QQ)
    assert rep.verdict == an.VERDICT_NOT_UA
    assert rep.to_json_dict()["seaweed"]["ample"] is False


def test_seaweed_n1_degenerate():
    rep = an.seaweed_verdict(SeaweedSpec(1, (1,), (1,)), QQ)
    assert rep.verdict == an.VERDICT_UA and rep.dim == 0
