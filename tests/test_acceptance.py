"""Acceptance gate: ten end-to-end criteria, one printed line each.

Each test prints "[criterion N] PASS/FAIL (elapsed)" on the real terminal
(bypassing capture) so the gate's status is readable straight off the run,
then asserts, so a FAIL also shows up as an ordinary pytest failure.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from dense_rref import dense_kernel

from ualie import analysis as an
from ualie import finite as fin
from ualie.constructions import SeaweedSpec, build_catalog, build_seaweed
from ualie.errors import PerfectAlgebra
from ualie.rng import XorShift64Star, child_seed
from ualie.scalars import QQ, PrimeField


def announce(capfd, num, ok, elapsed, budget, detail=""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[criterion {num:2d}] {status}  ({elapsed:.2f}s / {budget:.0f}s budget)"
    if detail:
        line += f"  {detail}"
    with capfd.disabled():
        print(line)
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f}s"


def compositions(n):
    """All 2^(n-1) compositions of n, by cutting between unit blocks."""
    out = []
    for cuts in itertools.product([0, 1], repeat=n - 1):
        parts = []
        size = 1
        for c in cuts:
            if c:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        out.append(tuple(parts))
    return out


def test_criterion_01_fixture_verdicts(capfd):
    t0 = time.monotonic()
    failures = []

    def expect(g, verdict, rule=None):
        rep = an.verdict(g)
        if rep.verdict != verdict or (rule is not None and rep.rule != rule):
            failures.append((g.name, rep.verdict, rep.rule))
        return rep

    for name, kw in (("sl", {"n": 2}), ("s2", {})):
        rep = expect(build_catalog(name, QQ, **kw), an.VERDICT_UA, an.RULE_C_CONDITION)
        if rep.witness is None:
            failures.append((name, "missing witness"))
    for n in (2, 3):
        expect(build_catalog("gl", QQ, n=n), an.VERDICT_NOT_UA, an.RULE_NEG_CASE[2])
    for k in (1, 2):
        expect(build_catalog("heisenberg", QQ, k=k), an.VERDICT_NOT_UA)
    for n in (3, 4):
        expect(build_catalog("n", QQ, n=n), an.VERDICT_NOT_UA)
    expect(build_catalog("example_4_6", QQ), an.VERDICT_UNKNOWN)
    expect(build_catalog("example_5_7", QQ), an.VERDICT_UNKNOWN)

    announce(capfd, 1, not failures, time.monotonic() - t0, 5.0, str(failures))


def commuting_element(A, B):
    """The paper's element D of example_5_7 commuting with both A and B.

    d = d35 = d45 = 0 and (d13, d14, d15) = (d23, d24, d25) = (u, v, w),
    where (u, v, w) is a nonzero solution of a35*x + a45*y - a*z = 0 =
    b35*x + b45*y - b*z: two equations in three unknowns, solved by the
    dense oracle elimination, not the package's.
    """
    rows = [[A[7], A[8], -A[0]], [B[7], B[8], -B[0]]]
    u, v, w = dense_kernel(QQ, rows, 3)[0]
    return [0, u, v, w, u, v, w, 0, 0]


def test_criterion_02_trivial_center_without_commuting_separation(capfd):
    t0 = time.monotonic()
    g = build_catalog("example_5_7", QQ)
    failures = []

    if g.center().dim != 0:
        failures.append(f"center dim {g.center().dim}")

    # small coordinates from the standard library, then the package's own
    # stream with coordinates in [-1024, 1024]
    rng = random.Random(20260815)
    small = [([Fraction(rng.randint(-20, 20)) for _ in range(9)],
              [Fraction(rng.randint(-20, 20)) for _ in range(9)]) for _ in range(100)]
    xs = XorShift64Star(child_seed(20260815, 2))
    large = [([xs.int_symmetric(1024) for _ in range(9)],
              [xs.int_symmetric(1024) for _ in range(9)]) for _ in range(100)]
    for i, (A, B) in enumerate(small + large):
        D = commuting_element(A, B)
        if all(c == 0 for c in D):
            failures.append(f"pair {i}: zero D")
        elif any(c != 0 for c in g.bracket(A, D)) or any(c != 0 for c in g.bracket(B, D)):
            failures.append(f"pair {i}: D does not commute")
        if g.mutual_centralizer_dim(A, B) < 1:
            failures.append(f"pair {i} has trivial mutual centralizer")
        if failures:
            break

    announce(capfd, 2, not failures, time.monotonic() - t0, 5.0, str(failures))


def test_criterion_03_seaweed_predicate_cross_validation(capfd):
    t0 = time.monotonic()
    failures = []
    comps4 = compositions(4)
    assert len(comps4) == 8
    for top in comps4:
        for bottom in comps4:
            spec = SeaweedSpec(4, top, bottom)
            amp = an.check_ample(spec.roots(), 4)
            g = build_seaweed(spec, QQ)
            p_ample = amp["ample"]
            p_connected = amp["components"] == 1
            p_centerless = g.center().dim == 0
            cc = an.c_condition(g)
            p_holds = cc.outcome == an.OUTCOME_HOLDS
            if not (p_ample == p_connected == p_centerless == p_holds):
                failures.append(
                    (spec.label(), p_ample, p_connected, p_centerless, cc.outcome)
                )
    announce(capfd, 3, not failures, time.monotonic() - t0, 60.0,
             f"64 specs checked; disagreements: {failures}")


def test_criterion_04_parabolic_coverage(capfd):
    t0 = time.monotonic()
    failures = []
    checked = 0
    for n in range(1, 6):
        for top in compositions(n):
            spec = SeaweedSpec(n, top, (n,))
            rep = an.seaweed_verdict(spec, QQ)
            checked += 1
            if rep.verdict != an.VERDICT_UA:
                failures.append((spec.label(), rep.verdict, rep.rule))
                continue
            if not rep.to_json_dict()["seaweed"]["ample"]:
                failures.append((spec.label(), "not ample"))
                continue
            if rep.dim > 0:
                w = rep.to_json_dict()["witness"]
                if w is None:
                    failures.append((spec.label(), "no witness"))
                    continue
                g = build_seaweed(spec, QQ)
                a = [Fraction(s) for s in w["a"]]
                b = [Fraction(s) for s in w["b"]]
                if g.mutual_centralizer_dim(a, b) != 0:
                    failures.append((spec.label(), "witness fails recheck"))
    assert checked == 31  # 1 + 2 + 4 + 8 + 16
    announce(capfd, 4, not failures, time.monotonic() - t0, 60.0, str(failures))


def test_criterion_05_constructive_swap_on_finite_heisenberg(capfd):
    t0 = time.monotonic()
    failures = []
    for p in (2, 3):
        r = fin.from_algebra(build_catalog("heisenberg", PrimeField(p), k=1))
        if r.order != p**3:
            failures.append(f"p={p}: order {r.order}")
        rep = fin.negative_bijection_finite(r)
        if rep.case != 3:
            failures.append(f"p={p}: case {rep.case}")
        if not fin.verify_bijection(r, r, rep.table):
            failures.append(f"p={p}: full N x N scan failed")
        if rep.witness is None:
            failures.append(f"p={p}: no non-additivity witness")
        else:
            u, c = rep.witness["u"], rep.witness["c"]
            lhs = rep.table[r.add[u][c]]
            rhs = r.add[rep.table[u]][rep.table[c]]
            if lhs == rhs:
                failures.append(f"p={p}: witness does not separate")
        wua, counter = fin.is_wua(r)
        if wua:
            failures.append(f"p={p}: is_wua returned true")
        elif not fin.verify_bijection(r, r, counter["map"]):
            failures.append(f"p={p}: wua counterexample not commutator-preserving")
    announce(capfd, 5, not failures, time.monotonic() - t0, 30.0, str(failures))


def test_criterion_06_klein_separation(capfd):
    t0 = time.monotonic()
    failures = []
    klein = fin.klein_ring()
    z4 = fin.cyclic_ring(4)

    wua, counter = fin.is_wua(klein)
    if not wua or counter is not None:
        failures.append("klein is_wua should hold with no counterexample")
    count, samples = fin.commutator_bijections(klein, limit=6)
    if count != 6:
        failures.append(f"klein self-bijection count {count}")
    for alpha in samples:
        for a in range(4):
            for b in range(4):
                if alpha[klein.add[a][b]] != klein.add[alpha[a]][alpha[b]]:
                    failures.append(f"map {alpha} is not additive")

    ok, evidence = fin.ua_against(klein, z4)
    if ok:
        failures.append("ua_against(klein, Z/4) should fail")
    cross_count, cross_samples = fin.commutator_bijections(klein, z4, limit=6)
    if cross_count != 6:
        failures.append(f"cross bijection count {cross_count}")
    for alpha in cross_samples:
        additive_somewhere = all(
            alpha[klein.add[a][b]] == z4.add[alpha[a]][alpha[b]]
            for a in range(4)
            for b in range(4)
        )
        if additive_somewhere:
            failures.append(f"cross map {alpha} is unexpectedly additive")

    announce(capfd, 6, not failures, time.monotonic() - t0, 1.0, str(failures))


def test_criterion_07_multiplicative_maps_field_counts(capfd):
    t0 = time.monotonic()
    failures = []
    cases = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}
    for q, (p, n) in sorted(cases.items()):
        rep = fin.semigroup_aut_report(p, n)
        phi = sum(1 for k in range(1, q) if math.gcd(k, q - 1) == 1)
        if rep["brute_count"] != phi or rep["phi_q_minus_1"] != phi:
            failures.append(
                f"q={q}: counts {rep['brute_count']}/{rep['phi_q_minus_1']} vs phi {phi}")
        if (rep["nonadditive"] is not None) != (q > 4):
            failures.append(f"q={q}: nonadditive presence wrong")
    announce(capfd, 7, not failures, time.monotonic() - t0, 10.0, str(failures))


def test_criterion_08_injection_builder(capfd):
    t0 = time.monotonic()
    failures = []
    for name, kw in (("s2", {}), ("t", {"n": 3}), ("abelian", {"d": 2})):
        g = build_catalog(name, QQ, **kw)
        res = an.central_extension_injection(g, samples=1000, seed=77)
        if res.checked_pairs != 1000:
            failures.append(f"{g.name}: checked {res.checked_pairs}")
        if not res.all_ok:
            failures.append(f"{g.name}: obligations {res.obligations}")
        x, y = res.witness_pair
        F = g.field
        lhs = res.beta([F.add(a, b) for a, b in zip(x, y)])
        rhs = [F.add(a, b) for a, b in zip(res.beta(x), res.beta(y))]
        if lhs == rhs:
            failures.append(f"{g.name}: witness pair is additive after all")
    try:
        an.central_extension_injection(build_catalog("sl", QQ, n=2))
        failures.append("sl(2) should be refused")
    except PerfectAlgebra:
        pass
    announce(capfd, 8, not failures, time.monotonic() - t0, 5.0, str(failures))


def test_criterion_09_oracle_equivalence(capfd):
    t0 = time.monotonic()
    failures = []
    corpus = [fin.cyclic_ring(m) for m in range(1, 9)]
    corpus.append(fin.klein_ring())
    for name, F, kw in (
        ("heisenberg", PrimeField(2), {"k": 1}),
        ("abelian", PrimeField(2), {"d": 3}),
        ("sl", PrimeField(2), {"n": 2}),
        ("t", PrimeField(2), {"n": 2}),
        ("n", PrimeField(2), {"n": 3}),
    ):
        corpus.append(fin.from_algebra(build_catalog(name, F, **kw)))
    for r in corpus:
        assert r.order <= 8
        fast = fin.commutator_bijections(r)[0]
        slow = fin.naive_commutator_bijections(r)
        if fast != slow:
            failures.append(f"{r.name}: {fast} != {slow}")
    announce(capfd, 9, not failures, time.monotonic() - t0, 60.0,
             f"{len(corpus)} rings; {failures}")


def test_criterion_10_determinism(capfd):
    t0 = time.monotonic()
    failures = []

    # library level: identical seeds, identical serialized reports
    for maker in (
        lambda: an.verdict(build_catalog("example_5_7", QQ), seed=31337),
        lambda: an.seaweed_verdict(SeaweedSpec(4, (1, 3), (4,)), QQ, seed=31337),
    ):
        d1 = json.dumps(maker().to_json_dict(), sort_keys=False)
        d2 = json.dumps(maker().to_json_dict(), sort_keys=False)
        if d1 != d2:
            failures.append("library report drifted between runs")

    # process level: byte-identical standard output
    cmd = [sys.executable, "-m", "ualie.cli", "analyze", "--builtin",
           "example_5_7", "--seed", "31337"]
    out1 = subprocess.run(cmd, capture_output=True).stdout
    out2 = subprocess.run(cmd, capture_output=True).stdout
    if out1 != out2 or not out1:
        failures.append("CLI output not byte-identical")

    announce(capfd, 10, not failures, time.monotonic() - t0, 30.0, str(failures))
