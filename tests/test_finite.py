"""Finite Lie rings: table validation, bijection search, swap counterexamples."""

import itertools
import random
import time

import pytest

import finite_oracle
from bijection_oracle import _enumerate_bijections as oracle_search
from ualie import finite as fin
from ualie.constructions import CATALOG, build_catalog, direct_sum
from ualie.errors import (
    BadCharacteristic,
    BadParams,
    CapExceeded,
    HypothesesNotMet,
    InvalidStructure,
)
from ualie.liecore import StructureConstantAlgebra
from ualie.scalars import QQ, PrimeField


def heis_ring(p):
    return fin.from_algebra(build_catalog("heisenberg", PrimeField(p), k=1))


def relabel(base, rng):
    """``base`` conjugated by a seeded permutation that fixes 0."""
    n = base.order
    perm = list(range(1, n))
    rng.shuffle(perm)
    perm = [0] + perm  # keep 0 fixed so tables stay well-formed
    inv = [0] * n
    for i, x in enumerate(perm):
        inv[x] = i
    add = [[perm[base.add[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    neg = [perm[base.neg[inv[a]]] for a in range(n)]
    br = [[perm[base.bracket[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    return fin.FiniteLieRing(f"{base.name} relabelled", n, add, neg, br)


# ---------------------------------------------------------------------------
# construction and validation


def test_cyclic_ring_tables():
    r = fin.cyclic_ring(6)
    assert r.name == "Z/6" and r.order == 6
    assert r.add[4][5] == 3
    assert all(all(v == 0 for v in row) for row in r.bracket)
    assert r.validate().ok


def test_klein_ring_is_abelian_f2_square():
    k = fin.klein_ring()
    g = fin.from_algebra(build_catalog("abelian", PrimeField(2), d=2))
    assert k.order == g.order == 4
    assert k.add == g.add and k.bracket == g.bracket


def test_from_algebra_digit_encoding():
    r = heis_ring(2)
    assert r.name == "heisenberg(1)/F_2" and r.order == 8
    # element 1 = x, element 2 = y, [x, y] = z which encodes as 4
    assert r.bracket[1][2] == 4
    assert r.bracket[2][1] == 4  # -z = z over F_2
    assert r.validate().ok


def test_from_algebra_refuses_rationals_and_big_orders():
    with pytest.raises(InvalidStructure):
        fin.from_algebra(build_catalog("abelian", QQ, d=1))
    with pytest.raises(CapExceeded):
        fin.from_algebra(build_catalog("gl", PrimeField(7), n=3))  # 7^9 elements


def test_from_algebra_refuses_order_2048_before_building_anything():
    """abelian(11)/F_2 has 2048 elements, past the cap of 1024; building its
    tables would take seconds and hundreds of MB, the refusal takes none."""
    g = build_catalog("abelian", PrimeField(2), d=11)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"^ring order 2048 exceeds cap 1024$"):
        fin.from_algebra(g)
    assert time.perf_counter() - start < 0.1


def test_the_enumeration_cap_raises_cap_exceeded_like_every_other_cap():
    big = fin.cyclic_ring(33)
    for search in (fin.is_wua, fin.commutator_bijections, lambda r: fin.ua_against(r, r)):
        with pytest.raises(CapExceeded, match=r"^enumeration capped at order 32$"):
            search(big)


def test_validation_catches_broken_tables():
    r = fin.cyclic_ring(4)
    bad_add = [row[:] for row in r.add]
    bad_add[1][2] = 1  # breaks cancellation
    broken = fin.FiniteLieRing("broken", 4, bad_add, r.neg, r.bracket)
    rep = broken.validate()
    assert not rep.ok and rep.failures

    bad_br = [row[:] for row in r.bracket]
    bad_br[1][1] = 2  # [x, x] must vanish
    broken2 = fin.FiniteLieRing("broken2", 4, r.add, r.neg, bad_br)
    rep2 = broken2.validate()
    assert not rep2.ok
    assert any("alternating" in f or "[x,x]" in f for f in rep2.failures)


def test_json_round_trip():
    r = heis_ring(2)
    r2 = fin.FiniteLieRing.from_json_dict(r.to_json_dict(), name=r.name)
    assert r2.order == r.order
    assert r2.add == r.add and r2.bracket == r.bracket and r2.neg == r.neg


def test_vector_index_round_trip():
    rng = random.Random(61)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        dim = rng.randint(1, 4)
        v = [rng.randrange(p) for _ in range(dim)]
        assert finite_oracle.index_vector(fin.vector_index(v, p), p, dim) == v


def _small_catalog(max_order):
    """Every catalog algebra over F_2, F_3, F_5 and F_7 with at most
    ``max_order`` elements, each family at every parameter up to 7."""
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        for name, (_, wanted) in CATALOG.items():
            for value in range(8) if wanted else [None]:
                try:
                    g = build_catalog(name, field, **({wanted[0]: value} if wanted else {}))
                except (BadParams, BadCharacteristic):
                    continue
                if p**g.dim <= max_order:
                    yield g


def test_from_algebra_tables_match_the_oracles():
    """The tables built by additivity are the ones the entry-by-entry
    expansion builds, on every catalog algebra of order at most 125."""
    seen = 0
    for g in _small_catalog(125):
        got, want = fin.from_algebra(g), finite_oracle.expand(g)
        assert (got.name, got.order) == (want.name, want.order)
        assert (got.add, got.neg, got.bracket) == (want.add, want.neg, want.bracket), want.name
        seen += 1
    assert seen >= 50  # the catalog gives 57


def _random_algebra(rng, p, dim):
    """Alternating structure constants over F_p, each pair bracketing to a
    random vector half of the time; Jacobi may fail."""
    brackets = {}
    for i, j in itertools.combinations(range(dim), 2):
        if rng.random() < 0.5:
            brackets[(i, j)] = {k: rng.randrange(p) for k in range(dim)}
    return StructureConstantAlgebra(f"random{dim}", PrimeField(p), dim, brackets=brackets)


def _max_table(n):
    """a + b = max(a, b) for a != b and a + a = 0: 0 is neutral, each element
    is its own inverse and + commutes, but no row past 0 is a permutation."""
    return [[max(a, b) if a != b else 0 for b in range(n)] for a in range(n)]


def _loop_table(rng, n):
    """A commutative addition on 0..n-1 with 0 neutral and one zero per row
    (inverses paired at random), every other entry a random nonzero label."""
    neg, labels = [0] * n, rng.sample(range(1, n), n - 1)
    while labels:
        a = labels.pop()
        b = labels.pop() if labels and rng.random() < 0.5 else a
        neg[a], neg[b] = b, a
    add = [list(range(n))] + [[0] * n for _ in range(n - 1)]
    for a in range(1, n):
        add[a][0] = a
        for b in range(a, n):
            add[a][b] = add[b][a] = 0 if b == neg[a] else rng.randrange(1, n)
    return add


def _corrupted_rings(rng):
    """(family, ring) pairs on which the exhaustive scan and the check from
    generators must agree: edits of relabelled menu rings, swapped bracket
    tables, rings that fail one axiom alone (alternating or commutative),
    additions whose rows are not permutations, and unvalidated expansions
    of random structure constants."""
    rings, t2 = _oracle_rings()
    rings = [r for r in rings + [t2] if 2 < r.order <= 16]  # 27 and 25 cost 10 ms a scan
    copy = lambda rows: [row[:] for row in rows]  # noqa: E731
    for _ in range(1500):  # one entry of add or bracket set to another value
        r = relabel(rng.choice(rings), rng)
        table = copy(rng.choice((r.add, r.bracket)))
        a, b = rng.randrange(r.order), rng.randrange(r.order)
        table[a][b] = rng.choice([v for v in range(r.order) if v != table[a][b]])
        add, brk = (table, r.bracket) if rng.random() < 0.5 else (r.add, table)
        yield "entry", fin.FiniteLieRing("entry", r.order, add, r.neg, brk)
    for _ in range(1200):  # + stays commutative with its inverses: associativity decides
        r = relabel(rng.choice(rings), rng)
        add = copy(r.add)
        a, b = rng.randrange(1, r.order), rng.randrange(1, r.order)
        if add[a][b] == 0:
            continue
        add[a][b] = add[b][a] = rng.choice([v for v in range(1, r.order) if v != add[a][b]])
        yield "symmetric add", fin.FiniteLieRing("sym", r.order, add, r.neg, r.bracket)
    for _ in range(1000):  # the bracket stays antisymmetric and alternating
        r = relabel(rng.choice(rings), rng)
        brk = copy(r.bracket)
        a, b = rng.sample(range(r.order), 2)
        brk[a][b] = rng.choice([v for v in range(r.order) if v != brk[a][b]])
        brk[b][a] = r.neg[brk[a][b]]
        yield "antisymmetric bracket", fin.FiniteLieRing("anti", r.order, r.add, r.neg, brk)
    for _ in range(600):
        r = relabel(rng.choice(rings), rng)
        s = relabel(rng.choice([s for s in rings if s.order == r.order]), rng)
        yield "swapped bracket", fin.FiniteLieRing("swap", r.order, r.add, r.neg, s.bracket)
    for m in (4, 6, 8):  # [x,y] = (m/2)xy is biadditive and antisymmetric, [1,1] != 0
        z = fin.cyclic_ring(m)
        brk = [[m // 2 * x * y % m for y in range(m)] for x in range(m)]
        for _ in range(20):
            yield "near miss", relabel(fin.FiniteLieRing("Z/m", m, z.add, z.neg, brk), rng)
    perms = sorted(itertools.permutations(range(3)))  # S_3: a group, not commutative
    s3 = [[perms.index(tuple(x[y[i]] for i in range(3))) for y in perms] for x in perms]
    s3 = fin.FiniteLieRing("S_3", 6, s3, [row.index(0) for row in s3], [[0] * 6] * 6)
    for _ in range(20):
        yield "near miss", relabel(s3, rng)
    for _ in range(300):  # 0 neutral, inverses and + commuting; rows need not permute
        n = rng.randrange(3, 17)
        add = _loop_table(rng, n) if rng.random() < 0.9 else _max_table(n)
        r = rng.choice([r for r in rings if r.order == n] or [fin.cyclic_ring(n)])
        yield "non-permutation add", relabel(fin.FiniteLieRing(
            "loop", n, add, [row.index(0) for row in add], r.bracket), rng)
    shapes = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))  # (p, dim)
    for _ in range(1500):  # biadditive by construction: Jacobi decides
        p, dim = rng.choices(shapes, weights=(4, 5, 5, 4, 1))[0]
        yield "structure constants", finite_oracle.expand(_random_algebra(rng, p, dim))


def test_validate_agrees_with_the_exhaustive_oracle():
    """`validate` returns the oracle's verdict and failure list on every
    corrupted ring.  At least 1,000 cases are valid, and at least 1,000
    others pass the group axioms and fail later, so that the checks from
    generators decide them."""
    group = ("neutral", "inverse", "commutative", "associative")
    valid = late = 0
    for family, ring in _corrupted_rings(random.Random(14)):
        got, want = ring.validate(), finite_oracle.validate(ring)
        assert (got.ok, got.failures) == (want.ok, want.failures), (family, want.failures)
        valid += want.ok
        late += not want.ok and not any(w in f for f in want.failures for w in group)
    assert valid >= 1000 and late >= 1000, (valid, late)


def test_a_non_group_addition_of_order_32_is_refused_in_time():
    """`_max_table(32)` passes every group axiom but associativity, and each
    label 1..31 lies outside the +-span of the smaller ones.  `validate`
    names the oracle's failures in well under a second; counting a label of
    the span once per sum that reaches it would make the span 2^31 long."""
    n = 32
    ring = fin.FiniteLieRing("max", n, _max_table(n), list(range(n)), [[0] * n] * n)
    start = time.perf_counter()
    got = ring.validate()
    assert time.perf_counter() - start < 1.0
    want = finite_oracle.validate(ring)
    assert not want.ok and (got.ok, got.failures) == (want.ok, want.failures)


def test_from_algebra_refuses_structure_constants_failing_jacobi_before_expanding():
    """Random alternating structure constants on F_2^7 that fail Jacobi are
    refused from the basis, at a cost that does not grow with the order."""
    rng = random.Random(14)
    g = _random_algebra(rng, 2, 7)
    while g.validate().ok:
        g = _random_algebra(rng, 2, 7)
    i, j, k, _ = g.validate().first_failure()
    start = time.perf_counter()
    with pytest.raises(InvalidStructure, match=rf"basis triple \({i},{j},{k}\)"):
        fin.from_algebra(g)
    assert time.perf_counter() - start < 0.05


def test_large_expansions_build_and_validate_in_seconds():
    """Tables built by additivity and checked from generators: sl(2)/F_7
    (343 elements) in under 1 s and gl(3)/F_2 (512) in under 2 s, where
    the entry-by-entry build and the exhaustive check took 17 s and 6 s."""
    for g, seconds in ((build_catalog("sl", PrimeField(7), n=2), 1.0),
                       (build_catalog("gl", PrimeField(2), n=3), 2.0)):
        start = time.perf_counter()
        ring = fin.from_algebra(g)
        assert time.perf_counter() - start < seconds, ring.name
        assert ring.order in (343, 512)


# ---------------------------------------------------------------------------
# bijection enumeration


def test_commutator_bijection_counts_frozen():
    k = fin.klein_ring()
    assert fin.commutator_bijections(k)[0] == 6
    assert fin.commutator_bijections(k, fin.cyclic_ring(4))[0] == 6
    assert fin.commutator_bijections(heis_ring(2))[0] == 48


def test_backtracking_agrees_with_naive_filter():
    """The pruned search must count exactly what brute-force permutation
    filtering counts, for every small ring we can afford to brute-force."""
    rings = [fin.cyclic_ring(m) for m in range(1, 8)]
    rings += [fin.klein_ring(), heis_ring(2)]
    rings += [fin.from_algebra(build_catalog("abelian", PrimeField(2), d=3))]
    for r in rings:
        assert fin.commutator_bijections(r)[0] == fin.naive_commutator_bijections(r), r.name


def test_bijections_actually_preserve_commutators():
    r = heis_ring(2)
    n, samples = fin.commutator_bijections(r, limit=3)
    assert n == 48 and len(samples) == 3
    for alpha in samples:
        assert fin.verify_bijection(r, r, alpha)
        assert sorted(alpha) == list(range(8))


def _oracle_rings():
    F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)
    rings = [fin.cyclic_ring(m) for m in range(1, 9)] + [fin.klein_ring()]
    for family, field, params in (
        ("heisenberg", F2, {"k": 1}), ("abelian", F2, {"d": 3}), ("sl", F2, {"n": 2}),
        ("t", F2, {"n": 2}), ("n", F2, {"n": 3}), ("sl", F3, {"n": 2}), ("s2", F3, {}),
        ("s2", F5, {}),
    ):
        rings.append(fin.from_algebra(build_catalog(family, field, **params)))
    t2 = direct_sum(build_catalog("t", F2, n=2), build_catalog("abelian", F2, d=1))
    return rings, fin.from_algebra(t2)


def _search_run(monkeypatch, search, r, s):
    """The maps ``search`` yields from r to s, the maps that
    ``commutator_bijections`` draws under its pre-assignment of Z_0, and what
    the package's three consumers of the search return with ``search`` in
    their place.  The oracle takes no pre-assignment: it meets one by
    filtering its maps, which then come out in its order."""
    yielded = list(search(r, s))
    drawn = []

    def recorded(r_, s_, fixed=()):
        if fixed and search is not oracle_search:
            maps = search(r_, s_, fixed)
        else:
            maps = (alpha for alpha in yielded if all(alpha[x] == y for x, y in fixed))
        for alpha in maps:
            drawn.append(alpha)
            yield alpha

    monkeypatch.setattr(fin, "_enumerate_bijections", recorded)
    outputs = [fin.commutator_bijections(r, s, limit=4)]  # draws every map it counts
    counted = list(drawn)
    outputs.append(fin.ua_against(r, s))
    if r is s:
        outputs.append(fin.is_wua(r))
    return yielded, counted, outputs


def _oracle_pairs():
    """Every equal-order pair of `_oracle_rings`, seeded relabellings of
    each ring with a nonzero bracket but t(2)+F_2 (its 41,472 maps take
    over a second per oracle search), and a target whose bracket is not
    alternating and one whose bracket is not antisymmetric, which only the
    check of [a,x] beside [x,a] rejects.  The search reads only the bracket
    tables, so relabelling a ring with the zero bracket would repeat a
    pair."""
    rings, t2 = _oracle_rings()
    rng = random.Random(13)
    pairs = [(r, s) for r in rings + [t2] for s in rings + [t2] if r.order == s.order]
    for r in (r for r in rings if any(map(any, r.bracket))):
        pairs += [(relabel(r, rng), r), (r, relabel(r, rng))]
        relabelled = relabel(r, rng)
        pairs.append((relabelled, relabelled))
    for r, (y, z, v) in ((heis_ring(2), (3, 3, 4)), (fin.cyclic_ring(4), (1, 2, 3))):
        bracket = [row[:] for row in r.bracket]
        bracket[y][z] = v  # [y,y] != 0, or [y,z] != -[z,y]
        pairs.append((r, fin.FiniteLieRing("odd target", r.order, r.add, r.neg, bracket)))
    return pairs


def _sends_free_central_increasingly(r, s, alpha):
    return [alpha[x] for x in fin._free_central(r)] == fin._free_central(s)


def test_search_yields_the_recursive_oracles_maps_in_its_order(monkeypatch):
    """The iterative search branches like the recursive one it replaced
    (``tests/bijection_oracle.py``), so both must yield the same maps in the
    same order on every pair of `_oracle_pairs`.  With Z_0 pre-assigned in
    increasing order, the search must yield exactly the oracle's maps that
    send Z_0 increasingly, in the oracle's order, and none where the two Z_0
    differ in size; ``commutator_bijections`` (samples included),
    ``ua_against`` and ``is_wua`` must return the same with either search in
    place.  The count must be the number of maps the unfactored oracle
    yields, and every sample a commutator-preserving bijection that sends
    Z_0 increasingly."""
    search = fin._enumerate_bijections
    for r, s in _oracle_pairs():
        got = _search_run(monkeypatch, search, r, s)
        want = _search_run(monkeypatch, oracle_search, r, s)
        assert got == want, (r.name, s.name)
        oracle_maps, counted, ((count, samples), *_) = want
        assert count == len(oracle_maps), (r.name, s.name)
        assert counted == [alpha for alpha in oracle_maps
                           if _sends_free_central_increasingly(r, s, alpha)], (r.name, s.name)
        for alpha in samples:
            assert fin.verify_bijection(r, s, alpha), (r.name, s.name, alpha)
            assert _sends_free_central_increasingly(r, s, alpha), (r.name, s.name, alpha)


def test_count_enumerates_one_map_per_permutation_of_the_free_center(monkeypatch):
    """t(2)+F_2 has three free central elements, and in Z/8 and
    abelian(3)/F_2 all seven nonzero elements are free central: the search
    yields 6,912, 1 and 1 maps for counts of 41,472, 5,040 and 5,040.  Onto abelian(4)/F_2, with 15 free central
    elements, t(2)+F_2 has no map and nothing is enumerated."""
    search = fin._enumerate_bijections
    yielded = []

    def counted(r_, s_, fixed=()):
        yielded.append(0)
        for alpha in search(r_, s_, fixed):
            yielded[-1] += 1
            yield alpha

    monkeypatch.setattr(fin, "_enumerate_bijections", counted)
    F2 = PrimeField(2)
    _, t2 = _oracle_rings()
    z8, a3 = fin.cyclic_ring(8), fin.from_algebra(build_catalog("abelian", F2, d=3))
    assert [len(fin._free_central(r)) for r in (t2, z8, a3)] == [3, 7, 7]
    assert [fin.commutator_bijections(r)[0] for r in (t2, z8, a3)] == [41_472, 5_040, 5_040]
    assert yielded == [6_912, 1, 1]
    a4 = fin.from_algebra(build_catalog("abelian", F2, d=4))
    assert fin.commutator_bijections(t2, a4) == (0, [])
    assert yielded == [6_912, 1, 1]


def test_a_target_with_a_nonzero_self_bracket_admits_no_map():
    """Z/4 onto Z/4 with [1,1] = 2: every pair of distinct elements
    brackets to 0 on both sides, so only the check of an element against
    itself rejects the maps that send some x to 1."""
    z4 = fin.cyclic_ring(4)
    bracket = [row[:] for row in z4.bracket]
    bracket[1][1] = 2
    target = fin.FiniteLieRing("Z/4, [1,1]=2", 4, z4.add, z4.neg, bracket)
    assert list(fin._enumerate_bijections(z4, target)) == []
    assert fin.commutator_bijections(z4, target) == (0, [])


def test_cross_ring_enumeration_rejects_mismatched_orders():
    with pytest.raises(Exception):
        fin.commutator_bijections(fin.klein_ring(), fin.cyclic_ring(5))


# ---------------------------------------------------------------------------
# weak unique addition


def test_wua_klein_true():
    ok, counter = fin.is_wua(fin.klein_ring())
    assert ok and counter is None


def test_wua_z5_false_with_frozen_counterexample():
    ok, counter = fin.is_wua(fin.cyclic_ring(5))
    assert not ok
    assert counter == {"map": [0, 1, 2, 4, 3], "pair": [1, 2]}
    # the recorded map really is non-additive at the recorded pair
    m = counter["map"]
    a, b = counter["pair"]
    r = fin.cyclic_ring(5)
    assert m[r.add[a][b]] != r.add[m[a]][m[b]]


def test_wua_small_cyclic():
    for m, expect in [(1, True), (2, True), (3, True), (4, False), (5, False)]:
        assert fin.is_wua(fin.cyclic_ring(m))[0] == expect, m


def test_wua_heisenberg_f2_false():
    ok, counter = fin.is_wua(heis_ring(2))
    assert not ok
    r = heis_ring(2)
    m = counter["map"]
    a, b = counter["pair"]
    assert fin.verify_bijection(r, r, m)
    assert m[r.add[a][b]] != r.add[m[a]][m[b]]


def test_ua_against_self_matches_wua():
    """`is_wua` returns the verdict of `ua_against(r, r)` and its map and pair."""
    for r in (fin.klein_ring(), fin.cyclic_ring(4), fin.cyclic_ring(5), heis_ring(2)):
        ok, evidence = fin.ua_against(r, r)
        want = None if ok else {"map": evidence["map"], "pair": evidence["pair"]}
        assert fin.is_wua(r) == (ok, want), r.name


def test_ua_against_klein_z4():
    ok, evidence = fin.ua_against(fin.klein_ring(), fin.cyclic_ring(4))
    assert not ok
    assert evidence["bijections_seen"] >= 1
    m = evidence["map"]
    a, b = evidence["pair"]
    k, z4 = fin.klein_ring(), fin.cyclic_ring(4)
    assert fin.verify_bijection(k, z4, m)
    assert m[k.add[a][b]] != z4.add[m[a]][m[b]]


def test_ua_against_klein_self_all_additive():
    ok, evidence = fin.ua_against(fin.klein_ring(), fin.klein_ring())
    assert ok and evidence["bijections_seen"] == 6


def test_ua_against_refuses_a_map_that_fails_the_scan(monkeypatch):
    """The non-additive map is returned only after the independent scan:
    with the scan made to fail, the search's map is refused."""
    monkeypatch.setattr(fin, "verify_bijection", lambda r, s, alpha: False)
    with pytest.raises(HypothesesNotMet, match="fails the commutator scan"):
        fin.ua_against(fin.klein_ring(), fin.cyclic_ring(4))
    with pytest.raises(HypothesesNotMet, match="fails the commutator scan"):
        fin.is_wua(fin.cyclic_ring(5))
    # a search with no non-additive map scans nothing
    assert fin.ua_against(fin.klein_ring(), fin.klein_ring())[0]


# ---------------------------------------------------------------------------
# negative criterion on raw tables


def test_negative_bijection_heisenberg_f2_frozen_witness():
    rep = fin.negative_bijection_finite(heis_ring(2))
    assert rep.case == 3
    assert rep.witness == {"u": 1, "c": 2, "alpha(u+c)": 3, "alpha(u)+alpha(c)": 7}
    assert fin.verify_bijection(heis_ring(2), heis_ring(2), rep.table)
    # table is a genuine permutation differing from the identity in two points
    t = rep.table
    assert sorted(t) == list(range(8))
    assert sum(1 for i, x in enumerate(t) if x != i) == 2


def test_negative_bijection_full_scan_property():
    """The returned table must preserve every commutator; re-scan all pairs
    here, apart from the package's own scan."""
    for r in (heis_ring(2), heis_ring(3), fin.cyclic_ring(8)):
        rep = fin.negative_bijection_finite(r)
        t = rep.table
        for a in range(r.order):
            for b in range(r.order):
                assert t[r.bracket[a][b]] == r.bracket[t[a]][t[b]], (r.name, a, b)


def test_negative_bijection_refuses_a_swap_that_fails_the_scan(monkeypatch):
    """The swap is returned only after the full scan of every commutator."""
    monkeypatch.setattr(fin, "verify_bijection", lambda r, s, alpha: False)
    with pytest.raises(HypothesesNotMet, match="fails the commutator scan"):
        fin.negative_bijection_finite(heis_ring(2))


def test_negative_bijection_case1_commutative():
    rep = fin.negative_bijection_finite(fin.cyclic_ring(8))
    assert rep.case == 1


def test_the_swap_covers_a_two_element_center_meeting_derived_trivially():
    """Rings with Z ∩ D = 0, |Z| = 2 and |R/D| > 2 (D the derived subring)
    fell outside the old hypothesis |Z| > 2.  On every such catalog ring over
    F_2 and F_3 of order <= 1024, the algebra's swap u <-> u + z must
    preserve every commutator of its table and break additivity, and the
    table version must take case 2 as well."""
    from ualie import analysis as an

    seen = []
    for g in _small_catalog(1024):
        p = g.field.p
        if p > 3:
            continue
        derived, center = g.derived_subalgebra(), g.center()
        if center.dim == 0 or derived.dim == g.dim or center.intersect(derived).dim:
            continue
        if p**center.dim > 2 or p ** (g.dim - derived.dim) <= 2 or p**g.dim <= 4:
            continue
        seen.append((g.name, p))
        res = an.negative_criterion(g)
        assert res is not None and res.case == 2, g.name
        u, v = res.swap
        c = res.nonadditivity["c"]
        r = fin.from_algebra(g)
        iu, iv, ic = (fin.vector_index(x, p) for x in (u, v, c))
        table = list(range(r.order))
        table[iu], table[iv] = iv, iu
        assert fin.verify_bijection(r, r, table), g.name
        assert table[r.add[iu][ic]] != r.add[table[iu]][table[ic]], g.name
        rep = fin.negative_bijection_finite(r)
        assert rep.case == 2 and fin.verify_bijection(r, r, rep.table), g.name
    assert {("t(2)", 2), ("t(3)", 2), ("t(4)", 2)} <= set(seen), seen


def test_negative_bijection_hypothesis_failures_are_named():
    with pytest.raises(HypothesesNotMet) as ei:
        fin.negative_bijection_finite(fin.cyclic_ring(4))
    assert "4 elements" in str(ei.value)
    with pytest.raises(HypothesesNotMet) as ei2:
        fin.negative_bijection_finite(
            fin.from_algebra(build_catalog("sl", PrimeField(3), n=2))
        )
    msg = str(ei2.value)
    assert "derived" in msg or "center" in msg


# ---------------------------------------------------------------------------
# multiplicative-only maps on small fields


def test_semigroup_report_q5():
    rep = fin.semigroup_aut_report(5, 1)
    assert (rep["q"], rep["brute_count"], rep["phi_q_minus_1"]) == (5, 2, 2)
    # only the identity power map is additive over a prime field
    assert rep["field_aut_count"] == 1 and rep["additive_count"] == 1
    assert rep["nonadditive"] == {
        "k": 3,
        "pair": ["1", "1"],
        "alpha(a+b)": "3",
        "alpha(a)+alpha(b)": "2",
    }


def test_semigroup_report_q4_all_additive():
    rep = fin.semigroup_aut_report(2, 2)
    assert (rep["brute_count"], rep["phi_q_minus_1"], rep["additive_count"]) == (2, 2, 2)
    assert rep["nonadditive"] is None


def test_semigroup_report_counts_match_euler_phi():
    def phi(n):
        return sum(1 for k in range(1, n + 1) if __import__("math").gcd(k, n) == 1)

    for p, n in [(2, 1), (3, 1), (7, 1), (2, 3), (3, 2)]:
        rep = fin.semigroup_aut_report(p, n)
        assert rep["brute_count"] == rep["phi_q_minus_1"] == phi(p**n - 1)
        assert (rep["nonadditive"] is not None) == (p**n > 4)


def test_semigroup_cap():
    with pytest.raises(CapExceeded):
        fin.semigroup_aut_report(2, 10)


# ---------------------------------------------------------------------------
# randomized cross-checks


def test_random_relabelling_preserves_bijection_count():
    """Conjugating a ring by a random permutation must not change how many
    commutator-preserving self-bijections it has."""
    rng = random.Random(20_26)
    for _ in range(5):
        r = relabel(fin.klein_ring(), rng)
        assert r.validate().ok
        assert fin.commutator_bijections(r)[0] == 6


def test_derived_and_center_elements_heisenberg():
    r = heis_ring(2)
    assert set(r.derived_elements()) == {0, 4}
    assert set(r.center_elements()) == {0, 4}
