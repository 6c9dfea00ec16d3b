"""Structure-constant algebras: brackets, adjoint maps, invariant subspaces."""

import random
import time
from fractions import Fraction

import pytest
from dense_rref import dense, dense_kernel, dense_span

from ualie import _kernels
from ualie._kernels import WITNESS_PRIME
from ualie.constructions import CATALOG_EXAMPLES, build_catalog, direct_sum
from ualie.errors import InvalidStructure
from ualie.liecore import StructureConstantAlgebra
from ualie.linalg import vec_add, vec_scale, vector_is_zero, vectors_equal
from ualie.scalars import QQ, PrimeField


def sl2():
    return build_catalog("sl", QQ, n=2)


def rand_vec(rng, F, n, span=4):
    if F.kind == "Q":
        return [Fraction(rng.randint(-span, span)) for _ in range(n)]
    return [F.from_int(rng.randrange(F.order)) for _ in range(n)]


def test_sl2_structure_constants():
    g = sl2()
    assert g.basis_names == ["e", "h", "f"]
    e = [Fraction(1), Fraction(0), Fraction(0)]
    h = [Fraction(0), Fraction(1), Fraction(0)]
    f = [Fraction(0), Fraction(0), Fraction(1)]
    # [e,h] = -2e, [e,f] = h, [h,f] = -2f
    assert g.bracket(e, h) == [Fraction(-2), Fraction(0), Fraction(0)]
    assert g.bracket(e, f) == h
    assert g.bracket(h, f) == [Fraction(0), Fraction(0), Fraction(-2)]
    # antisymmetry on the same pairs
    assert g.bracket(h, e) == [Fraction(2), Fraction(0), Fraction(0)]


def test_bracket_bilinearity_random():
    rng = random.Random(314)
    for g in (sl2(), build_catalog("gl", PrimeField(5), n=2)):
        F = g.field
        for _ in range(50):
            x = rand_vec(rng, F, g.dim)
            y = rand_vec(rng, F, g.dim)
            z = rand_vec(rng, F, g.dim)
            c = F.from_int(rng.randint(-3, 3))
            lhs = g.bracket(vec_add(F, x, vec_scale(F, c, y)), z)
            rhs = vec_add(F, g.bracket(x, z), vec_scale(F, c, g.bracket(y, z)))
            assert vectors_equal(F, lhs, rhs)
            assert vector_is_zero(F, g.bracket(x, x))


def test_jacobi_identity_random():
    rng = random.Random(2718)
    g = build_catalog("example_5_7", QQ)
    F = g.field
    for _ in range(40):
        x, y, z = (rand_vec(rng, F, g.dim, span=3) for _ in range(3))
        total = g.bracket(x, g.bracket(y, z))
        total = vec_add(F, total, g.bracket(y, g.bracket(z, x)))
        total = vec_add(F, total, g.bracket(z, g.bracket(x, y)))
        assert vector_is_zero(F, total)


def test_ad_matrix_matches_bracket():
    """Row k of ad(x) holds the coefficients of e_k in the [x, e_j]; the
    nonzero rows come in ascending k, with no zero entries."""
    rng = random.Random(11)
    g = sl2()
    for _ in range(30):
        x = rand_vec(rng, QQ, 3)
        ad = g.ad_matrix(x)
        assert all(all(row.values()) for row in ad)  # no zero entries
        columns = [g.bracket(x, g.basis_vector(j)) for j in range(3)]
        full = [[columns[j][k] for j in range(3)] for k in range(3)]
        want = [row for row in full if not vector_is_zero(QQ, row)]
        assert len(ad) == len(want)
        for row, dense_row in zip(dense(QQ, ad, 3), want):
            assert vectors_equal(QQ, row, dense_row)


def test_ad_matrix_equals_ad_rows_as_a_matrix():
    """`ad_matrix` (from the brackets) and `ad_rows` (from `basis_ads`)
    give the same nonzero rows of ad(x), for random x over Q and F_5."""
    rng = random.Random(55)
    F5 = PrimeField(5)
    algebras = [build_catalog("example_5_7", QQ), build_catalog("sl", QQ, n=3),
                build_catalog("sl", F5, n=3), build_catalog("t", F5, n=3)]
    for g in algebras:
        for _ in range(10):
            x = rand_vec(rng, g.field, g.dim)
            got, want = g.ad_matrix(x), g.ad_rows(x)
            assert sorted(sorted(row.items()) for row in got) == sorted(
                sorted(row.items()) for row in want), g.name


def test_center_and_derived_dims():
    cases = [
        ("gl", {"n": 2}, 1, 3),
        ("gl", {"n": 3}, 1, 8),
        ("sl", {"n": 2}, 0, 3),
        ("heisenberg", {"k": 1}, 1, 1),
        ("heisenberg", {"k": 2}, 1, 1),
        ("t", {"n": 3}, 1, 3),
        ("n", {"n": 3}, 1, 1),
        ("s2", {}, 0, 1),
        ("abelian", {"d": 4}, 4, 0),
        ("example_4_6", {}, 1, 6),
        ("example_5_7", {}, 0, 4),
    ]
    for name, kw, center_dim, derived_dim in cases:
        g = build_catalog(name, QQ, **kw)
        assert g.center().dim == center_dim, g.name
        assert g.derived_subalgebra().dim == derived_dim, g.name


def test_centralizer_of_center_is_everything():
    g = build_catalog("heisenberg", QQ, k=2)
    z = g.center()
    assert z.dim == 1
    assert g.centralizer(z.vector(0)).dim == g.dim


def test_mutual_centralizer_sl2():
    g = sl2()
    e = [Fraction(1), Fraction(0), Fraction(0)]
    f = [Fraction(0), Fraction(0), Fraction(1)]
    # C(e) = span{e}, C(f) = span{f}: they intersect trivially
    assert g.centralizer(e).dim == 1
    assert g.mutual_centralizer_dim(e, f) == 0


def test_validate_accepts_catalog_rejects_broken():
    assert build_catalog("gl", QQ, n=3).validate().ok

    broken = StructureConstantAlgebra(
        "broken",
        QQ,
        3,
        None,
        {
            (0, 1): {2: Fraction(1)},
            (0, 2): {2: Fraction(1)},
            (1, 2): {0: Fraction(1)},
        },
    )
    rep = broken.validate()
    assert not rep.ok
    i, j, k, defect = rep.first_failure()
    assert (i, j, k) == (0, 1, 2)
    assert not vector_is_zero(QQ, defect)


def test_validate_runs_once_per_algebra():
    g = build_catalog("sl", QQ, n=3)
    assert g.validate() is g.validate()


def test_require_ok_names_the_first_failing_triple():
    """sl(3) with one structure constant bumped is refused by the one
    Jacobi refusal, naming the triple `validate` reports first."""
    g = build_catalog("sl", QQ, n=3)
    g.validate().require_ok()  # a valid algebra passes
    brackets = {ij: dict(row) for ij, row in g.brackets.items()}
    key = min(brackets)
    brackets[key][min(brackets[key])] += 1
    bumped = StructureConstantAlgebra("sl(3)~", QQ, g.dim, g.basis_names, brackets)
    i, j, k, _ = bumped.validate().first_failure()
    with pytest.raises(InvalidStructure,
                       match=rf"^Jacobi identity fails at basis triple \({i},{j},{k}\)$"):
        bumped.validate().require_ok()


def test_validate_is_fast_on_a_large_algebra_with_few_brackets():
    """Central basis vectors cost no (j, k) pairs: dim 5000 validates at once,
    and a Jacobi failure among the last three basis vectors is still found."""
    n = 5000
    flat = StructureConstantAlgebra.from_json_dict({"field": {"kind": "Q"}, "dim": n})
    a, b, c = n - 3, n - 2, n - 1
    broken = StructureConstantAlgebra(
        "broken", QQ, n, None, {(a, b): {c: 1}, (a, c): {c: 1}, (b, c): {a: 1}}
    )
    start = time.perf_counter()
    assert flat.validate().ok
    rep = broken.validate()
    assert time.perf_counter() - start < 1.0
    assert [(i, j, k) for i, j, k, _ in rep.jacobi_failures] == [(a, b, c)]


def test_json_round_trip_preserves_structure():
    rng = random.Random(6)
    for g in (sl2(), build_catalog("heisenberg", PrimeField(3), k=1)):
        g2 = StructureConstantAlgebra.from_json_dict(g.to_json_dict())
        assert g2.dim == g.dim and g2.name == g.name
        assert g2.field.kind == g.field.kind
        F = g.field
        for _ in range(20):
            x = rand_vec(rng, F, g.dim)
            y = rand_vec(rng, F, g.dim)
            assert vectors_equal(F, g.bracket(x, y), g2.bracket(x, y))


def _plain_center_and_derived(g):
    """The dense reference: the kernel of all stacked dense adjoints and the
    span of all brackets, each from one dense RREF."""
    F, n = g.field, g.dim
    stacked = dense(F, [row for i in range(n) for row in g.ad_matrix(g.basis_vector(i))], n)
    center = dense_span(F, dense_kernel(F, stacked, n), n)
    return center, dense_span(F, dense(F, g.brackets.values(), n), n)


def _certificate_outcomes(monkeypatch):
    outcomes = []
    real = _kernels.certified_kernel

    def spy(*args):
        res = real(*args)
        outcomes.append(res is not None)
        return res

    monkeypatch.setattr(_kernels, "certified_kernel", spy)
    return outcomes


def test_certificate_falls_back_when_the_witness_prime_divides_a_constant(monkeypatch):
    # [e1, e2] = p e1 vanishes mod p, so the modular row selection misses
    # every row and the exact check must reject its kernel
    p = Fraction(WITNESS_PRIME)
    scaled = StructureConstantAlgebra("p-scaled s2", QQ, 2, None, {(0, 1): {0: p}})
    g = direct_sum(scaled, build_catalog("heisenberg", QQ, k=1))
    outcomes = _certificate_outcomes(monkeypatch)
    center, derived = g.center(), g.derived_subalgebra()
    assert outcomes == [False, False]
    assert (center, derived) == _plain_center_and_derived(g)
    assert (center.dim, derived.dim) == (1, 2)


def test_certified_center_and_derived_match_plain_rref_on_catalog(monkeypatch):
    outcomes = _certificate_outcomes(monkeypatch)
    for name, params in CATALOG_EXAMPLES.items():
        for scale in (0, 1, 2):
            kw = {k: v + scale for k, v in params.items()}
            g = build_catalog(name, QQ, **kw)
            assert (g.center(), g.derived_subalgebra()) == _plain_center_and_derived(g), g.name
            assert g.center() is g.center() and g.derived_subalgebra() is g.derived_subalgebra()
    assert outcomes and all(outcomes)


def _in_unimodular_basis(g, rng, steps):
    """g over Q in the basis b_i = sum_a P[i][a] e_a, where P is a seeded
    product of elementary integer row operations, so P and its inverse Q are
    integral and the structure constants stay integers."""
    n = g.dim
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Q = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-1, 1))
        P[i] = [a + t * b for a, b in zip(P[i], P[j])]
        for r in range(n):
            Q[r][j] -= t * Q[r][i]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = g.bracket(P[i], P[j])
            coords = {k: sum(w[a] * Q[a][k] for a in range(n) if w[a]) for k in range(n)}
            brackets[(i, j)] = {k: x for k, x in coords.items() if x}
    return StructureConstantAlgebra(f"{g.name} in a unimodular basis", QQ, n, None, brackets)


def test_exact_fallback_finds_center_and_derived_of_gl6_in_a_dense_basis(monkeypatch):
    """With the certificate refused, the center and derived subalgebra of
    gl(6) in a seeded unimodular basis (entries up to a few hundred) come
    from the sparse RREF over Q in well under a second; a forward echelon
    with a separate back-substitution needs about 9 s on a shared 2-vCPU
    VM.  Both equal the certified ones."""
    h = build_catalog("gl", QQ, n=6)
    g = _in_unimodular_basis(h, random.Random(6), 4 * h.dim)
    certified = (g.center(), g.derived_subalgebra())
    g = StructureConstantAlgebra(g.name, QQ, g.dim, None, g.brackets)
    monkeypatch.setattr(_kernels, "certified_kernel", lambda int_rows, n: None)
    start = time.perf_counter()
    center, derived = g.center(), g.derived_subalgebra()
    assert time.perf_counter() - start < 3.0
    assert (center.dim, derived.dim) == (1, 35)
    assert (center, derived) == certified
