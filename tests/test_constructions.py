"""Builders: catalog families, seaweed subalgebras and direct sums."""

import itertools
import random
from fractions import Fraction

import pytest

import constructions_oracle as oracle
from ualie import constructions
from ualie.constructions import (
    CATALOG,
    SeaweedSpec,
    build_catalog,
    build_seaweed,
    direct_sum,
)
from ualie.errors import BadParams, FieldMismatch, InvalidStructure, UalieError, UnknownCatalogName
from ualie.scalars import QQ, PrimeField


def test_catalog_dimension_formulas():
    for n in (1, 2, 3, 4):
        assert build_catalog("gl", QQ, n=n).dim == n * n
        assert build_catalog("t", QQ, n=n).dim == n * (n + 1) // 2
        assert build_catalog("n", QQ, n=n).dim == n * (n - 1) // 2
    for n in (2, 3, 4):
        assert build_catalog("sl", QQ, n=n).dim == n * n - 1
    for k in (1, 2, 3):
        assert build_catalog("heisenberg", QQ, k=k).dim == 2 * k + 1
    for d in (1, 2, 5):
        assert build_catalog("abelian", QQ, d=d).dim == d
    assert build_catalog("s2", QQ).dim == 2
    assert build_catalog("example_4_6", QQ).dim == 6
    assert build_catalog("example_5_7", QQ).dim == 9


def test_all_catalog_entries_satisfy_jacobi():
    sample_params = {"n": 3, "k": 2, "d": 3}
    for name, (_fn, params) in sorted(CATALOG.items()):
        kw = {p: sample_params[p] for p in params}
        for F in (QQ, PrimeField(5)):
            g = build_catalog(name, F, **kw)
            assert g.validate().ok, (name, F.kind)


def test_catalog_errors():
    with pytest.raises(UnknownCatalogName):
        build_catalog("so", QQ, n=3)
    with pytest.raises(BadParams):
        build_catalog("sl", QQ)  # missing n
    with pytest.raises(BadParams):
        build_catalog("sl", QQ, n=2, k=1)  # stray parameter
    with pytest.raises(BadParams):
        build_catalog("gl", QQ, n=0)


def _comps(n):
    return [c for r in range(1, n + 1) for c in itertools.product(range(1, n + 1), repeat=r)
            if sum(c) == n]


def test_each_builder_checks_the_exact_dimension_it_would_build(monkeypatch):
    """With the cap set to the dimension built, each build passes; one below
    it, the build is refused with the cap named.  So the dimension checked
    before the build is the one built, for every matrix family (n <= 6),
    every seaweed with n <= 4, heisenberg and abelian."""
    builds = [(f, {"n": n}) for f in ("gl", "t", "n") for n in range(1, 7)]
    builds += [("sl", {"n": n}) for n in range(2, 7)]
    builds += [("heisenberg", {"k": k}) for k in (1, 2, 5)]
    builds += [("abelian", {"d": d}) for d in (0, 1, 5)]
    specs = [(n, top, bottom) for n in range(1, 5) for top in _comps(n) for bottom in _comps(n)]
    for name, params in builds:
        cap = "MATRIX_DIM_CAP" if name in ("gl", "t", "n", "sl") else "DIM_CAP"
        dim = build_catalog(name, QQ, **params).dim
        monkeypatch.setattr(constructions, cap, dim)
        assert build_catalog(name, QQ, **params).dim == dim
        if dim:
            monkeypatch.setattr(constructions, cap, dim - 1)
            with pytest.raises(BadParams, match=rf"dimension {dim}, past the cap {dim - 1}$"):
                build_catalog(name, QQ, **params)
        monkeypatch.undo()
    for n, top, bottom in specs:
        dim = build_seaweed(SeaweedSpec(n, top, bottom), QQ).dim
        monkeypatch.setattr(constructions, "MATRIX_DIM_CAP", dim)
        SeaweedSpec(n, top, bottom)
        if dim:
            monkeypatch.setattr(constructions, "MATRIX_DIM_CAP", dim - 1)
            with pytest.raises(BadParams, match=rf"dimension {dim}, past the cap {dim - 1}$"):
                SeaweedSpec(n, top, bottom)
        monkeypatch.undo()
    assert len(specs) == 1 + 4 + 16 + 64


def test_the_size_caps_sit_where_the_build_cost_puts_them():
    """gl(64) (dimension 4096) and abelian(65536) may be built, the next
    sizes up are refused before any list is built."""
    assert constructions.MATRIX_DIM_CAP == 4096
    assert build_catalog("abelian", QQ, d=65536).dim == 65536
    assert build_catalog("heisenberg", QQ, k=32767).dim == 65535
    assert SeaweedSpec(64, (64,), (64,)).n == 64  # sl(64): 4095
    for name, params, dim in (("gl", {"n": 65}, 4225), ("sl", {"n": 65}, 4224),
                              ("t", {"n": 91}, 4186), ("n", {"n": 92}, 4186),
                              ("abelian", {"d": 65537}, 65537),
                              ("heisenberg", {"k": 32768}, 65537)):
        with pytest.raises(BadParams, match=rf"dimension {dim}, past the cap"):
            build_catalog(name, QQ, **params)
    with pytest.raises(BadParams, match=r"dimension 4224, past the cap 4096$"):
        SeaweedSpec(65, (65,), (65,))


def test_sl2_is_gl2_derived_subalgebra():
    gl2 = build_catalog("gl", QQ, n=2)
    assert gl2.derived_subalgebra().dim == build_catalog("sl", QQ, n=2).dim


def test_heisenberg_brackets():
    g = build_catalog("heisenberg", QQ, k=2)
    dim = g.dim
    z = [Fraction(0)] * dim
    z[-1] = Fraction(1)
    # [x_i, y_i] = z and z is central
    for i in range(2):
        x = [Fraction(0)] * dim
        y = [Fraction(0)] * dim
        x[i] = Fraction(1)
        y[2 + i] = Fraction(1)
        assert g.bracket(x, y) == z
    assert g.centralizer(z).dim == dim


def test_seaweed_spec_validation():
    with pytest.raises(BadParams):
        SeaweedSpec(4, (2, 3), (4,))  # top sums to 5, not 4
    with pytest.raises(BadParams):
        SeaweedSpec(4, (2, 2), (0, 4))
    spec = SeaweedSpec(4, (2, 2), (4,))
    assert spec.label() == "seaweed(n=4,top=2|2,bottom=4)"


def test_seaweed_extreme_compositions():
    # top = bottom = (n): all of sl(n)
    g = build_seaweed(SeaweedSpec(3, (3,), (3,)), QQ)
    assert g.dim == 8
    # finest top: lower triangular traceless matrices
    g2 = build_seaweed(SeaweedSpec(3, (1, 1, 1), (3,)), QQ)
    assert g2.dim == 5
    assert g2.validate().ok


def test_seaweed_dim_counts_root_and_diagonal_coords():
    rng = random.Random(23)

    def comps(n):
        # random composition of n
        parts = []
        left = n
        while left:
            c = rng.randint(1, left)
            parts.append(c)
            left -= c
        return tuple(parts)

    for _ in range(12):
        n = rng.randint(1, 5)
        spec = SeaweedSpec(n, comps(n), comps(n))
        g = build_seaweed(spec, QQ)
        assert g.dim == len(spec.roots()) + n - 1
        assert g.validate().ok


def test_seaweed_prime_field():
    # characteristic must exceed n for the traceless-diagonal coordinates
    g = build_seaweed(SeaweedSpec(3, (2, 1), (3,)), PrimeField(5))
    assert g.field.kind == "Fp" and g.validate().ok
    from ualie.errors import BadCharacteristic

    with pytest.raises(BadCharacteristic):
        build_seaweed(SeaweedSpec(3, (2, 1), (3,)), PrimeField(3))


def test_direct_sum_blocks_commute():
    a = build_catalog("sl", QQ, n=2)
    b = build_catalog("heisenberg", QQ, k=1)
    s = direct_sum(a, b)
    assert s.dim == a.dim + b.dim
    assert s.center().dim == a.center().dim + b.center().dim
    x = [Fraction(0)] * s.dim
    y = [Fraction(0)] * s.dim
    x[0] = Fraction(1)  # inside the sl(2) block
    y[a.dim] = Fraction(1)  # inside the heisenberg block
    assert all(c == 0 for c in s.bracket(x, y))
    assert s.validate().ok


def test_direct_sum_field_mismatch():
    with pytest.raises(FieldMismatch):
        direct_sum(build_catalog("sl", QQ, n=2), build_catalog("sl", PrimeField(5), n=2))



def _compositions(n):
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 0
            run += 1
        yield tuple(parts + [run])


def _outcome(build, *args):
    """Name, basis names and brackets (rows in insertion order, with the
    type of every coefficient) of a build, or the class and message of
    its refusal."""
    try:
        g = build(*args)
    except UalieError as e:
        return type(e).__name__, str(e)
    rows = [(key, [(k, c, type(c)) for k, c in row.items()]) for key, row in g.brackets.items()]
    return g.name, g.dim, g.basis_names, rows


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(2)], ids=lambda F: repr(F))
def test_matrix_families_match_the_per_family_oracle(field):
    """The one pivot-reading builder gives exactly the brackets and basis
    names of the per-family builders it replaced (``constructions_oracle``):
    gl, t and n for n = 1..6, sl for n = 2..6, every seaweed with n <= 5 and
    example_5_7.  Where the oracle refuses a field (F_2 for sl(n >= 3) and
    the seaweeds with n >= 2), the builder refuses it with the same error."""
    cases = [(fam, (field, n)) for fam in ("gl", "t", "n") for n in range(1, 7)]
    cases += [("sl", (field, n)) for n in range(2, 7)]
    cases += [("example_5_7", (field,))]
    cases += [
        ("seaweed", (SeaweedSpec(n, top, bottom), field))
        for n in range(1, 6)
        for top in _compositions(n)
        for bottom in _compositions(n)
    ]
    built = 0
    for fam, args in cases:
        got = _outcome(getattr(constructions, f"build_{fam}"), *args)
        assert got == _outcome(getattr(oracle, f"build_{fam}"), *args), (fam, args)
        built += len(got) > 2
    # over F_2 only gl, t and n (n = 1..6), sl(2), example_5_7 and the
    # zero-dimensional n = 1 seaweed are built
    assert built == (len(cases) if field.char != 2 else 3 * 6 + 3)


def test_matrix_span_not_closed_is_refused():
    """[E12, E23] = E13 lies outside the span of E12 and E23."""
    with pytest.raises(InvalidStructure, match="span not closed"):
        constructions._matrix_algebra("x", QQ, [{(0, 1): 1}, {(1, 2): 1}], ["E12", "E23"])
