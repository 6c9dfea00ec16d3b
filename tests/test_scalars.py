"""Field arithmetic: exact rationals, prime fields, and the small extension
fields of ``finite field``."""

import random
from fractions import Fraction

import pytest

from ualie.errors import BadParams, DivisionByZero
from ualie.scalars import QQ, ExtensionField, PrimeField, parse_field_flag


def test_rationals_basics():
    assert QQ.kind == "Q"
    assert QQ.char == 0
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 2)) == 1
    assert QQ.div(Fraction(1), Fraction(4)) == Fraction(1, 4)
    assert QQ.neg(Fraction(5)) == -5
    assert QQ.is_zero(Fraction(0))
    assert not QQ.is_zero(Fraction(1, 10**9))
    assert QQ.from_int(-7) == Fraction(-7)
    assert QQ.format(Fraction(-3, 4)) == "-3/4"
    assert QQ.format(Fraction(2)) == "2"


def test_rationals_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.div(Fraction(1), Fraction(0))


def test_rationals_field_axioms_random():
    rng = random.Random(2024)
    for _ in range(200):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        c = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        assert QQ.add(a, b) == QQ.add(b, a)
        assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
        if not QQ.is_zero(a):
            assert QQ.mul(a, QQ.div(b, a)) == b


def test_prime_field_basics():
    F = PrimeField(7)
    assert F.kind == "Fp"
    assert (F.p, F.char, F.order) == (7, 7, 7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.div(1, 3) == 5
    assert F.neg(2) == 5
    assert F.from_int(-1) == 6
    assert sorted(F.elements()) == list(range(7))
    with pytest.raises(DivisionByZero):
        F.div(4, 0)


def test_prime_field_requires_prime():
    with pytest.raises(BadParams):
        PrimeField(6)
    with pytest.raises(BadParams):
        PrimeField(1)


def test_prime_field_inverse_random():
    rng = random.Random(7)
    F = PrimeField(101)
    for _ in range(300):
        a = rng.randrange(1, 101)
        assert F.mul(a, F.div(F.one, a)) == F.one


def test_extension_field_f4():
    F = ExtensionField(2, 2)
    els = list(F.elements())
    assert len(els) == 4
    assert F.order == 4 and F.p == 2
    # x * x = x + 1 modulo the default irreducible x^2 + x + 1
    x = (0, 1)
    assert F.mul(x, x) == (1, 1)
    # every nonzero element of F_4, F_8, F_9, F_25 and F_27 has as inverse
    # the one element b with a * b = 1, found by search
    for p, n in ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3)):
        F = ExtensionField(p, n)
        els = list(F.elements())
        for a in els:
            if F.is_zero(a):
                continue
            inverses = [b for b in els if F.mul(a, b) == F.one]
            assert inverses == [F.inv(a)] == [F.div(F.one, a)], (F, a)


def test_extension_field_f9_axioms_random():
    F = ExtensionField(3, 2)
    assert F.order == 9
    els = list(F.elements())
    rng = random.Random(99)
    for _ in range(250):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(F.sub(a, b), b) == a


def test_extension_field_frobenius_is_additive():
    """x -> x^p is an automorphism of F_{p^n}; spot-check additivity."""
    F = ExtensionField(2, 3)
    els = list(F.elements())
    assert len(els) == 8

    def frob(a):
        return F.mul(a, a)

    for a in els:
        for b in els:
            assert frob(F.add(a, b)) == F.add(frob(a), frob(b))


def test_field_json_round_trip():
    from ualie.scalars import field_from_json

    for F in (QQ, PrimeField(5)):
        G = field_from_json(F.to_json())
        assert G.kind == F.kind and G.char == F.char and G.order == F.order
    with pytest.raises(BadParams, match=r"^unknown field kind 'Fq' \(expected Q or Fp\)$"):
        field_from_json({"kind": "Fq", "p": 2, "n": 2})


def test_parse_field_flag():
    assert parse_field_flag("Q").kind == "Q"
    assert parse_field_flag("Fp:5").p == 5
    for text in ("R", "Fq:2,3"):
        with pytest.raises(BadParams, match=r"\(expected Q or Fp:<p>\)$"):
            parse_field_flag(text)
    with pytest.raises(BadParams):
        parse_field_flag("Fp:abc")


def test_rationals_are_int_when_integral():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(-7)) is int
    q = QQ.div(4, 2)
    assert q == 2 and type(q) is int
    assert QQ.div(1, 2) == Fraction(1, 2) and type(QQ.div(1, 2)) is Fraction
    m = QQ.mul(Fraction(1, 2), 2)
    assert m == 1 and type(m) is int
    assert type(QQ.add(Fraction(1, 3), Fraction(2, 3))) is int
    assert type(QQ.sub(Fraction(5, 2), Fraction(1, 2))) is int
    assert type(QQ.parse("6/3")) is int and QQ.parse("6/3") == 2
    assert type(QQ.parse("-4")) is int
    assert QQ.parse("3/6") == Fraction(1, 2)


def test_rationals_format_unchanged_by_int_scalars():
    for value in (Fraction(0), Fraction(3), Fraction(-5), Fraction(7, 4), Fraction(-1, 3)):
        canonical = QQ.parse(str(value))
        assert QQ.format(canonical) == QQ.format(value) == str(value)
        assert QQ.parse(QQ.format(canonical)) == value


def test_rationals_mixed_ops_match_fraction_arithmetic():
    """1,000 seeded random operations on ints and Fractions: never a float,
    always equal to plain Fraction arithmetic, integral results as int."""
    rng = random.Random(3001)
    pool = [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]
    ops = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
    }
    for _ in range(1000):
        name = rng.choice(sorted(ops))
        a, b = rng.choice(pool), rng.choice(pool)
        if name == "div" and b == 0:
            continue
        got = getattr(QQ, name)(a, b)
        want = ops[name](Fraction(a), Fraction(b))
        assert not isinstance(got, float)
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)
        if abs(want.numerator) < 10**6 and want.denominator < 10**6:
            pool.append(got)
