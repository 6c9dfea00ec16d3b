"""Exact scalar arithmetic over Q and prime fields F_p, the fields an
algebra can have, and over F_{p^n} for ``ualie finite field`` alone.

Raw representations (no wrapper object per scalar):

* rationals      -> ``int`` when integral, else ``fractions.Fraction``,
* F_p            -> ``int`` reduced to [0, p),
* F_{p^n}, n > 1 -> tuple of n ints in [0, p): coefficients of the residue
  polynomial, constant term first, against a fixed monic irreducible modulus.

A field object carries the arithmetic; containers (subspaces, algebras) hold
the field once and store raw scalar values.  String forms follow one grammar
everywhere: rationals as ``num/den`` in decimal digits with an optional sign
(denominator omitted when 1), prime residues as decimal, extension elements
as comma-joined coefficient lists.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product

from .errors import BadParams, DivisionByZero, FieldMismatch


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    # Deterministic Miller-Rabin, valid far beyond any order cap we accept.
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _q(x):
    """A rational as an ``int`` when it is integral; other Fractions unchanged."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class Rationals:
    """The field Q: scalars are ``int`` when integral, else ``Fraction``.

    Integer-valued scalars (every structure constant of the catalog, every
    basis vector, most adjoint entries) then cost plain ``int`` arithmetic;
    results that come out integral are turned back into ``int``, so the
    representation stays canonical and never holds a float.
    """

    kind = "Q"
    char = 0
    order = None  # infinite

    zero = 0
    one = 1

    def add(self, a, b):
        return _q(a + b)

    def sub(self, a, b):
        return _q(a - b)

    def mul(self, a, b):
        return _q(a * b)

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero in Q")
        return _q(Fraction(a, b))

    def inv(self, a):
        return self.div(self.one, a)

    def sparse(self, row: dict) -> dict:
        """A copy of the sparse row ``{column: scalar}`` without its zeros."""
        return {c: x for c, x in row.items() if x}

    def sub_scaled(self, v: dict, f, row: dict):
        """v -= f * row on sparse rows, dropping entries that vanish."""
        for j, y in row.items():
            w = _q(v.get(j, 0) - f * y)
            if w:
                v[j] = w
            else:
                v.pop(j, None)

    def is_zero(self, a) -> bool:
        return a == 0

    def from_int(self, k: int):
        return int(k)

    def format(self, a) -> str:
        return str(a)  # int or Fraction: num/den, den omitted when 1

    def parse(self, s: str):
        # an optional sign, digits, and optionally "/" and digits: `Fraction`
        # alone also takes decimals and exponents, and "1e20000000" would
        # build a 20-million-digit integer
        t = s.strip()
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", t):
            raise BadParams(f"bad rational scalar {s!r}")
        try:
            return _q(Fraction(t))
        except (ValueError, ZeroDivisionError) as e:
            raise BadParams(f"bad rational scalar {s!r}") from e

    def random(self, rng, bound: int):
        return rng.int_symmetric(bound)

    def to_json(self) -> dict:
        return {"kind": "Q"}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """F_p with residues stored as plain ints in [0, p)."""

    kind = "Fp"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise BadParams(f"{p} is not prime")
        self.p = p
        self.char = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise DivisionByZero(f"division by zero in F_{self.p}")
        return a * pow(b, -1, self.p) % self.p

    def inv(self, a):
        return self.div(1, a)

    def sparse(self, row: dict) -> dict:
        """A copy of the sparse row ``{column: int}`` with its entries
        reduced mod p and its zeros dropped; any integer row is accepted."""
        p = self.p
        return {c: x % p for c, x in row.items() if x % p}

    def sub_scaled(self, v: dict, f, row: dict):
        """v -= f * row on sparse rows, dropping entries that vanish."""
        p = self.p
        for j, y in row.items():
            w = (v.get(j, 0) - f * y) % p
            if w:
                v[j] = w
            else:
                v.pop(j, None)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def from_int(self, k: int):
        return k % self.p

    def format(self, a) -> str:
        return str(a % self.p)

    def parse(self, s: str):
        try:
            return int(s.strip()) % self.p
        except ValueError as e:
            raise BadParams(f"bad residue {s!r} for F_{self.p}") from e

    def elements(self):
        return range(self.p)

    def to_json(self) -> dict:
        return {"kind": "Fp", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


# -- polynomial helpers over F_p (coefficient lists, constant term first) --


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_rem(a, b, p):
    """Remainder of a mod b over F_p; b must be nonzero."""
    a = list(a)
    _poly_trim(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a:
        f = a[-1] * inv_lead % p
        shift = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - f * bc) % p
        _poly_trim(a)
    return a


def _is_irreducible(poly, p: int) -> bool:
    """Whether a monic polynomial over F_p (constant term first) is irreducible,
    by trial division against every monic polynomial of degree 1..deg//2."""
    return all(
        _poly_rem(poly, tail + (1,), p)
        for d in range(1, (len(poly) - 1) // 2 + 1)
        for tail in product(range(p), repeat=d)
    )


class ExtensionField:
    """F_{p^n} as F_p[x] modulo a monic irreducible of degree n, for the
    multiplicative-map report of ``ualie finite field`` only: no algebra is
    built over it.

    Elements are length-n tuples of residues, constant term first.  The
    modulus is the monic irreducible whose non-leading coefficients
    (constant term first) are lex-smallest, so two fields built from the
    same (p, n) are identical.
    """

    def __init__(self, p: int, n: int):
        if not _is_prime(p):
            raise BadParams(f"{p} is not prime")
        modulus = next(
            t + (1,) for t in product(range(p), repeat=n) if _is_irreducible(t + (1,), p)
        )
        self.p = p
        self.n = n
        self.order = p**n
        self.zero = (0,) * n
        self.one = tuple([1 % p] + [0] * (n - 1))
        # x^(n+k) mod modulus, k = 0..n-2, precomputed for fast reduction
        self._red = []
        cur = [(-c) % p for c in modulus[:-1]]  # x^n mod m
        for _ in range(n - 1):
            self._red.append(tuple(cur))
            cur = [0] + cur  # multiply by x
            lead = cur.pop()  # coefficient of x^n
            if lead:
                cur = [(cur[i] + lead * self._red[0][i]) % p for i in range(n)]

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        p, n = self.p, self.n
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] = (conv[i + j] + ai * bj) % p
        out = conv[:n]
        for k in range(n, 2 * n - 1):
            c = conv[k]
            if c:
                red = self._red[k - n]
                out = [(out[i] + c * red[i]) % p for i in range(n)]
        return tuple(out)

    # no command divides in F_q; inv and div stay because the benchmark's
    # field-operation counter wraps add/sub/mul/div/inv on every field class
    def inv(self, a):
        """a^(q-2) by square-and-multiply: the inverse, as a^(q-1) = 1."""
        if self.is_zero(a):
            raise DivisionByZero(f"division by zero in F_{self.p}^{self.n}")
        out, e = self.one, self.order - 2
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return all(c == 0 for c in a)

    def format(self, a) -> str:
        return ",".join(str(c) for c in a)

    def elements(self):
        for tail in product(range(self.p), repeat=self.n):
            yield tail

    def __repr__(self):
        return f"F_{self.p}^{self.n}"


QQ = Rationals()


def _json_int(x, what: str) -> int:
    """x when it is a JSON integer (not a bool, float or string), else TypeError."""
    if type(x) is not int:
        raise TypeError(f"{what} must be a JSON integer, got {x!r}")
    return x


def field_from_json(obj: dict):
    kind = obj.get("kind")
    if kind == "Q":
        return QQ
    if kind == "Fp":
        return PrimeField(_json_int(obj["p"], "p"))
    raise BadParams(f"unknown field kind {kind!r} (expected Q or Fp)")


def parse_field_flag(text: str):
    """Parse the CLI field grammar: Q | Fp:<p>."""
    t = text.strip()
    if t == "Q":
        return QQ
    if t.startswith("Fp:"):
        try:
            return PrimeField(int(t[3:]))
        except ValueError as e:
            raise BadParams(f"bad field flag {text!r}") from e
    raise BadParams(f"bad field flag {text!r} (expected Q or Fp:<p>)")


def require_same_field(f1, f2, what: str = "operands"):
    if f1 != f2:
        raise FieldMismatch(f"{what} live over different fields: {f1!r} vs {f2!r}")
