"""The C-condition search without stored kernel vectors, kept as the oracle
that `ualie.analysis.c_condition` is checked against.

It is the search as it stood before the second stage kept the kernel
vectors it proves: every candidate of every stage is decided by one
`kernel_dim_fast` on the full stack [ad a; ad b].  Both searches try the
same candidates in the same order, and a stored vector only ever rejects a
pair that elimination rejects too, so they must return the same outcome,
witness, trial count and failure bound.
"""

from ualie.analysis import (
    OUTCOME_CERTIFIED_FAILS,
    OUTCOME_HOLDS,
    OUTCOME_PROBABLY_FAILS,
    CConditionResult,
    _random_vector,
    _verify_witness_exactly,
)
from ualie.errors import HypothesesNotMet, UnsupportedField
from ualie.linalg import kernel_dim_fast
from ualie.rng import DEFAULT_SEED, XorShift64Star


def c_condition(g, trials=64, seed=DEFAULT_SEED, bound=1024):
    F = g.field
    n = g.dim
    if F.kind != "Q":
        raise UnsupportedField("the C-condition search runs over Q only")
    if g.center().dim > 0:
        return CConditionResult(OUTCOME_CERTIFIED_FAILS, None, 0, None, "nontrivial center")

    full = (1 << n) - 1

    def adjoint(x):
        rows = g.ad_rows(x)
        mask = 0
        for row in rows:
            for c in row:
                mask |= 1 << c
        return rows, mask

    def try_pair(a, b, ad_a, ad_b):
        if ad_a[1] | ad_b[1] != full:
            return False
        if kernel_dim_fast(F, n, ad_a[0] + ad_b[0]) != 0:
            return False
        if not _verify_witness_exactly(g, a, b):
            raise HypothesesNotMet("witness failed exact re-verification")
        return True

    basis = [g.basis_vector(i) for i in range(n)]
    ads = [adjoint(e) for e in basis]
    for i in range(n):
        for j in range(i + 1, n):
            if try_pair(basis[i], basis[j], ads[i], ads[j]):
                return CConditionResult(OUTCOME_HOLDS, (basis[i], basis[j]), 0, None, None)
    sum_all = [F.one] * n
    ad_sum = adjoint(sum_all)
    for i in range(n):
        if try_pair(basis[i], sum_all, ads[i], ad_sum):
            return CConditionResult(OUTCOME_HOLDS, (basis[i], sum_all), 0, None, None)
    sum_even = [F.one if i % 2 == 0 else F.zero for i in range(n)]
    sum_odd = [F.one if i % 2 == 1 else F.zero for i in range(n)]
    if try_pair(sum_even, sum_odd, adjoint(sum_even), adjoint(sum_odd)):
        return CConditionResult(OUTCOME_HOLDS, (sum_even, sum_odd), 0, None, None)

    rng = XorShift64Star(seed)
    for t in range(1, trials + 1):
        a = _random_vector(F, n, rng, bound)
        b = _random_vector(F, n, rng, bound)
        if try_pair(a, b, adjoint(a), adjoint(b)):
            return CConditionResult(OUTCOME_HOLDS, (a, b), t, None, None)
    bound_str = f"({n}/{2 * bound + 1})^{trials}"
    return CConditionResult(OUTCOME_PROBABLY_FAILS, None, trials, bound_str, None)
