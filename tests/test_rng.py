"""The seeded xorshift64* stream and its uniform draws."""

import pytest

from ualie.rng import XorShift64Star


def _one_word_below(rng, m):
    """`below` as it was written for m <= 2^32: one 32-bit word per draw."""
    limit = (1 << 32) - ((1 << 32) % m)
    while True:
        r = rng.next_u32()
        if r < limit:
            return r % m


def test_below_keeps_the_one_word_stream_up_to_2_to_32():
    """Every seeded report was drawn this way, so the stream must not move."""
    for m in (1, 2, 3, 2**31 - 1, 2**32):
        a, b = XorShift64Star(m), XorShift64Star(m)
        assert [a.below(m) for _ in range(1000)] == [_one_word_below(b, m) for _ in range(1000)]
        assert a.next_u32() == b.next_u32()


def test_below_refuses_bounds_outside_one_word():
    """One 32-bit word covers at most 2^32 values; the C-condition draws
    from 2049."""
    rng = XorShift64Star(7)
    for m in (0, -1, 2**32 + 1):
        with pytest.raises(ValueError, match=r"^below\(\) needs a bound in \(0, 2\^32\]$"):
            rng.below(m)
