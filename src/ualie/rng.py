"""Deterministic pseudo-random sampling.

The one randomized search in this package, the C-condition's random pairs
with coordinates in [-1024, 1024], draws from a xorshift64* stream so that
every report is reproducible byte for byte from one seed.  The generator is
the classic xorshift64* (shift triple 12/25/27, odd multiplier
2685821657736338717), returning the high 32 bits of the multiplied state.
Integers are drawn by rejection sampling on one 32-bit word, so the
distribution on a range of at most 2^32 values is exactly uniform.

Sub-operations never share a stream: they derive child seeds from the
master seed by fixed offsets (see ``child_seed``), so adding a new
analysis step never perturbs existing streams.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
DEFAULT_SEED = 0x5EED5EED5EED5EED

# Fixed child-stream offsets. New offsets must be appended, never reused.
# Offsets 2, 3 and 4 are retired: they seeded code that has been removed.
OFFSET_C_CONDITION = 1

_MULT = 2685821657736338717
# Any nonzero constant works; zero is the one fixed point of xorshift.
_ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15


def child_seed(master: int, offset: int) -> int:
    return (master + offset) & MASK64


class XorShift64Star:
    """xorshift64* stream with 32-bit output words."""

    def __init__(self, seed: int = DEFAULT_SEED):
        s = seed & MASK64
        self._state = s if s != 0 else _ZERO_SEED_REPLACEMENT

    def next_u32(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & MASK64
        x ^= x >> 27
        self._state = x
        return ((x * _MULT) & MASK64) >> 32

    def below(self, m: int) -> int:
        """Uniform integer in [0, m), 0 < m <= 2^32, by rejection sampling
        on one 32-bit word per draw."""
        if not 0 < m <= 1 << 32:
            raise ValueError("below() needs a bound in (0, 2^32]")
        limit = (1 << 32) - (1 << 32) % m
        while True:
            r = self.next_u32()
            if r < limit:
                return r % m

    def int_symmetric(self, bound: int) -> int:
        """Uniform integer in [-bound, bound]."""
        return self.below(2 * bound + 1) - bound
