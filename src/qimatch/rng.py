"""Self-contained seeded RNG (xorshift64*), used wherever reproducibility matters.

The generator is deliberately defined in-repo rather than delegating to a
platform default, so that annealing runs and synthetic instances are
bit-reproducible from the seed alone.  Algorithm:

    state ^= state >> 12;  state ^= state << 25;  state ^= state >> 27
    output = state * 0x2545F4914F6CDD1D   (all mod 2^64)

Seeds are whitened through splitmix64 so that nearby seeds give unrelated
streams; derived streams (one per annealing restart) mix the restart index
into the seed the same way.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """One splitmix64 step; used for seed whitening and stream derivation."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic per-stream seed from a master seed and a stream index."""
    return splitmix64((seed & _MASK64) ^ ((stream * _GOLDEN) & _MASK64))


class Xorshift64Star:
    """Small shift-register generator with a 64-bit state (never zero)."""

    def __init__(self, seed: int):
        s = splitmix64(seed & _MASK64)
        self._state = s if s != 0 else _GOLDEN

    def next_u64(self) -> int:
        s = self._state
        s ^= (s >> 12)
        s = (s ^ (s << 25)) & _MASK64
        s ^= (s >> 27)
        self._state = s
        return (s * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes two uniforms, no caching."""
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
