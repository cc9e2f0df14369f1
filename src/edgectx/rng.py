"""Deterministic random numbers for initialization, shuffling and simulation.

A single fixed generator (SplitMix64) backs every random choice in the
package so that a seed fully determines weights, fold assignments and
simulated scenarios, independent of platform or library versions.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# the same constants as numpy scalars, for the block draws of ``shuffle``
_GOLDEN_U64, _MIX1_U64, _MIX2_U64, _MASK64_U64, _ONE_U64 = map(
    np.uint64, (_GOLDEN, _MIX1, _MIX2, _MASK64, 1))
_S30, _S27, _S31 = map(np.uint64, (30, 27, 31))


@lru_cache(maxsize=64)
def _golden_steps(n: int) -> np.ndarray:
    """k * golden mod 2**64 for k = 1..n, read-only: the state offsets of
    the next n words."""
    steps = np.arange(1, n + 1, dtype=np.uint64)
    steps *= _GOLDEN_U64
    steps.setflags(write=False)
    return steps


class Rng:
    """SplitMix64 stream.

    State advances by the 64-bit golden-ratio constant; each output is the
    finalized mix of the new state. ``uniform`` keeps the top 53 bits of an
    output word, giving doubles uniform in [0, 1).
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Next double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling, for
        0 < n <= 2**64: one 64-bit word cannot cover a larger range."""
        if not 0 < n <= 1 << 64:
            raise ValueError(f"randrange bound must be in (0, 2**64], got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def bernoulli(self, p: float) -> bool:
        return self.uniform() < p

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Box-Muller normal draw (cosine branch only, two words per draw)."""
        u1 = 1.0 - self.uniform()  # (0, 1], keeps log finite
        u2 = self.uniform()
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: for i from the last index down to
        1, swap items[i] with items[randrange(i + 1)]."""
        n = len(items)
        if n < 2:
            return
        draws = self._randrange_block(np.arange(n, 1, -1, dtype=np.uint64))
        for i, j in zip(range(n - 1, 0, -1), draws):
            items[i], items[j] = items[j], items[i]

    def _randrange_block(self, bounds: np.ndarray) -> list[int]:
        """``[self.randrange(int(m)) for m in bounds]`` for uint64 bounds,
        leaving the stream in the same state, computed as numpy blocks.

        The k-th word ahead is mix(state + k * golden), so a block of words
        needs no loop. A word that randrange would reject ends the block at
        that bound; the word is consumed and the next block starts by
        drawing the same bound again.
        """
        draws: list[int] = []
        while len(draws) < len(bounds):
            m = bounds[len(draws):]
            z = _golden_steps(len(m)) + np.uint64(self._state)
            t = z >> _S30
            z ^= t
            z *= _MIX1_U64
            np.right_shift(z, _S27, out=t)
            z ^= t
            z *= _MIX2_U64
            np.right_shift(z, _S31, out=t)
            z ^= t
            # randrange accepts r < 2**64 - 2**64 % m, i.e. r <= MASK - 2**64 % m;
            # 2**64 % m < m, so no word up to MASK + 1 - max(m) is rejected
            take = len(m)
            if int(z.max()) > _MASK64 + 1 - int(m.max()):
                accept = z <= _MASK64_U64 - (_MASK64_U64 % m + _ONE_U64) % m
                if not accept.all():
                    take = int(accept.argmin())
            draws += (z[:take] % m[:take]).tolist()
            used = take if take == len(m) else take + 1
            self._state = (self._state + used * _GOLDEN) & _MASK64
        return draws

    def fork(self) -> "Rng":
        """Independent child stream seeded from this one."""
        return Rng(self.next_u64())
