"""Deterministic random numbers for initialization, shuffling and simulation.

A single fixed generator (SplitMix64) backs every random choice in the
package so that a seed fully determines weights, fold assignments and
simulated scenarios, independent of platform or library versions.

A shuffle draws one word of that stream and uses it as the key of a
SHAKE-128 expansion (FIPS 202's extendable-output function, through
``hashlib``), whose little-endian 64-bit words give the shuffle's indices.
``hashlib`` makes the hundreds of words a shuffle needs in C, where a
SplitMix64 word per index costs a Python loop, and the stream advances by
one word whatever the length of the list.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections.abc import Iterator
from operator import mod

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _draw(words: Iterator[int], m: int) -> int:
    """``randrange``'s rule for bound m on the 64-bit ``words``: skip each
    word at or above 2**64 - 2**64 % m, then take the next one mod m."""
    limit = (1 << 64) - (1 << 64) % m
    return next(w for w in words if w < limit) % m


def _xof_words(xof) -> Iterator[int]:
    """The output of ``xof`` as little-endian 64-bit words, without end: a
    longer digest extends a shorter one, so each read keeps only its new words."""
    read, count = 0, 1024
    while True:
        yield from struct.unpack_from(f"<{count - read}Q", xof.digest(8 * count), 8 * read)
        read, count = count, 2 * count


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
        return _draw(iter(self.next_u64, None), n)

    def bernoulli(self, p: float) -> bool:
        return self.uniform() < p

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Box-Muller normal draw (cosine branch only, two words per draw)."""
        u1 = 1.0 - self.uniform()  # (0, 1], keeps log finite
        u2 = self.uniform()
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle keyed by one stream word: for i from
        the last index down to 1, swap items[i] with items[j], where j is
        ``randrange``'s rule for bound i + 1 on the next word of the word's
        SHAKE-128 expansion. A list of fewer than two items draws no word."""
        n = len(items)
        if n < 2:
            return
        xof = hashlib.shake_128(self.next_u64().to_bytes(8, "little"))
        words = struct.unpack(f"<{n - 1}Q", xof.digest(8 * (n - 1)))
        # randrange(m) rejects only words at or above 2**64 - 2**64 % m, and
        # 2**64 % m < m <= n, so no word up to 2**64 - n is rejected
        if max(words) <= _MASK64 + 1 - n:
            draws = map(mod, words, range(n, 1, -1))
        else:
            rest = _xof_words(xof)
            draws = [_draw(rest, m) for m in range(n, 1, -1)]
        for i, j in zip(range(n - 1, 0, -1), draws):
            items[i], items[j] = items[j], items[i]

    def fork(self) -> "Rng":
        """Independent child stream seeded from this one."""
        return Rng(self.next_u64())
