"""Deterministic seed derivation and a small portable PRNG.

Every random draw in this package flows through SplitMix64 streams keyed by
``derive_seed``, so a federation run is bit-reproducible for any call order:
randomness is pre-derived per (round, pool, client, purpose) instead of being
consumed from a shared generator.

The mixing function is fixed so independent implementations can agree:

* ``scramble(z)`` is the SplitMix64 finalizer
  (``z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
  z ^= z>>31``, all modulo 2**64).
* ``mix64(w0, w1, ...)`` starts from an accumulator of 0 and absorbs each
  word ``w`` (reduced mod 2**64) as
  ``acc = scramble((acc + GOLDEN + w) mod 2**64)`` with
  ``GOLDEN = 0x9E3779B97F4A7C15``.
* string purpose tags are reduced to a word with FNV-1a 64.
"""

from __future__ import annotations

import math
from typing import List, Sequence

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _scramble(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def mix64(*words: int) -> int:
    """Mix any number of integer words into one 64-bit value."""
    acc = 0
    for w in words:
        acc = _scramble((acc + _GOLDEN + (w & _MASK64)) & _MASK64)
    return acc


def tag64(tag: str) -> int:
    """FNV-1a 64 of the tag's UTF-8 bytes."""
    h = _FNV_OFFSET
    for b in tag.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(master_seed: int, round_idx: int, pool_id: int, client_id: int, purpose_tag: str) -> int:
    """Derive the 64-bit seed for one (round, pool, client, purpose) slot."""
    return mix64(master_seed, round_idx, pool_id, client_id, tag64(purpose_tag))


class Sm64Stream:
    """SplitMix64 sequence starting from a 64-bit seed."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _scramble(self._state)

    def uniform(self) -> float:
        """Uniform double in [0, 1), 53 significant bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gauss(self) -> float:
        """Standard normal via Box-Muller; consumes exactly two words."""
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # (0, 1]
        u2 = (self.next_u64() >> 11) * 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def rand_below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError(f"rand_below needs n >= 1, got {n}")
        threshold = ((1 << 64) // n) * n
        while True:
            r = self.next_u64()
            if r < threshold:
                return r % n

    def shuffle(self, items: List) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.rand_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, items: Sequence, k: int) -> list:
        """k distinct items via partial Fisher-Yates; order is part of the draw."""
        pool = list(items)
        if k > len(pool):
            raise ValueError(f"cannot sample {k} from {len(pool)} items")
        for i in range(k):
            j = i + self.rand_below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
