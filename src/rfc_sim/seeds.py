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
* ``Sm64Stream(seed)`` returns ``scramble(seed + k*GOLDEN mod 2**64)`` as its
  k-th word (k = 1, 2, ...), so ``stream_words`` draws the first words of many
  streams as one numpy ``uint64`` array (numpy's ``uint64`` arithmetic wraps
  mod 2**64). ``shuffle_orders`` builds Fisher-Yates orders from those words;
  a stream whose words ``rand_below`` would reject takes the scalar path.
  Below ``POSITIONWISE_ROWS`` rows it swaps per row in Python; from there up, one numpy
  step per position swaps it in every row, a fixed cost that pays off over many rows.
* ``normals(seed, n)`` is Box-Muller (Box & Muller, 1958): words w1, w2 of
  ``Sm64Stream(seed)`` give ``sqrt(-2 * log(u1)) * cos(2 * pi * u2)`` with
  ``u1 = ((w1 >> 11) + 1) * 2**-53`` and ``u2 = (w2 >> 11) * 2**-53``, drawn
  ``NORMALS_CHUNK`` at a time (the chunk at draw ``lo`` starts from state
  ``seed + 2*lo*GOLDEN``). The uniforms, ``sqrt`` and products run in numpy,
  correctly rounded; ``log`` and ``cos`` stay libm's ``math.log`` and
  ``math.cos`` per value: ``np.log`` differs from it in the last bit on some
  (AVX-512) hosts and ``np.cos`` is not known to match on every host, while
  the synthetic data feeds every exported hash.
"""

from __future__ import annotations

import math
from functools import cache
from typing import List, Optional, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# draws per ``normals`` chunk: its words and temporaries peak at ~230 KiB beyond the output
NORMALS_CHUNK = 2048
POSITIONWISE_ROWS = 16  # rows from which shuffle_orders swaps position-wise; they tie near 10 rows


def _scramble(z):
    """SplitMix64 finalizer of a Python int, or elementwise of a numpy uint64 array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def mix64(*words: int) -> int:
    """Mix any number of integer words into one 64-bit value."""
    acc = 0
    for w in words:
        acc = _scramble((acc + _GOLDEN + (w & _MASK64)) & _MASK64)
    return acc


@cache  # a run derives its seeds from a handful of constant tags
def tag64(tag: str) -> int:
    """FNV-1a 64 of the tag's UTF-8 bytes."""
    h = _FNV_OFFSET
    for b in tag.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def epoch_seeds(seeds: Sequence[int], epochs: int) -> np.ndarray:
    """uint64 ``[mix64(s, e) for s in seeds for e in range(epochs)]``: ``scramble(mix64(s) + GOLDEN + e)`` in numpy."""
    first = np.array([mix64(s) for s in seeds], dtype=np.uint64).reshape(-1, 1) + np.uint64(_GOLDEN)
    return _scramble(first + np.arange(epochs, dtype=np.uint64)).ravel()


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
        """In-place Fisher-Yates shuffle: position i, from the last down, swaps with rand_below(i + 1)."""
        (draws,), (self._state,) = _fisher_yates_draws([self._state], len(items))
        _swap(items, draws.tolist())

    def sample(self, items: Sequence, k: int) -> list:
        """k distinct items via partial Fisher-Yates; order is part of the draw.

        Stays scalar: its callers draw a handful of clients or rows, which
        costs less than one numpy call.
        """
        pool = list(items)
        if not 0 <= k <= len(pool):
            raise ValueError(f"cannot sample {k} from {len(pool)} items")
        for i in range(k):
            j = i + self.rand_below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def stream_words(seeds: Sequence[int], k: int) -> np.ndarray:
    """``[len(seeds), k]`` uint64: the first k words of ``Sm64Stream(seed)`` per seed, each in [0, 2**64)."""
    steps = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _scramble(np.asarray(seeds, dtype=np.uint64).reshape(-1, 1) + steps)


def normals(seed: int, n: int, clipped: Optional[np.ndarray] = None) -> np.ndarray:
    """float64 [n]: the first n Box-Muller values of ``Sm64Stream(seed)``'s words; see the module docstring.

    ``clipped`` (bool [n]) names the values whose negatives the caller clips to zero: there, an angle
    2 pi u2 in [1.5708, 4.7123], inside (pi/2, 3pi/2) by far more than libm's error, makes the value
    <= 0, so it is left at 0.0 without calling libm.
    """
    out = np.zeros(n, dtype=np.float64)
    for lo in range(0, n, NORMALS_CHUNK):
        m = min(NORMALS_CHUNK, n - lo)
        bits = stream_words([(seed + 2 * lo * _GOLDEN) & _MASK64], 2 * m)[0] >> np.uint64(11)
        u1 = (bits[0::2] + np.uint64(1)) * 2.0**-53  # (0, 1]
        angle = 2.0 * math.pi * (bits[1::2] * 2.0**-53)
        live = slice(None) if clipped is None else ~(clipped[lo : lo + m] & (angle >= 1.5708) & (angle <= 4.7123))
        log_u1 = np.fromiter(map(math.log, u1[live].tolist()), dtype=np.float64)
        cos_angle = np.fromiter(map(math.cos, angle[live].tolist()), dtype=np.float64)
        out[lo : lo + m][live] = np.sqrt(-2.0 * log_u1) * cos_angle
    return out


def _fisher_yates_draws(seeds: Sequence[int], n: int):
    """Per seed, its stream's draws rand_below(n), ..., rand_below(2) (one int64 array), and its state after them."""
    k = max(n - 1, 0)
    words = stream_words(seeds, k)
    draws = (words % np.arange(n, 1, -1, dtype=np.uint64)).astype(np.int64)
    states = np.asarray(seeds, dtype=np.uint64) + np.uint64(k * _GOLDEN & _MASK64)
    # rand_below(b) keeps r < (2**64 // b) * b; that bound is 2**64 when b is a
    # power of two, so compare with the bound minus one, which fits in uint64
    limits = np.array([((1 << 64) // b) * b - 1 for b in range(n, 1, -1)], dtype=np.uint64)
    for row in np.flatnonzero(~(words <= limits).all(axis=1)).tolist():
        stream = Sm64Stream(int(seeds[row]))  # a word was rejected: draw this stream one word at a time
        draws[row] = [stream.rand_below(b) for b in range(n, 1, -1)]
        states[row] = stream._state
    return draws, states.tolist()


def _swap(items: List, draws: Sequence[int]) -> List:
    for i, j in zip(range(len(items) - 1, 0, -1), draws):
        items[i], items[j] = items[j], items[i]
    return items


def shuffle_orders(seeds: Sequence[int], n: int) -> np.ndarray:
    """``[len(seeds), n]`` int64: row s is range(n) after ``Sm64Stream(seeds[s]).shuffle``.

    The words of every stream are drawn at once. Below ``POSITIONWISE_ROWS`` rows the swaps run per row
    in Python; from there up, one gather and scatter of the flat orders swaps position i in every row.
    """
    draws, rows = _fisher_yates_draws(seeds, n)[0], len(seeds)
    if rows < POSITIONWISE_ROWS:
        return np.array([_swap(list(range(n)), row) for row in draws.tolist()], dtype=np.int64).reshape(rows, n)
    flat, base = np.tile(np.arange(n, dtype=np.int64), rows), n * np.arange(rows)
    # per position i, from n - 1 down to 1 (axis 0), and per row: the flat indices of i and of its partner
    here, there = base + np.arange(n - 1, 0, -1)[:, None], base + draws.T
    for src, dst in zip(np.concatenate([there, here], axis=1), np.concatenate([here, there], axis=1)):
        flat[dst] = flat[src]  # a row whose partner is i itself writes the same value twice
    return flat.reshape(rows, n)
