import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfc_sim import seeds as seeds_module
from rfc_sim.seeds import (NORMALS_CHUNK, POSITIONWISE_ROWS, Sm64Stream, derive_seed, epoch_seeds, mix64,
                          normals, shuffle_orders, stream_words, tag64)
from reference import gauss, scalar_normals, scalar_shuffle, uniform

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15



def test_derive_seed_deterministic():
    a = derive_seed(42, 3, 1, 7, "shuffle")
    b = derive_seed(42, 3, 1, 7, "shuffle")
    assert a == b


def test_derive_seed_sensitive_to_every_field():
    base = derive_seed(42, 3, 1, 7, "shuffle")
    assert derive_seed(43, 3, 1, 7, "shuffle") != base
    assert derive_seed(42, 4, 1, 7, "shuffle") != base
    assert derive_seed(42, 3, 2, 7, "shuffle") != base
    assert derive_seed(42, 3, 1, 8, "shuffle") != base
    assert derive_seed(42, 3, 1, 7, "sample") != base


def test_derive_seed_field_order_matters():
    assert derive_seed(0, 1, 2, 3, "x") != derive_seed(0, 2, 1, 3, "x")
    assert derive_seed(0, 1, 2, 3, "x") != derive_seed(0, 1, 3, 2, "x")


def test_derive_seed_no_collisions_100k():
    rng = random.Random(12345)
    tags = ("shuffle", "sample", "poison", "init", "dataset")
    seen = set()
    tuples = set()
    while len(tuples) < 100_000:
        tuples.add((rng.getrandbits(64), rng.randrange(1000), rng.randrange(64),
                    rng.randrange(4096), rng.choice(tags)))
    for t in tuples:
        seen.add(derive_seed(*t))
    assert len(seen) == len(tuples)


def test_mix64_is_64_bit():
    for words in [(0,), (2**64 - 1, 17), (1, 2, 3, 4, 5)]:
        v = mix64(*words)
        assert 0 <= v < 2**64


def unscramble(z):
    """Inverse of the SplitMix64 finalizer: undo each xorshift and each odd multiplier, last first."""
    def unshift(y, k):
        x = y
        for _ in range(64 // k):
            x = y ^ (x >> k)
        return x
    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64
    return unshift(z, 30)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows,epochs", [(0, 3), (5, 0), (1, 5), (3, 5), (4, 4), (16, 1), (205, 7)])
def test_epoch_seeds_match_scalar_mix64(rows, epochs):
    # mix64(s) = scramble(GOLDEN + s), so this seed's add mix64(s) + GOLDEN + e wraps from epoch 3 on
    wraps_at_3 = (unscramble(MASK64 - GOLDEN - 2) - GOLDEN) & MASK64
    assert [mix64(wraps_at_3) + GOLDEN + e > MASK64 for e in range(5)] == [False] * 3 + [True] * 2
    rng = random.Random(5)
    seeds = ([wraps_at_3, 0, MASK64, GOLDEN, MASK64 - GOLDEN] + [rng.getrandbits(64) for _ in range(200)])[:rows]
    if rows * epochs > 100:  # random seeds fall on both sides of the wrap
        assert {mix64(s) + GOLDEN + e > MASK64 for s in seeds for e in range(epochs)} == {False, True}
    words = epoch_seeds(seeds, epochs)
    assert words.dtype == np.uint64 and words.shape == (rows * epochs,)
    assert words.tolist() == [mix64(s, e) for s in seeds for e in range(epochs)]


def test_tag64_distinct_for_distinct_tags():
    assert tag64("shuffle") != tag64("sample")
    assert tag64("") != tag64("a")


def test_stream_uniform_range():
    stream = Sm64Stream(7)
    values = [uniform(stream) for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert len(set(values)) > 990


def test_stream_gauss_mean_and_spread():
    stream = Sm64Stream(11)
    values = [gauss(stream) for _ in range(4000)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert abs(mean) < 0.1
    assert 0.85 < var < 1.15


def test_rand_below_bounds_and_errors():
    stream = Sm64Stream(3)
    assert all(0 <= stream.rand_below(7) < 7 for _ in range(500))
    with pytest.raises(ValueError):
        stream.rand_below(0)


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(30))
    a = list(items)
    Sm64Stream(99).shuffle(a)
    b = list(items)
    Sm64Stream(99).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # astronomically unlikely to be identity


def test_sample_distinct_and_errors():
    stream = Sm64Stream(5)
    picked = stream.sample(range(20), 8)
    assert len(picked) == 8
    assert len(set(picked)) == 8
    assert set(picked) <= set(range(20))
    with pytest.raises(ValueError):
        Sm64Stream(5).sample(range(3), 4)
    with pytest.raises(ValueError):
        Sm64Stream(5).sample(range(4), -1)
    assert Sm64Stream(5).sample(range(4), 0) == []


@pytest.mark.parametrize("seed", [0, MASK64, -1])
@pytest.mark.parametrize("n", [1, NORMALS_CHUNK - 1, NORMALS_CHUNK, NORMALS_CHUNK + 1, 2 * NORMALS_CHUNK + 3])
def test_normals_match_scalar_gauss(seed, n):
    got = normals(seed, n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == scalar_normals(seed, n).tobytes()


@settings(max_examples=30)
@given(st.integers(-MASK64, MASK64), st.integers(0, 3 * NORMALS_CHUNK))
def test_normals_sweep_match_scalar_gauss(seed, n):
    assert normals(seed, n).tobytes() == scalar_normals(seed, n).tobytes()


@given(st.lists(st.integers(0, MASK64), max_size=4), st.integers(0, 70))
def test_bulk_draws_match_scalar_stream(seeds, n):
    words = stream_words(seeds, 5)
    orders = shuffle_orders(seeds, n)
    assert orders.shape == (len(seeds), n)
    for seed, row_words, order in zip(seeds, words.tolist(), orders.tolist()):
        stream = Sm64Stream(seed)
        assert row_words == [stream.next_u64() for _ in range(5)]
        ref_stream, want = Sm64Stream(seed), list(range(n))
        scalar_shuffle(ref_stream, want)
        got_stream, got = Sm64Stream(seed), list(range(n))
        got_stream.shuffle(got)
        assert order == want and got == want
        # the stream advanced by exactly the words the shuffle consumed
        assert got_stream.next_u64() == ref_stream.next_u64()


def _unshift(y, s):
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def rejected_seed():
    """The seed whose first word is 2**64 - 1, found by inverting the SplitMix64 finalizer."""
    z = _unshift(MASK64, 31)
    z = _unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64, 27)
    z = _unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64, 30)
    return (z - GOLDEN) & MASK64


def test_rejected_word_falls_back_to_scalar_path():
    seed = rejected_seed()
    assert Sm64Stream(seed).next_u64() == MASK64
    # 3 does not divide 2**64, so rand_below(3), the first draw of a 3-item shuffle, rejects it
    ref_stream, want = Sm64Stream(seed), [0, 1, 2]
    scalar_shuffle(ref_stream, want)
    assert shuffle_orders([seed, 7], 3)[0].tolist() == want
    got_stream, got = Sm64Stream(seed), [0, 1, 2]
    got_stream.shuffle(got)
    assert got == want
    assert got_stream.next_u64() == ref_stream.next_u64()


@pytest.mark.parametrize("rows", [1, POSITIONWISE_ROWS - 1, POSITIONWISE_ROWS, 180])
@pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 70])
def test_both_shuffle_paths_match_scalar_stream(monkeypatch, rows, n):
    rng = random.Random(rows * 100 + n)
    seeds = [rng.getrandbits(64) for _ in range(rows)]
    positionwise = rows >= POSITIONWISE_ROWS
    if positionwise:
        # rand_below(n) rejects its first word unless n is a power of two: those rows take the scalar draws
        seeds[0] = seeds[-1] = rejected_seed()
    swapped, real_swap = [], seeds_module._swap  # the per-row path's calls

    def spy(items, draws):
        swapped.append(len(items))
        return real_swap(items, draws)

    monkeypatch.setattr(seeds_module, "_swap", spy)
    orders = shuffle_orders(seeds, n)
    assert orders.dtype == np.int64 and orders.shape == (rows, n)
    assert len(swapped) == (0 if positionwise else rows)
    for seed, order in zip(seeds, orders.tolist()):
        want = list(range(n))
        scalar_shuffle(Sm64Stream(seed), want)
        assert order == want
