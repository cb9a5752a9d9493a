"""The array SeedSequence hash against numpy's SeedSequence."""

import numpy as np
import pytest

from harmeans import seeds
from harmeans.seeds import SeedWords, spawn

SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 5]


def assert_same_sequence(got, entropy, key):
    want = np.random.SeedSequence(entropy, spawn_key=key)
    assert isinstance(got, SeedWords), (entropy, key)
    assert (got.entropy, got.spawn_key) == (entropy, key)
    for n_words in (4, 1):
        assert np.array_equal(got.generate_state(n_words, np.uint64),
                              want.generate_state(n_words, np.uint64)), (entropy, key)
    draws = np.random.Generator(np.random.PCG64(got)).standard_normal(5)
    assert draws.tolist() == np.random.default_rng(want).standard_normal(5).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_keys_match_seed_sequences(seed):
    # a chunk's keys (r, j), as the lab spawns them, and their pools
    keys = [(r, j) for j in range(3) for r in range(2_990, 3_010)]
    out = spawn(seed, keys)
    rows = seeds._assembled([seed] * len(keys), keys)
    for pool, key in zip(seeds._pools(rows).T, keys):
        assert np.array_equal(pool, np.random.SeedSequence(seed, spawn_key=key).pool)
    for got, key in zip(out, keys):
        assert_same_sequence(got, seed, key)


def test_group_keys_of_64_bit_bootstrap_seeds():
    # the bootstrap's group keys (g,), one 64-bit seed per pair; seeds below
    # 2^32 have one word fewer, which padding to four words evens out
    rng = np.random.default_rng(3)
    boot = [int(s) for s in rng.integers(0, 2**64, 40, dtype=np.uint64)] + [0, 5, 2**32, 2**64 - 1]
    entropies = [s for s in boot for _ in (0, 1)]
    keys = [(g,) for _ in boot for g in (0, 1)]
    for got, entropy, key in zip(spawn(entropies, keys), entropies, keys):
        assert_same_sequence(got, entropy, key)


def test_mixed_word_counts_take_seed_sequences():
    # a key part of 2^32 or more, or entropies padded to different word
    # counts (four words hold any entropy below 2^128)
    for entropy, keys in ((7, [(1, 0), (2**32, 0)]), ([7, 2**130], [(0,), (0,)])):
        out = spawn(entropy, keys)
        assert all(isinstance(s, np.random.SeedSequence) for s in out)
        entropies = [entropy] * 2 if isinstance(entropy, int) else entropy
        assert [(s.entropy, s.spawn_key) for s in out] == list(zip(entropies, keys))
    assert spawn(7, []) == []


def test_few_keys_are_hashed():
    # one pair's two group keys, as a one-pair bootstrap spawns them
    for got, key in zip(spawn(2023, [(0,), (1,)]), [(0,), (1,)]):
        assert_same_sequence(got, 2023, key)


def test_numpy_integer_entropies():
    for entropy in (np.int64(5), np.uint64(2**64 - 1), [np.int32(5), np.uint8(5)]):
        for got, key in zip(spawn(entropy, [(0, 0), (1, 0)]), [(0, 0), (1, 0)]):
            assert_same_sequence(got, int(np.ravel(entropy)[0]), key)
    with pytest.raises(TypeError):
        spawn(5.0, [(0, 0)])


def test_state_words_kept_are_bounded():
    words = spawn(7, [(0, 0)])[0]
    assert words.generate_state(8).dtype == np.uint32
    with pytest.raises(ValueError, match="state words"):
        words.generate_state(5, np.uint64)


@pytest.mark.parametrize("dtype", [np.uint32, "uint32", "u4", np.dtype("<u4"),
                                   np.uint64, "uint64", "u8", np.dtype("<u8")])
def test_state_words_in_any_dtype_spelling(dtype):
    got = spawn(7, [(3, 1)])[0].generate_state(4, dtype)
    want = np.random.SeedSequence(7, spawn_key=(3, 1)).generate_state(4, dtype)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.int64, np.float64, "u2"])
def test_state_words_in_other_dtypes_raise(dtype):
    with pytest.raises(ValueError, match="uint32 or uint64"):
        spawn(7, [(3, 1)])[0].generate_state(1, dtype)


def test_generators_spawn_as_seed_sequences_do():
    got = np.random.Generator(np.random.PCG64(spawn(7, [(3, 1)])[0]))
    want = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(3, 1)))
    for _ in range(2):  # the second call continues the children's count
        for a, b in zip(got.spawn(2), want.spawn(2)):
            assert a.standard_normal(3).tolist() == b.standard_normal(3).tolist()
