"""numpy's ``SeedSequence`` hash, taken over many spawn keys at once.

``np.random.SeedSequence(entropy, spawn_key=key)`` hashes the 32-bit words
of its entropy, zero-padded to four words when there is a key, and of its
key into a pool of four words (``mix_entropy``); ``generate_state`` hashes
the pool into state words.  Both hashes are fixed sequences of 32-bit
multiplies, xors and shifts, and their running constants do not depend on
the data.  So the keys of many sequences with equal word counts are hashed
together, one array operation per step, and ``spawn`` gives objects that
``np.random.PCG64`` and ``generate_state(1, np.uint64)`` read as they read
the sequences themselves.
"""

from __future__ import annotations

import functools
import numbers
import operator

import numpy as np

_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# 32-bit state words kept per sequence: PCG64 reads four 64-bit words
_STATE_WORDS = 8


def _words(value: int) -> list[int]:
    """value's 32-bit words, least significant first, one at least."""
    out = [value & 0xFFFFFFFF]
    while value := value >> 32:
        out.append(value & 0xFFFFFFFF)
    return out


@functools.cache
def _constants(init: int, mult: int, n: int) -> np.ndarray:
    """hashmix's running constants: init, then each times mult, n + 1 of
    them as a read-only (n + 1, 1) uint32 column; call k xors its value
    with constant k and multiplies it by constant k + 1."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    column = np.array(out, np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(values: np.ndarray, consts: np.ndarray, k: int) -> np.ndarray:
    """numpy's hashmix calls k, k+1, ... on the rows of values, one call per
    row."""
    n = len(values)
    out = values ^ consts[k : k + n]
    out *= consts[k + 1 : k + n + 1]
    out ^= out >> _SHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    out ^= out >> _SHIFT
    return out


def _pools(entropy: np.ndarray) -> np.ndarray:
    """mix_entropy: the (4, R) pool words of the sequence of each row of an
    (R, n) uint32 array of assembled entropy words.

    Within mix_entropy's loops the hashed value is the same for every
    destination word, so each loop's hashes and mixes are taken at once,
    with the calls' constants as a column."""
    r, n = entropy.shape
    words = np.zeros((_POOL_WORDS, r), np.uint32)
    words[: min(n, _POOL_WORDS)] = entropy[:, :_POOL_WORDS].T
    calls = _POOL_WORDS * _POOL_WORDS + _POOL_WORDS * max(0, n - _POOL_WORDS)
    consts = _constants(_INIT_A, _MULT_A, calls)
    pool = _hashmix(words, consts, 0)
    k = _POOL_WORDS
    for src in range(_POOL_WORDS):
        dst = [d for d in range(_POOL_WORDS) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(np.repeat(pool[src : src + 1], len(dst), 0), consts, k))
        k += len(dst)
    for src in range(_POOL_WORDS, n):
        pool = _mix(pool, _hashmix(np.repeat(entropy[None, :, src], _POOL_WORDS, 0), consts, k))
        k += _POOL_WORDS
    return pool


def _states(pool: np.ndarray) -> np.ndarray:
    """generate_state: the first _STATE_WORDS uint32 state words of each
    column of a (4, R) pool, as the rows of an (R, _STATE_WORDS) array."""
    state = _hashmix(np.tile(pool, (_STATE_WORDS // _POOL_WORDS, 1)),
                     _constants(_INIT_B, _MULT_B, _STATE_WORDS), 0)
    return np.ascontiguousarray(state.T)


class SeedWords:
    """The leading state words of ``SeedSequence(entropy, spawn_key)``,
    which is what ``PCG64`` and a 64-bit seed read of it, and its children.
    ``spawn`` registers it as an ``ISpawnableSeedSequence``, the type PCG64
    takes; importing the package does not import ``numpy.random``."""

    __slots__ = ("_words", "entropy", "spawn_key", "n_children_spawned")

    def __init__(self, words: np.ndarray, entropy: int, spawn_key: tuple) -> None:
        self._words = words  # the state's first 64-bit words, as generate_state pairs them
        self.entropy = entropy
        self.spawn_key = spawn_key
        self.n_children_spawned = 0

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        dtype = np.dtype(dtype)
        if dtype == np.uint64:
            words = self._words
        elif dtype == np.uint32:
            words = self._words.astype("<u8").view("<u4")
        else:
            raise ValueError("only support uint32 or uint64")
        if n_words > len(words):
            raise ValueError(f"only {len(words)} state words are kept, {n_words} asked for")
        return words[:n_words].astype(dtype, copy=False)

    def spawn(self, n_children: int) -> list:
        """The next n_children child sequences, as ``SeedSequence.spawn``
        gives them."""
        first = self.n_children_spawned
        self.n_children_spawned += n_children
        return [np.random.SeedSequence(self.entropy, spawn_key=self.spawn_key + (i,))
                for i in range(first, self.n_children_spawned)]


@functools.cache
def _register() -> None:
    from numpy.random.bit_generator import ISpawnableSeedSequence

    ISpawnableSeedSequence.register(SeedWords)


def _assembled(entropies: list, keys: list) -> np.ndarray | None:
    """The (R, n) assembled entropy words of each entropy and its key; None
    unless every key has the same number of parts, each below 2^32, and
    every entropy is non-negative and has the same number of words."""
    key_words = np.array(keys)
    if key_words.dtype.kind not in "iu" or key_words.ndim != 2 or not key_words.shape[1]:
        return None
    if key_words.min() < 0 or key_words.max() > 0xFFFFFFFF:
        return None
    if min(entropies) < 0:
        return None
    runs = {}
    for value in entropies:
        if value not in runs:
            run = _words(value)
            runs[value] = run + [0] * (_POOL_WORDS - len(run))
    if len({len(run) for run in runs.values()}) > 1:
        return None
    if len(runs) == 1:
        run_words = np.tile(np.array(runs[entropies[0]], np.uint32), (len(keys), 1))
    else:
        run_words = np.array([runs[value] for value in entropies], np.uint32)
    return np.concatenate([run_words, key_words.astype(np.uint32)], axis=1)


def spawn(entropy, keys) -> list:
    """``np.random.SeedSequence(e, spawn_key=key)`` for each key, where e
    is ``entropy``, a non-negative integer, or entropy[i] for keys[i].

    Each comes back as a ``SeedWords``, all hashed together, when the
    entropies and keys have equal word counts (see ``_assembled``), and as
    the ``SeedSequence`` itself otherwise."""
    _register()
    if isinstance(entropy, numbers.Integral):
        entropy = [entropy] * len(keys)
    entropies = [operator.index(e) for e in entropy]
    rows = _assembled(entropies, keys)
    if rows is None:
        return [np.random.SeedSequence(e, spawn_key=key) for e, key in zip(entropies, keys)]
    words = _states(_pools(rows)).view("<u8").astype(np.uint64)
    return [SeedWords(row, e, key) for row, e, key in zip(words, entropies, keys)]
