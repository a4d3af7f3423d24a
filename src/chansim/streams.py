"""Per-row random streams of a whole pass, seeded a chunk of rows per step.

``np.random.default_rng(entropy)`` hashes the entropy with a SeedSequence
and seeds a PCG64 from four of its 64-bit words.  Building one such
generator per row costs tens of microseconds.  ``streams`` runs the same
documented hash on uint32 columns for a chunk of rows at once, does each
row's PCG64 seeding step in 128-bit integer arithmetic, and writes the
result into one generator, so each row draws exactly what
``default_rng(entropy)`` would have drawn.  The uint32 arithmetic uses
``np.uint32`` operands throughout, so it wraps the same way under numpy
1.x's value-based casting and numpy 2's rules.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice

import numpy as np

# numpy's SeedSequence constants (pool of four uint32 words).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

# Rows hashed and seeded per step: the word and seed columns of one chunk
# are alive at once, never the whole pass's.
_CHUNK_ROWS = 1024

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_MASK128 = (1 << 128) - 1


def _words(entropy) -> list[int]:
    """The uint32 words numpy makes of one entropy, least significant first."""
    if isinstance(entropy, (int, np.integer)):
        entropy = (entropy,)
    elif isinstance(entropy, (str, bytes)) or not hasattr(entropy, "__iter__"):
        raise TypeError("seed must be integer")
    words = []
    for n in entropy:
        if type(n) is not int:  # bool or a numpy integer
            if not isinstance(n, (int, np.integer)):
                raise TypeError("seed must be integer")
            n = int(n)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & _MASK32)  # zero, too, is one word
        n >>= 32
        while n:
            words.append(n & _MASK32)
            n >>= 32
    return words


def _hash(values: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix on a uint32 column; returns it and the next constant."""
    values = values ^ np.uint32(const)
    const = (const * mult) & _MASK32
    values = values * np.uint32(const)
    return values ^ (values >> _XSHIFT), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pools(words: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """The four pool columns of SeedSequence(entropy) for every row at once."""
    # A row shorter than the pool is hashed as if padded with zero words.
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        value, const = _hash(words[:, i], const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    # Words past the pool are mixed into every pool word, only in rows that have them.
    for src in range(_POOL_SIZE, words.shape[1]):
        has_word = lengths > src
        for dst in range(_POOL_SIZE):
            value, const = _hash(words[:, src], const, _MULT_A)
            pool[dst] = np.where(has_word, _mix(pool[dst], value), pool[dst])
    return pool


def _seed_words(pool: list[np.ndarray]) -> list[list[int]]:
    """generate_state(4, uint64) of every row, as four columns of Python ints."""
    const = _INIT_B
    halves = []
    for i in range(2 * _POOL_SIZE):
        value, const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
        halves.append(value.astype(np.uint64))
    return [(halves[2 * k] | (halves[2 * k + 1] << np.uint64(32))).tolist() for k in range(4)]


def streams(entropies: Iterable) -> Iterator[np.random.Generator]:
    """One generator per entropy, in the state ``np.random.default_rng(entropy)`` starts in.

    An entropy is a non-negative integer or a flat sequence of them, as
    ``default_rng`` takes it.  Every row gets the same generator object,
    set to that row's state, so a caller must finish its row's draws
    before it advances the iterator.  Entropies are read and seeded
    ``_CHUNK_ROWS`` at a time, so memory follows the chunk, not the pass.
    Raises ``ValueError`` for a negative and ``TypeError`` for a
    non-integer entropy, as numpy does, once the iterator reaches its chunk.
    """
    entropies = iter(entropies)
    rng = np.random.default_rng(0)
    bit_generator = rng.bit_generator
    while rows := [_words(entropy) for entropy in islice(entropies, _CHUNK_ROWS)]:
        width = max(_POOL_SIZE, *map(len, rows))
        lengths = np.array([len(row) for row in rows])
        words = np.array([row + [0] * (width - len(row)) for row in rows], dtype=np.uint32)
        for s_hi, s_lo, i_hi, i_lo in zip(*_seed_words(_pools(words, lengths))):
            # pcg64_set_seed: state 0, step, add the seed, step.
            inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
            state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng
