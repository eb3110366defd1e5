"""Counter-based 64-bit pseudo-random generator (SplitMix64).

All randomness in this package flows through SplitMix64 with the standard
increment 0x9E3779B97F4A7C15 and finalizer constants 0xBF58476D1CE4E5B9 /
0x94D049BB133111EB.  Because the SplitMix64 state after ``i`` steps is
``seed + i * INCREMENT (mod 2**64)``, the i-th output is a pure function of
``(seed, i)``; streams are therefore random-access, trivially vectorizable,
and identical on every platform.  Reference outputs for seed 1234567:
6457827717110365317, 3203168211198807973, 9817491932198370423.

One implementation, over numpy uint64 arrays, makes every word, replication
seeds included.  Uniform doubles are built from the top 53 bits of a word as
``(word >> 11 + 0.5) * 2**-53``, which lies strictly inside (0, 1).
"""

import numpy as np

from .errors import check_at_least, check_at_most, check_seed

INCREMENT = 0x9E3779B97F4A7C15

_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

_MAX_COUNTER = (1 << 64) - 1


def derive_seed(master_seed: int, rep_index: int) -> int:
    """Stateless per-replication seed: word ``rep_index`` of master_seed's stream.

    Distinct replication indices give distinct 64-bit seeds (the counter map
    is injective mod 2**64 and the finalizer is a bijection), so replications
    may run in any order, or concurrently, without stream reuse.  The
    counter ``rep_index + 1`` must fit in 64 bits: ``rep_index <= 2**64 - 2``.
    """
    check_seed("master_seed", master_seed)
    check_at_least("rep_index", rep_index, 0)
    check_at_most("rep_index", rep_index, _MAX_COUNTER - 1)
    return int(stream_words(master_seed, 1, rep_index)[0])


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # mixes z in place; uint64 arithmetic wraps mod 2**64, which is exactly
    # what SplitMix64 needs
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


def _word_matrix(seeds: np.ndarray, n: int, start: int) -> np.ndarray:
    # row r: outputs start .. start+n-1 of the stream of seeds[r]; one
    # expression, so that no counter array outlives the mixing.  The last
    # counter, start + n, must fit in 64 bits.
    check_at_least("start", start, 0)
    check_at_most("start", start, _MAX_COUNTER)
    check_at_least("n", n, 0)
    check_at_most("n", n, _MAX_COUNTER - start)
    return _mix64_array(np.add.outer(
        seeds, np.arange(start + 1, start + n + 1, dtype=np.uint64) * np.uint64(INCREMENT)
    ))


def stream_words(seed: int, n: int, start: int = 0) -> np.ndarray:
    """Raw outputs ``start .. start+n-1`` of the stream, as a uint64 array.

    ``n`` and ``start`` are non-negative and ``start + n <= 2**64 - 1``: the
    counter of the last output fits in 64 bits.
    """
    check_seed("seed", seed)
    return _word_matrix(np.array([seed], dtype=np.uint64), n, start)[0]


def uniforms(seed: int, n: int, start: int = 0) -> np.ndarray:
    """n uniform draws in the open interval (0, 1), offset by ``start``.

    Draw i is the top 53 bits of word ``start + i`` of the stream (see
    :func:`stream_words`) mapped into (0, 1) as in the module docstring;
    generating a stream in slices yields the same values as one shot.
    """
    check_seed("seed", seed)
    return uniform_matrix(np.array([seed], dtype=np.uint64), n, start)[0]


def uniform_matrix(seeds: np.ndarray, n: int, start: int = 0) -> np.ndarray:
    """Row r holds ``uniforms(seeds[r], n, start)``; one stream per seed."""
    words = _word_matrix(np.asarray(seeds, dtype=np.uint64), n, start)
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u
