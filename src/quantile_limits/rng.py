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
``(word >> 11 + 0.5) * 2**-53`` in float64.  That lies in (0, 1]: from level
``word >> 11 = 2**52`` up the ``+ 0.5`` rounds to even, and the top level,
``2**53 - 1``, rounds up to 1.0.

That map is non-decreasing in the word, so a comparison ``u > x`` of a
uniform with a level is one comparison ``word >= W`` of the raw word with an
integer threshold (:func:`_word_threshold`): Bernoulli draws are counted on
the words, with no uniform made.
"""

import numpy as np

from .errors import check_at_least, check_at_most, check_seed

INCREMENT = 0x9E3779B97F4A7C15

_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

_MAX_COUNTER = (1 << 64) - 1

_LEVELS = 1 << 53  # uniform levels: the top 53 bits of a word


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


def _mix64_array(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    # mixes z in place; the shifts go to scratch (an array of z's shape and
    # dtype) when given, else each to a new array.  uint64 arithmetic wraps
    # mod 2**64, which is exactly what SplitMix64 needs
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= np.uint64(_MUL1)
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= np.uint64(_MUL2)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def _word_matrix(
    seeds: np.ndarray, n: int, start: int, out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    # row r: outputs start .. start+n-1 of the stream of seeds[r]; one
    # expression, so that no counter array outlives the mixing.  The last
    # counter, start + n, must fit in 64 bits.  out and scratch, when given,
    # are (len(seeds), n) uint64 arrays: the words go to out, and the mixing
    # makes no array of that size.
    check_at_least("start", start, 0)
    check_at_most("start", start, _MAX_COUNTER)
    check_at_least("n", n, 0)
    check_at_most("n", n, _MAX_COUNTER - start)
    return _mix64_array(np.add.outer(
        seeds, np.arange(start + 1, start + n + 1, dtype=np.uint64) * np.uint64(INCREMENT),
        out=out,
    ), scratch)


def stream_words(seed: int, n: int, start: int = 0) -> np.ndarray:
    """Raw outputs ``start .. start+n-1`` of the stream, as a uint64 array.

    ``n`` and ``start`` are non-negative and ``start + n <= 2**64 - 1``: the
    counter of the last output fits in 64 bits.
    """
    check_seed("seed", seed)
    return _word_matrix(np.array([seed], dtype=np.uint64), n, start)[0]


def uniforms(seed: int, n: int, start: int = 0) -> np.ndarray:
    """n uniform draws in (0, 1], offset by ``start``.

    Draw i is the top 53 bits of word ``start + i`` of the stream (see
    :func:`stream_words`) mapped into (0, 1] as in the module docstring;
    generating a stream in slices yields the same values as one shot.
    """
    check_seed("seed", seed)
    return uniform_matrix(np.array([seed], dtype=np.uint64), n, start)[0]


def _word_threshold(x: float) -> int:
    """Smallest word W whose uniform exceeds x: ``u > x`` iff ``word >= W``.

    The uniform is ``((word >> 11) + 0.5) * 2**-53`` evaluated in float64,
    as :func:`uniform_matrix` makes it.  At levels ``word >> 11 >= 2**52``
    the ``+ 0.5`` rounds to even, so the level is found by bisection on that
    float expression, not from real-number algebra.  Returns ``2**64``, a
    word no uint64 reaches, when no uniform exceeds x (x >= 1.0).
    """
    lo, hi = 0, _LEVELS  # the first level above x lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if (float(mid) + 0.5) * 2.0**-53 > x:
            hi = mid
        else:
            lo = mid + 1
    return lo << 11


def uniform_matrix(seeds: np.ndarray, n: int, start: int = 0) -> np.ndarray:
    """Row r holds ``uniforms(seeds[r], n, start)``; one stream per seed."""
    words = _word_matrix(np.asarray(seeds, dtype=np.uint64), n, start)
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u
