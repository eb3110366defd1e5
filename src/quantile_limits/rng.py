"""Counter-based 64-bit pseudo-random generator (SplitMix64).

All randomness in this package flows through SplitMix64 with the standard
increment 0x9E3779B97F4A7C15 and finalizer constants 0xBF58476D1CE4E5B9 /
0x94D049BB133111EB.  Because the SplitMix64 state after ``i`` steps is
``seed + i * INCREMENT (mod 2**64)``, the i-th output is a pure function of
``(seed, i)``; streams are therefore random-access, trivially vectorizable,
and identical on every platform.  Reference outputs for seed 1234567:
6457827717110365317, 3203168211198807973, 9817491932198370423.

One implementation, over numpy uint64 arrays, makes every word, replication
seeds included.  The counters come from a table of the steps
``i * INCREMENT``, built once on first use: a run of words is that table
plus one offset per stream, mixed in place.

The top 53 bits of a word, ``word >> 11``, are its level.  A level stands
for the uniform double ``(level + 0.5) * 2**-53``, evaluated in float64
(:func:`_uniform`, the one place that formula is written).  That lies in
(0, 1]: from level ``2**52`` up the ``+ 0.5`` rounds to even, and the top
level, ``2**53 - 1``, rounds up to 1.0.  :func:`uniforms` makes these
doubles.

The map from level to uniform is non-decreasing, so a comparison ``u > x`` of
a uniform with a probability is one comparison ``level >= T`` of integers,
with T the first level whose uniform exceeds x, and T = ``2**53``, past
every level, when none does: an exact closed form in x (see
:func:`_level_threshold`), which ``test_agrees_with_uniform_matrix_on_a_stream``
checks against :func:`_uniform` on a stream.  On the raw word that
is ``word >= T << 11`` (:func:`_word_threshold`, which names the T no word
reaches).  The samplers decide every draw that way and make no uniform.
Words are compared with a word threshold where the question has one or a
few thresholds: a Bernoulli draw is 1 iff its word is at or above that of
1 - q, and on a small support (``simulate._WORD_ATOMS`` atoms or fewer) a
draw is at or below atom j iff its word is below that of ``cum[j]``, so
counts come from comparisons alone.  On a larger support the inverse-CDF
draw looks each level up in a table of the thresholds of the cumulative
probabilities (``DiscreteDistribution._level_indices``).
"""

import functools

import numpy as np

from .errors import check_at_least, check_at_most, check_seed

INCREMENT = 0x9E3779B97F4A7C15

_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

_MAX_COUNTER = (1 << 64) - 1

_LEVELS = 1 << 53  # levels, the top 53 bits of a word; the threshold none reaches


@functools.cache
def _steps() -> np.ndarray:
    # i * INCREMENT for i = 1 .. 2**15, read-only, built on first use: the
    # counters of words 0 .. 2**15 - 1 of the stream of seed 0; any stream
    # adds its offset to them
    steps = np.arange(1, (1 << 15) + 1, dtype=np.uint64)
    steps *= np.uint64(INCREMENT)
    steps.flags.writeable = False
    return steps


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
    # row r: outputs start .. start+n-1 of the stream of seeds[r], the step
    # table plus each row's offset, a table's length of columns at a time.
    # The last counter, start + n, must fit in 64 bits.  out and scratch,
    # when given, are (len(seeds), n) uint64 arrays: the words go to out,
    # and the mixing makes no array of that size.
    check_at_least("start", start, 0)
    check_at_most("start", start, _MAX_COUNTER)
    check_at_least("n", n, 0)
    check_at_most("n", n, _MAX_COUNTER - start)
    if out is None:
        out = np.empty((len(seeds), n), dtype=np.uint64)
    steps = _steps()
    for c0 in range(0, n, len(steps)):
        c1 = min(n, c0 + len(steps))
        offsets = seeds + np.uint64((start + c0) * INCREMENT & _MAX_COUNTER)
        np.add.outer(offsets, steps[: c1 - c0], out=out[:, c0:c1])
    return _mix64_array(out, scratch)


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


def _uniform(levels):
    # the uniform of a level or an array of them: the module's definition
    return (levels + 0.5) * 2.0**-53


def _level_threshold(x):
    """First level T whose uniform exceeds x: ``u > x`` iff ``level >= T``.

    Closed form in y = x * 2**53, exact as a power-of-two scaling, with x
    clamped to [0, 1].  Below 2**52 level l's uniform is exactly (2l + 1) *
    2**-54, so u > x iff l > y - 0.5, and T = floor(y - 0.5) + 1: y - 0.5
    is exact from 0.5 up, and T is 0 below.  From 2**52 up y is an integer
    and ``+ 0.5`` rounds half to even: an odd level shares its uniform with
    the even level above it, so T = min(y | 1, ``_LEVELS``), 2**53, a level
    no word has, when no uniform exceeds x (x >= 1.0).  A float x gives an
    int, an array int64s.
    """
    y = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0) * 2.0**53
    below = y < 2.0**52
    t = np.where(below, np.floor(y - 0.5) + 1, y).astype(np.int64)
    t = np.where(below, t, np.minimum(t | 1, _LEVELS))
    return int(t) if t.ndim == 0 else t


def _word_threshold(level):
    """The first word of a level threshold T, ``T << 11``, as a uint64: a
    word's level ``word >> 11`` is at least T iff the word is at least it.
    None when T is ``_LEVELS``, which no word reaches (``T << 11`` would be
    2**64).
    """
    level = int(level)
    return None if level >= _LEVELS else np.uint64(level << 11)


def uniform_matrix(seeds: np.ndarray, n: int, start: int = 0) -> np.ndarray:
    """Row r holds ``uniforms(seeds[r], n, start)``; one stream per seed."""
    words = _word_matrix(np.asarray(seeds, dtype=np.uint64), n, start)
    words >>= np.uint64(11)
    return _uniform(words)
