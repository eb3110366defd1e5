"""Seeded Monte Carlo engine for sample-quantile trajectories and experiments.

Reproducibility contract: every draw comes from the counter-based SplitMix64
stream in :mod:`.rng` via inverse-CDF sampling, and per-replication seeds are
a stateless mix of (master_seed, rep_index).  Identical configuration and
seeds therefore give byte-identical trajectories, reports and files, on any
platform, regardless of worker scheduling.
"""

import contextlib
import functools
import json
import math
import os
from dataclasses import dataclass
from threading import Lock, Thread

import numpy as np

from .berry_esseen import BEParams, bernoulli_moments, phi_of_k
from .distributions import DiscreteDistribution
from .empirical import quantile_indices, quantile_ranks, sup_distances
from .errors import (
    QuantileLimitsError,
    check_at_least,
    check_at_most,
    check_level,
    check_positive,
    check_seed,
    check_size,
)
from ._csvrows import _csv_matrix, _csv_rows, _n_field, _value_table
from ._folds import SwitchStats, _GapFold, _LastFold, _SandwichFold, _SwitchFold
from .rng import _level_threshold, _word_matrix, _word_threshold, derive_seed, stream_words

__all__ = [
    "SimConfig",
    "Trajectory",
    "SwitchStats",
    "derive_seed",
    "sample_stream",
    "run_trajectory",
    "gc_path",
    "switch_stats",
    "sandwich_check",
    "gap_interior_hits",
    "block_schedule",
    "deviation_experiment",
    "block_event_experiment",
    "run_replicated",
    "trajectory_csv_bytes",
    "write_trajectory_csv",
    "report_to_json_bytes",
]

#: n_max at or below which the default record stride stays 1.
DENSE_RECORD_LIMIT = 10_000

# counting working-set bounds: draws per chunk (and the length of a
# workspace), and cells of a run's atom-by-record count matrix, its records
# times its window plus one spare column (_record_counts): 256 KiB.  Two
# simulate-wide trajectories (128 atoms, stride 10; 2 cores, medians of 45
# over three seeds) took 10.3-10.7 ms at 2**13 to 2**16 cells, 11.2 ms at
# 2**17 and 12.8 ms at 2**18, where more groups share a wider window; one
# trajectory on 4096 atoms at stride 100, whose groups' windows are wider,
# took 20.5, 17.5 and 15.5 ms at 2**13, 2**15 and 2**17.
_CHUNK = 1 << 15
_CELLS = 1 << 15

# records per group of the guide path, each counted on a window of atoms
# placed from the counts at the group's ends (_record_counts).  At 16, 32,
# 64 and 128 records two simulate-wide trajectories took 11.8, 10.4, 10.0
# and 10.2 ms (as above), and one on 4096 atoms at stride 100 took 24.5,
# 20.1, 22.8 and 28.7 ms (medians of 9): the table grows as groups shrink,
# and windows widen as they grow.
_GROUP = 32

# supports of at most this many atoms are counted on the raw words, one
# threshold comparison per atom and draw (_record_counts); larger ones
# through the guide table and a bincount.  At most 9: the comparisons of
# all atoms but the last, a byte a draw, share one workspace row.  Measured
# on 2 cores (medians of 9, two sessions): gc_path over 10**7 record-free
# draws took 48-50 ms on the words against 98-134 ms through the table at
# 2 atoms, 73-80 against 91-125 ms at 8 and 87-114 against 130-145 ms at
# 9, and trajectories at strides 1 and 10 were faster on the words at 2 to
# 9 atoms too.  A comparison costs about 5-7 ms per atom per 10**7 draws,
# so the crossover lies past the bound of 9.
_WORD_ATOMS = 8

# _binomial_cdf window half-width in standard deviations (plus 30 atoms),
# and the atoms it weighs at a time
_TAIL_SDS = 12
_TAIL_CHUNK = 1 << 16

# words made and counted at a time (_bernoulli_block_sums), or replications
# compared (block_event_experiment), and tiles' worth of words per sums job
_TILE = 1 << 16
_JOB_TILES = 16

# records encoded at a time (_csv_chunks, _csv_pieces), and the fewest
# records a block that run_replicated folds and writes holds, but the last
# (_coalesced)
_CSV_ROWS = 1 << 14

# the most replications in one group of run_replicated, whose lanes share a
# record plan (_Plan): each lane holds an open file, O(atoms) counts and its
# folds' state
_LANES = 16


@dataclass(frozen=True)
class SimConfig:
    """One trajectory experiment: distribution, level, length, seeding."""

    distribution: DiscreteDistribution
    p: float
    n_max: int
    master_seed: int
    record_stride: int | None = None
    replications: int = 1

    def __post_init__(self):
        object.__setattr__(self, "p", check_level("p", self.p))
        check_size("n_max", self.n_max)
        check_at_least("replications", self.replications, 1)
        check_seed("master_seed", self.master_seed)
        if self.record_stride is None:
            stride = 1 if self.n_max <= DENSE_RECORD_LIMIT else 10
            object.__setattr__(self, "record_stride", stride)
        else:
            check_size("record_stride", self.record_stride)


class Trajectory:
    """Recorded (n, left sample quantile, right sample quantile) sequence."""

    __slots__ = ("ns", "lq", "rq", "seed")

    def __init__(self, ns: np.ndarray, lq: np.ndarray, rq: np.ndarray, seed: int):
        self.ns = ns
        self.lq = lq
        self.rq = rq
        self.seed = seed

    def __len__(self) -> int:
        return len(self.ns)

    def __repr__(self) -> str:
        return f"Trajectory(records={len(self)}, seed={self.seed})"


# ---------------------------------------------------------------------------
# Sampling


def _workspace() -> np.ndarray:
    # the buffers of one running draw: three int64 rows of _CHUNK.  Row 0
    # holds the words (then their levels, then segment ids, or the starts
    # of the segments between records), row 1 the mixing scratch (then the
    # bin keys of the group table and of each run, or the words' threshold
    # comparisons) and row 2 the atom indices (or one atom's running sum)
    return np.empty((3, _CHUNK), dtype=np.int64)


def _draw_words(seed: int, n: int, start: int, ws: np.ndarray) -> np.ndarray:
    # words start .. start+n-1 (n <= _CHUNK) of seed's stream, made in row 0
    # of the workspace ws, which no other running draw may use, with row 1
    # as the mixing scratch.  Returns the uint64 view of ws[0, :n].
    words = ws[0, :n].view(np.uint64)
    scratch = ws[1, :n].view(np.uint64)
    _word_matrix(np.array([seed], dtype=np.uint64), n, start, words[None], scratch[None])
    return words


def _draw_indices(d: DiscreteDistribution, seed: int, n: int, start: int, ws: np.ndarray):
    # inverse-CDF sampling of draws start .. start+n-1 (n <= _CHUNK): the
    # atom index of each word's level, in the workspace ws.  Returns a view
    # of ws.
    raw = _draw_words(seed, n, start, ws)
    raw >>= np.uint64(11)  # the levels, below 2**53: the same in the int64 view
    levels, scratch, idx = ws[:, :n]
    return d._level_indices(levels, idx, scratch)


def sample_stream(d: DiscreteDistribution, seed: int, n: int) -> np.ndarray:
    """n i.i.d. draws from d for this seed, as an array of atom values.

    Deterministic in (d, seed, n); prefixes agree, so growing n extends the
    same sequence.  Draws are made ``_CHUNK`` at a time in one workspace,
    so besides the output the call holds only that workspace.
    """
    check_at_least("n", n, 1)
    check_seed("seed", seed)
    out = np.empty(n, dtype=np.float64)
    ws = _workspace()
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        idx = _draw_indices(d, seed, hi - lo, lo, ws)
        np.take(d.values_array, idx, out=out[lo:hi], mode="wrap")
    return out


class _StridePoints:
    """The record points of a trajectory: stride, 2*stride, ... up to n_max,
    then n_max if it is off the stride.  They stand in for their int64 array
    in the chunk loop (``len``, an element, a slice and ``searchsorted``),
    and each slice is made when asked for, so no array grows with
    n_max / stride."""

    __slots__ = ("n_max", "stride", "_on_stride")

    def __init__(self, n_max: int, stride: int):
        self.n_max, self.stride = n_max, stride
        self._on_stride = n_max // stride  # the multiples of stride

    def __len__(self) -> int:
        return self._on_stride + (self.n_max % self.stride != 0)

    def __getitem__(self, key):
        if not isinstance(key, slice):  # an index in [0, len)
            return min((key + 1) * self.stride, self.n_max)
        r0, r1, _ = key.indices(len(self))
        ns = np.arange(r0 + 1, max(r0, r1) + 1, dtype=np.int64)
        if self.stride > 1:
            ns *= self.stride  # past n_max only at the last point, set next
        if r0 < r1 and r1 > self._on_stride:  # the last point, n_max
            ns[-1] = self.n_max
        return ns

    def searchsorted(self, n: int, side: str = "left") -> int:
        # the number of points below n, or with side="right" at most n
        top = n if side == "right" else n - 1
        return len(self) if top >= self.n_max else max(top, 0) // self.stride


def _chunks(atoms: int, rec_ns):
    # (lo, hi, r0, rb, r1) of each chunk of draws lo .. hi-1, in order:
    # records r0 .. rb-1 fall strictly inside it, and r0 .. r1-1 are the
    # records it completes.  A chunk completes at most _GROUP * max(1,
    # _CHUNK // atoms) records, so its (rb - r0) // _GROUP + 1 groups of
    # segments times the atoms, its table of group counts, are at most
    # max(_CHUNK, atoms) cells
    max_recs = _GROUP * max(1, _CHUNK // atoms)
    n_end = int(rec_ns[len(rec_ns) - 1])
    lo = r0 = 0  # records before r0 are complete: rec_ns[r0] > lo
    while lo < n_end:
        hi = min(lo + _CHUNK, int(rec_ns[min(r0 + max_recs, len(rec_ns)) - 1]))
        rb = int(rec_ns.searchsorted(hi, side="left"))
        r1 = int(rec_ns.searchsorted(hi, side="right"))
        yield lo, hi, r0, rb, r1
        lo, r0 = hi, r1


def _segment_ids(rec_ns, lo, r0, rb, n, ws) -> np.ndarray:
    # the record segment of each draw of the chunk lo .. lo + n - 1, made
    # in ws[0]: draw k (0-based) first counts at the first record n >= lo +
    # k + 1.  Records r0 .. rb-1 fall strictly inside the chunk, so segment
    # s < rb - r0 ends at record r0 + s and segment rb - r0 at the chunk's
    # end, and each s is repeated for its draws.  The repeat's row, freed
    # before the chunk's table is made, is within its max(_CHUNK, atoms).
    bounds = np.empty(rb - r0 + 2, dtype=np.int64)  # the segments' first draws, then hi
    bounds[0], bounds[1:-1], bounds[-1] = lo, rec_ns[r0:rb], lo + n
    seg = ws[0, :n]
    np.copyto(seg, np.repeat(np.arange(rb - r0 + 1), np.diff(bounds)))
    return seg


def _runs(a, b, step: int, records: int):
    # (q0, q1, a, b) of each run of a chunk's records, in order: its records
    # q0 .. q1-1, counted from the chunk's first, and its window of atoms
    # a .. b-1.  Groups g of step records, with windows a[g] .. b[g]-1, are
    # joined while the run's records times its window (the union of
    # theirs) plus one spare column stay within _CELLS; a group that alone
    # passes _CELLS is split into runs of fewer records.
    g0 = 0
    while g0 < len(a):
        lo, hi, g = a[g0:], b[g0:], 1
        if len(lo) > 1:
            lo, hi = np.minimum.accumulate(lo), np.maximum.accumulate(hi)
            held = np.minimum(np.arange(g0 + 1, len(a) + 1) * step, records) - g0 * step
            # non-decreasing: each group adds records and keeps or widens the window
            cells = held * (hi - lo + 1)
            g = max(1, int(cells.searchsorted(_CELLS, side="right")))
        q0, q1 = g0 * step, min((g0 + g) * step, records)
        a_run, b_run = int(lo[g - 1]), int(hi[g - 1])
        per = max(1, _CELLS // (b_run - a_run + 1))
        for q in range(q0, q1, per):
            yield q, min(q + per, q1), a_run, b_run
        g0 += g


def _run_jobs(fn, jobs) -> list:
    # [fn(*job) for job in jobs] on min(_worker_count(), len(jobs)) threads,
    # the calling one among them, taking the jobs in order.  The calling
    # thread works rather than wait in a join, which an interrupt would not
    # wake: the interrupt fails the job it lands in.  Once a job fails no job
    # starts; the threads are joined, then the error of the lowest-index
    # failing job is raised.  No concurrent.futures: 3-7 ms of imports.
    results, errors, todo, lock = [None] * len(jobs), {}, iter(range(len(jobs))), Lock()

    def work():
        i = len(jobs)  # the key of an interrupt before the first job
        try:
            while True:
                with lock:  # a job is taken, or a failure recorded, one at a time
                    if errors or (i := next(todo, len(jobs))) == len(jobs):
                        return
                results[i] = fn(*jobs[i])
        except BaseException as exc:
            with lock:
                errors[i] = exc

    threads = [Thread(target=work, name="qlim-worker")
               for _ in range(min(_worker_count(), len(jobs)) - 1)]
    try:
        for thread in threads:
            thread.start()
        work()
    finally:  # also after an interrupt among the starts: no job starts, all are joined
        todo = iter(())
        for thread in filter(Thread.is_alive, threads):
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _record_counts(d: DiscreteDistribution, seed: int, rec_ns, window, ws=None):
    """Per-atom cumulative counts of one sample path at each record point,
    on a window of atoms per group of records.

    ``rec_ns`` is a strictly increasing int64 array of positive sample
    sizes, or a ``_StridePoints``, which makes the slices the chunks read.
    Draws are made and counted a chunk at a time (``_chunks``).  The records
    a chunk completes, ``r0 .. r1-1``, fall in groups of ``step`` records
    from r0 (the last may hold fewer), and ``window(r0, r1, step, below,
    ends)`` is asked for the atoms to count in each: two int arrays
    ``(a, b)`` with an entry per group, its window ``a[g] .. b[g]-1``.
    ``below[j]`` is the number of draws at or below atom j before the
    chunk, and ``ends[g, j]`` that at the end of group g, its last record
    (for the chunk's last group, some point from its last record up to the
    next record point).  Then ``(q0, q1, a, C)`` is yielded for each run of
    records ``q0 .. q1-1``, where ``C[j, r - q0]`` is the number of draws
    at or below atom ``a + j`` among the first ``rec_ns[r]``, and the rows
    of C hold the window of every group the run meets.  The ranges are
    consecutive and cover every record, and drawing stops at
    ``rec_ns[-1]``.  A chunk whose only record is its last draw needs no
    more counting: C is the window's rows of ``ends``.

    A support of at most ``_WORD_ATOMS`` atoms is counted on the raw words,
    one group and one run a chunk.  The drawn index is the number of j with
    ``T[j] <= level``, where ``T = _level_threshold(cum)`` is
    non-decreasing, so a draw is at or below atom j iff its word is below
    ``T[j] << 11``, and every draw is when ``T[j]`` is 2**53.  Each atom's
    comparisons are made once per chunk, a byte a draw in the workspace:
    their count gives ``ends``, and a window atom's counts at the records
    are their running sum, read at the record offsets.  Where every draw is
    a record that is one cumulative sum, read as a slice.  Elsewhere the
    comparisons are summed between records (``np.add.reduceat``) and those
    sums summed along the records: slower than one cumulative sum at 2 to 5
    draws a record (up to 2.5 times), faster from about 6 up (8 times at
    one record a chunk), and the segment starts fit in a workspace row.
    Total work is O(rec_ns[-1] * atoms).

    A larger support looks each word's level up in the guide table
    (``_draw_indices``), in groups of ``_GROUP`` records.  Each draw's
    record segment (the draws after one record point up to and including
    the next) is found once per chunk (``_segment_ids``).  The chunk's
    draws are binned once by (group of segments, atom), and cumulative
    sums of that table over the atoms and the groups give ``ends``.
    Consecutive groups are then counted in runs (``_runs``) whose records
    times (window + 1) stay within ``_CELLS``, a group that alone passes it
    split into runs of fewer records.  A run bins its own draws by atom and
    segment, atoms below its window counted with its first atom and those
    above it in one spare column, so its counts at every record come from
    one cumulative sum over atoms and one over segments, from the counts at
    the record before it.  Total work is O(rec_ns[-1] + records * group
    window), plus the table.

    Both add O(atoms) per chunk.  The working set is one workspace, ``3 *
    _CHUNK`` int64 words (768 KiB), in which every per-draw array is held,
    one chunk's table of at most ``max(_CHUNK, atoms)`` cells, and
    one run's counts: at most ``max(_CELLS, window + 1)`` cells, or
    ``_WORD_ATOMS * _CHUNK`` on a small support, whatever ``rec_ns[-1]``
    is, so long as the consumer drops C before it asks for the next run.
    The workspace is ``ws``, or a new one.  Nothing in it is read again
    once a chunk's last run is yielded, so callers that each take every run
    of a chunk before the next caller resumes may share one.
    """
    atoms = len(d)
    ws = _workspace() if ws is None else ws
    below = np.zeros(atoms, dtype=np.int64)  # draws before lo at or below each atom
    on_words = atoms <= _WORD_ATOMS
    if on_words:
        # the word thresholds of the atoms some draw may lie above: a prefix,
        # as T is non-decreasing
        _, _, t, _ = d._guide
        thresholds = [w for w in map(_word_threshold, t[:atoms]) if w is not None]
    for lo, hi, r0, rb, r1 in _chunks(atoms, rec_ns):
        n = hi - lo
        if on_words:
            words = _draw_words(seed, n, lo, ws)
            hits = ws[1].view(np.bool_)[: len(thresholds) * n].reshape(-1, n)
            end = below + n  # draws before hi at or below each atom
            for j, w in enumerate(thresholds):
                np.less(words, w, out=hits[j])
                end[j] = below[j] + np.count_nonzero(hits[j])
            ends, step = end[None], r1 - r0  # one group
        else:
            idx = _draw_indices(d, seed, n, lo, ws)
            groups = (rb - r0) // _GROUP + 1
            key = idx
            if rb > r0:
                seg = _segment_ids(rec_ns, lo, r0, rb, n, ws)
            if groups > 1:
                key = np.floor_divide(seg, _GROUP, out=ws[1, :n])
                key *= atoms
                key += idx
            ends = np.bincount(key, minlength=groups * atoms).reshape(groups, atoms)
            np.cumsum(ends, axis=1, out=ends)
            ends[0] += below
            # down the groups: numpy's pass per column took 3-6 ns a cell,
            # one add per group about 0.8 us plus 0.1 ns a cell, so rows of
            # 256 atoms or more are added one at a time (2 cores, 2 to 256
            # groups of 128 to 16,384 atoms)
            if atoms >= 256:
                for g in range(1, groups):
                    ends[g] += ends[g - 1]
            elif groups > 1:
                np.cumsum(ends, axis=0, out=ends)
            # a copy: the next chunk's table is made while below is held
            end, step = ends[-1].copy(), _GROUP
        if r1 > r0:
            k = -(-(r1 - r0) // step)
            a, b = window(r0, r1, step, below, ends[:k])
            runs = [(0, r1 - r0, int(a[0]), int(b[0]))] if on_words else _runs(a, b, step, r1 - r0)
            for q0, q1, a, b in runs:
                if rb == r0 or a == b:
                    cum = end[a:b, None]
                elif on_words:
                    # record r counts the chunk's first rec_ns[r] - lo draws
                    cum = np.empty((b - a, r1 - r0), dtype=np.int64)
                    first, last = int(rec_ns[r0]) - lo, int(rec_ns[r1 - 1]) - lo
                    every_draw = last - first == r1 - 1 - r0  # a record at every draw
                    if not every_draw:
                        # the segments between records start at draw 0 and
                        # after each record but the last
                        starts = ws[0, : r1 - r0]
                        starts[0] = 0
                        np.subtract(rec_ns[r0 : r1 - 1], lo, out=starts[1:])
                    running = ws[2, :last]
                    for j in range(a, b):
                        if j >= len(thresholds):  # every draw lies at or below atom j
                            cum[j - a] = rec_ns[r0:r1]
                            continue
                        # cast, then summed in place: numpy would cast the bytes
                        # through a temporary
                        np.copyto(running, hits[j, :last])
                        if every_draw:  # the running sum, read at the records
                            np.cumsum(running, out=running)
                            np.add(running[first - 1 :], below[j], out=cum[j - a])
                        else:  # the segment sums, summed along the segments
                            np.add.reduceat(running, starts, out=cum[j - a])
                            cum[j - a, 0] += below[j]
                            np.cumsum(cum[j - a], out=cum[j - a])
                else:
                    # the run's draws, after record r0 + q0 - 1 up to and
                    # including record r0 + q1 - 1, binned by atom and
                    # segment: column j holds atom a + j, column 0 the draws
                    # below atom a too, and column b - a those above it
                    d0 = int(rec_ns[r0 + q0 - 1]) - lo if q0 else 0
                    d1 = int(rec_ns[r0 + q1 - 1]) - lo
                    segs = q1 - q0
                    key = np.clip(idx[d0:d1], a, b, out=ws[1, d0:d1])
                    key *= segs
                    key += seg[d0:d1]
                    key -= a * segs + q0
                    cum = np.bincount(key, minlength=(b - a + 1) * segs).reshape(-1, segs)
                    cum = cum[: b - a]
                    # down the atoms, in whichever makes fewer, longer inner
                    # loops: one add per row, or numpy's one pass per column
                    if len(cum) <= segs:
                        for j in range(1, len(cum)):
                            cum[j] += cum[j - 1]
                    else:
                        cum.cumsum(axis=0, out=cum)
                    # from the counts at the record before the run: a group's
                    # start, or the end of the run before it in its group
                    g, within = divmod(q0, step)
                    cum[:, 0] += carry if within else (ends[g - 1] if g else below)[a:b]
                    cum.cumsum(axis=1, out=cum)  # along the segments
                    if q1 % step:
                        carry = cum[:, -1].copy()
                if q1 == r1 - r0:  # the chunk's last run: its table is done with
                    ends = None
                # handed over, not held here while the consumer runs (which
                # may be another lane's turn, _Plan), so no two runs' counts
                # are ever held at once
                out = [cum]
                del cum
                yield r0 + q0, r0 + q1, a, out.pop()
        below, ends = end, None  # before the next chunk's table is made


class _Plan:
    """The record plan of a group of replications of one configuration, its
    lanes, which advance in lockstep a block at a time on one workspace
    (``ws``): each lane takes every chunk of its block before the next lane
    resumes.  Nothing is kept in the workspace across a lane's yield
    (``_record_counts`` reads nothing in it again once it has yielded a
    chunk's last run), which is what makes sharing it safe.

    Every lane has the same record points, so what depends on them alone
    is made once, by the first lane to ask for it, and let go by the last
    (``shared``): a chunk's ranks, a block's record points and the ``n``
    texts of each CSV piece.  The lanes ask for the same keys in the same
    order and a lane finishes its block before the next one starts it, so
    the plan holds only the current block's shared arrays.
    """

    def __init__(self, cfg: SimConfig, lanes: int):
        self.cfg, self.lanes = cfg, lanes
        self.points = _StridePoints(cfg.n_max, cfg.record_stride)
        self.ws = _workspace()
        self.code = np.min_scalar_type(len(cfg.distribution) - 1)  # the type of an atom index
        self._held: dict = {}
        self._table = None, None

    def shared(self, key, make) -> tuple:
        # (make(), made once for the group's lanes, and whether the caller is
        # the last lane to ask, which may write over it)
        entry = self._held.get(key)
        if entry is None:
            entry = self._held[key] = [make(), self.lanes]
        entry[1] -= 1
        if entry[1] == 0:
            del self._held[key]
        return entry[0], entry[1] == 0

    def records(self, r0: int, r1: int) -> np.ndarray:
        # the record points r0 .. r1-1, of a block that starts at record r0
        return self.shared(("ns", r0), lambda: self.points[r0:r1])[0]

    def table(self, lo: int, hi: int) -> tuple:
        # the _value_table of atoms lo .. hi, kept while pieces span the same atoms
        if self._table[0] != (lo, hi):
            values = self.cfg.distribution.values_array[lo : hi + 1].tolist()
            self._table = (lo, hi), _value_table(values)
        return self._table[1]


def _trajectory_blocks(plan: _Plan, seed: int, codes: bool = False):
    """The records of one lane of plan, in blocks: ``(r0, r1, lq, rq)`` of
    the records ``r0 .. r1-1`` each chunk of ``_record_counts`` completes,
    in order, and with ``codes`` ``(r0, r1, lq, rq, lc, rc)``, where lc and
    rc are the quantiles' atom indices.  The record points are
    ``plan.records(r0, r1)``.

    The order statistic of rank r is the first atom whose cumulative count
    reaches r, and the ranks L and R are computed for the records each
    chunk completes only, once for the plan's lanes.  Only a window of
    atoms can hold the quantiles of a group of records: an atom whose
    cumulative count at the group's end is still below its first L lies
    below all of them, and one whose count at the group's start already
    reaches its last R lies at or above all of them.  The last atom is
    never in a window, since its count at a record n is n, at least R(n)
    for every p in (0, 1).  So only the window's atoms are counted, and a
    quantile's index is the window's first atom plus the number of window
    atoms whose cumulative count is below its rank.  Total work is
    O(n_max * atoms) on a support of at most ``_WORD_ATOMS`` atoms, with
    one window a chunk, and otherwise O(n_max + records * group window)
    plus the chunk's table of counts at the group ends, from which the
    windows of its groups of ``_GROUP`` records are placed: O(atoms) per
    chunk and per group.

    A block's arrays are made for its chunk.  The atom indices are held in
    the narrowest unsigned type the support's indices fit (``plan.code``),
    a byte a record up to 256 atoms, and the last lane to read a chunk's
    ranks writes the quantiles over them, so a group of one holds one
    workspace and a few chunk-length arrays whatever n_max and the stride
    are, so long as the consumer lets go of a block before it asks for the
    next.
    """
    cfg = plan.cfg
    d = cfg.distribution
    values = d.values_array
    points = plan.points
    last = len(d) - 1
    chunk = None

    def window(r0, r1, step, below, ends):
        nonlocal chunk
        ranks, mine = plan.shared(("ranks", r0), lambda: quantile_ranks(points[r0:r1], cfg.p))
        chunk = r0, r1, ranks, mine, [np.empty(r1 - r0, plan.code) for _ in ranks]
        left, right = ranks
        # each group's least L and largest R: those of its first and last
        # records, as both grow with n
        top = right[np.minimum(np.arange(step, r1 - r0 + step, step), r1 - r0) - 1]
        a = (ends < left[::step, None]).sum(axis=1)
        b = np.empty_like(a)
        b[0] = np.count_nonzero(below < top[0])
        b[1:] = (ends[:-1] < top[1:, None]).sum(axis=1)
        return a, np.minimum(b, last, out=b)

    for q0, q1, a, cum in _record_counts(d, seed, points, window, plan.ws):
        r0, r1, ranks, mine, idx = chunk
        (lr, rr), (li, ri) = ([x[q0 - r0 : q1 - r0] for x in pair] for pair in (ranks, idx))
        if len(cum) == 0:
            li.fill(a)
            ri.fill(a)
        elif len(cum) == 1:  # quantile_indices on one atom, without its 2-D sum
            np.add(cum[0] < lr, plan.code.type(a), out=li)
            np.add(cum[0] < rr, plan.code.type(a), out=ri)
        else:
            left, right = quantile_indices(cum, lr, rr)
            np.add(left, a, out=li, casting="unsafe")
            np.add(right, a, out=ri, casting="unsafe")
            del left, right
        del cum, lr, rr, li, ri
        if q1 == r1:
            if mine:  # the quantiles are written over their ranks
                qs = [values.take(i, out=r.view(np.float64), mode="wrap") for i, r in zip(idx, ranks)]
            else:
                qs = [values.take(i) for i in idx]
            # handed over, not held here while the consumer (or another lane)
            # runs; the next chunk's ranks are made only then
            out = [(r0, r1, *qs, *(idx if codes else ()))]
            chunk = ranks = idx = qs = None
            yield out.pop()


def _coalesced(blocks, rows: int):
    # the blocks (r0, r1, *arrays), with each run of shorter blocks joined
    # into one of at least rows records (but the last), so that per-block
    # costs, of the folds and the CSV encoder, are not paid per kernel chunk
    # when the chunks complete few records each
    pending, held = [], 0
    for block in blocks:
        pending.append(block)
        held += block[1] - block[0]
        del block
        if held >= rows:
            out, pending, held = [_joined(pending)], [], 0
            yield out.pop()  # not held here while the consumer runs
    if pending:
        out, pending = [_joined(pending)], None
        yield out.pop()


def _joined(blocks) -> tuple:
    # consecutive blocks as one
    if len(blocks) == 1:
        return blocks[0]
    return blocks[0][0], blocks[-1][1], *map(np.concatenate, zip(*(b[2:] for b in blocks)))


class _Records:
    """A Trajectory filled in from its blocks, in order."""

    def __init__(self, cfg: SimConfig, seed: int):
        n = len(_StridePoints(cfg.n_max, cfg.record_stride))
        self.trajectory = Trajectory(
            np.empty(n, dtype=np.int64), np.empty(n), np.empty(n), seed
        )
        self._filled = 0

    def add(self, ns, lq, rq) -> None:
        t, r0 = self.trajectory, self._filled
        self._filled += len(ns)
        t.ns[r0 : self._filled] = ns
        t.lq[r0 : self._filled] = lq
        t.rq[r0 : self._filled] = rq


def run_trajectory(cfg: SimConfig, rep_index: int) -> Trajectory:
    """Stream cfg.n_max draws and record both sample quantiles along the way.

    Records are taken every ``record_stride`` draws and at n_max.  At a
    record n the left quantile is the order statistic of rank
    ``L = ceil(n*p)`` and the right one that of rank ``R = floor(n*p) + 1``,
    exactly for the double p (``empirical.quantile_ranks``).

    The records are made a chunk of draws at a time (``_trajectory_blocks``,
    on the counts of ``_record_counts``, a group of one lane) and filled
    into the trajectory's three arrays, 24 bytes a record.  Past those, the
    working set is O(chunk) whatever n_max and the stride are: one
    workspace and a few chunk-length arrays.  ``run_replicated`` folds and
    writes the same blocks without assembling a Trajectory at all.  It all
    runs on the calling thread: ``run_replicated`` spreads the replications
    over the worker threads.
    """
    seed = derive_seed(cfg.master_seed, rep_index)
    records = _Records(cfg, seed)
    plan = _Plan(cfg, 1)
    for r0, r1, lq, rq in _trajectory_blocks(plan, seed):
        records.add(plan.records(r0, r1), lq, rq)
        del lq, rq  # let go before the next block is made
    return records.trajectory


def gc_path(
    d: DiscreteDistribution, seed: int, checkpoints
) -> tuple[np.ndarray, np.ndarray]:
    """sup_x |F_n(x) - F(x)| along one sample path, at each checkpoint n.

    The path is ``sample_stream(d, seed, n)``; ``checkpoints`` are strictly
    increasing integer sample sizes in ``[1, 2**63)`` (an array of floats is
    refused, not truncated).  Returns the distances and their leftmost
    witness atoms, one per checkpoint.  The counts over the whole support
    come from ``_record_counts`` on the calling thread, and drawing stops
    at the last checkpoint n.  Total work is O(n * atoms) on a support of
    at most ``_WORD_ATOMS`` atoms, and otherwise O(n + checkpoints *
    atoms), plus O(atoms) per chunk.  Past the checkpoint arrays, memory is
    bounded by its one workspace, however large the checkpoints are.
    """
    check_seed("seed", seed)
    ns = np.asarray(checkpoints)
    if ns.dtype.kind in "iu" and np.all(ns < 2**63):  # int64 sizes, never cast floats
        ns = ns.astype(np.int64)
    else:
        ns = None
    if ns is None or ns.ndim != 1 or len(ns) == 0 or ns[0] < 1 or np.any(ns[1:] <= ns[:-1]):
        raise QuantileLimitsError(
            f"checkpoints must be strictly increasing integers in [1, 2**63), got {checkpoints!r}",
            param="checkpoints",
        )
    dist = np.empty(len(ns), dtype=np.float64)
    witness = np.empty(len(ns), dtype=np.float64)

    def support(r0, r1, step, below, ends):  # every atom, in every group
        return np.zeros(len(ends), dtype=np.int64), np.full(len(ends), len(d))

    for r0, r1, _, cum in _record_counts(d, seed, ns, support):
        dist[r0:r1], j = sup_distances(cum.T, ns[r0:r1], d.cum_array)
        witness[r0:r1] = d.values_array[j]
        del cum
    return dist, witness


# ---------------------------------------------------------------------------
# Trajectory analyses


def switch_stats(traj: Trajectory, burn_in: int = 0) -> SwitchStats:
    """Oscillation statistics of the recorded left quantile for n >= burn_in.

    ``switch_count`` counts consecutive recorded indices whose left quantile
    differs; ``visits`` maps each recorded value to its occurrence count;
    the running extremes estimate the limiting oscillation band.
    """
    fold = _SwitchFold(burn_in)
    fold.add(traj.ns, traj.lq, traj.rq)
    return fold.result()


def sandwich_check(
    traj: Trajectory,
    d: DiscreteDistribution,
    p: float,
    epsilon: float,
    burn_in: int = 0,
) -> bool:
    """True iff every record past burn_in sits in the two-sided sandwich
    (lq - epsilon, lq] union [rq, rq + epsilon) around the quantile pair."""
    fold = _SandwichFold(d, p, epsilon, burn_in)
    fold.add(traj.ns, traj.lq, traj.rq)
    return fold.result()


def gap_interior_hits(traj: Trajectory, d: DiscreteDistribution, p: float) -> int:
    """Number of recorded quantile values strictly inside the gap
    (left_quantile, right_quantile) over ALL records.  Always 0 for a
    correctly sampled trajectory: the open gap carries no probability."""
    fold = _GapFold(d.quantile_pair(p))
    fold.add(traj.ns, traj.lq, traj.rq)
    return fold.hits


# ---------------------------------------------------------------------------
# Deviation-block experiments


def block_schedule(
    params: BEParams, alpha: float, k_max: int, n_cap: int
) -> tuple[int, ...]:
    """Deviation-window indices (n_1, m_1, n_2, ...): n_1 = 1, m_k = n_k +
    phi(n_k), n_{k+1} = m_k + phi(m_k), at most 2 * k_max of them, truncated
    before any index above n_cap, or where phi runs past 2^62.  The complete
    windows (n_k, m_k) are ``zip(idx[::2], idx[1::2])``.

    phi grows quadratically in its argument, so only the first window or two
    are reachable at desk scale; the cap makes the truncation explicit.
    """
    check_at_least("k_max", k_max, 1)
    check_at_least("n_cap", n_cap, 1)
    indices = [1]
    while len(indices) < 2 * k_max:
        try:
            step = indices[-1] + phi_of_k(params, indices[-1], alpha).phi
        except QuantileLimitsError as exc:
            if exc.param != "k":  # the moments or alpha are at fault
                raise
            break
        if step > n_cap:
            break
        indices.append(step)
    return tuple(indices)


def _block_counts(counts, master_seed, r0, block_len, threshold) -> None:
    # adds to counts the Bernoulli sums of the reps from r0: their words at or
    # above threshold, made and counted a tile at a time in one reused pair of buffers
    seeds = stream_words(master_seed, len(counts), r0)  # derive_seed of each rep
    rows = max(1, min(len(counts), _TILE // block_len))
    cols = min(block_len, _TILE)  # all of them when rows > 1
    words, scratch = np.empty((2, rows * cols), dtype=np.uint64)
    thr = np.uint64(threshold)
    for a in range(0, len(counts), rows):
        tile_seeds = seeds[a:a + rows]
        for c0 in range(0, block_len, cols):
            shape = (len(tile_seeds), min(cols, block_len - c0))
            size = shape[0] * shape[1]
            tile = _word_matrix(
                tile_seeds, shape[1], c0,
                words[:size].reshape(shape), scratch[:size].reshape(shape),
            )
            # int32 sums are the faster reduction, and a tile row holds at
            # most _TILE words
            counts[a:a + rows] += (tile >= thr).sum(axis=1, dtype=np.int32)


@functools.lru_cache(maxsize=1)
def _bernoulli_block_sums(
    q: float, block_len: int, reps: int, master_seed: int
) -> np.ndarray:
    """Sum of each replication's Bernoulli(q) block, one derived seed per rep.

    A draw is 1 iff its uniform exceeds 1 - q (the inverse CDF), that is iff
    its level is at least ``T = _level_threshold(1 - q)``: the sums count
    words at or above ``_word_threshold(T)``, and no uniform is made.
    Words are made and counted in tiles of at most ``_TILE``, a row group
    of ``_JOB_TILES`` tiles' worth of words (at least one row) is one job,
    which writes its own rows of the sums, and the jobs run on
    ``_worker_count()`` threads (``_run_jobs``).  A row longer than a tile
    is counted a tile of columns at a time, so memory does not grow with
    the block length, and the sums do not depend on the worker count.

    Read-only and cached for the last arguments: with k = 1 the deviation
    block and the first paired block are the same draws, so ``qlim blocks``
    makes them once.
    """
    threshold = _word_threshold(_level_threshold(1.0 - q))
    sums = np.zeros(reps, dtype=np.int64)
    if threshold is not None:  # else 1 - q rounds to 1.0 and no draw is 1
        rows = max(1, _JOB_TILES * _TILE // block_len)
        jobs = [(sums[r0:r0 + rows], master_seed, r0, block_len, threshold)
                for r0 in range(0, reps, rows)]
        _run_jobs(_block_counts, jobs)
    sums.flags.writeable = False
    return sums


def _deviation_bounds(phi: int, q: float, k: int) -> tuple[int, int]:
    """Integer cut-offs of the +/-k deviations of a sum S of phi draws.

    Exact for the double q: ``S - phi*q < -k`` iff ``S <= low`` and
    ``S - phi*q > k`` iff ``S >= high``, with phi*q the exact rational
    product, not a rounded float one.
    """
    left, right = quantile_ranks([phi], q)  # ceil(phi*q) and floor(phi*q) + 1
    return int(left[0]) - k - 1, int(right[0]) + k


def deviation_experiment(
    q: float, k: int, alpha: float, reps: int, master_seed: int
) -> tuple[float, float]:
    """Empirical frequencies of the +/-k deviations of a Bernoulli(q) block sum.

    Each replication draws an independent block of length phi(k) and tests
    the two one-sided events {S - phi*q < -k} and {S - phi*q > k}, exactly
    for the double q; the construction guarantees each true probability
    exceeds 1/2 - alpha.

    Returns
    -------
    (freq_low, freq_high) : tuple of float
        Empirical frequencies over ``reps`` replications.
    """
    q = check_level("q", q)
    check_at_least("reps", reps, 1)
    check_seed("master_seed", master_seed)
    phi = phi_of_k(bernoulli_moments(q), k, alpha).phi
    sums = _bernoulli_block_sums(q, phi, reps, master_seed)
    low, high = _deviation_bounds(phi, q, k)
    freq_low = float(np.count_nonzero(sums <= low)) / reps
    freq_high = float(np.count_nonzero(sums >= high)) / reps
    return freq_low, freq_high


def _binomial_cdf(t: int, n: int, q: float) -> float:
    """P(X <= t) for X ~ Binomial(n, q), 0 < q < 1.

    Sums the pmf relative to the mode over the mode +/- (12 sd + 30); the
    mass outside that window is below 1e-30 and is left out.  The weights
    are products of the ratios pmf(k+1)/pmf(k) = (n-k)/(k+1) * q/(1-q),
    taken outward from the mode ``_TAIL_CHUNK`` atoms at a time, so memory
    does not grow with n.
    """
    mode = min(int((n + 1) * q), n)
    half = int(_TAIL_SDS * math.sqrt(n * q * (1.0 - q))) + 30
    lo, hi = max(0, mode - half), min(n, mode + half)
    if t < lo:
        return 0.0
    if t >= hi:
        return 1.0
    below, total = (1.0 if mode <= t else 0.0), 1.0  # the mode's weight is 1
    for end, step in ((lo, -1), (hi, 1)):
        w = 1.0
        for a in range(mode, end, step * _TAIL_CHUNK):
            k = np.arange(a, a + step * min(_TAIL_CHUNK, abs(end - a)), step, dtype=np.float64)
            if step > 0:  # pmf(k+1) / pmf(k)
                ratio = (n - k) / (k + 1.0) * (q / (1.0 - q))
            else:  # pmf(k-1) / pmf(k)
                ratio = k / (n - k + 1.0) * ((1.0 - q) / q)
            weights = w * np.cumprod(ratio)  # of the atoms k + step
            w = float(weights[-1])
            total += float(weights.sum())
            below += float(weights[k + step <= t].sum())
    return below / total


def block_event_experiment(
    q: float, alpha: float, reps: int, master_seed: int
) -> float:
    """Empirical frequency of the first paired deviation event C_1 = D_1 & E_1.

    D_1: the block of length phi(n_1) after n_1 = 1 undershoots its mean by
    more than n_1.  E_1: the following block of length phi(m_1) overshoots
    by more than m_1 = 1 + phi(1).  The two blocks are disjoint, so the
    events are independent and the true probability exceeds 1/16.

    The first block is drawn Bernoulli by Bernoulli.  The second block is
    tens of millions of draws long, so its sum S is the inverse CDF of its
    exact Binomial(phi(m_1), q) distribution F at the uniform u of the next
    word of the same per-replication stream.  S exceeds an integer t
    exactly when u > F(t), that is when the word's level is at least
    ``_level_threshold(F(t))``, so E_1 is one comparison of the level with
    one threshold, made for ``_TILE`` replications at a time on the worker
    threads (``_run_jobs``).  Both events compare S with integer cut-offs,
    exact for the double q.  Past the first block's cached sums, 8 bytes a
    replication, memory does not grow with ``reps``.
    """
    q = check_level("q", q)
    check_at_least("reps", reps, 1)
    check_seed("master_seed", master_seed)

    params = bernoulli_moments(q)
    phi_a = phi_of_k(params, 1, alpha).phi
    m1 = 1 + phi_a
    try:
        phi_b = phi_of_k(params, m1, alpha).phi
    except QuantileLimitsError as exc:  # m1 is no argument: q and alpha set it
        exc.param = "q"
        raise

    d_sums = _bernoulli_block_sums(q, phi_a, reps, master_seed)
    # D_1 is S - phi_a*q < -1; E_1 is S - phi_b*q > m1, so t is the largest
    # S that fails it
    d_low = _deviation_bounds(phi_a, q, 1)[0]
    t = _deviation_bounds(phi_b, q, m1)[1] - 1
    level = np.uint64(_level_threshold(_binomial_cdf(t, phi_b, q)))

    def hits(r0: int) -> int:  # C_1 among reps r0 .. r0 + _TILE - 1
        seeds = stream_words(master_seed, min(_TILE, reps - r0), r0)
        levels = _word_matrix(seeds, 1, phi_a, seeds[:, None])[:, 0]  # made over the seeds
        levels >>= np.uint64(11)
        return int(np.count_nonzero((levels >= level) & (d_sums[r0:r0 + _TILE] <= d_low)))

    return float(sum(_run_jobs(hits, [(r0,) for r0 in range(0, reps, _TILE)]))) / reps


# ---------------------------------------------------------------------------
# Replicated runs


ANALYSES = ("convergence", "switch_stats", "sandwich_check")


def _worker_count() -> int:
    """QL_THREADS clamped to the CPUs this process may run on (its CPU
    affinity); all of them when QL_THREADS is unset or not a positive
    integer."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    try:
        n = int(os.environ.get("QL_THREADS", ""))
    except ValueError:
        n = 0
    return min(n, cpus) if n >= 1 else cpus


def run_replicated(
    cfg: SimConfig,
    analysis: str,
    *,
    burn_in: int = 0,
    epsilon: float | None = None,
    min_switches: int = 10,
    on_trajectory=None,
    csv_path=None,
) -> dict:
    """Run cfg.replications trajectories and aggregate one analysis.

    Replications use derived seeds and run in groups of consecutive ones,
    ``min(ceil(replications / threads), _LANES, max(1, _CHUNK // atoms))``
    each, on QL_THREADS threads, the calling one among them, at most the
    CPUs the process may run on (``_run_jobs``).  Results are stored by
    index, so the report is identical however the work is scheduled.  Once
    a replication fails, or the calling thread is interrupted, its group
    stops and no group starts; the threads are joined, and the error of the
    lowest-index failed group is raised, with a note naming the failed
    replication and its seed.

    A group's replications are the lanes of one record plan (``_Plan``):
    they advance in turn, a block of records at a time, on one workspace,
    and the chunks' ranks, the blocks' record points and the ``n`` texts
    of the CSV are made once for all of them.  Each lane folds its block
    into the analysis and, when ``csv_path`` is given, writes it to the
    file ``csv_path(rep_index)`` (the bytes of ``write_trajectory_csv``),
    encoded from the atom indices of its quantiles, before the next lane
    makes its own.  Every file of a group that fails is removed.  So a
    group holds one workspace, one block's plan, the running lane's block,
    and per lane O(atoms) counts, an open file and its folds' state (at
    most ``_folds._RUNS`` runs of one value for switch_stats), whatever
    n_max is.
    ``on_trajectory(rep_index, trajectory)``, when given, is invoked once
    per replication, in order once its group's last block is written, with
    a Trajectory assembled from the same blocks, which holds the whole
    trajectory, 24 bytes a record: a group holds those of all its lanes at
    once.  Both callables run on the worker threads.

    Analyses
    --------
    convergence
        Pass iff the final recorded left and right quantiles both equal the
        distribution's left quantile at p, exactly.
    switch_stats
        Oscillation summary past ``burn_in``; pass iff the left quantile
        switched values at least ``min_switches`` times.
    sandwich_check
        Pass iff every record past ``burn_in`` sits in the epsilon-sandwich;
        also reports exact interior-gap hits over all records.

    The report records only settings its analysis reads: ``epsilon`` is
    refused outside sandwich_check, and a nonzero ``burn_in`` under
    convergence.
    """
    if analysis not in ANALYSES:
        raise QuantileLimitsError(f"analysis must be one of {ANALYSES}, got {analysis!r}")
    # every check runs before the first trajectory (and its on_trajectory)
    check_at_least("burn_in", burn_in, 0)
    check_at_least("min_switches", min_switches, 0)
    if analysis != "convergence":  # the window past burn_in holds the last record
        check_at_most("burn_in", burn_in, cfg.n_max)
    if analysis == "sandwich_check":
        if epsilon is None:
            raise QuantileLimitsError("sandwich_check requires epsilon", param="epsilon")
        check_positive("epsilon", epsilon)
    elif epsilon is not None:
        raise QuantileLimitsError(
            f"epsilon is only valid with analysis 'sandwich_check', not {analysis!r}",
            param="epsilon",
        )
    if analysis == "convergence" and burn_in != 0:
        raise QuantileLimitsError(
            f"burn_in must be 0 with analysis 'convergence', got {burn_in!r}", param="burn_in"
        )

    d = cfg.distribution
    pair = d.quantile_pair(cfg.p)
    target = pair.left

    def new_folds(seed: int) -> list:
        if analysis == "convergence":
            folds = [_LastFold()]
        elif analysis == "switch_stats":
            folds = [_SwitchFold(burn_in)]
        else:
            folds = [_SandwichFold(d, cfg.p, epsilon, burn_in), _GapFold(pair)]
        if on_trajectory is not None:
            folds.append(_Records(cfg, seed))
        return folds

    def report_row(rep: int, seed: int, folds: list) -> dict:
        row: dict = {"rep": rep, "seed": seed}
        if analysis == "convergence":
            last = folds[0]
            row["final_n"], row["final_lq"], row["final_rq"] = last.n, last.lq, last.rq
            row["pass"] = last.lq == last.rq == target
        elif analysis == "switch_stats":
            st = folds[0].result()
            row["switch_count"] = st.switch_count
            row["running_min"] = st.running_min
            row["running_max"] = st.running_max
            row["visits"] = {repr(v): c for v, c in sorted(st.visits.items())}
            row["pass"] = st.switch_count >= min_switches
        else:
            row["interior_gap_hits"] = folds[1].hits
            row["pass"] = folds[0].result() and folds[1].hits == 0
        return row

    def group(rep0: int, rep1: int) -> list:
        # replications rep0 .. rep1-1, the lanes of one plan, advanced a
        # block at a time in turn: each folds and writes its block before
        # the next lane makes its own
        plan = _Plan(cfg, rep1 - rep0)
        reps = range(rep0, rep1)
        seeds, folds, lanes, paths, files = [], [], [], [], []
        try:
            for rep in reps:
                seeds.append(derive_seed(cfg.master_seed, rep))
                folds.append(new_folds(seeds[-1]))
                if csv_path is not None:
                    paths.append(csv_path(rep))
                    files.append(open(paths[-1], "wb"))
                    files[-1].write(b"n,lq,rq\n")
                blocks = _trajectory_blocks(plan, seeds[-1], csv_path is not None)
                lanes.append(_coalesced(blocks, _CSV_ROWS))
            more = True
            while more:
                for i, rep in enumerate(reps):
                    block = next(lanes[i], None)
                    if block is None:  # every lane ends with the same block
                        more = False
                        break
                    r0, r1, lq, rq, *codes = block
                    del block
                    ns = plan.records(r0, r1)
                    for fold in folds[i]:
                        fold.add(ns, lq, rq)
                    del lq, rq  # before the pieces are encoded
                    if files:  # no piece is held once written
                        files[i].writelines(_csv_pieces(plan, r0, ns, *codes))
                    del ns, codes  # let go before the next lane's block is made
            rows = []
            for i, rep in enumerate(reps):
                if files:
                    files[i].close()
                if on_trajectory is not None:
                    on_trajectory(rep, folds[i][-1].trajectory)
                rows.append(report_row(rep, seeds[i], folds[i]))
            return rows
        except BaseException as exc:  # every lane's file goes
            for fh in files:
                with contextlib.suppress(OSError):
                    fh.close()
            for path in paths:
                with contextlib.suppress(OSError):
                    os.remove(path)
            if isinstance(exc, Exception):  # a PEP 678 note, as add_note (3.11+) makes it
                seed = derive_seed(cfg.master_seed, rep)
                exc.__notes__ = [*getattr(exc, "__notes__", ()), f"replication {rep}, seed {seed}"]
            raise

    size = min(-(-cfg.replications // _worker_count()), _LANES, max(1, _CHUNK // len(d)))
    jobs = [(r, min(r + size, cfg.replications)) for r in range(0, cfg.replications, size)]
    rows = [r for part in _run_jobs(group, jobs) for r in part]

    passes = sum(1 for r in rows if r["pass"])
    report = {
        "config": _config_dict(cfg),
        "analysis": {
            "name": analysis,
            "burn_in": burn_in,
            "epsilon": epsilon,
            "min_switches": min_switches if analysis == "switch_stats" else None,
            "target_left_quantile": target,
        },
        "replications": rows,
        "aggregate": {
            "pass_count": passes,
            "fail_count": cfg.replications - passes,
            "total": cfg.replications,
        },
    }
    return report


def _config_dict(cfg: SimConfig) -> dict:
    return {
        "distribution": {
            "atoms": [{"x": v, "p": q} for v, q in cfg.distribution.as_pairs()]
        },
        "p": cfg.p,
        "n_max": cfg.n_max,
        "master_seed": cfg.master_seed,
        "record_stride": cfg.record_stride,
        "replications": cfg.replications,
    }


# ---------------------------------------------------------------------------
# Serialization


def trajectory_csv_bytes(traj: Trajectory) -> bytes:
    r"""CSV encoding of the records.

    Byte contract: the ASCII header ``n,lq,rq``, then one row per record,
    each ending in ``\n``: ``n`` in decimal, then ``repr(float(v))`` of the
    left and the right quantile, comma-separated, exactly as
    ``f"{int(n)},{float(lq)!r},{float(rq)!r}\n"`` spells it.

    Each distinct float64 bit pattern is ``repr``'d once per block of at
    most ``_CSV_ROWS`` records, so ``-0.0``, NaN and values off the support
    keep their exact text.
    """
    return b"".join(_csv_chunks([(traj.ns, traj.lq, traj.rq)]))


def _csv_pieces(plan: _Plan, r0: int, ns, lc, rc):
    # the CSV rows of records r0 .. of a lane of plan, up to _CSV_ROWS at a
    # time, from the atom indices of their quantiles (lc <= rc): the n texts
    # are the plan's, and the values' table rows those of the atoms the
    # piece spans
    for q in range(0, len(ns), _CSV_ROWS):
        n_field, _ = plan.shared(("n", r0 + q), lambda: _n_field(ns[q : q + _CSV_ROWS]))
        left, right = lc[q : q + _CSV_ROWS], rc[q : q + _CSV_ROWS]
        lo, hi = int(left.min()), int(right.max())
        if lo:
            left, right = left - lo, right - lo
        yield _csv_matrix(n_field, left, right, plan.table(lo, hi))
        del n_field, left, right  # let go before the next piece is made


def _csv_chunks(blocks):
    # the CSV of trajectory_csv_bytes for the records of blocks, (ns, lq,
    # rq) in order, piece by piece: the header, then up to _CSV_ROWS records
    # of a block at a time as a uint8 array, so the scratch memory of
    # encoding, repr texts included, does not grow with the trajectory
    yield b"n,lq,rq\n"
    for ns, lq, rq in blocks:
        ns = np.asarray(ns, dtype=np.int64)
        lq = np.asarray(lq, dtype=np.float64)
        rq = np.asarray(rq, dtype=np.float64)
        for r0 in range(0, len(ns), _CSV_ROWS):
            r1 = r0 + _CSV_ROWS
            yield _csv_rows(ns[r0:r1], lq[r0:r1], rq[r0:r1])
        del ns, lq, rq  # let go before the next block is made


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write records as CSV with header ``n,lq,rq`` (one row per record).

    The bytes are those of :func:`trajectory_csv_bytes`, written chunk by
    chunk as they are encoded, so memory does not grow with the trajectory.
    If encoding or writing fails, the partial file is removed.
    """
    fh = open(path, "wb")
    try:
        with fh:
            fh.writelines(_csv_chunks([(traj.ns, traj.lq, traj.rq)]))
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise


def report_to_json_bytes(report: dict) -> bytes:
    """Canonical JSON encoding of a report: sorted keys, 2-space indent, and
    no NaN or Infinity, which strict JSON parsers refuse."""
    return (json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n").encode("utf-8")
