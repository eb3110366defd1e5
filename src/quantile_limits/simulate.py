"""Seeded Monte Carlo engine for sample-quantile trajectories and experiments.

Reproducibility contract: every draw comes from the counter-based SplitMix64
stream in :mod:`.rng` via inverse-CDF sampling, and per-replication seeds are
a stateless mix of (master_seed, rep_index).  Identical configuration and
seeds therefore give byte-identical trajectories, reports and files, on any
platform, regardless of worker scheduling.
"""

import collections
import contextlib
import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .berry_esseen import BEParams, bernoulli_moments, phi_of_k
from .distributions import DiscreteDistribution
from .empirical import quantile_indices, sup_distances
from .errors import (
    EmptyWindow,
    ParameterOutOfRange,
    check_at_least,
    check_at_most,
    check_open,
    check_positive,
    check_seed,
)
from .rng import (
    _word_matrix,
    _word_threshold,
    derive_seed,
    stream_words,
    uniform_matrix,
    uniforms,
)

__all__ = [
    "SimConfig",
    "Trajectory",
    "SwitchStats",
    "BlockSchedule",
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

# run_trajectory working-set bounds: draws per chunk, and cells of the
# chunk's segment-by-atom count matrix
_CHUNK = 1 << 15
_CELLS = 1 << 18

# _binomial_cdf window half-width in standard deviations (plus 30 atoms),
# and the atoms it weighs at a time
_TAIL_SDS = 12
_TAIL_CHUNK = 1 << 16

# _bernoulli_block_sums: words made and counted at a time, and tiles' worth
# of words per worker job
_TILE = 1 << 16
_JOB_TILES = 16

# trajectory_csv_bytes: records encoded at a time
_CSV_ROWS = 1 << 14


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
        check_open("p", self.p)
        check_at_least("n_max", self.n_max, 1)
        check_at_least("replications", self.replications, 1)
        check_seed("master_seed", self.master_seed)
        if self.record_stride is None:
            stride = 1 if self.n_max <= DENSE_RECORD_LIMIT else 10
            object.__setattr__(self, "record_stride", stride)
        else:
            check_at_least("record_stride", self.record_stride, 1)


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


@dataclass(frozen=True)
class SwitchStats:
    """Oscillation summary of the recorded left-quantile sequence."""

    switch_count: int
    visits: dict
    running_min: float
    running_max: float


@dataclass(frozen=True)
class BlockSchedule:
    """Non-overlapping deviation windows n_k < m_k < n_{k+1} < ...

    ``indices`` is the raw generated sequence (n_1, m_1, n_2, m_2, ...)
    truncated before the first index that would exceed the cap; ``entries``
    holds the complete (n_k, m_k) pairs.
    """

    entries: tuple[tuple[int, int], ...]
    indices: tuple[int, ...]
    alpha: float
    k_max: int


# ---------------------------------------------------------------------------
# Sampling


def _draw_indices(d: DiscreteDistribution, seed: int, n: int, start: int = 0):
    # inverse-CDF sampling: the left quantile of d at a uniform level
    return d.left_quantile_indices(uniforms(seed, n, start))


def sample_stream(d: DiscreteDistribution, seed: int, n: int) -> np.ndarray:
    """n i.i.d. draws from d for this seed, as an array of atom values.

    Deterministic in (d, seed, n); prefixes agree, so growing n extends the
    same sequence.
    """
    check_at_least("n", n, 1)
    check_seed("seed", seed)
    return d.values_array[_draw_indices(d, seed, n)]


def _record_points(n_max: int, stride: int) -> np.ndarray:
    ns = np.arange(stride, n_max + 1, stride, dtype=np.int64)
    if len(ns) == 0 or ns[-1] != n_max:
        ns = np.append(ns, np.int64(n_max))
    return ns


def _chunks(atoms: int, rec_ns: np.ndarray):
    # (lo, hi, r0, rb, r1) of each chunk of draws lo .. hi-1, in order:
    # records r0 .. rb-1 fall strictly inside it, and r0 .. r1-1 are the
    # records it completes
    max_segs = max(1, _CELLS // atoms)
    n_end = int(rec_ns[-1])
    lo = r0 = 0  # records before r0 are complete: rec_ns[r0] > lo
    while lo < n_end:
        hi = min(lo + _CHUNK, int(rec_ns[min(r0 + max_segs, len(rec_ns)) - 1]))
        rb = int(np.searchsorted(rec_ns, hi, side="left"))
        r1 = int(np.searchsorted(rec_ns, hi, side="right"))
        yield lo, hi, r0, rb, r1
        lo, r0 = hi, r1


def _chunk_counts(d, seed, rec_ns, lo, hi, r0, rb) -> np.ndarray:
    # segment-by-atom counts of draws lo .. hi-1: draw k (0-based) first
    # counts at the first record n >= k + 1, so its segment is the number of
    # record points in (lo, k], a running sum of boundary marks at offsets
    # n - lo.  A chunk with no record point inside is one segment.
    atoms = len(d)
    idx = _draw_indices(d, seed, hi - lo, start=lo)
    if rb == r0:
        return np.bincount(idx, minlength=atoms).reshape(1, atoms)
    seg = np.zeros(hi - lo, dtype=np.int64)
    seg[rec_ns[r0:rb] - lo] = 1
    np.cumsum(seg, out=seg)
    counts = np.bincount(seg * atoms + idx, minlength=(rb - r0 + 1) * atoms)
    return counts.reshape(rb - r0 + 1, atoms)


def _in_order(fn, jobs, workers: int):
    # (job, fn(*job)) for each job, in order.  With workers > 1 the calls
    # run on that many threads, at most workers + 1 of them ahead of the
    # consumer; closing the generator, or an error in a call, cancels the
    # rest and joins the threads.
    if workers <= 1:
        for job in jobs:
            yield job, fn(*job)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    pending = collections.deque()
    try:
        for job in jobs:
            pending.append((job, pool.submit(fn, *job)))
            if len(pending) > workers:
                job, done = pending.popleft()
                yield job, done.result()
        while pending:
            job, done = pending.popleft()
            yield job, done.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _cumulative_counts(
    d: DiscreteDistribution, seed: int, rec_ns: np.ndarray, workers: int = 1
):
    """Per-atom cumulative counts of one sample path at each record point.

    ``rec_ns`` is a strictly increasing int64 array of positive sample
    sizes.  For the records each chunk of draws completes, yields
    ``(r0, r1, C)`` where ``C[r - r0, j]`` is the number of draws at or below
    atom j among the first ``rec_ns[r]`` draws; the ranges are consecutive
    and cover every record.  Drawing stops at ``rec_ns[-1]``.

    Draws are binned by record segment (the draws after one record point up
    to and including the next) and atom, so the counts at every record point
    come from one cumulative sum over segments: total work is
    O(rec_ns[-1] + records * atoms).  Each chunk holds at most ``_CHUNK``
    draws and ``_CELLS`` segment-by-atom counts (a single segment when the
    support alone is larger), however the records are spaced.  A chunk's
    counts are a pure function of its bounds, so up to ``workers`` threads
    make them, at most ``workers + 1`` chunks ahead; the carry of counts
    from chunk to chunk is added in order, so the result does not depend on
    ``workers``.
    """
    atoms = len(d)

    def job(lo, hi, r0, rb, r1):
        return _chunk_counts(d, seed, rec_ns, lo, hi, r0, rb)

    carry = np.zeros(atoms, dtype=np.int64)  # per-atom counts of draws before lo
    for (_, _, r0, _, r1), counts in _in_order(job, _chunks(atoms, rec_ns), workers):
        counts[0] += carry
        counts.cumsum(axis=0, out=counts)
        carry = counts[-1].copy()
        # records complete within this chunk: C[r, j] = #draws <= atom j
        if r1 > r0:
            yield r0, r1, counts[: r1 - r0].cumsum(axis=1)


def run_trajectory(cfg: SimConfig, rep_index: int) -> Trajectory:
    """Stream cfg.n_max draws and record both sample quantiles along the way.

    Records are taken every ``record_stride`` draws and at n_max, from the
    per-atom cumulative counts of ``_cumulative_counts``: total work is
    O(n_max + records * atoms) and the working set is bounded by the chunk
    size, whatever the stride.  It all runs on the calling thread:
    ``run_replicated`` spreads the replications over the worker threads.
    """
    seed = derive_seed(cfg.master_seed, rep_index)
    rec_ns = _record_points(cfg.n_max, cfg.record_stride)
    values = cfg.distribution.values_array
    lq_out = np.empty(len(rec_ns), dtype=np.float64)
    rq_out = np.empty(len(rec_ns), dtype=np.float64)
    for r0, r1, cum in _cumulative_counts(cfg.distribution, seed, rec_ns):
        left, right = quantile_indices(cum, rec_ns[r0:r1], cfg.p)
        lq_out[r0:r1] = values[left]
        rq_out[r0:r1] = values[right]
    return Trajectory(ns=rec_ns, lq=lq_out, rq=rq_out, seed=seed)


def gc_path(
    d: DiscreteDistribution, seed: int, checkpoints
) -> tuple[np.ndarray, np.ndarray]:
    """sup_x |F_n(x) - F(x)| along one sample path, at each checkpoint n.

    The path is ``sample_stream(d, seed, n)``; ``checkpoints`` are strictly
    increasing integer sample sizes in ``[1, 2**63)`` (an array of floats is
    refused, not truncated).  Returns the distances and their leftmost
    witness atoms, one per checkpoint.  Drawing stops at the last
    checkpoint; past the checkpoint arrays, memory is bounded by the chunk
    size of ``_cumulative_counts``, however large the checkpoints are.
    Chunks are drawn and counted on QL_THREADS worker threads (see
    ``run_replicated``); the result does not depend on their number.
    """
    check_seed("seed", seed)
    ns = np.asarray(checkpoints)
    if ns.dtype.kind in "iu" and np.all(ns < 2**63):  # int64 sizes, never cast floats
        ns = ns.astype(np.int64)
    else:
        ns = None
    if ns is None or ns.ndim != 1 or len(ns) == 0 or ns[0] < 1 or np.any(ns[1:] <= ns[:-1]):
        raise ParameterOutOfRange(
            f"checkpoints must be strictly increasing integers in [1, 2**63), got {checkpoints!r}",
            param="checkpoints",
        )
    dist = np.empty(len(ns), dtype=np.float64)
    witness = np.empty(len(ns), dtype=np.float64)
    for r0, r1, cum in _cumulative_counts(d, seed, ns, _worker_count()):
        dist[r0:r1], j = sup_distances(cum, ns[r0:r1], d.cum_array)
        witness[r0:r1] = d.values_array[j]
    return dist, witness


# ---------------------------------------------------------------------------
# Trajectory analyses


def _window(traj: Trajectory, burn_in: int) -> np.ndarray:
    if len(traj) == 0:
        raise EmptyWindow("trajectory holds no records")
    mask = traj.ns >= burn_in
    if not mask.any():
        raise EmptyWindow(f"no records at or beyond burn_in={burn_in}")
    return mask


def switch_stats(traj: Trajectory, burn_in: int = 0) -> SwitchStats:
    """Oscillation statistics of the recorded left quantile for n >= burn_in.

    ``switch_count`` counts consecutive recorded indices whose left quantile
    differs; ``visits`` maps each recorded value to its occurrence count;
    the running extremes estimate the limiting oscillation band.
    """
    mask = _window(traj, burn_in)
    w = traj.lq[mask]
    vals, cnts = np.unique(w, return_counts=True)
    return SwitchStats(
        switch_count=int(np.count_nonzero(w[1:] != w[:-1])),
        visits={float(v): int(c) for v, c in zip(vals, cnts)},
        running_min=float(w.min()),
        running_max=float(w.max()),
    )


def sandwich_check(
    traj: Trajectory,
    d: DiscreteDistribution,
    p: float,
    epsilon: float,
    burn_in: int = 0,
) -> bool:
    """True iff every record past burn_in sits in the two-sided sandwich
    (lq - epsilon, lq] union [rq, rq + epsilon) around the quantile pair."""
    check_positive("epsilon", epsilon)
    pair = d.quantile_pair(p)
    mask = _window(traj, burn_in)

    def inside(vals: np.ndarray) -> bool:
        low = (vals > pair.left - epsilon) & (vals <= pair.left)
        high = (vals >= pair.right) & (vals < pair.right + epsilon)
        return bool(np.all(low | high))

    return inside(traj.lq[mask]) and inside(traj.rq[mask])


def gap_interior_hits(traj: Trajectory, d: DiscreteDistribution, p: float) -> int:
    """Number of recorded quantile values strictly inside the gap
    (left_quantile, right_quantile) over ALL records.  Always 0 for a
    correctly sampled trajectory: the open gap carries no probability."""
    pair = d.quantile_pair(p)
    inside_l = (traj.lq > pair.left) & (traj.lq < pair.right)
    inside_r = (traj.rq > pair.left) & (traj.rq < pair.right)
    return int(np.count_nonzero(inside_l) + np.count_nonzero(inside_r))


# ---------------------------------------------------------------------------
# Deviation-block experiments


def block_schedule(
    params: BEParams, alpha: float, k_max: int, n_cap: int
) -> BlockSchedule:
    """Deviation-window schedule n_1=1, m_k = n_k + phi(n_k),
    n_{k+1} = m_k + phi(m_k), truncated before any index above n_cap.

    phi grows quadratically in its argument, so only the first window or two
    are reachable at desk scale; the cap makes the truncation explicit.
    """
    check_at_least("k_max", k_max, 1)
    check_at_least("n_cap", n_cap, 1)
    indices = [1]
    entries: list[tuple[int, int]] = []
    n_k = 1
    for _ in range(k_max):
        m_k = n_k + phi_of_k(params, n_k, alpha).phi
        if m_k > n_cap:
            break
        indices.append(m_k)
        entries.append((n_k, m_k))
        if len(entries) == k_max:
            break
        n_next = m_k + phi_of_k(params, m_k, alpha).phi
        if n_next > n_cap:
            break
        indices.append(n_next)
        n_k = n_next
    return BlockSchedule(
        entries=tuple(entries), indices=tuple(indices), alpha=alpha, k_max=k_max
    )


def _block_counts(master_seed, r0, r1, block_len, threshold) -> np.ndarray:
    # Bernoulli sums of reps r0 .. r1-1: their words at or above threshold,
    # made and counted a tile at a time in one reused pair of buffers
    seeds = stream_words(master_seed, r1 - r0, r0)  # derive_seed of each rep
    rows = max(1, min(r1 - r0, _TILE // block_len))
    cols = min(block_len, _TILE)  # all of them when rows > 1
    words, scratch = np.empty((2, rows * cols), dtype=np.uint64)
    thr = np.uint64(threshold)
    counts = np.zeros(r1 - r0, dtype=np.int64)
    for a in range(0, r1 - r0, rows):
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
    return counts


@functools.lru_cache(maxsize=1)
def _bernoulli_block_sums(
    q: float, block_len: int, reps: int, master_seed: int
) -> np.ndarray:
    """Sum of each replication's Bernoulli(q) block, one derived seed per rep.

    A draw is 1 iff its uniform exceeds 1 - q (the inverse CDF), that is iff
    its raw word is at least ``_word_threshold(1 - q)``: the sums count
    words, and no uniform is made.  Words are made and counted in tiles of
    at most ``_TILE``, a row group of ``_JOB_TILES`` tiles' worth of words
    (at least one row) is one pure job, and the jobs run on
    ``_worker_count()`` threads and are stored in order.  A row longer than
    a tile is counted a tile of columns at a time, so memory does not grow
    with the block length, and the sums do not depend on the worker count.

    Read-only and cached for the last arguments: with k = 1 the deviation
    block and the first paired block are the same draws, so ``qlim blocks``
    makes them once.
    """
    threshold = _word_threshold(1.0 - q)
    sums = np.zeros(reps, dtype=np.int64)
    if threshold < 1 << 64:  # else 1 - q rounds to 1.0 and no draw is 1
        rows = max(1, _JOB_TILES * _TILE // block_len)
        jobs = [
            (master_seed, r0, min(r0 + rows, reps), block_len, threshold)
            for r0 in range(0, reps, rows)
        ]
        workers = min(_worker_count(), len(jobs))
        for (_, r0, r1, _, _), counts in _in_order(_block_counts, jobs, workers):
            sums[r0:r1] = counts
    sums.flags.writeable = False
    return sums


def _deviation_bounds(phi: int, q: float, k: int) -> tuple[int, int]:
    """Integer cut-offs of the +/-k deviations of a sum S of phi draws.

    Exact for the double q: ``S - phi*q < -k`` iff ``S <= low`` and
    ``S - phi*q > k`` iff ``S >= high``, with phi*q the exact rational
    product, not a rounded float one.
    """
    num, den = q.as_integer_ratio()  # the double q, exactly
    low = -((k * den - phi * num) // den) - 1  # ceil(phi*q - k) - 1
    high = (phi * num + k * den) // den + 1  # floor(phi*q + k) + 1
    return low, high


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
    check_open("q", q)
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
    exact Binomial(phi(m_1), q) distribution F at the next uniform u of the
    same per-replication stream.  S exceeds an integer t exactly when
    u > F(t), so E_1 is decided by comparing u with one tail probability.
    Both events compare S with integer cut-offs, exact for the double q.
    """
    check_open("q", q)
    check_at_least("reps", reps, 1)
    check_seed("master_seed", master_seed)

    params = bernoulli_moments(q)
    phi_a = phi_of_k(params, 1, alpha).phi
    m1 = 1 + phi_a
    phi_b = phi_of_k(params, m1, alpha).phi

    d_sums = _bernoulli_block_sums(q, phi_a, reps, master_seed)
    u_next = uniform_matrix(stream_words(master_seed, reps), 1, start=phi_a)[:, 0]

    # D_1 is S - phi_a*q < -1; E_1 is S - phi_b*q > m1, so t is the largest
    # S that fails it
    d_low = _deviation_bounds(phi_a, q, 1)[0]
    t = _deviation_bounds(phi_b, q, m1)[1] - 1

    d_hit = d_sums <= d_low
    e_hit = u_next > _binomial_cdf(t, phi_b, q)
    return float(np.count_nonzero(d_hit & e_hit)) / reps


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
) -> dict:
    """Run cfg.replications trajectories and aggregate one analysis.

    Replications use derived seeds and may execute on several worker threads
    (QL_THREADS of them, at most the CPUs the process may run on), one
    thread per trajectory.  Per-replication results are keyed by index, so
    the report is identical however the work is scheduled.
    ``on_trajectory(rep_index, trajectory)``, when given, is invoked once
    per replication, on its worker thread (used by the CLI to write
    trajectory CSVs).  An error in a replication cancels those not yet
    started and is raised once the threads are joined.

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
    """
    if analysis not in ANALYSES:
        raise ParameterOutOfRange(f"analysis must be one of {ANALYSES}, got {analysis!r}")
    # every check runs before the first trajectory (and its on_trajectory)
    check_at_least("burn_in", burn_in, 0)
    check_at_least("min_switches", min_switches, 0)
    if analysis != "convergence":  # the window past burn_in holds the last record
        check_at_most("burn_in", burn_in, cfg.n_max)
    if analysis == "sandwich_check":
        if epsilon is None:
            raise ParameterOutOfRange("sandwich_check requires epsilon", param="epsilon")
        check_positive("epsilon", epsilon)

    d = cfg.distribution
    target = d.left_quantile(cfg.p)

    def one(rep: int) -> dict:
        traj = run_trajectory(cfg, rep)
        if on_trajectory is not None:
            on_trajectory(rep, traj)
        row: dict = {"rep": rep, "seed": traj.seed}
        if analysis == "convergence":
            row["final_n"] = int(traj.ns[-1])
            row["final_lq"] = float(traj.lq[-1])
            row["final_rq"] = float(traj.rq[-1])
            row["pass"] = row["final_lq"] == row["final_rq"] == target
        elif analysis == "switch_stats":
            st = switch_stats(traj, burn_in)
            row["switch_count"] = st.switch_count
            row["running_min"] = st.running_min
            row["running_max"] = st.running_max
            row["visits"] = {repr(v): c for v, c in sorted(st.visits.items())}
            row["pass"] = st.switch_count >= min_switches
        else:
            ok = sandwich_check(traj, d, cfg.p, epsilon, burn_in)
            row["interior_gap_hits"] = gap_interior_hits(traj, d, cfg.p)
            row["pass"] = ok and row["interior_gap_hits"] == 0
        return row

    reps = [(rep,) for rep in range(cfg.replications)]
    rows = [row for _, row in _in_order(one, reps, min(_worker_count(), cfg.replications))]

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

    Each distinct float64 bit pattern is ``repr``'d once per trajectory, so
    ``-0.0``, NaN and values off the support keep their exact text.
    """
    return b"".join(_csv_chunks(traj))


def _csv_chunks(traj: Trajectory):
    # the CSV of trajectory_csv_bytes, piece by piece: the header, then
    # _CSV_ROWS records at a time, so the scratch memory of encoding does
    # not grow with the trajectory
    ns = np.asarray(traj.ns, dtype=np.int64)
    lq = np.asarray(traj.lq, dtype=np.float64)
    rq = np.asarray(traj.rq, dtype=np.float64)
    text: dict[int, bytes] = {}  # float64 bit pattern -> its repr
    yield b"n,lq,rq\n"
    for r0 in range(0, len(ns), _CSV_ROWS):
        r1 = r0 + _CSV_ROWS
        yield _csv_rows(ns[r0:r1], lq[r0:r1], rq[r0:r1], text)


def _csv_rows(ns: np.ndarray, lq: np.ndarray, rq: np.ndarray, text: dict) -> bytes:
    # Rows are laid out in a NUL-padded byte matrix, whose padding one mask
    # drops (ASCII text holds no NUL).
    rows = len(ns)
    # value table: the chunk's distinct bit patterns, repr'd and NUL-padded
    bits = np.concatenate([lq, rq]).view(np.uint64)
    keys = np.sort(bits)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    reprs = [
        text.get(k) or text.setdefault(k, repr(v).encode("ascii"))
        for k, v in zip(keys.tolist(), keys.view(np.float64).tolist())
    ]
    w = max(map(len, reprs))
    table = np.frombuffer(b"".join(t.ljust(w, b"\0") for t in reprs), np.uint8)
    vals = np.take(table.reshape(-1, w), np.searchsorted(keys, bits), axis=0)

    # decimal digits of |n|, least significant first; leading places stay 0
    neg = ns < 0
    mag = ns.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)
    wn = len(str(int(mag.max()))) + bool(neg.any())
    digits = np.zeros((wn, rows), np.uint8)
    for j in range(wn - 1, -1, -1):
        q = mag // np.uint64(10)
        np.subtract(mag, q * np.uint64(10), out=digits[j], casting="unsafe")
        digits[j] += ord("0")
        if j < wn - 1:
            digits[j][mag == 0] = 0
        mag = q
    if neg.any():  # the sign goes just left of the leading digit
        lead = wn - 1 - np.count_nonzero(digits[:, neg], axis=0)
        digits[lead, np.flatnonzero(neg)] = ord("-")

    m = np.zeros((rows, wn + 2 * w + 3), np.uint8)
    m[:, :wn] = digits.T
    m[:, wn] = m[:, wn + w + 1] = ord(",")
    m[:, wn + 1 : wn + w + 1] = vals[:rows]
    m[:, wn + w + 2 : -1] = vals[rows:]
    m[:, -1] = ord("\n")
    return m[m != 0].tobytes()


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write records as CSV with header ``n,lq,rq`` (one row per record).

    The bytes are those of :func:`trajectory_csv_bytes`, written chunk by
    chunk as they are encoded, so memory does not grow with the trajectory.
    If encoding or writing fails, the partial file is removed.
    """
    fh = open(path, "wb")
    try:
        with fh:
            for piece in _csv_chunks(traj):
                fh.write(piece)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise


def report_to_json_bytes(report: dict) -> bytes:
    """Canonical JSON encoding of a report: sorted keys, 2-space indent."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")
