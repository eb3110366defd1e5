"""Shared oracles and generators for the test suite.

The brute-force functions here deliberately avoid the library's closed-form
lookup paths: they scan candidate grids against the public CDF evaluators,
so closed-form results are checked against the raw definitions.
"""

import math

import numpy as np
from hypothesis import strategies as st

from quantile_limits.distributions import DiscreteDistribution, make_discrete
from quantile_limits.empirical import EmpiricalSample, gc_distance
from quantile_limits.simulate import SimConfig, Trajectory, derive_seed, sample_stream

NEG_INF = float("-inf")
POS_INF = float("inf")


# ---------------------------------------------------------------------------
# Generator oracle


def stream_word(seed: int, index: int) -> int:
    """Reference for the generator: the index-th (0-based) SplitMix64 output
    for seed, one word at a time in Python integers."""
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


# ---------------------------------------------------------------------------
# Brute-force quantile oracles (definition scans over candidate grids)


def candidate_grid(values) -> list[float]:
    """Atoms plus midpoints plus one point beyond each end, increasing."""
    vals = sorted(values)
    grid = [vals[0] - 1.0]
    for a, b in zip(vals, vals[1:]):
        grid.append(a)
        grid.append((a + b) / 2.0)
    grid.append(vals[-1])
    grid.append(vals[-1] + 1.0)
    return grid


def bf_left_quantile(d: DiscreteDistribution, p: float) -> float:
    """inf{x : F(x) >= p} by scanning the candidate grid."""
    if p == 0.0:
        return NEG_INF
    for x in candidate_grid(d.values):
        if d.cdf(x) >= p:
            return x
    return POS_INF


def bf_right_quantile(d: DiscreteDistribution, p: float) -> float:
    """inf{x : F(x) > p} by scanning the candidate grid."""
    for x in candidate_grid(d.values):
        if d.cdf(x) > p:
            return x
    return POS_INF


def bf_solution_interval(d: DiscreteDistribution, p: float):
    """All candidates x with F(x-) <= p <= F(x); returns (lo, hi) or None."""
    sols = [
        x
        for x in candidate_grid(d.values)
        if d.cdf_left_limit(x) <= p <= d.cdf(x)
    ]
    if not sols:
        return None
    return min(sols), max(sols)


def bf_sample_left_quantile(sample, p: float) -> float:
    for x in candidate_grid(sample.values):
        if sample.ecdf(x) >= p:
            return x
    return POS_INF


def bf_sample_right_quantile(sample, p: float) -> float:
    for x in candidate_grid(sample.values):
        if sample.ecdf(x) > p:
            return x
    return POS_INF


# ---------------------------------------------------------------------------
# Random distribution generators


def random_distribution(
    rng: np.random.Generator, max_atoms: int = 20, spacing: float = 0.5
) -> DiscreteDistribution:
    """Random distribution with 1..max_atoms distinct atoms on a lattice."""
    k = int(rng.integers(1, max_atoms + 1))
    values = rng.choice(np.arange(-60, 61), size=k, replace=False) * spacing
    weights = rng.integers(1, 1000, size=k).astype(np.float64)
    probs = weights / weights.sum()
    return make_discrete(zip(values.tolist(), probs.tolist()))


def random_gapped_case(rng: np.random.Generator, max_atoms: int = 20):
    """(distribution, p) with p sitting exactly on a flat CDF stretch."""
    while True:
        d = random_distribution(rng, max_atoms=max_atoms)
        if len(d) >= 2:
            break
    j = int(rng.integers(0, len(d) - 1))
    p = d.cum[j]
    if not 0.0 < p < 1.0:  # ulp-degenerate pick; extremely rare
        return random_gapped_case(rng, max_atoms)
    return d, p


# ---------------------------------------------------------------------------
# Hypothesis strategies


@st.composite
def distributions_st(draw, max_atoms: int = 20):
    k = draw(st.integers(min_value=1, max_value=max_atoms))
    values = draw(
        st.lists(
            st.integers(min_value=-60, max_value=60),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=1000), min_size=k, max_size=k)
    )
    scale = draw(st.sampled_from([1.0, 0.5, 0.25]))
    total = float(sum(weights))
    return make_discrete((v * scale, w / total) for v, w in zip(values, weights))


@st.composite
def dist_and_level_st(draw, max_atoms: int = 20):
    """A distribution with a level p: uniform, a flat level, or near one."""
    d = draw(distributions_st(max_atoms=max_atoms))
    mode = draw(st.integers(min_value=0, max_value=2))
    if mode == 0 or len(d) == 1:
        p = draw(
            st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)
        )
    else:
        j = draw(st.integers(min_value=0, max_value=len(d) - 2))
        p = d.cum[j]
        if mode == 2:
            p = math.nextafter(p, draw(st.sampled_from([0.0, 1.0])))
        if not 0.0 < p < 1.0:
            p = 0.5
    return d, p


# ---------------------------------------------------------------------------
# Trajectory oracle


def run_trajectory_streaming(cfg: SimConfig, rep_index: int) -> Trajectory:
    """Reference for ``run_trajectory``: one EmpiricalSample, one draw at a
    time, both sample quantiles queried at every record point (every
    ``record_stride``-th draw and the last)."""
    seed = derive_seed(cfg.master_seed, rep_index)
    sample = EmpiricalSample.from_distribution(cfg.distribution)
    ns, lq, rq = [], [], []
    for i, x in enumerate(sample_stream(cfg.distribution, seed, cfg.n_max), start=1):
        sample.insert(float(x))
        if i % cfg.record_stride == 0 or i == cfg.n_max:
            ns.append(i)
            lq.append(sample.left_quantile(cfg.p))
            rq.append(sample.right_quantile(cfg.p))
    return Trajectory(
        ns=np.array(ns, dtype=np.int64),
        lq=np.array(lq, dtype=np.float64),
        rq=np.array(rq, dtype=np.float64),
        seed=seed,
    )


def gc_table_materialised(d: DiscreteDistribution, seed: int, n: int, checkpoints) -> str:
    """Reference for the ``qlim gc`` table: all n draws materialised as atom
    values, fed to one EmpiricalSample checkpoint by checkpoint, and
    ``gc_distance`` taken at each."""
    draws = sample_stream(d, seed, n)
    sample = EmpiricalSample.from_distribution(d)
    lines = ["n,gc_distance,witness"]
    done = 0
    for ck in checkpoints:
        sample.extend(draws[done:ck])
        done = ck
        g = gc_distance(sample, d)
        lines.append(f"{ck},{g.value!r},{g.witness!r}")
    return "\n".join(lines) + "\n"


def trajectory_csv_bytes_rowwise(traj: Trajectory) -> bytes:
    """Reference for ``trajectory_csv_bytes``: one f-string per record."""
    lines = ["n,lq,rq"]
    lines.extend(
        f"{int(n)},{float(a)!r},{float(b)!r}"
        for n, a, b in zip(traj.ns, traj.lq, traj.rq)
    )
    return ("\n".join(lines) + "\n").encode("ascii")


def assert_same_records(a, b):
    assert np.array_equal(a.ns, b.ns)
    assert np.array_equal(a.lq, b.lq)
    assert np.array_equal(a.rq, b.rq)
    assert a.seed == b.seed
