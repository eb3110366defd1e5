"""The benchmark's workloads: seeded ``qlim`` invocations and their checks.

A workload turns ``--seed`` into one ``qlim`` argument list (plus any spec
file it reads) and knows how to check the artifacts one invocation leaves
in its output directory.  Checks compare the CLI's fast path against the
library's reference path and return the number of failed operations:

* ``simulate-*``: the records of every replication at a spread of record
  points, the final one included, equal ``EmpiricalSample`` left/right
  quantiles over ``sample_stream`` draws for that replication's derived
  seed, and the report passes every replication;
* ``gc-long``: every checkpoint equals a ``np.bincount`` recount;
* ``blocks``: the frequencies equal a recount from ``uniform_matrix``.

An operation is a replication for ``simulate-*`` and the invocation itself
for ``blocks`` and ``gc-long``.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from quantile_limits.berry_esseen import bernoulli_moments, phi_of_k
from quantile_limits.distributions import fair_coin, from_spec, gapped_example
from quantile_limits.empirical import EmpiricalSample
from quantile_limits.rng import derive_seed, stream_words, uniform_matrix
from quantile_limits.simulate import sample_stream

# Full sizes hold each invocation near 2-4 s on a 2-core machine, so a run
# gets several invocations to take medians over; smoke sizes take well
# under a second.
SIZES = {
    "simulate-wide": {"n_max": 200_000, "replications": 2},
    "simulate-dense": {"n_max": 100_000, "replications": 20},
    "blocks": {"reps": 20_000},
    "gc-long": {"n": 10_000_000},
}
SMOKE_SIZES = {
    "simulate-wide": {"n_max": 20_000, "replications": 2},
    "simulate-dense": {"n_max": 2_000, "replications": 3},
    "blocks": {"reps": 300},
    "gc-long": {"n": 20_000},
}

WIDE_ATOMS = 128
WIDE_BURN_IN = 10_000
# Atom spacings are 1..9 and the gap is 1000 wide, so epsilon 100 covers at
# least eleven atoms on each side of the gap: past the burn-in the sample
# quantiles stay far inside the sandwich and every replication passes.
WIDE_EPSILON = 100.0
CHECKED_RECORDS = 16


@dataclass(frozen=True)
class Job:
    """One workload made concrete for a seed."""

    argv: Callable[[Path], list[str]]  # qlim arguments writing into a directory
    items: int  # draws (simulate-*, gc-long) or replications (blocks)
    ops: int  # operations per invocation
    artifacts: tuple[str, ...]  # glob patterns of the artifact files
    check: Callable[[Path], int]  # failed operations in one invocation's artifacts
    sizes: dict


def _master_seed(seed: int) -> int:
    return random.Random(seed).getrandbits(63)


# ---------------------------------------------------------------------------
# simulate-*


def _record_points(n_max: int, stride: int) -> np.ndarray:
    ns = np.arange(stride, n_max + 1, stride, dtype=np.int64)
    if len(ns) == 0 or ns[-1] != n_max:
        ns = np.append(ns, n_max)
    return ns


def _trajectory_ok(path: Path, d, p: float, seed: int, n_max: int, stride: int) -> bool:
    try:
        with open(path) as fh:
            if fh.readline() != "n,lq,rq\n":
                return False
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError):
        return False
    ns = _record_points(n_max, stride)
    if rows.shape != (len(ns), 3) or not np.array_equal(rows[:, 0], ns):
        return False
    draws = sample_stream(d, seed, n_max)
    sample = EmpiricalSample.from_distribution(d)
    done = 0
    for i in np.unique(np.linspace(0, len(ns) - 1, CHECKED_RECORDS).astype(int)):
        n = int(ns[i])
        sample.extend(draws[done:n])
        done = n
        if rows[i, 1] != sample.left_quantile(p) or rows[i, 2] != sample.right_quantile(p):
            return False
    return True


def _simulate_check(d, p, n_max, stride, reps, master, gap_check):
    def check(out: Path) -> int:
        try:
            report = json.loads((out / "report.json").read_text())
            rows = report["replications"]
            agg = report["aggregate"]
        except (OSError, ValueError, KeyError):
            return reps
        if len(rows) != reps or agg.get("total") != reps or agg.get("pass_count") != reps:
            return reps
        failed = 0
        for rep, row in enumerate(rows):
            seed = derive_seed(master, rep)
            ok = (
                row.get("rep") == rep
                and row.get("seed") == seed
                and row.get("pass") is True
                and (not gap_check or row.get("interior_gap_hits") == 0)
                and _trajectory_ok(out / f"traj_{rep}.csv", d, p, seed, n_max, stride)
            )
            failed += not ok
        return failed

    return check


def _wide_spec(seed: int) -> dict:
    # 128 atoms of mass 2**-7: dyadic, so the CDF reaches 1/2 exactly at
    # atom 64 and the quantiles at p = 1/2 split across the gap after it.
    rng = random.Random(seed)
    x, atoms = 0, []
    for i in range(WIDE_ATOMS):
        x += rng.randint(1, 9) + (1000 if i == WIDE_ATOMS // 2 else 0)
        atoms.append({"x": float(x), "p": 1.0 / WIDE_ATOMS})
    return {"atoms": atoms}


def simulate_wide(seed: int, work: Path, sizes: dict) -> Job:
    n_max, reps = sizes["n_max"], sizes["replications"]
    stride = 10
    master = _master_seed(seed)
    spec = _wide_spec(seed)
    spec_path = work / "wide.json"
    spec_path.write_text(json.dumps(spec))
    return Job(
        argv=lambda out: [
            "simulate", "--dist-file", str(spec_path), "--p", "0.5",
            "--n-max", str(n_max), "--replications", str(reps),
            "--master-seed", str(master), "--record-stride", str(stride),
            "--analysis", "sandwich_check", "--epsilon", repr(WIDE_EPSILON),
            "--burn-in", str(WIDE_BURN_IN), "--output-dir", str(out),
        ],
        items=reps * n_max,
        ops=reps,
        artifacts=("traj_*.csv", "report.json"),
        check=_simulate_check(from_spec(spec), 0.5, n_max, stride, reps, master, True),
        sizes={**sizes, "atoms": WIDE_ATOMS, "record_stride": stride,
               "burn_in": WIDE_BURN_IN, "epsilon": WIDE_EPSILON},
    )


def simulate_dense(seed: int, work: Path, sizes: dict) -> Job:
    n_max, reps = sizes["n_max"], sizes["replications"]
    master = _master_seed(seed)
    # --min-switches 0: whether a fair-coin path switches ten times is a
    # coin flip of its own at this length; the benchmark checks the
    # records, not the oscillation claim, so every replication must pass.
    return Job(
        argv=lambda out: [
            "simulate", "--family", "coin", "--p", "0.5",
            "--n-max", str(n_max), "--replications", str(reps),
            "--master-seed", str(master), "--record-stride", "1",
            "--analysis", "switch_stats", "--min-switches", "0",
            "--output-dir", str(out),
        ],
        items=reps * n_max,
        ops=reps,
        artifacts=("traj_*.csv", "report.json"),
        check=_simulate_check(fair_coin(), 0.5, n_max, 1, reps, master, False),
        sizes={**sizes, "record_stride": 1, "min_switches": 0},
    )


# ---------------------------------------------------------------------------
# blocks


def _block_sums(seeds: np.ndarray, length: int, q: float) -> np.ndarray:
    rows = max(1, (1 << 20) // length)
    return np.concatenate([
        (uniform_matrix(seeds[r:r + rows], length) > 1.0 - q).sum(axis=1)
        for r in range(0, len(seeds), rows)
    ])


def _blocks_check(q, alpha, k, reps, master):
    def check(out: Path) -> int:
        try:
            got = json.loads((out / "stdout.txt").read_text())
        except (OSError, ValueError):
            return 1
        from scipy.stats import binom

        params = bernoulli_moments(q)
        info = phi_of_k(params, k, alpha)
        phi_a = phi_of_k(params, 1, alpha).phi
        phi_b = phi_of_k(params, 1 + phi_a, alpha).phi
        seeds = stream_words(master, reps)  # derive_seed for reps 0..reps-1
        centered = _block_sums(seeds, info.phi, q) - info.phi * q
        d_sums = _block_sums(seeds, phi_a, q)
        e_sums = binom.ppf(uniform_matrix(seeds, 1, start=phi_a)[:, 0], phi_b, q)
        hits = ((d_sums - phi_a * q) < -1.0) & ((e_sums - phi_b * q) > 1 + phi_a)
        want = {
            "n1": info.n1,
            "n2": info.n2,
            "phi": info.phi,
            "freq_low": float(np.count_nonzero(centered < -k)) / reps,
            "freq_high": float(np.count_nonzero(centered > k)) / reps,
            "block_freq": float(np.count_nonzero(hits)) / reps,
        }
        try:
            have = {
                "n1": got["n1"],
                "n2": got["n2"],
                "phi": got["phi"],
                "freq_low": got["deviation"]["freq_low"],
                "freq_high": got["deviation"]["freq_high"],
                "block_freq": got["block_event"]["freq"],
            }
        except (KeyError, TypeError):
            return 1
        return int(have != want)

    return check


def blocks(seed: int, work: Path, sizes: dict) -> Job:
    reps = sizes["reps"]
    q, alpha, k = 0.5, 0.25, 1
    master = _master_seed(seed)
    return Job(
        argv=lambda out: [
            "blocks", "--q", repr(q), "--alpha", repr(alpha), "--k", str(k),
            "--reps", str(reps), "--master-seed", str(master),
        ],
        items=reps,
        ops=1,
        artifacts=("stdout.txt",),
        check=_blocks_check(q, alpha, k, reps, master),
        sizes={**sizes, "q": q, "alpha": alpha, "k": k},
    )


# ---------------------------------------------------------------------------
# gc-long


def _gc_check(d, n, seed):
    checkpoints, decade = [], 10  # qlim gc's default: every decade, then n
    while decade < n:
        checkpoints.append(decade)
        decade *= 10
    checkpoints.append(n)

    def check(out: Path) -> int:
        try:
            lines = (out / "gc.csv").read_text().splitlines()
        except OSError:
            return 1
        if lines[:1] != ["n,gc_distance,witness"] or len(lines) != len(checkpoints) + 1:
            return 1
        idx = np.searchsorted(d.values_array, sample_stream(d, seed, n))
        counts = np.zeros(len(d), dtype=np.int64)
        done = 0
        for line, ck in zip(lines[1:], checkpoints):
            counts += np.bincount(idx[done:ck], minlength=len(d))
            done = ck
            diffs = np.abs(np.cumsum(counts) / ck - d.cum_array)
            j = int(np.argmax(diffs))
            if line != f"{ck},{float(diffs[j])!r},{d.values[j]!r}":
                return 1
        return 0

    return check


def gc_long(seed: int, work: Path, sizes: dict) -> Job:
    n = sizes["n"]
    gc_seed = _master_seed(seed)
    return Job(
        argv=lambda out: [
            "gc", "--family", "figure", "--n", str(n), "--seed", str(gc_seed),
            "--output", str(out / "gc.csv"),
        ],
        items=n,
        ops=1,
        artifacts=("gc.csv",),
        check=_gc_check(gapped_example(), n, gc_seed),
        sizes=dict(sizes),
    )


WORKLOADS = {
    "simulate-wide": simulate_wide,
    "simulate-dense": simulate_dense,
    "blocks": blocks,
    "gc-long": gc_long,
}
