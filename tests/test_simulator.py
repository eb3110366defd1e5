import _thread
import functools
import importlib.util
import itertools
import math
import re
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_records,
    distributions_st,
    exact_ranks,
    random_distribution,
    run_trajectory_streaming,
    seed_for_word,
    stream_word,
    trajectory_csv_bytes_rowwise,
)
from quantile_limits import _csvrows, _folds, simulate
from quantile_limits import rng as qrng
from quantile_limits.berry_esseen import bernoulli_moments, phi_of_k, std_normal_cdf
from quantile_limits.distributions import (
    bernoulli,
    fair_coin,
    from_spec,
    gapped_example,
    make_discrete,
    point_mass,
)
from quantile_limits.empirical import sup_distances
from quantile_limits.errors import QuantileLimitsError
from quantile_limits.simulate import (
    SimConfig,
    Trajectory,
    block_event_experiment,
    block_schedule,
    derive_seed,
    deviation_experiment,
    gap_interior_hits,
    report_to_json_bytes,
    run_replicated,
    run_trajectory,
    sample_stream,
    sandwich_check,
    switch_stats,
    trajectory_csv_bytes,
    write_trajectory_csv,
)


class TestRng:
    def test_reference_vectors(self):
        # published SplitMix64 outputs for seed 1234567
        expected = [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]
        assert [stream_word(1234567, i) for i in range(3)] == expected
        assert [int(w) for w in qrng.stream_words(1234567, 3)] == expected

    def test_uniform_slicing_agrees(self):
        whole = qrng.uniforms(99, 100)
        parts = np.concatenate([qrng.uniforms(99, 40), qrng.uniforms(99, 60, start=40)])
        assert np.array_equal(whole, parts)

    def test_uniform_matrix_rows_are_streams(self):
        seeds = np.array([5, 77, 123456], dtype=np.uint64)
        mat = qrng.uniform_matrix(seeds, 17, start=3)
        for row, seed in zip(mat, seeds):
            assert np.array_equal(row, qrng.uniforms(int(seed), 17, start=3))

    def test_uniforms_follow_documented_formula(self):
        # draw i is (top 53 bits of word start + i + 0.5) * 2**-53
        for seed, start in ((0, 0), (2**64 - 1, 5), (1234567, 10**12)):
            u = qrng.uniforms(seed, 40, start)
            want = [((stream_word(seed, start + i) >> 11) + 0.5) * 2.0**-53
                    for i in range(40)]
            assert u.tolist() == want
            assert qrng.stream_words(seed, 40, start).tolist() == [
                stream_word(seed, start + i) for i in range(40)
            ]

    def test_uniforms_open_interval(self):
        u = qrng.uniforms(0, 10_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    @pytest.mark.parametrize(
        "n, start, param",
        [(-1, 0, "n"), (3, -2, "start"), (2, 2**64 - 2, "n"), (0, 2**64, "start"),
         (2**64, 0, "n")],
    )
    def test_counter_range_checked(self, n, start, param):
        # the counters start + 1 .. start + n must be 64-bit words
        calls = [
            lambda: qrng.stream_words(0, n, start),
            lambda: qrng.uniforms(0, n, start),
            lambda: qrng.uniform_matrix(np.array([0, 1], dtype=np.uint64), n, start),
        ]
        bad = {"n": n, "start": start}[param]
        top = 2**64 - 1 - (start if param == "n" else 0)
        message = f"^{param} must be {'>= 0' if bad < 0 else f'<= {top}'}, got {bad}$"
        for call in calls:
            with pytest.raises(QuantileLimitsError, match=message) as info:
                call()
            assert info.value.param == param

    def test_counter_range_edges_accepted(self):
        top = 2**64 - 1
        assert qrng.stream_words(5, 1, top - 1).tolist() == [stream_word(5, top - 1)]
        assert len(qrng.uniforms(5, 0, top)) == 0
        assert qrng.uniform_matrix(np.array([5], dtype=np.uint64), 0).shape == (1, 0)


def _uniforms_of_words(words) -> np.ndarray:
    # uniform_matrix on seeds whose first word is each given word
    return qrng.uniform_matrix(seed_for_word(np.asarray(words, dtype=np.uint64)), 1)[:, 0]


NEIGHBOUR_LEVELS = [0, 1, 2**51 + 7, 2**52 - 2, 2**52 - 1, 2**52, 2**52 + 1, 2**52 + 2,
                    3 * 2**51 + 5, 2**53 - 3, 2**53 - 2, 2**53 - 1]


class TestWordThreshold:
    """rng._level_threshold(x), the threshold every draw is decided by: a
    word's uniform exceeds x iff its level, word >> 11, is at least T."""

    def test_agrees_with_uniform_matrix_on_a_stream(self):
        seeds = qrng.stream_words(2024, 3)
        levels = qrng._word_matrix(seeds, 3000, 0) >> np.uint64(11)
        u = qrng.uniform_matrix(seeds, 3000)
        assert u.min() < 0.5 <= u.max()  # levels below and above 2**52
        for x0 in [u.min(), u.max(), *u[0, :30], *u[2, -30:]]:
            for x in (np.nextafter(x0, 0.0), x0, np.nextafter(x0, 1.0)):
                t = qrng._level_threshold(float(x))
                assert np.array_equal(levels >= np.uint64(t), u > x), x

    @pytest.mark.parametrize("level", NEIGHBOUR_LEVELS)
    def test_neighbour_levels(self, level):
        # words of the levels around one, lowest and highest of each: from
        # 2**52 up, ``+ 0.5`` rounds to even and two levels share a uniform
        words = [lv << 11 | low for lv in range(max(0, level - 3), min(2**53, level + 4))
                 for low in (0, 0x7FF)]
        u = _uniforms_of_words(words)
        for x0 in u[words.index(level << 11)], u[0], u[-1]:
            for x in (np.nextafter(x0, 0.0), x0, np.nextafter(x0, 1.0)):
                t = qrng._level_threshold(float(x))
                assert [word >> 11 >= t for word in words] == (u > x).tolist(), (level, x)

    def test_vector_matches_scalar_definition(self):
        # the closed form over an array of x, against the definition
        # bisected one x at a time over Python-int levels
        def definition(x):
            lo, hi = 0, 2**53
            while lo < hi:
                mid = (lo + hi) // 2
                if (float(mid) + 0.5) * 2.0**-53 > x:
                    hi = mid
                else:
                    lo = mid + 1
            return lo

        edges = [0.0, 2.0**-54, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
                 1.0 - 2.0**-53, 1.0, np.nextafter(1.0, 2.0), 2.0]
        # each neighbour level's midpoint and the doubles on either side,
        # values below and at the least uniform, and seeded doubles
        mids = (np.array(NEIGHBOUR_LEVELS, dtype=np.float64) + 0.5) * 2.0**-53
        rng = np.random.default_rng(28)
        xs = np.concatenate([
            edges, mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
            [-1.0, -0.0, 2.0**-1074, 2.0**-54],
            rng.random(2000),
            0.5 + rng.uniform(-(2.0**-40), 2.0**-40, 500),
            1.0 + rng.uniform(-(2.0**-40), 2.0**-40, 500),
        ]).tolist()
        got = qrng._level_threshold(np.array(xs))
        assert got.shape == (len(xs),) and got.dtype == np.int64
        assert got.tolist() == [definition(x) for x in xs]
        assert got.tolist() == [qrng._level_threshold(x) for x in xs]
        assert got.tolist()[len(edges) - 3 : len(edges)] == [2**53] * 3
        square = qrng._level_threshold(np.array(xs[:4]).reshape(2, 2))
        assert square.tolist() == [got.tolist()[:2], got.tolist()[2:4]]

    def test_no_word_above_one(self):
        # 1 - 1e-17 rounds to 1.0: no uniform exceeds it, and the threshold
        # is 2**53, past every level
        assert 1.0 - 1e-17 == 1.0
        assert qrng._level_threshold(1.0 - 1e-17) == 2**53
        assert _uniforms_of_words([2**64 - 1])[0] <= 1.0 - 1e-17
        top = qrng._level_threshold(np.nextafter(1.0, 0.0))
        assert top == 2**53 - 1
        assert _uniforms_of_words([(top << 11) - 1, top << 11]).tolist() == [1.0 - 2**-52, 1.0]


@st.composite
def packed_supports_st(draw):
    """Supports whose masses span many scales, so some guide buckets hold
    many atoms."""
    k = draw(st.integers(min_value=1, max_value=300))
    scales = draw(st.lists(st.sampled_from([1.0, 1e-3, 1e-9, 1e-15]), min_size=k, max_size=k))
    weights = np.array(scales) * draw(
        st.lists(st.integers(min_value=1, max_value=1000), min_size=k, max_size=k)
    )
    return make_discrete(zip(range(k), (weights / weights.sum()).tolist()))


def _uniforms_at_levels(levels) -> np.ndarray:
    # the library's uniform of each level: its lowest word, made the first
    # word of a seed's stream
    return _uniforms_of_words(np.asarray(levels, dtype=np.uint64) << np.uint64(11))


def _threshold_levels(d) -> np.ndarray:
    """T_j, the first level whose uniform exceeds cum[j] (2**53 when none
    does)."""
    return qrng._level_threshold(d.cum_array)


def _edge_levels(d) -> np.ndarray:
    """The levels where a lookup can go off by one: each T_j, each bucket
    edge of a table of K = 2**k >= 2 * atoms buckets, and their neighbours,
    with 0 and the top level 2**53 - 1."""
    k = (2 * len(d) - 1).bit_length()
    edges = np.arange(2**k + 1, dtype=np.int64) << (53 - k)
    lv = np.concatenate([_threshold_levels(d), edges, [0, 2**53 - 1]])
    lv = np.concatenate([lv - 1, lv, lv + 1])
    return np.unique(lv[(lv >= 0) & (lv < 2**53)])


PACKED = make_discrete([(0.0, 1.0 - 1e-6)] + [(float(i), 1e-9) for i in range(1, 1001)])
SUPPORTS = {
    "coin": fair_coin(),
    "figure": gapped_example(),
    "point": point_mass(2.0),
    "random": random_distribution(np.random.default_rng(5), 120),
    # all 1001 cum entries lie in the top one of 2048 buckets: 10 rounds
    "packed": PACKED,
    "uniform4096": make_discrete((float(i), 1.0 / 4096) for i in range(4096)),
    "six": make_discrete(
        [(0.0, 0.1), (1.0, 0.15), (2.0, 0.25), (4.0, 0.2), (5.0, 0.2), (9.0, 0.1)]
    ),
}


def _lookup(d, levels) -> np.ndarray:
    out, scratch = np.empty((2, len(levels)), dtype=np.int64)
    return d._level_indices(levels, out, scratch)


class TestGuideTableDraw:
    """The level lookup and the draw, against np.searchsorted(side="left")
    of cum at the library's uniforms."""

    @staticmethod
    def assert_matches_searchsorted(d, levels):
        levels = np.asarray(levels, dtype=np.int64)
        got = _lookup(d, levels)
        want = np.searchsorted(d.cum_array, _uniforms_at_levels(levels), side="left")
        assert np.array_equal(got, want)
        assert got.max(initial=0) < len(d)

    @given(st.one_of(distributions_st(), packed_supports_st()))
    @settings(max_examples=300, deadline=None)
    def test_matches_searchsorted_at_cum_entries(self, d):
        self.assert_matches_searchsorted(d, _edge_levels(d))

    @given(st.one_of(distributions_st(), packed_supports_st()),
           st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_draws_match_searchsorted(self, d, seed):
        got = simulate._draw_indices(d, seed, 2000, 17, simulate._workspace())
        want = np.searchsorted(d.cum_array, qrng.uniforms(seed, 2000, 17), side="left")
        assert np.array_equal(got, want)

    @staticmethod
    def assert_words_draw_like_uniforms(d, words):
        # each word made the first word of a seed's stream, and drawn
        ws = simulate._workspace()
        seeds = seed_for_word(np.array(words, dtype=np.uint64))
        got = [int(simulate._draw_indices(d, seed, 1, 0, ws)[0]) for seed in seeds]
        u = qrng.uniform_matrix(seeds, 1)[:, 0]
        assert got == np.searchsorted(d.cum_array, u, side="left").tolist()

    @pytest.mark.parametrize("support", ["coin", "figure", "point", "random", "packed"])
    def test_top_words_draw_level_one(self, support):
        # every word from 2**64 - 2048 up has level 2**53 - 1, whose uniform
        # rounds to exactly 1.0: it draws the index searchsorted finds
        words = [2**64 - 1, 2**64 - 2048, 2**64 - 2049, 2**63, 0]
        self.assert_words_draw_like_uniforms(SUPPORTS[support], words)

    @pytest.mark.parametrize("support", ["coin", "figure", "random", "packed", "uniform4096"])
    def test_threshold_words(self, support):
        # the lowest word T_j << 11 whose uniform exceeds cum[j], the word
        # below it, and the extreme words
        d = SUPPORTS[support]
        t = _threshold_levels(d)
        words = {0, 2**64 - 1}
        for w in (int(lv) << 11 for lv in t[t < 2**53]):
            words |= {w, w - 1} - {-1}
        self.assert_words_draw_like_uniforms(d, sorted(words))

    def test_level_one_seed_samples(self):
        assert seed_for_word(2**64 - 1) == 3558559446808474027
        assert qrng.uniforms(3558559446808474027, 1).tolist() == [1.0]
        assert sample_stream(fair_coin(), 3558559446808474027, 1).tolist() == [1.0]

    def test_adversarial_packed_support(self):
        d = PACKED
        assert len(d) == 1001
        self.assert_matches_searchsorted(d, _edge_levels(d))
        # levels within 1e-6 of the top, where every cum entry but the first
        # lies, spaced geometrically down to the top level
        top = 2**53 - np.unique(np.geomspace(1, 2**53 * 1e-6, 5000).astype(np.int64))
        self.assert_matches_searchsorted(d, top)
        levels = (qrng.stream_words(3, 50_000) >> np.uint64(11)).astype(np.int64)
        got = _lookup(d, levels)
        assert np.array_equal(got, np.searchsorted(d.cum_array, qrng.uniforms(3, 50_000)))

    @pytest.mark.parametrize("atoms", [1, 2, 3, 4, 5, 128, 4096])
    def test_table_shape(self, atoms):
        # equal masses: cum entries on and off the bucket edges of every
        # table size from 2 to 8192 buckets
        d = make_discrete((float(i), 1.0 / atoms) for i in range(atoms))
        self.assert_matches_searchsorted(d, _edge_levels(d))

    def test_workspace_buffers_only(self):
        # the lookup writes its indices to out and works in scratch
        d = SUPPORTS["random"]
        levels = (qrng.stream_words(8, 1000) >> np.uint64(11)).astype(np.int64)
        out, scratch = np.empty((2, 1000), dtype=np.int64)
        kept = levels.copy()
        assert d._level_indices(levels, out, scratch) is out
        assert np.array_equal(levels, kept)
        assert np.array_equal(out, np.searchsorted(d.cum_array, qrng.uniforms(8, 1000)))


class TestIntegerArguments:
    """An integer argument given a float is refused with its name, never
    truncated or run past its bound."""

    @pytest.mark.parametrize(
        "param, call, got",
        [
            ("record_stride",
             lambda: SimConfig(fair_coin(), 0.5, 100, 1, record_stride=2.5), "2.5"),
            ("n_max", lambda: SimConfig(fair_coin(), 0.5, 10.5, 1), "10.5"),
            ("n", lambda: sample_stream(fair_coin(), 1, 2.5), "2.5"),
            ("n", lambda: qrng.uniforms(1, 2.5), "2.5"),
            ("checkpoints", lambda: simulate.gc_path(fair_coin(), 5, [1.5, 2.7]), "[1.5, 2.7]"),
            ("checkpoints", lambda: simulate.gc_path(fair_coin(), 5, np.array([1.0, 2.0])),
             "array([1., 2.])"),
            ("master_seed", lambda: SimConfig(fair_coin(), 0.5, 100, 1.5), "1.5"),
            ("seed", lambda: sample_stream(fair_coin(), 1.5, 10), "1.5"),
        ],
        ids=["record_stride", "n_max", "sample_stream-n", "uniforms-n",
             "checkpoints", "checkpoints-integral-floats", "master_seed", "seed"],
    )
    def test_float_rejected(self, param, call, got):
        if param == "checkpoints":
            rule = "strictly increasing integers in [1, 2**63)"
        else:
            rule = "an integer"
        message = re.escape(f"{param} must be {rule}, got {got}")
        with pytest.raises(QuantileLimitsError, match=f"^{message}$") as info:
            call()
        assert info.value.param == param

    def test_numpy_integers_accepted(self):
        got = sample_stream(fair_coin(), np.uint64(5), np.int64(3))
        assert np.array_equal(got, sample_stream(fair_coin(), 5, 3))
        dist, _ = simulate.gc_path(fair_coin(), 5, np.array([1, 2], dtype=np.uint64))
        assert np.array_equal(dist, simulate.gc_path(fair_coin(), 5, [1, 2])[0])


BITS_61 = Fraction(2**60 + 1, 2**61)  # a binary fraction, but no double


class TestBinaryLevels:
    """A level p or a q enters the rank rule as the double num / 2**s; one
    that is no double is refused by name before any draw, not read as another
    level (the rule took Fraction(1, 3) for 1/2, and a binary fraction of 61
    significant bits ran as its rounding, 1/2)."""

    @pytest.mark.parametrize(
        "param, level, call",
        [
            ("p", Fraction(1, 3), lambda x: SimConfig(fair_coin(), x, 100, 1)),
            ("q", Fraction(1, 3), lambda x: deviation_experiment(x, 1, 0.25, 10, 1)),
            ("q", Fraction(1, 3), lambda x: block_event_experiment(x, 0.25, 10, 1)),
            ("p", BITS_61, lambda x: SimConfig(fair_coin(), x, 100, 1)),
            ("q", BITS_61, lambda x: deviation_experiment(x, 1, 0.25, 10, 1)),
            ("q", BITS_61, lambda x: block_event_experiment(x, 0.25, 10, 1)),
        ],
        ids=["SimConfig", "deviation_experiment", "block_event_experiment",
             "SimConfig-61-bit", "deviation_experiment-61-bit", "block_event_experiment-61-bit"],
    )
    def test_fraction_refused(self, monkeypatch, param, level, call):
        monkeypatch.setattr(simulate, "_word_matrix", None)  # a draw would fail otherwise
        message = re.escape(f"{param} must be a double, got {level!r}")
        with pytest.raises(QuantileLimitsError, match=f"^{message}$") as info:
            call(level)
        assert info.value.param == param

    def test_float32_accepted(self):
        p = np.float32(0.3)
        cfg = SimConfig(fair_coin(), p, 100, 1)
        traj = run_trajectory(cfg, 1)
        assert_same_records(traj, run_trajectory(SimConfig(fair_coin(), float(p), 100, 1), 1))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_distinct_indices(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_order_independent(self):
        forward = [derive_seed(9, i) for i in range(10)]
        backward = [derive_seed(9, i) for i in reversed(range(10))]
        assert forward == list(reversed(backward))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)

    @pytest.mark.parametrize("master_seed", [0, 1234567, 2**64 - 1])
    def test_matches_scalar_oracle(self, master_seed):
        for rep in [*range(1000), 2**63, 2**64 - 2]:
            assert derive_seed(master_seed, rep) == stream_word(master_seed, rep)

    @pytest.mark.parametrize("rep_index", [2**64 - 1, 2**64, 2**64 + 5])
    def test_rejects_index_past_counter_range(self, rep_index):
        # a counter past 2**64 - 1 would wrap onto another index's seed
        message = f"^rep_index must be <= {2**64 - 2}, got {rep_index}$"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            derive_seed(7, rep_index)
        assert info.value.param == "rep_index"


class TestSeedRange:
    """A seed outside [0, 2**64) is rejected, never reduced mod 2**64 into
    another seed's stream."""

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    def test_out_of_range_seed_rejected(self, seed):
        calls = [
            ("master_seed", lambda: deviation_experiment(0.5, 1, 0.25, 10, seed)),
            ("master_seed", lambda: block_event_experiment(0.5, 0.25, 10, seed)),
            ("master_seed", lambda: SimConfig(fair_coin(), 0.5, 10, seed)),
            ("master_seed", lambda: derive_seed(seed, 0)),
            ("seed", lambda: sample_stream(fair_coin(), seed, 10)),
            ("seed", lambda: qrng.uniforms(seed, 2)),
            ("seed", lambda: qrng.stream_words(seed, 1)),
        ]
        for param, call in calls:
            message = f"^{param} must be an unsigned 64-bit integer, got {seed}$"
            with pytest.raises(QuantileLimitsError, match=message) as info:
                call()
            assert info.value.param == param

    def test_largest_seed_accepted(self):
        top = 2**64 - 1
        low, high = deviation_experiment(0.5, 1, 0.25, 10, top)
        assert 0.0 <= low <= 1.0 and 0.0 <= high <= 1.0
        assert len(sample_stream(fair_coin(), top, 10)) == 10


class TestSampleStream:
    def test_point_mass(self):
        assert np.all(sample_stream(point_mass(7.0), 3, 1000) == 7.0)

    def test_deterministic(self):
        a = sample_stream(gapped_example(), 11, 500)
        b = sample_stream(gapped_example(), 11, 500)
        assert np.array_equal(a, b)

    def test_is_inverse_cdf_of_uniforms(self):
        d = gapped_example()
        u = qrng.uniforms(21, 300)
        expected = np.array([d.left_quantile(float(x)) for x in u])
        assert np.array_equal(sample_stream(d, 21, 300), expected)

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_memory_is_output_and_one_workspace(self, n):
        d = SUPPORTS["uniform4096"]
        sample_stream(d, 3, 1)  # builds the distribution's lookup table
        tracemalloc.start()
        try:
            draws = sample_stream(d, 3, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(draws) == n
        assert peak <= draws.nbytes + simulate._workspace().nbytes + 2**15

    def test_coin_mean_concentrates(self):
        # P(|mean| <= 0.005 at n=1e6) ~ erf(3.54) per seed; >= 95/100 seeds
        hits = 0
        for seed in range(100):
            mean = sample_stream(fair_coin(), derive_seed(505, seed), 10**6).mean()
            hits += abs(mean) <= 0.005
        assert hits >= 95


class TestSimConfig:
    def test_default_stride_dense(self):
        cfg = SimConfig(fair_coin(), 0.5, 10_000, 0)
        assert cfg.record_stride == 1

    def test_default_stride_sparse(self):
        cfg = SimConfig(fair_coin(), 0.5, 10_001, 0)
        assert cfg.record_stride == 10

    def test_validation(self):
        refused = [
            ("p", r"in \(0, 1\), got 0\.0", lambda: SimConfig(fair_coin(), 0.0, 10, 0)),
            ("p", r"in \(0, 1\), got nan", lambda: SimConfig(fair_coin(), math.nan, 10, 0)),
            ("n_max", ">= 1, got 0", lambda: SimConfig(fair_coin(), 0.5, 0, 0)),
            ("master_seed", "an unsigned 64-bit integer, got -1",
             lambda: SimConfig(fair_coin(), 0.5, 10, -1)),
            ("record_stride", ">= 1, got 0",
             lambda: SimConfig(fair_coin(), 0.5, 10, 0, record_stride=0)),
            ("replications", ">= 1, got 0",
             lambda: SimConfig(fair_coin(), 0.5, 10, 0, replications=0)),
        ]
        for param, rule, call in refused:
            with pytest.raises(QuantileLimitsError, match=f"^{param} must be {rule}$") as info:
                call()
            assert info.value.param == param

    def test_numpy_level_is_stored_as_float(self):
        # a float32 level is the same double as its float, and reports as one
        cfg32 = SimConfig(fair_coin(), np.float32(0.25), 100, 1, replications=2)
        cfg = SimConfig(fair_coin(), 0.25, 100, 1, replications=2)
        assert type(cfg32.p) is float
        assert report_to_json_bytes(run_replicated(cfg32, "convergence")) == (
            report_to_json_bytes(run_replicated(cfg, "convergence"))
        )

    @pytest.mark.parametrize("field", ["n_max", "record_stride"])
    def test_sizes_are_int64(self, field):
        # 2**63 - 1 is accepted as a value; 2**63 is refused by name
        sizes = {"n_max": 2**63 - 1, "record_stride": 2**62}
        cfg = SimConfig(fair_coin(), 0.5, master_seed=0, **sizes)
        assert (cfg.n_max, cfg.record_stride) == (2**63 - 1, 2**62)
        message = f"^{field} must be <= {2**63 - 1}, got {2**63}$"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            SimConfig(fair_coin(), 0.5, master_seed=0, **{**sizes, field: 2**63})
        assert info.value.param == field


def _every_atom(atoms: int):
    # a _record_counts window callback: every atom, in every group
    def window(r0, r1, step, below, ends):
        return np.zeros(len(ends), dtype=np.int64), np.full(len(ends), atoms)

    return window


class TestRunTrajectory:
    def test_point_mass_constant(self):
        cfg = SimConfig(point_mass(7.0), 0.3, 500, 1)
        traj = run_trajectory(cfg, 0)
        assert np.all(traj.lq == 7.0) and np.all(traj.rq == 7.0)
        assert traj.ns[0] == 1 and traj.ns[-1] == 500

    def test_matches_streaming_reference(self):
        rng = np.random.default_rng(3)
        cases = [
            (fair_coin(), 0.5, 1),
            (gapped_example(), 0.5, 1),
            (gapped_example(), 0.8, 7),
            (random_distribution(rng, max_atoms=12), 0.37, 3),
        ]
        for d, p, stride in cases:
            # 70_000 straddles two vectorization chunks
            cfg = SimConfig(d, p, 70_000, 17, record_stride=stride)
            fast = run_trajectory(cfg, 0)
            slow = run_trajectory_streaming(cfg, 0)
            assert_same_records(fast, slow)

    @pytest.mark.parametrize(
        "atoms", [1, 2, simulate._WORD_ATOMS, simulate._WORD_ATOMS + 1, 13, 257]
    )
    @pytest.mark.parametrize("stride", [1, 7, simulate._CHUNK + 3, "above"])
    def test_matches_oracle_across_supports_and_strides(self, atoms, stride):
        # n_max spans two draw chunks and is no multiple of 7 or _CHUNK + 3
        n_max = 33_001
        stride = n_max + 1 if stride == "above" else stride
        rng = np.random.default_rng(1000 * atoms + 7)
        # half the mass on each side of the middle: a gap at p = 1/2, where
        # F_n(x) == p ties separate the left from the right quantile
        half = atoms // 2
        weights = rng.integers(1, 1000, size=atoms).astype(np.float64)
        if half:
            weights[:half] /= 2 * weights[:half].sum()
            weights[half:] /= 2 * weights[half:].sum()
        else:
            weights /= weights.sum()
        values = np.cumsum(rng.integers(1, 10, size=atoms)) * 0.5
        d = make_discrete(zip(values.tolist(), weights.tolist()))
        assert len(d) == atoms
        cfg = SimConfig(d, 0.5, n_max, 11, record_stride=stride)
        assert_same_records(run_trajectory(cfg, 2), run_trajectory_streaming(cfg, 2))

    @pytest.mark.parametrize(
        "atoms", [1, 3, simulate._WORD_ATOMS, simulate._WORD_ATOMS + 1, 257, 4096]
    )
    def test_cumulative_counts_match_prefix_recount(self, atoms):
        rng = np.random.default_rng(atoms)
        values = np.arange(atoms, dtype=np.float64)
        weights = rng.integers(1, 1000, size=atoms).astype(np.float64)
        d = make_discrete(zip(values.tolist(), (weights / weights.sum()).tolist()))
        # record gaps: runs of single draws, short and long gaps, and gaps
        # wider than a chunk, so chunks start on and off record points
        gaps = np.concatenate([
            np.ones(300, dtype=np.int64),
            rng.integers(2, 50, size=200),
            rng.integers(50, 3000, size=40),
            [simulate._CHUNK + 5, 3 * simulate._CHUNK, simulate._CHUNK],
        ])
        rng.shuffle(gaps)
        # then records at the first two draws of a chunk: chunks start
        # _CHUNK draws apart until the cap on a chunk's records cuts one
        gaps = np.append(gaps, [-int(gaps.sum()) % simulate._CHUNK + 1, 1, 1])
        rec_ns = np.cumsum(gaps)
        seed = 99
        idx = np.searchsorted(d.values_array, sample_stream(d, seed, int(rec_ns[-1])))
        counts = np.zeros(atoms, dtype=np.int64)
        want = np.empty((len(rec_ns), atoms), dtype=np.int64)
        done = 0
        for r, n in enumerate(rec_ns):
            counts += np.bincount(idx[done:n], minlength=atoms)
            done = n
            want[r] = np.cumsum(counts)

        def prefix(n):
            return np.cumsum(np.bincount(idx[:n], minlength=atoms))

        full = _every_atom(atoms)
        windows = {}  # record -> the window its group asked for

        def narrow(r0, r1, step, below, ends):
            # the counts before the chunk and at each group's end, and
            # windows of up to two atoms that move from group to group
            assert np.array_equal(below, prefix(int(below[-1])))
            assert (r0 == 0 or rec_ns[r0 - 1] <= below[-1]) and below[-1] < rec_ns[r0]
            assert len(ends) == -(-(r1 - r0) // step)
            for g, end in enumerate(ends):
                assert np.array_equal(end, prefix(int(end[-1])))
                last = min(r0 + (g + 1) * step, r1) - 1  # the group's last record
                if g < len(ends) - 1:
                    assert end[-1] == rec_ns[last]
                else:  # the chunk's end, before the next record
                    assert rec_ns[last] <= end[-1]
                    assert last + 1 == len(rec_ns) or end[-1] < rec_ns[last + 1]
            a = 7 * (r0 + step * np.arange(len(ends))) % atoms
            b = np.minimum(a + 2, atoms)
            for r in range(r0, r1):
                windows[r] = a[(r - r0) // step], b[(r - r0) // step]
            return a, b

        # a chunk's table of group counts: at most max(_CHUNK, atoms) cells
        inside = []  # the records strictly inside each chunk, as draw offsets
        for lo, _, r0, rb, r1 in simulate._chunks(atoms, rec_ns):
            assert ((rb - r0) // simulate._GROUP + 1) * atoms <= max(simulate._CHUNK, atoms)
            inside.append((rec_ns[r0:rb] - lo, r1 > rb))
        # segments end on a chunk's first draw, on adjacent draws, and the
        # last one on a record at the chunk's last draw
        assert any(len(ns) and ns[0] == 1 for ns, _ in inside)
        assert any(np.any(np.diff(ns) == 1) for ns, _ in inside)
        assert any(len(ns) and at_end for ns, at_end in inside)
        for window in (full, narrow):
            covered = 0
            for r0, r1, a, cum in simulate._record_counts(d, seed, rec_ns, window):
                assert r0 == covered < r1
                if atoms > simulate._WORD_ATOMS:
                    # a run's records times its window and spare column
                    cells = (r1 - r0) * (len(cum) + 1)
                    assert cells <= max(simulate._CELLS, len(cum) + 1)
                else:  # one chunk's counts
                    assert (r1 - r0) * len(cum) <= simulate._WORD_ATOMS * simulate._CHUNK
                if window is full:
                    assert len(cum) == atoms
                else:
                    # the union of the windows of the groups the run meets
                    assert a == min(windows[r][0] for r in range(r0, r1))
                    assert a + len(cum) == max(windows[r][1] for r in range(r0, r1))
                assert np.array_equal(cum.T, want[r0:r1, a : a + len(cum)])
                covered = r1
            assert covered == len(rec_ns)

    @pytest.mark.parametrize("n_max, stride", [(10**5, 1000), (3000, 1)])
    def test_working_set_is_bounded(self, n_max, stride):
        # 4096 atoms: a chunk x atoms one-hot count takes about 1 GB, and a
        # count matrix over every record of one chunk about 100 MB at stride 1
        values = np.arange(4096, dtype=np.float64)
        d = make_discrete(zip(values.tolist(), [1.0 / 4096] * 4096))
        cfg = SimConfig(d, 0.5, n_max, 5, record_stride=stride)
        tracemalloc.start()
        try:
            traj = run_trajectory(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == n_max // stride
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("n_max", [10**5, 10**6])
    def test_two_atom_working_set_is_flat(self, n_max):
        # two atoms at their gap, a record at every draw, counted on the
        # words.  Past the trajectory's own arrays, at both lengths: the
        # workspace (3 chunk-length int64 rows), one chunk's counts (1), its
        # ranks (2) and quantile indices (2), and under 2 rows of
        # temporaries; a second chunk's counts held at once would pass 10
        cfg = SimConfig(make_discrete([(0.0, 0.3), (1.0, 0.7)]), 0.3, n_max, 4, record_stride=1)
        qrng._steps()  # the step table, a chunk-length row made once per process
        tracemalloc.start()
        try:
            traj = run_trajectory(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == n_max
        assert peak - (traj.ns.nbytes + traj.lq.nbytes + traj.rq.nbytes) < 10 * simulate._CHUNK * 8

    def test_record_points_include_n_max(self):
        cfg = SimConfig(fair_coin(), 0.5, 1003, 1, record_stride=10)
        traj = run_trajectory(cfg, 0)
        assert traj.ns[-1] == 1003
        assert traj.ns[0] == 10

    def test_coin_sign_equivalences(self):
        # lq = -1 iff Z <= 0;  rq = -1 iff Z < 0;  and the +1 mirror images
        cfg = SimConfig(fair_coin(), 0.5, 2000, 23, record_stride=1)
        for rep in range(5):
            traj = run_trajectory(cfg, rep)
            z = np.cumsum(sample_stream(fair_coin(), traj.seed, 2000))
            assert np.array_equal(traj.lq == -1.0, z <= 0)
            assert np.array_equal(traj.rq == -1.0, z < 0)
            assert np.array_equal(traj.lq == 1.0, z > 0)
            assert np.array_equal(traj.rq == 1.0, z >= 0)

    def test_gapped_path_avoids_top_atom_for_known_seed(self):
        # seed picked so the early path never puts the quantile on atom 5;
        # afterwards both records live on the gap edges {0, 3} throughout
        cfg = SimConfig(gapped_example(), 0.5, 10_000, 3, record_stride=1)
        traj = run_trajectory(cfg, 0)
        seen = set(traj.lq.tolist()) | set(traj.rq.tolist())
        assert seen == {0.0, 3.0}

    def test_trajectory_values_are_atoms(self):
        d = gapped_example()
        cfg = SimConfig(d, 0.5, 3000, 31, record_stride=1)
        traj = run_trajectory(cfg, 1)
        atoms = set(d.values)
        assert set(traj.lq.tolist()) <= atoms
        assert set(traj.rq.tolist()) <= atoms
        assert np.all(traj.lq <= traj.rq)
        assert gap_interior_hits(traj, d, 0.5) == 0


def _edge_support(name: str):
    # (distribution, p, seeds) of a small support at one end of the word
    # thresholds T << 11 that _record_counts compares words with
    light = seed_for_word(2047, 1000), seed_for_word(2048, 1000), 1
    if name == "cum-one-before-last":  # T of atom 1 is 2**53: every draw
        d = make_discrete([(0.0, 0.5), (1.0, 0.5), (2.0, 1e-17)])
        assert d.cum == (0.5, 1.0, 1.0)
        return d, 0.5, (3558559446808474027, 8)
    if name == "light-T0":  # no word lies below atom 0's threshold
        d = make_discrete([(0.0, 1e-17), (1.0, 1.0)])
        assert qrng._level_threshold(d.cum[0]) == 0
        return d, 1e-17, light
    if name == "light-T1":
        d = make_discrete([(0.0, 1e-16), (1.0, 1.0 - 1e-16)])
        assert qrng._level_threshold(d.cum[0]) == 1
        return d, 1e-16, light
    if name == "one-atom":
        return point_mass(3.0), 0.5, (8, 2**64 - 1)
    # "top-seed": the first uniform of the seed is 1.0
    assert qrng.uniforms(3558559446808474027, 1).tolist() == [1.0]
    return gapped_example(), 0.5, (3558559446808474027,)


class TestWordCounts:
    """Small supports are counted on raw words, larger ones through the
    guide table: both binnings give the same counts, records and
    distances."""

    @pytest.mark.parametrize(
        "name", ["cum-one-before-last", "light-T0", "light-T1", "one-atom", "top-seed"]
    )
    def test_edge_supports(self, name):
        d, p, seeds = _edge_support(name)
        assert len(d) <= simulate._WORD_ATOMS
        n_max = simulate._CHUNK + 1000
        rec_ns = np.array([1, 2, 1000, 1001, 1002, simulate._CHUNK, simulate._CHUNK + 1, n_max])
        first_atom = []  # the draws of atom 0 on each path
        for seed in seeds:
            idx = np.searchsorted(d.values_array, sample_stream(d, seed, n_max))
            first_atom.append(np.flatnonzero(idx == 0).tolist())
            want = np.array([np.cumsum(np.bincount(idx[:n], minlength=len(d))) for n in rec_ns])
            got = [
                cum.T for _, _, _, cum in
                simulate._record_counts(d, seed, rec_ns, _every_atom(len(d)))
            ]
            assert np.array_equal(np.concatenate(got), want)
            dist, j = sup_distances(want, rec_ns, d.cum_array)
            gc_dist, gc_witness = simulate.gc_path(d, seed, rec_ns)
            assert np.array_equal(gc_dist, dist)
            assert np.array_equal(gc_witness, d.values_array[j])
            for stride in (1, 7):
                # master seeds whose replication 0 draws from this seed
                cfg = SimConfig(d, p, n_max, seed_for_word(seed), record_stride=stride)
                traj = run_trajectory(cfg, 0)
                assert traj.seed == seed
                assert_same_records(traj, run_trajectory_streaming(cfg, 0))
        if name.startswith("light"):  # only word 2047 of T = 1 draws atom 0
            assert first_atom[:2] == ([[1000], []] if name == "light-T1" else [[], []])

    @pytest.mark.parametrize("stride", [1, 2, 7, simulate._CHUNK + 3])
    def test_counts_at_a_stride_match_recount(self, monkeypatch, stride):
        # records at every draw, read from one running sum, and at a stride
        # and n_max, off it, from sums between records; then the same
        # points through the guide table, whose segments end at them
        d = SUPPORTS["six"]
        n_max = 70_001
        rec_ns = np.arange(stride, n_max + 1, stride)
        if rec_ns[-1] != n_max:
            rec_ns = np.append(rec_ns, n_max)
        idx = np.searchsorted(d.values_array, sample_stream(d, 4, n_max))
        prefix = np.cumsum(np.cumsum(np.eye(len(d), dtype=np.int64)[idx], axis=0), axis=1)
        points = simulate._StridePoints(n_max, stride)
        for word_atoms in (simulate._WORD_ATOMS, 0):
            monkeypatch.setattr(simulate, "_WORD_ATOMS", word_atoms)
            got = [
                cum.T for _, _, _, cum in
                simulate._record_counts(d, 4, points, _every_atom(len(d)))
            ]
            assert np.array_equal(np.concatenate(got), prefix[rec_ns - 1])

    @pytest.mark.parametrize("support", ["coin", "figure", "six"])
    def test_word_and_guide_binnings_agree(self, monkeypatch, support):
        d = SUPPORTS[support]
        ns = np.unique(np.concatenate([np.geomspace(1, 70_000, 30).astype(np.int64),
                                       np.arange(32_000, 33_500, 7)]))
        out = {}
        for word_atoms in (0, 4096):
            monkeypatch.setattr(simulate, "_WORD_ATOMS", word_atoms)
            trajs = [
                run_trajectory(SimConfig(d, 0.5, 70_000, 5, record_stride=stride), 1)
                for stride in (1, 7, simulate._CHUNK + 3)
            ]
            out[word_atoms] = trajs, simulate.gc_path(d, 9, ns)
        (guide_trajs, guide_gc), (word_trajs, word_gc) = out[0], out[4096]
        for guide, word in zip(guide_trajs, word_trajs):
            assert_same_records(guide, word)
        assert np.array_equal(guide_gc[0], word_gc[0])
        assert np.array_equal(guide_gc[1], word_gc[1])


def _uniform(atoms: int):
    return make_discrete([(float(j), 1.0 / atoms) for j in range(atoms)])


def _window_case(name: str):
    # (distribution, p, n_max, stride, _CHUNK): each stresses one edge of
    # the per-chunk window of atoms
    if name == "4096-atoms":  # 64 records a chunk, 47 chunks, wide windows early
        return _uniform(4096), 0.3, 3000, 1, simulate._CHUNK
    if name == "flat-level":  # p = F(0.0), not dyadic: lq and rq split at the gap
        d = make_discrete([(0.0, 0.3), (2.0, 0.2), (7.0, 0.5)])
        return d, d.cum[0], 40_000, 7, simulate._CHUNK
    if name == "chunk-ends":  # 1000-draw chunks, a record at every chunk end
        return gapped_example(), 0.8, 10_000, 250, 1000
    # "integral": every n is a multiple of 8, so n*p is an integer and
    # R = L + 1 at every record
    return random_distribution(np.random.default_rng(13), max_atoms=13), 0.375, 40_000, 8, simulate._CHUNK


@st.composite
def grouped_window_cases(draw):
    """(cfg, {name: value}) of a trajectory on a guide-table support, with
    the kernel's _CHUNK, _GROUP and _CELLS to run it under: 9-600 atoms of
    uniform or skewed weights, levels where n*p is an integer at every
    eighth n or that lie near 0 and 1, strides from 1 to past a chunk, and
    n_max on or off the stride.  Small chunks and groups put group and
    chunk ends and the draws after a chunk's last record in reach of a
    short path, and a small _CELLS splits groups into runs."""
    atoms = draw(st.integers(9, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    weights = {
        "uniform": np.ones(atoms),
        "power": rng.random(atoms) ** 6 + 1e-9,
        "one-heavy": np.where(np.arange(atoms) == rng.integers(atoms), 10.0 * atoms, 1.0),
    }[draw(st.sampled_from(["uniform", "power", "one-heavy"]))]
    values = np.cumsum(rng.integers(1, 10, size=atoms)) * 0.5
    d = make_discrete(zip(values.tolist(), (weights / weights.sum()).tolist()))
    p = draw(st.sampled_from([0.5, 0.375, 0.125, 1e-3, 2.0**-20, 0.999, 1 - 2.0**-20])
             | st.floats(0.01, 0.99))
    chunk = draw(st.sampled_from([64, 1000, simulate._CHUNK]))
    stride = draw(st.integers(1, 3 * chunk // 2))
    # the oracle takes O(atoms) per record: at most about 2 * 10**5 cells
    top = max(1, min(6 * chunk, 2 * 10**5 * stride // atoms))
    n_max = draw(st.integers(1, top) | st.integers(top // 2, top))
    constants = {
        "_CHUNK": chunk,
        "_GROUP": draw(st.sampled_from([simulate._GROUP, 1, 3])),
        "_CELLS": draw(st.sampled_from([simulate._CELLS, 40])),
    }
    cfg = SimConfig(d, p, n_max, draw(st.integers(0, 2**63 - 1)), record_stride=stride)
    return cfg, constants


class TestQuantileWindow:
    """run_trajectory evaluates the rank rule only on a window of atoms per
    group of records; every record equals the streaming oracle's and the
    order statistics of the exact ranks."""

    @settings(max_examples=150, deadline=None)
    @given(case=grouped_window_cases())
    def test_grouped_windows_match_streaming(self, case):
        cfg, constants = case
        with pytest.MonkeyPatch.context() as mp:
            for name, value in constants.items():
                mp.setattr(simulate, name, value)
            traj = run_trajectory(cfg, 3)
        assert_same_records(traj, run_trajectory_streaming(cfg, 3))

    def test_wide_support_memory(self):
        # one simulate-wide replication: 128 atoms at stride 10.  The first
        # chunk's count matrix over all its records took 2.06 MiB when each
        # chunk had one window; each group's window and the runs' budget of
        # _CELLS cells leave the workspace (768 KiB) the largest array
        cfg = SimConfig(from_spec(wide_spec(1)), 0.5, 200_000, 1, record_stride=10)
        qrng._steps()  # the step table, a chunk-length row made once per process
        tracemalloc.start()
        try:
            traj = run_trajectory(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == 20_000
        assert peak <= 2.5 * 2**20

    @pytest.mark.parametrize("case", ["4096-atoms", "flat-level", "chunk-ends", "integral"])
    def test_matches_oracles(self, monkeypatch, case):
        d, p, n_max, stride, chunk = _window_case(case)
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        cfg = SimConfig(d, p, n_max, 21, record_stride=stride)
        traj = run_trajectory(cfg, 1)
        assert_same_records(traj, run_trajectory_streaming(cfg, 1))
        ranks = [exact_ranks(int(n), p) for n in traj.ns]
        if case == "integral":
            assert all(right == left + 1 for left, right in ranks)
        if case == "chunk-ends":
            assert set(range(chunk, n_max + 1, chunk)) <= set(traj.ns.tolist())
        draws = sample_stream(d, traj.seed, n_max)
        for i in np.unique(np.linspace(0, len(traj) - 1, 16).astype(int)):
            xs = np.sort(draws[: traj.ns[i]])
            left, right = ranks[i]
            assert (traj.lq[i], traj.rq[i]) == (xs[left - 1], xs[right - 1])

    @pytest.mark.parametrize("n_max", [10**5, 10**6])
    def test_extraction_memory_is_one_chunk(self, n_max):
        # the coin at stride 1, p = 0.3: a record per draw, and ranks on the
        # float-product path.  Past the trajectory's own arrays, the peak is
        # the same few chunk-sized buffers at both lengths.
        cfg = SimConfig(fair_coin(), 0.3, n_max, 4, record_stride=1)
        tracemalloc.start()
        try:
            traj = run_trajectory(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == n_max
        # twenty chunk-length int64 rows: 5 MiB, where one more record-length
        # array would take 7.6 MiB at 10**6
        assert peak - (traj.ns.nbytes + traj.lq.nbytes + traj.rq.nbytes) < 20 * simulate._CHUNK * 8


class TestExactLaw:
    """Across-replication frequencies of the recorded sample quantiles
    against their exact finite-n law: q_n <= x_j iff at least rank draws of
    n are <= x_j, so P(q_n <= x_j) = P(Bin(n, F(x_j)) >= rank), with the
    left rank ceil(n*p) and the right one floor(n*p) + 1 for the double p
    (David & Nagaraja, Order Statistics, 2003, section 2.1)."""

    REPS = 3000

    @classmethod
    def records(cls, d, p, ns, seed):
        # lq and rq of each replication at the record points ns, all
        # multiples of ten
        cfg = SimConfig(d, p, max(ns), seed, record_stride=10)
        trajs = [run_trajectory(cfg, rep) for rep in range(cls.REPS)]
        at = [n // 10 - 1 for n in ns]
        return np.array([t.lq[at] for t in trajs]), np.array([t.rq[at] for t in trajs])

    @staticmethod
    def prob(n, p, side, level):
        # P(q_n <= x) for an atom x with F(x) = level; side 0 takes the left
        # rank, 1 the right one
        return 1.0 - simulate._binomial_cdf(exact_ranks(n, p)[side] - 1, n, level)

    @classmethod
    def zs(cls, d, p, ns, quantiles, side):
        # {(n, j): z} of the frequency of {q_n <= x_j}, for every atom but
        # the last where the normal approximation holds
        zs = {}
        for i, n in enumerate(ns):
            for j in range(len(d) - 1):
                prob = cls.prob(n, p, side, d.cum[j])
                if min(prob, 1.0 - prob) * cls.REPS < 5:  # no normal approximation
                    continue
                freq = np.count_nonzero(quantiles[:, i] <= d.values[j]) / cls.REPS
                zs[n, j] = (freq - prob) / math.sqrt(prob * (1.0 - prob) / cls.REPS)
        return zs

    def test_left_quantile_law_at_one_tenth(self):
        # The double 0.1 is a little above 1/10, so L = 2 at n = 10 and 11
        # at n = 100; comparing the rounded ratio count/n with p takes 1 and
        # 10, which puts P(lq_10 <= x_0) at 0.65 against 0.26.
        d, p, ns = _uniform(10), 0.1, (10, 100)
        lq, _ = self.records(d, p, ns, 2024)
        zs = self.zs(d, p, ns, lq, 0)
        assert len(zs) >= 8
        assert max(map(abs, zs.values())) < 4.0, zs

    def test_both_quantiles_at_the_gap(self):
        # gapped_example at p = 1/2: F(0) = p, so lq_n sits on the gap's
        # left edge with probability P(Bin(n, 1/2) >= ceil(n/2)) and rq_n
        # with P(Bin(n, 1/2) >= n/2 + 1); both tend to 1/2, and neither
        # sample quantile converges
        d, p, ns = gapped_example(), 0.5, (10, 100, 1000)
        lq, rq = self.records(d, p, ns, 2025)
        left, right = self.zs(d, p, ns, lq, 0), self.zs(d, p, ns, rq, 1)
        assert [round(self.prob(n, p, 0, 0.5), 3) for n in ns] == [0.623, 0.540, 0.513]
        assert [round(self.prob(n, p, 1, 0.5), 3) for n in ns] == [0.377, 0.460, 0.487]
        assert {(n, 0) for n in ns} <= set(left) & set(right)
        assert max(map(abs, [*left.values(), *right.values()])) < 4.0, (left, right)

    def test_left_quantile_at_a_non_dyadic_flat_level(self):
        # gapped_example at p = 0.8 = F(3): the double 0.8 is a little
        # above 4/5, so n*p is never an integer, L = R = ceil(n*p) (9 at
        # n = 10), and P(lq_n <= 3) = P(Bin(n, F(3)) >= L) tends to 1/2
        d, p, ns = gapped_example(), 0.8, (10, 100, 1000)
        assert d.cum[1] == p
        lq, rq = self.records(d, p, ns, 2026)
        assert np.array_equal(lq, rq)
        zs = self.zs(d, p, ns, lq, 0)
        assert [exact_ranks(n, p)[0] for n in ns] == [9, 81, 801]
        assert [round(self.prob(n, p, 0, p), 3) for n in ns] == [0.376, 0.460, 0.487]
        assert {(n, 1) for n in ns} <= set(zs)
        assert max(map(abs, zs.values())) < 4.0, zs

    def test_right_quantile_where_the_float_product_rounds_up(self):
        # The double 0.3 is a little below 3/10, yet the float product n*0.3
        # rounds up to the integer 3n/10 at n = 10, 100 and 1000.  So n*p is
        # no integer there and R = L = 3n/10, while floor of the rounded
        # product gives R = 3n/10 + 1 (4 at n = 10)
        d, p, ns = _uniform(20), 0.3, (10, 100, 1000)
        assert [n * p for n in ns] == [3.0, 30.0, 300.0]
        assert [exact_ranks(n, p) for n in ns] == [(3, 3), (30, 30), (300, 300)]
        lq, rq = self.records(d, p, ns, 2027)
        assert np.array_equal(lq, rq)
        zs = self.zs(d, p, ns, rq, 1)
        assert {(n, 5) for n in ns} <= set(zs) and len(zs) >= 15
        assert max(map(abs, zs.values())) < 4.0, zs


def _use_cpus(monkeypatch, cpus: int) -> None:
    affinity = set(range(cpus))
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: affinity, raising=False)


def _pool_threads() -> list:
    return [t for t in threading.enumerate() if t.name == "qlim-worker"]


class TestChunkWorkers:
    """_run_jobs, which runs the replications of run_replicated and the
    block jobs of qlim blocks on min(QL_THREADS, CPUs) threads, the calling
    one among them: results in job order whatever the threads, no job
    started once one has failed or the calling thread is interrupted, and
    no thread outlives the call.  gc_path counts on the calling thread."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_counts_do_not_depend_on_workers(self, monkeypatch, cpus):
        # block tiles of varied sizes, and thread switches as often as the
        # interpreter allows, so jobs finish out of order
        _use_cpus(monkeypatch, cpus)
        monkeypatch.setenv("QL_THREADS", str(cpus))
        threshold = qrng._level_threshold(0.5) << 11
        rng = np.random.default_rng(cpus)
        r0s = np.concatenate([[0], np.cumsum(rng.integers(1, 40, size=60))])
        jobs = [(int(a), int(b), int(n))
                for a, b, n in zip(r0s, r0s[1:], rng.integers(1, 5000, size=60))]
        threads = set()

        def sums(r0, r1, block_len):
            threads.add(threading.current_thread())
            counts = np.zeros(r1 - r0, dtype=np.int64)
            simulate._block_counts(counts, 8, r0, block_len, threshold)
            return counts

        want = [sums(*job) for job in jobs]
        threads.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate._run_jobs(sums, jobs)
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == len(want) and all(map(np.array_equal, got, want))
        assert np.array_equal(want[0], recount_block_sums(0.5, jobs[0][2], jobs[0][1], 8))
        assert threading.main_thread() in threads and len(threads) <= cpus
        assert _pool_threads() == []

    def test_gc_path_same_at_one_and_two_threads(self, monkeypatch):
        # QL_THREADS does not reach gc_path, which starts no thread
        monkeypatch.setattr(simulate, "_CHUNK", 97)
        monkeypatch.setattr(simulate, "Thread", None)
        _use_cpus(monkeypatch, 2)
        d = gapped_example()
        ns = np.unique(np.concatenate([np.geomspace(1, 50_000, 40).astype(np.int64),
                                       np.arange(1000, 1500, 7)]))
        out = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("QL_THREADS", threads)
            out[threads] = simulate.gc_path(d, 77, ns)
        assert np.array_equal(out["1"][0], out["2"][0])
        assert np.array_equal(out["1"][1], out["2"][1])
        # and both equal a recount of the materialised draws
        idx = np.searchsorted(d.values_array, sample_stream(d, 77, int(ns[-1])))
        cum = np.array([np.cumsum(np.bincount(idx[:n], minlength=len(d))) for n in ns])
        dist, j = sup_distances(cum, ns, d.cum_array)
        assert np.array_equal(out["2"][0], dist)
        assert np.array_equal(out["2"][1], d.values_array[j])

    def test_workspaces_never_shared(self, monkeypatch):
        # 97-draw chunks on three CPUs, thread switches as often as the
        # interpreter allows: were a workspace shared by two running
        # trajectories, one would count the other's draws
        monkeypatch.setattr(simulate, "_CHUNK", 97)
        _use_cpus(monkeypatch, 3)
        d = SUPPORTS["random"]
        ns = np.unique(np.geomspace(1, 30_000, 60).astype(np.int64))
        cfg = SimConfig(d, 0.5, 3000, 12, record_stride=7, replications=6)
        want = [run_trajectory(cfg, rep) for rep in range(cfg.replications)]
        got = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("QL_THREADS", threads)
                trajs = {}
                run_replicated(cfg, "convergence", on_trajectory=trajs.__setitem__)
                got[threads] = simulate.gc_path(d, 77, ns), trajs
        finally:
            sys.setswitchinterval(interval)
        idx = np.searchsorted(d.values_array, sample_stream(d, 77, int(ns[-1])))
        cum = np.array([np.cumsum(np.bincount(idx[:n], minlength=len(d))) for n in ns])
        dist, j = sup_distances(cum, ns, d.cum_array)
        for (gc_dist, gc_witness), trajs in got.values():
            assert np.array_equal(gc_dist, dist)
            assert np.array_equal(gc_witness, d.values_array[j])
            for rep, traj in enumerate(want):
                assert_same_records(trajs[rep], traj)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_chunk_error_propagates(self, monkeypatch, cpus):
        _use_cpus(monkeypatch, cpus)
        monkeypatch.setenv("QL_THREADS", str(cpus))
        lock, started = threading.Lock(), set()

        def job(k):
            with lock:
                started.add(k)
            if k == 20:
                raise RuntimeError("job failed")
            return k * k

        with pytest.raises(RuntimeError, match="job failed"):
            simulate._run_jobs(job, [(k,) for k in range(50)])
        # jobs are taken in order, and each taken one runs
        assert set(range(21)) <= started
        if cpus == 1:
            assert started == set(range(21))
        assert _pool_threads() == []

    def test_lowest_failing_job_is_raised(self, monkeypatch):
        # jobs 0-2 meet, so one runs on each of the three threads.  Job 2
        # fails first and job 1 after it, while job 0 runs on: job 1's error
        # is raised, and only once every started call has returned and
        # every thread is joined
        _use_cpus(monkeypatch, 3)
        monkeypatch.setenv("QL_THREADS", "3")
        meet, failed = threading.Barrier(3), threading.Event()
        lock, started, finished = threading.Lock(), set(), set()

        def job(k):
            with lock:
                started.add(k)
            if k < 3:
                meet.wait(10)
            if k == 2:
                failed.set()
                raise RuntimeError("job 2 failed")
            if k == 1:
                assert failed.wait(10)
                raise RuntimeError("job 1 failed")
            if k == 0:
                assert failed.wait(10)
                time.sleep(0.05)
            with lock:
                finished.add(k)
            return k

        with pytest.raises(RuntimeError, match="^job 1 failed$"):
            simulate._run_jobs(job, [(k,) for k in range(20)])
        assert _pool_threads() == []
        assert {0, 1, 2} <= started and started - {1, 2} == finished

    def test_no_job_starts_after_a_failure(self, monkeypatch):
        # jobs 0 and 1 meet, so one runs on each of the two threads.  The
        # worker's job fails, and the calling thread's returns once the
        # worker has exited, which it does only after recording the
        # failure: the calling thread then starts no job
        _use_cpus(monkeypatch, 2)
        monkeypatch.setenv("QL_THREADS", "2")
        meet, started, failing = threading.Barrier(2), [], []

        def job(k):
            started.append(k)
            if k > 1:
                return k
            meet.wait(10)
            if threading.current_thread() is threading.main_thread():
                for thread in _pool_threads():
                    thread.join(10)
                return k
            failing.append(k)
            raise RuntimeError(f"job {k} failed")

        with pytest.raises(RuntimeError, match="failed") as info:
            simulate._run_jobs(job, [(k,) for k in range(10)])
        assert str(info.value) == f"job {failing[0]} failed"
        assert sorted(started) == [0, 1]
        assert _pool_threads() == []

    def test_interrupt_starts_no_job(self, monkeypatch):
        # jobs 0 and 1 meet, so one runs on each of the two threads.  The
        # worker's job interrupts the calling thread, whose job the
        # interrupt fails, and returns once that thread waits to join the
        # worker, which it does only after recording the failure: no other
        # job starts, and the interrupt reaches the caller
        _use_cpus(monkeypatch, 2)
        monkeypatch.setenv("QL_THREADS", "2")
        meet, started, main = threading.Barrier(2), [], threading.main_thread()

        def joining(thread) -> bool:  # whether thread waits in Thread.join
            frame = sys._current_frames().get(thread.ident)
            while frame is not None and frame.f_code is not threading.Thread.join.__code__:
                frame = frame.f_back
            return frame is not None

        def job(k):
            started.append(k)
            if k > 1:
                return k
            meet.wait(10)
            deadline = time.monotonic() + 10
            if threading.current_thread() is main:
                while time.monotonic() < deadline:  # where the interrupt lands
                    pass
            else:
                _thread.interrupt_main()
                while not joining(main) and time.monotonic() < deadline:
                    time.sleep(0.001)
            return k

        with pytest.raises(KeyboardInterrupt):
            simulate._run_jobs(job, [(k,) for k in range(10)])
        assert sorted(started) == [0, 1]
        assert _pool_threads() == []


class TestGcPath:
    @pytest.mark.parametrize(
        "checkpoints",
        [[0, 5], [5, 5], [10**19], [1, 2**63], [-(2**70), 5]],
        ids=["zero", "repeat", "past-int64", "last-past-int64", "below-int64"],
    )
    def test_bad_checkpoints_name_checkpoints(self, checkpoints):
        message = re.escape(
            f"checkpoints must be strictly increasing integers in [1, 2**63), got {checkpoints!r}"
        )
        with pytest.raises(QuantileLimitsError, match=f"^{message}$") as info:
            simulate.gc_path(fair_coin(), 1, checkpoints)
        assert info.value.param == "checkpoints"

    @pytest.mark.parametrize("n", [10**5, 10**7])
    def test_memory_is_one_workspace(self, monkeypatch, n):
        # one workspace, one chunk-length row and little besides, whatever
        # n, and at two threads as at one
        _use_cpus(monkeypatch, 2)
        monkeypatch.setenv("QL_THREADS", "2")
        checkpoints = [10**k for k in range(1, len(str(n)))]
        tracemalloc.start()
        try:
            dist, _ = simulate.gc_path(gapped_example(), 1, checkpoints)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dist) == len(checkpoints)
        assert peak < simulate._workspace().nbytes + simulate._CHUNK * 8 + 2**17


def binomial_pmf(m: int, z: int, p: float) -> float:
    return math.exp(
        math.lgamma(m + 1) - math.lgamma(z + 1) - math.lgamma(m - z + 1)
        + z * math.log(p) + (m - z) * math.log1p(-p)
    )


def record_points(n_max: int, stride: int) -> list[int]:
    """Where a trajectory records: every stride-th draw, and n_max."""
    return list(range(stride, n_max, stride)) + [n_max]


def exact_mean_switch_count(p: float, n_max: int, stride: int = 1) -> float:
    """E[switch_count] of a trajectory to n_max at record stride ``stride``,
    for two atoms at the gap p = F(lower atom).  The lower atom's count Z_n
    is Bin(n, p), and lq_n is the lower atom iff Z_n >= L_n = ceil(n*p).
    Between records m and n, Z_n = Z_m + b with b ~ Bin(n - m, p), so the
    record at n switches iff Z_m lies between L_m and L_n - b: a run of pmf
    values, or none, for each b."""
    points = record_points(n_max, stride)
    total = 0.0
    for m, n in zip(points, points[1:]):
        prev, cur = exact_ranks(m, p)[0], exact_ranks(n, p)[0]
        for b in range(n - m + 1):
            lo, hi = sorted((prev, cur - b))
            run = range(max(lo, 0), min(hi, m + 1))
            total += binomial_pmf(n - m, b, p) * sum(binomial_pmf(m, z, p) for z in run)
    return total


def exact_switch_count_cdf(p: float, n_max: int, ks, stride: int = 1) -> list[float]:
    """P(switch_count <= k) for each k of ks, in the setting of
    :func:`exact_mean_switch_count`, by a dynamic program over the joint
    law of (Z_n, switches so far) at the record points; between records the
    law is convolved with the Bin(n - m, p) pmf of the lower atom's new
    draws.  Counts above max(ks) share one column."""
    top = max(ks) + 1
    points = record_points(n_max, stride)
    law = np.zeros((points[0] + 1, top + 1))  # law[z, s] = P(Z_n = z, s switches)
    law[:, 0] = [binomial_pmf(points[0], z, p) for z in range(points[0] + 1)]
    for m, n in zip(points, points[1:]):
        prev, cur = exact_ranks(m, p)[0], exact_ranks(n, p)[0]
        z = np.arange(m + 1)
        nxt = np.zeros((n + 1, top + 1))
        for b in range(n - m + 1):
            stay = binomial_pmf(n - m, b, p) * law
            moved = np.zeros_like(stay)
            moved[:, 1:] = stay[:, :-1]
            moved[:, -1] += stay[:, -1]
            switch = (z >= prev) != (z + b >= cur)
            nxt[b:b + m + 1] += np.where(switch[:, None], moved, stay)
        law = nxt
    by_count = law.sum(axis=0)
    return [float(by_count[: k + 1].sum()) for k in ks]


@functools.cache
def simulated_switch_counts(name: str, stride: int) -> tuple[float, list[int]]:
    """(p, switch counts) of 3000 trajectories to n = 1000 at record stride
    ``stride``, at the gap p = F(lower atom) of a two-atom support."""
    d = {"coin": fair_coin(), "0.3-0.7": make_discrete([(0.0, 0.3), (1.0, 0.7)])}[name]
    p = d.cum[0]
    cfg = SimConfig(d, p, 1000, 31, record_stride=stride)
    return p, [switch_stats(run_trajectory(cfg, rep), 0).switch_count for rep in range(3000)]


def mean_z(counts: list[int], exact: float) -> float:
    """z-score of the mean switch count against its exact value."""
    return (np.mean(counts) - exact) / (np.std(counts, ddof=1) / math.sqrt(len(counts)))


def frequency_z(counts: list[int], k: int, exact: float) -> float:
    """z-score of the frequency of switch_count <= k against its exact P."""
    freq = np.mean(np.array(counts) <= k)
    return (freq - exact) / math.sqrt(exact * (1.0 - exact) / len(counts))


def check_switch_law_by_enumeration(p: float, stride: int) -> None:
    """Every path of 12 draws, weighed, against both exact oracles."""
    n_max, ks = 12, range(12)
    points = record_points(n_max, stride)
    law = np.zeros(n_max)
    for path in itertools.product((0, 1), repeat=n_max):
        z = np.cumsum(path)
        lower = [z[n - 1] >= exact_ranks(n, p)[0] for n in points]
        switches = sum(a != b for a, b in zip(lower, lower[1:]))
        law[switches] += p ** z[-1] * (1.0 - p) ** (n_max - z[-1])
    assert np.allclose(exact_switch_count_cdf(p, n_max, ks, stride), np.cumsum(law))
    assert math.isclose(
        exact_mean_switch_count(p, n_max, stride), float(np.dot(np.arange(n_max), law))
    )


class TestSwitchStats:
    @pytest.mark.parametrize(
        "name, exact", [("coin", 24.238), ("0.3-0.7", 22.209)], ids=["coin", "0.3-0.7"]
    )
    def test_mean_switch_count_matches_exact_law(self, name, exact):
        # the oscillation of lq_n at a gap, as a rate: 3000 replications of
        # the switch count to n = 1000 against its exact mean
        p, counts = simulated_switch_counts(name, 1)
        mean = exact_mean_switch_count(p, 1000)
        assert round(mean, 3) == exact
        assert abs(mean_z(counts, mean)) < 4.0

    @pytest.mark.parametrize("name", ["coin", "0.3-0.7"])
    def test_switch_count_law_matches_exact_law(self, name):
        # "returns to 0 infinitely often" at n = 1000, as a distribution: the
        # same replications against P(switch_count <= k) at a few k
        p, counts = simulated_switch_counts(name, 1)
        ks = (0, 5, 10, 20)
        for k, exact in zip(ks, exact_switch_count_cdf(p, 1000, ks)):
            assert abs(frequency_z(counts, k, exact)) < 4.0, (k, exact)

    @pytest.mark.parametrize(
        "name, exact", [("coin", 5.515), ("0.3-0.7", 5.490)], ids=["coin", "0.3-0.7"]
    )
    def test_switch_count_at_stride_matches_exact_law(self, name, exact):
        # a record every 10 draws: between records the lower atom's count
        # takes a Bin(10, F) step, in the mean and in P(switch_count <= k)
        p, counts = simulated_switch_counts(name, 10)
        mean = exact_mean_switch_count(p, 1000, stride=10)
        assert round(mean, 3) == exact
        assert abs(mean_z(counts, mean)) < 4.0
        ks = (0, 2, 5, 10)
        for k, exact in zip(ks, exact_switch_count_cdf(p, 1000, ks, stride=10)):
            assert abs(frequency_z(counts, k, exact)) < 4.0, (k, exact)

    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_exact_switch_law_against_enumeration(self, p):
        # every path of 12 draws, weighed, against the dynamic program
        check_switch_law_by_enumeration(p, 1)

    @pytest.mark.parametrize("p, stride", [(0.5, 3), (0.3, 5)])
    def test_exact_switch_law_at_stride_against_enumeration(self, p, stride):
        # records at 3, 6, 9, 12 and at 5, 10, 12: the last one is always n_max
        check_switch_law_by_enumeration(p, stride)

    def test_constant(self):
        traj = Trajectory(
            ns=np.array([1, 2, 3]), lq=np.full(3, 4.0), rq=np.full(3, 4.0), seed=0
        )
        st = switch_stats(traj, 0)
        assert st.switch_count == 0
        assert st.running_min == st.running_max == 4.0

    def test_alternating(self):
        traj = Trajectory(
            ns=np.array([1, 2, 3]),
            lq=np.array([-1.0, 1.0, -1.0]),
            rq=np.array([1.0, 1.0, 1.0]),
            seed=0,
        )
        st = switch_stats(traj, 0)
        assert st.switch_count == 2
        assert st.visits == {-1.0: 2, 1.0: 1}

    def test_burn_in_window(self):
        traj = Trajectory(
            ns=np.array([1, 2, 3, 4]),
            lq=np.array([9.0, 1.0, 1.0, 1.0]),
            rq=np.array([9.0, 1.0, 1.0, 1.0]),
            seed=0,
        )
        assert switch_stats(traj, 2).switch_count == 0
        with pytest.raises(QuantileLimitsError, match="^no records at or beyond burn_in=5$"):
            switch_stats(traj, 5)

    def test_no_records(self):
        empty = np.array([], dtype=np.int64)
        traj = Trajectory(ns=empty, lq=empty.astype(float), rq=empty.astype(float), seed=0)
        with pytest.raises(QuantileLimitsError, match="^trajectory holds no records$") as info:
            switch_stats(traj)
        assert info.value.param is None

    def test_coin_visits_both_sides(self):
        # random-walk recurrence: the full +/-1 band shows up for nearly
        # every seed at n = 1e5 past a short burn-in
        cfg = SimConfig(fair_coin(), 0.5, 100_000, 5, record_stride=1)
        full_band = 0
        for rep in range(100):
            st = switch_stats(run_trajectory(cfg, rep), 1000)
            full_band += st.running_min == -1.0 and st.running_max == 1.0
        assert full_band >= 95

    def test_switching_intensifies_with_length(self):
        short_cfg = SimConfig(fair_coin(), 0.5, 1000, 77, record_stride=1)
        long_cfg = SimConfig(fair_coin(), 0.5, 100_000, 77, record_stride=1)
        short = [switch_stats(run_trajectory(short_cfg, r), 0).switch_count for r in range(30)]
        long = [switch_stats(run_trajectory(long_cfg, r), 0).switch_count for r in range(30)]
        assert np.median(long) > np.median(short)


class TestSandwichCheck:
    def test_point_mass_true(self):
        cfg = SimConfig(point_mass(7.0), 0.4, 200, 5)
        traj = run_trajectory(cfg, 0)
        assert sandwich_check(traj, point_mass(7.0), 0.4, 0.1, 10)

    def test_interior_value_fails(self):
        d = gapped_example()
        traj = Trajectory(
            ns=np.array([1, 2]),
            lq=np.array([0.0, 1.0]),  # 1.0 sits strictly inside the gap
            rq=np.array([3.0, 3.0]),
            seed=0,
        )
        assert not sandwich_check(traj, d, 0.5, 0.1, 0)
        assert gap_interior_hits(traj, d, 0.5) == 1

    def test_far_value_fails(self):
        d = gapped_example()
        traj = Trajectory(
            ns=np.array([1]), lq=np.array([0.0]), rq=np.array([5.0]), seed=0
        )
        assert not sandwich_check(traj, d, 0.5, 0.1, 0)

    @pytest.mark.parametrize(
        "atoms, epsilon, lq, rq",
        [
            # exactly, 1.0 - 0.1 lies below the double 0.9: both records are inside
            ([(0.9, 0.25), (1.0, 0.25), (3.0, 0.5)], 0.1, [0.9, 1.0], [3.0, 3.0]),
            # exactly, 3.0 + 0.3 lies above the double 3.3
            ([(0.0, 0.5), (3.0, 0.3), (3.3, 0.2)], 0.3, [0.0], [3.3]),
        ],
    )
    def test_bounds_are_exact_not_rounded(self, atoms, epsilon, lq, rq):
        traj = Trajectory(
            ns=np.arange(1, len(lq) + 1), lq=np.array(lq), rq=np.array(rq), seed=0
        )
        assert sandwich_check(traj, make_discrete(atoms), 0.5, epsilon, 0)

    @pytest.mark.parametrize("lq, rq", [(-0.5, 3.0), (0.0, 3.5)])
    def test_open_ends_are_outside(self, lq, rq):
        # lq - epsilon and rq + epsilon are doubles here: the records sit on them
        traj = Trajectory(ns=np.array([1]), lq=np.array([lq]), rq=np.array([rq]), seed=0)
        assert not sandwich_check(traj, gapped_example(), 0.5, 0.5, 0)

    def test_epsilon_validated(self):
        cfg = SimConfig(point_mass(7.0), 0.4, 10, 5)
        traj = run_trajectory(cfg, 0)
        message = r"^epsilon must be positive and finite, got 0\.0$"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            sandwich_check(traj, point_mass(7.0), 0.4, 0.0, 0)
        assert info.value.param == "epsilon"

    def test_empty_window(self):
        cfg = SimConfig(point_mass(7.0), 0.4, 10, 5)
        traj = run_trajectory(cfg, 0)
        with pytest.raises(QuantileLimitsError, match="^no records at or beyond burn_in=11$"):
            sandwich_check(traj, point_mass(7.0), 0.4, 0.1, 11)


class TestBlockSchedule:
    def test_first_window(self):
        idx = block_schedule(bernoulli_moments(0.5), 0.25, 5, 10**8)
        assert idx[:2] == (1, 577)  # phi(1) = 576

    def test_second_start_and_truncation(self):
        params = bernoulli_moments(0.5)
        n2 = 577 + phi_of_k(params, 577, 0.25).phi
        # m_2 blows through the cap: no window for k >= 2
        assert block_schedule(params, 0.25, 5, 10**8) == (1, 577, n2)

    def test_small_cap_truncates_everything(self):
        assert block_schedule(bernoulli_moments(0.5), 0.25, 5, 100) == (1,)

    def test_entries_satisfy_recurrence(self):
        params = bernoulli_moments(0.5)
        idx = block_schedule(params, 0.25, 3, 10**8)
        for n_k, m_k in zip(idx[::2], idx[1::2]):
            assert m_k == n_k + phi_of_k(params, n_k, 0.25).phi
        assert all(a < b for a, b in zip(idx, idx[1:]))

    def test_k_max_respected(self):
        assert len(block_schedule(bernoulli_moments(0.5), 0.25, 1, 10**12)) == 2

    @pytest.mark.parametrize("n_cap", [10**17, 2**62], ids=["1e17", "2^62"])
    def test_runaway_phi_truncates(self, n_cap):
        # phi at the fourth index has no value below 2**62: past any cap
        idx = block_schedule(bernoulli_moments(0.5), 0.25, 5, n_cap)
        assert idx == (1, 577, 13116920, 6778363873253772)

    def test_validation(self):
        with pytest.raises(QuantileLimitsError, match="^k_max must be >= 1, got 0$") as info:
            block_schedule(bernoulli_moments(0.5), 0.25, 0, 100)
        assert info.value.param == "k_max"
        with pytest.raises(QuantileLimitsError, match="^n_cap must be >= 1, got 0$") as info:
            block_schedule(bernoulli_moments(0.5), 0.25, 1, 0)
        assert info.value.param == "n_cap"


def exact_fair_block_low_prob(phi: int, k: int) -> float:
    """P(Bin(phi, 1/2) < phi/2 - k) by exact rational summation."""
    cut = Fraction(phi, 2) - k  # S < cut, S integer
    top = math.ceil(cut) - 1
    num = sum(math.comb(phi, j) for j in range(top + 1))
    return float(Fraction(num, 2**phi))


class TestDeviationExperiment:
    def test_fair_coin_frequencies(self):
        freq_low, freq_high = deviation_experiment(0.5, 1, 0.25, 10_000, 2024)
        assert freq_low > 0.30 and freq_high > 0.30
        assert freq_low + freq_high <= 1.0

    @pytest.mark.parametrize("q", [0.5, 0.3])
    def test_high_frequency_matches_exact_tail(self, q):
        # freq_high within 5 standard errors of P(S - phi*q > k) for S ~
        # Binomial(phi, q), summed exactly for the double q, either way
        # (alpha 0.4: phi is 225 and 361, which the rational sum takes in
        # well under a second)
        k, alpha, reps = 1, 0.4, 20_000
        phi = phi_of_k(bernoulli_moments(q), k, alpha).phi
        top = math.floor(phi * Fraction(q) + k)  # the largest S with S - phi*q <= k
        p_true = 1.0 - exact_binomial_cdfs(phi, q)[top]
        _, freq_high = deviation_experiment(q, k, alpha, reps, 2024)
        z = (freq_high - p_true) / math.sqrt(p_true * (1 - p_true) / reps)
        assert abs(z) < 5

    def test_single_rep_is_indicator(self):
        freq_low, freq_high = deviation_experiment(0.5, 1, 0.25, 1, 7)
        assert freq_low in (0.0, 1.0) and freq_high in (0.0, 1.0)

    def test_matches_exact_binomial_probability(self):
        # frequency within 5 standard errors of the exact event probability
        phi = phi_of_k(bernoulli_moments(0.5), 1, 0.25).phi
        p_true = exact_fair_block_low_prob(phi, 1)
        freq_low, _ = deviation_experiment(0.5, 1, 0.25, 20_000, 99)
        se = math.sqrt(p_true * (1 - p_true) / 20_000)
        assert abs(freq_low - p_true) < 5 * se

    def test_block_sums_follow_documented_stream(self):
        # each replication's block must reproduce sample_stream on a
        # Bernoulli distribution with the derived per-replication seed
        q, k, alpha = 0.3, 1, 0.25
        phi = phi_of_k(bernoulli_moments(q), k, alpha).phi
        d = bernoulli(q)
        from quantile_limits.simulate import _bernoulli_block_sums

        sums = _bernoulli_block_sums(q, phi, 5, 4242)
        for rep in range(5):
            draws = sample_stream(d, derive_seed(4242, rep), phi)
            assert sums[rep] == int(draws.sum())

    def test_k1_shares_the_first_block(self, monkeypatch):
        # deviation_experiment at k = 1 and block_event_experiment draw the
        # same phi(1) block: its words are made once, plus the next word
        # per rep
        q, alpha, reps, seed = 0.5, 0.25, 50, 31
        phi = phi_of_k(bernoulli_moments(q), 1, alpha).phi
        simulate._bernoulli_block_sums.cache_clear()
        fresh = block_event_experiment(q, alpha, reps, seed)
        simulate._bernoulli_block_sums.cache_clear()
        drawn = []
        word_matrix = simulate._word_matrix

        def counted(*args, **kwargs):
            out = word_matrix(*args, **kwargs)
            drawn.append(out.size)
            return out

        monkeypatch.setattr(simulate, "_word_matrix", counted)
        deviation_experiment(q, 1, alpha, reps, seed)
        assert block_event_experiment(q, alpha, reps, seed) == fresh
        assert sum(drawn) == reps * phi + reps
        sums = simulate._bernoulli_block_sums(q, phi, reps, seed)
        assert not sums.flags.writeable

    def test_validation(self):
        message = r"^q must be in \(0, 1\), got 0\.0$"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            deviation_experiment(0.0, 1, 0.25, 10, 0)
        assert info.value.param == "q"
        with pytest.raises(QuantileLimitsError, match="^reps must be >= 1, got 0$") as info:
            deviation_experiment(0.5, 1, 0.25, 0, 0)
        assert info.value.param == "reps"


def recount_block_sums(q: float, block_len: int, reps: int, master_seed: int) -> np.ndarray:
    """Block sums as uniforms above 1 - q, from uniform_matrix on each rep's seed."""
    u = qrng.uniform_matrix(qrng.stream_words(master_seed, reps), block_len)
    return np.count_nonzero(u > 1.0 - q, axis=1)


class TestBlockSums:
    """_bernoulli_block_sums: words counted in tiles, on worker threads."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        simulate._bernoulli_block_sums.cache_clear()
        yield
        simulate._bernoulli_block_sums.cache_clear()

    @pytest.mark.parametrize("q", [0.1, 1 / 3, 0.5, 0.9, 1e-9, 1 - 1e-12, 2.0**-60])
    def test_equals_uniform_recount(self, q):
        # at q = 2**-60, 1 - q rounds to 1.0 and no draw is 1
        for block_len in (1, 7, 576):
            simulate._bernoulli_block_sums.cache_clear()
            got = simulate._bernoulli_block_sums(q, block_len, 40, 99)
            assert np.array_equal(got, recount_block_sums(q, block_len, 40, 99))

    @pytest.mark.parametrize("block_len", [1, 7, 64, 150, 1000])
    def test_same_at_one_two_and_three_workers(self, monkeypatch, block_len):
        # 64-word tiles, two tiles' worth per job: blocks of 150 and 1000
        # words are split along their columns, and thread switches as often
        # as the interpreter allows, so jobs finish out of order
        monkeypatch.setattr(simulate, "_TILE", 64)
        monkeypatch.setattr(simulate, "_JOB_TILES", 2)
        want = recount_block_sums(0.3, block_len, 53, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(simulate, "_worker_count", lambda: workers)
                simulate._bernoulli_block_sums.cache_clear()
                got = simulate._bernoulli_block_sums(0.3, block_len, 53, 8)
                assert np.array_equal(got, want), workers
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("block_len", [3_000, 300_000])
    def test_memory_does_not_grow_with_the_block(self, monkeypatch, block_len):
        # 24 blocks of 3k or 300k words on two workers: each running job
        # holds a few tile-sized arrays (0.5 MB each), whereas uniform
        # matrices of the longer blocks took 80 MB
        monkeypatch.setattr(simulate, "_worker_count", lambda: 2)
        tracemalloc.start()
        try:
            sums = simulate._bernoulli_block_sums(0.5, block_len, 24, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(sums.mean() - block_len / 2) < 2 * math.sqrt(block_len)
        assert peak < 6 * 2**20


def _exact_low_high(phi: int, q: float, k: int) -> tuple[int, int]:
    # the definition, in rationals: the largest S with S - phi*q < -k and
    # the smallest with S - phi*q > k, found by a step from float guesses
    mean = phi * Fraction(q)
    low = math.floor(phi * q - k) + 2
    while not low - mean < -k:
        low -= 1
    high = math.ceil(phi * q + k) - 2
    while not high - mean > k:
        high += 1
    return low, high


def _float_integer_phis(q: float) -> list[int]:
    # phi whose float product phi*q is an integer while phi*Fraction(q) is
    # not: the exact product lies within one ulp of an integer
    return [phi for phi in range(1, 5000)
            if (phi * q).is_integer() and phi * Fraction(q) != int(phi * q)][:5]


class TestExactDeviationThresholds:
    """Deviation events compare sums with exact integer cut-offs: S - phi*q
    for the double q in rationals, not a rounded float product."""

    QS = [0.1, 0.3, 1 / 3]

    @pytest.mark.parametrize("q", QS)
    def test_bounds_at_near_integer_products(self, q):
        phis = _float_integer_phis(q)
        assert len(phis) == 5
        for phi in phis:
            for k in (1, 2, 7):
                assert simulate._deviation_bounds(phi, q, k) == _exact_low_high(phi, q, k)

    @settings(max_examples=300, deadline=None)
    @given(
        q=st.sampled_from(QS),
        phi=st.integers(1, 10**13),
        k=st.integers(1, 10**7),
    )
    def test_bounds_match_rational_oracle(self, q, phi, k):
        assert simulate._deviation_bounds(phi, q, k) == _exact_low_high(phi, q, k)

    def test_deviation_frequencies_at_a_tie(self):
        # q = 1/3, alpha = 0.25, k = 1: phi = 801 and phi*q is 267 less
        # 1.5e-14, which float rounds to 267.0; a sum of 268 overshoots by
        # more than k = 1 (the float difference is exactly 1)
        q, alpha, k, reps, seed = 1 / 3, 0.25, 1, 2000, 17
        phi = phi_of_k(bernoulli_moments(q), k, alpha).phi
        assert phi == 801 and phi * q == 267.0
        sums = simulate._bernoulli_block_sums(q, phi, reps, seed)
        assert np.count_nonzero(sums == 268) > 20
        mean = phi * Fraction(q)
        want_low = sum(int(s) - mean < -k for s in sums) / reps
        want_high = sum(int(s) - mean > k for s in sums) / reps
        assert deviation_experiment(q, k, alpha, reps, seed) == (want_low, want_high)

    def test_first_block_event_at_a_tie(self, monkeypatch):
        # q = 0.1, alpha = 0.24: phi(1) = 4670 and phi*q is 467 plus
        # 2.6e-14, which float rounds to 467.0; a sum of 466 undershoots by
        # more than 1.  With F(t) = 0 every E_1 holds, so C_1 is D_1.
        q, alpha, reps, seed = 0.1, 0.24, 2000, 23
        phi_a = phi_of_k(bernoulli_moments(q), 1, alpha).phi
        assert phi_a == 4670 and phi_a * q == 467.0
        monkeypatch.setattr(simulate, "_binomial_cdf", lambda t, n, q: 0.0)
        sums = simulate._bernoulli_block_sums(q, phi_a, reps, seed)
        assert np.count_nonzero(sums == 466) > 20
        mean = phi_a * Fraction(q)
        want = sum(int(s) - mean < -1 for s in sums) / reps
        assert block_event_experiment(q, alpha, reps, seed) == want

    def test_second_block_cut_off_at_a_tie(self, monkeypatch):
        # q = 0.3, alpha = 0.1: phi(m_1) * q lies 1.1e-7 below an integer
        # that float rounds it to; t is the largest S with S - phi*q <= m1
        q, alpha = 0.3, 0.1
        params = bernoulli_moments(q)
        m1 = 1 + phi_of_k(params, 1, alpha).phi
        phi_b = phi_of_k(params, m1, alpha).phi
        assert (phi_b * q).is_integer() and phi_b * Fraction(q) < phi_b * q
        seen = []
        monkeypatch.setattr(simulate, "_binomial_cdf", lambda t, n, q: seen.append(t) or 0.5)
        block_event_experiment(q, alpha, 1, 0)
        mean = phi_b * Fraction(q)
        (t,) = seen
        assert t - mean <= m1 < t + 1 - mean


def exact_binomial_cdfs(n: int, q: float) -> list[float]:
    """P(Binomial(n, q) <= t) for t = 0..n, summed exactly for the double q."""
    qf = Fraction(q)
    pmf = [math.comb(n, j) * qf**j * (1 - qf) ** (n - j) for j in range(n + 1)]
    return [float(c) for c in itertools.accumulate(pmf)]


def block_event_ppf_oracle(q: float, alpha: float, reps: int, master_seed: int) -> float:
    """C_1 frequency with E_1 drawn as binom.ppf at the stream's next uniform."""
    from scipy.stats import binom

    params = bernoulli_moments(q)
    phi_a = phi_of_k(params, 1, alpha).phi
    m1 = 1 + phi_a
    phi_b = phi_of_k(params, m1, alpha).phi
    hits = 0
    for rep in range(reps):
        u = qrng.uniforms(derive_seed(master_seed, rep), phi_a + 1)
        d_sum = int(np.count_nonzero(u[:phi_a] > 1.0 - q))
        e_sum = binom.ppf(u[phi_a], phi_b, q)
        hits += bool(d_sum - phi_a * q < -1.0 and e_sum - phi_b * q > m1)
    return float(hits) / reps


class TestBinomialCdf:
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 150])
    @pytest.mark.parametrize("q", [0.001, 0.1, 0.3, 0.5, 0.77, 0.999])
    def test_matches_exact_sum(self, n, q):
        exact_cdf = exact_binomial_cdfs(n, q)
        for t in range(-2, n + 2):
            exact = 0.0 if t < 0 else exact_cdf[min(t, n)]
            got = simulate._binomial_cdf(t, n, q)
            assert math.isclose(got, exact, rel_tol=1e-13, abs_tol=1e-30), (t, got, exact)

    @pytest.mark.parametrize(
        "n,q",
        [(10**6, 1e-9), (10**6, 1e-4), (5 * 10**7, 1e-6), (10**6, 1 - 1e-9),
         (10**6, 1 - 1e-4), (5 * 10**7, 1 - 1e-6), (2000, 0.02), (2000, 0.98)],
    )
    def test_matches_scipy_near_the_ends(self, n, q):
        # q near 0 or 1: the mode is at 0 or n, or at most 100 atoms from
        # it; t runs from below the summed window through it to above it.
        # scipy itself is off by 1.4e-9 at n = 5e7, q = 1e-6, t = 11 (an
        # mpmath sum agrees with the helper to 1e-15 there)
        from scipy.stats import binom

        mode = min(int((n + 1) * q), n)
        sd = math.sqrt(n * q * (1 - q))
        ts = {0, n - 1, n, mode - 1, mode, mode + 1}
        ts |= {int(mode + z * sd) + d for z in (-40, -5, -1, 1, 5, 40) for d in (-31, 0, 31)}
        for t in sorted(ts):
            got = simulate._binomial_cdf(t, n, q)
            want = float(binom.cdf(t, n, q))
            assert math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-28), (t, got, want)

    def test_large_n_against_scipy(self):
        from scipy.stats import binom

        n, q = 5_137_317_727_695, 0.05  # phi(m_1) at q = 0.05, alpha = 0.1
        sd = math.sqrt(n * q * (1 - q))
        for z in (-3.0, -0.5, 0.0, 0.2, 4.0):
            t = int(n * q + z * sd)
            got = simulate._binomial_cdf(t, n, q)
            assert math.isclose(got, binom.cdf(t, n, q), rel_tol=1e-9)

    def test_memory_does_not_grow_with_n(self):
        # about 1.2e7 atoms in the window at n ~ 5e12: unchunked, each
        # array of it would take ~100 MB
        params = bernoulli_moments(0.05)
        m1 = 1 + phi_of_k(params, 1, 0.1).phi
        n = phi_of_k(params, m1, 0.1).phi
        assert n > 10**12
        tracemalloc.start()
        try:
            f = simulate._binomial_cdf(int(n * 0.05) + m1, n, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 < f < 0.6
        assert peak < 8 * 2**20


class TestBlockEventExperiment:
    @pytest.mark.parametrize(
        "q,alpha,seed,reps",
        [(0.5, 0.25, 1, 4000), (0.5, 0.25, 5249979066121302517, 2000),
         (0.5, 0.1, 7, 1500), (0.3, 0.25, 11, 2000), (0.7, 0.4, 12, 3000),
         (0.05, 0.1, 13, 600), (0.05, 0.25, 2**64 - 1, 1000), (0.93, 0.1, 14, 600),
         (0.5, 0.25, 15, 1)],
    )
    def test_equals_ppf_recount(self, q, alpha, seed, reps):
        # the tail comparison is the old per-replication binom.ppf draw
        assert block_event_experiment(q, alpha, reps, seed) == block_event_ppf_oracle(
            q, alpha, reps, seed
        )

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("alpha", [0.1, 0.25])
    def test_tail_decision_is_ppf_decision(self, q, alpha):
        # E_1 alone, over 4000 uniforms: u > F(t) iff ppf(u) - phi*q > m1
        from scipy.stats import binom

        params = bernoulli_moments(q)
        m1 = 1 + phi_of_k(params, 1, alpha).phi
        n = phi_of_k(params, m1, alpha).phi
        e = np.arange(int(n * q + m1) - 50, int(n * q + m1) + 50, dtype=np.float64)
        t = int(e[(e - n * q) <= m1].max())
        assert (t + 1) - n * q > m1
        u = qrng.uniforms(derive_seed(99, int(q * 100 + alpha * 1000)), 4000)
        want = (binom.ppf(u, n, q) - n * q) > m1
        assert np.array_equal(u > simulate._binomial_cdf(t, n, q), want)
        assert 0.2 < want.mean() < 0.8

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_row_groups_on_threads_equal_ppf_recount(self, monkeypatch, cpus):
        # row groups of 64 replications, the last one short: 16 jobs of the
        # E_1 comparison on up to three threads
        monkeypatch.setattr(simulate, "_TILE", 64)
        _use_cpus(monkeypatch, cpus)
        monkeypatch.setenv("QL_THREADS", str(cpus))
        assert block_event_experiment(0.3, 0.25, 1000, 11) == block_event_ppf_oracle(
            0.3, 0.25, 1000, 11
        )

    def test_memory_per_replication(self, monkeypatch):
        # qlim blocks' two experiments at k = 1 on two threads: past
        # tile-sized arrays they hold the cached first-block sums, 8 bytes a
        # replication, and a mask of them at a time
        _use_cpus(monkeypatch, 2)
        monkeypatch.setenv("QL_THREADS", "2")

        def peak(reps: int) -> int:
            simulate._bernoulli_block_sums.cache_clear()
            tracemalloc.start()
            try:
                block_event_experiment(0.5, 0.25, reps, 3)
                deviation_experiment(0.5, 1, 0.25, reps, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                simulate._bernoulli_block_sums.cache_clear()

        assert (peak(3 * 10**5) - peak(10**5)) / (2 * 10**5) <= 16

    def test_unreachable_second_block_names_q(self, monkeypatch):
        # phi(m1) passes 2**62 at q = 1e-5, where phi(1) is 57598273: m1
        # comes of q, so q is named, before any draw
        monkeypatch.setattr(simulate, "_word_matrix", None)
        params = bernoulli_moments(1e-5)
        message = re.escape(
            f"no feasible n below 2^62 for k=57598274, sigma={params.sigma!r}, "
            f"rho={params.rho!r}, alpha=0.25"
        )
        with pytest.raises(QuantileLimitsError, match=f"^{message}$") as info:
            block_event_experiment(1e-5, 0.25, 1, 1)
        assert info.value.param == "q"

    def test_fair_coin_frequency(self):
        freq = block_event_experiment(0.5, 0.25, 10_000, 2024)
        assert freq > 1.0 / 16.0

    def test_single_rep_is_indicator(self):
        assert block_event_experiment(0.5, 0.25, 1, 3) in (0.0, 1.0)

    def test_matches_independence_product_oracle(self):
        # P(C_1) = P(D_1) * P(E_1): D exact by rational binomial summation,
        # E bracketed by the certified normal window; compare within 3 se
        params = bernoulli_moments(0.5)
        phi_a = phi_of_k(params, 1, 0.25).phi
        m1 = 1 + phi_a
        phi_b = phi_of_k(params, m1, 0.25).phi
        p_d = exact_fair_block_low_prob(phi_a, 1)
        z = m1 / (params.sigma * math.sqrt(phi_b))
        be = 3.0 * params.rho / (params.sigma**3 * math.sqrt(phi_b))
        p_e_lo, p_e_hi = 1.0 - std_normal_cdf(z) - be, 1.0 - std_normal_cdf(z) + be
        reps = 10_000
        freq = block_event_experiment(0.5, 0.25, reps, 515)
        se = math.sqrt(0.17 * 0.83 / reps)
        assert p_d * p_e_lo - 3 * se < freq < p_d * p_e_hi + 3 * se

    def test_numpy_q_reaches_the_tail_as_float(self, monkeypatch):
        # float32 promotion in q / (1 - q) moved F(t) in its 7th digit
        seen, tail = [], simulate._binomial_cdf

        def recorded(t, n, q):
            seen.append(q)
            return tail(t, n, q)

        monkeypatch.setattr(simulate, "_binomial_cdf", recorded)
        q32 = np.float32(0.3)
        assert block_event_experiment(q32, 0.25, 50, 9) == block_event_experiment(
            float(q32), 0.25, 50, 9
        )
        assert len(seen) == 2 and all(type(q) is float for q in seen)

    def test_validation(self):
        message = r"^q must be in \(0, 1\), got 1\.0$"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            block_event_experiment(1.0, 0.25, 10, 0)
        assert info.value.param == "q"
        with pytest.raises(QuantileLimitsError, match="^reps must be >= 1, got 0$") as info:
            block_event_experiment(0.5, 0.25, 0, 0)
        assert info.value.param == "reps"


class TestRunReplicated:
    def test_point_mass_convergence_all_pass(self):
        cfg = SimConfig(point_mass(7.0), 0.3, 1000, 8, replications=100)
        report = run_replicated(cfg, "convergence")
        assert report["aggregate"] == {"pass_count": 100, "fail_count": 0, "total": 100}

    def test_switch_analysis_schema(self):
        cfg = SimConfig(fair_coin(), 0.5, 2000, 3, replications=5)
        report = run_replicated(cfg, "switch_stats", burn_in=100, min_switches=1)
        row = report["replications"][0]
        assert {"rep", "seed", "switch_count", "running_min", "running_max", "visits", "pass"} <= set(row)
        assert report["config"]["p"] == 0.5

    def test_sandwich_analysis_schema(self):
        cfg = SimConfig(gapped_example(), 0.5, 2000, 3, replications=4)
        report = run_replicated(cfg, "sandwich_check", burn_in=100, epsilon=0.1)
        for row in report["replications"]:
            assert isinstance(row["pass"], bool)
            assert row["interior_gap_hits"] == 0

    def test_reports_are_byte_identical(self):
        cfg = SimConfig(fair_coin(), 0.5, 3000, 55, replications=8)
        a = report_to_json_bytes(run_replicated(cfg, "switch_stats", burn_in=10))
        b = report_to_json_bytes(run_replicated(cfg, "switch_stats", burn_in=10))
        assert a == b

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        cfg = SimConfig(gapped_example(), 0.5, 2000, 9, replications=6)
        monkeypatch.setenv("QL_THREADS", "1")
        a = report_to_json_bytes(run_replicated(cfg, "sandwich_check", burn_in=50, epsilon=0.1))
        monkeypatch.setenv("QL_THREADS", "4")
        b = report_to_json_bytes(run_replicated(cfg, "sandwich_check", burn_in=50, epsilon=0.1))
        assert a == b

    def test_worker_count_clamped_to_cpus(self, monkeypatch):
        # calls _worker_count only: no pool is started
        _use_cpus(monkeypatch, 3)
        for raw, want in [("2", 2), ("3", 3), ("1000000", 3), ("0", 3),
                          ("-4", 3), ("two", 3), ("1.5", 3), ("", 3)]:
            monkeypatch.setenv("QL_THREADS", raw)
            assert simulate._worker_count() == want, raw
        monkeypatch.delenv("QL_THREADS")
        assert simulate._worker_count() == 3

    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        # one CPU allowed on a four-CPU machine: one worker, whatever QL_THREADS
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
        _use_cpus(monkeypatch, 1)
        for raw in ("", "2", "4"):
            monkeypatch.setenv("QL_THREADS", raw)
            assert simulate._worker_count() == 1, raw
        # without an affinity call, the machine's CPU count
        monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
        monkeypatch.setenv("QL_THREADS", "")
        assert simulate._worker_count() == 4

    def test_unknown_analysis_rejected(self):
        cfg = SimConfig(fair_coin(), 0.5, 10, 0)
        message = re.escape(
            "analysis must be one of ('convergence', 'switch_stats', 'sandwich_check'), "
            "got 'spectral'"
        )
        with pytest.raises(QuantileLimitsError, match=f"^{message}$"):
            run_replicated(cfg, "spectral")
        with pytest.raises(QuantileLimitsError, match="^sandwich_check requires epsilon$") as info:
            run_replicated(cfg, "sandwich_check")  # epsilon missing
        assert info.value.param == "epsilon"

    @pytest.mark.parametrize(
        "analysis,kwargs,param",
        [
            ("convergence", {"burn_in": -1}, "burn_in"),
            ("convergence", {"min_switches": -1}, "min_switches"),
            ("switch_stats", {"burn_in": 101}, "burn_in"),
            ("sandwich_check", {"epsilon": 0.1, "burn_in": 101}, "burn_in"),
            ("sandwich_check", {"epsilon": math.nan}, "epsilon"),
            ("sandwich_check", {"epsilon": -0.1}, "epsilon"),
        ],
    )
    def test_rejected_before_first_trajectory(self, analysis, kwargs, param):
        cfg = SimConfig(fair_coin(), 0.5, 100, 0)
        seen = []
        bad = kwargs[param]
        rule = "positive and finite" if param == "epsilon" else ">= 0" if bad < 0 else "<= 100"
        message = re.escape(f"{param} must be {rule}, got {bad!r}")
        with pytest.raises(QuantileLimitsError, match=f"^{message}$") as info:
            run_replicated(cfg, analysis, on_trajectory=lambda r, t: seen.append(r), **kwargs)
        assert info.value.param == param
        assert seen == []

    @pytest.mark.parametrize(
        "analysis, kwargs, message",
        [
            ("convergence", {"epsilon": math.nan},
             "epsilon is only valid with analysis 'sandwich_check', not 'convergence'"),
            ("switch_stats", {"epsilon": -5.0},
             "epsilon is only valid with analysis 'sandwich_check', not 'switch_stats'"),
            ("convergence", {"burn_in": 99999999},
             "burn_in must be 0 with analysis 'convergence', got 99999999"),
        ],
        ids=["convergence-epsilon", "switch_stats-epsilon", "convergence-burn_in"],
    )
    def test_unread_setting_refused(self, analysis, kwargs, message):
        cfg = SimConfig(fair_coin(), 0.5, 100, 0)
        with pytest.raises(QuantileLimitsError, match=f"^{re.escape(message)}$") as info:
            run_replicated(cfg, analysis, **kwargs)
        assert info.value.param == next(iter(kwargs))

    def test_report_json_is_strict(self):
        # no NaN or Infinity token, which a strict JSON parser refuses
        with pytest.raises(ValueError, match="not JSON compliant"):
            report_to_json_bytes({"epsilon": math.nan})

    def test_burn_in_at_n_max_accepted(self):
        cfg = SimConfig(fair_coin(), 0.5, 100, 0)
        report = run_replicated(cfg, "switch_stats", burn_in=100, min_switches=0)
        assert report["aggregate"]["pass_count"] == 1

    def test_on_trajectory_callback(self):
        seen = []
        cfg = SimConfig(point_mass(1.0), 0.5, 50, 0, replications=3)
        run_replicated(cfg, "convergence", on_trajectory=lambda r, t: seen.append((r, len(t))))
        assert sorted(seen) == [(0, 50), (1, 50), (2, 50)]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_on_trajectory_error_propagates(self, monkeypatch, threads):
        # the error reaches the caller once the threads are joined, and no
        # replication starts once it is recorded: on one thread none after
        # rep 1, on two only those the other thread took before rep 1 failed
        _use_cpus(monkeypatch, 2)
        monkeypatch.setenv("QL_THREADS", threads)
        seen = []

        def on_trajectory(rep, traj):
            if rep == 1:
                raise RuntimeError("write failed")
            seen.append(rep)

        cfg = SimConfig(fair_coin(), 0.5, 200, 4, replications=6)
        with pytest.raises(RuntimeError, match="write failed"):
            run_replicated(cfg, "convergence", on_trajectory=on_trajectory)
        assert 0 in seen and 1 not in seen
        if threads == "1":
            assert seen == [0]
        assert _pool_threads() == []


def _reference_row(cfg, rep, analysis, burn_in=0, epsilon=None, min_switches=10):
    # the whole trajectory and the report row the public analyses give it
    traj = run_trajectory(cfg, rep)
    d = cfg.distribution
    row = {"rep": rep, "seed": traj.seed}
    if analysis == "convergence":
        row["final_n"] = int(traj.ns[-1])
        row["final_lq"] = float(traj.lq[-1])
        row["final_rq"] = float(traj.rq[-1])
        row["pass"] = row["final_lq"] == row["final_rq"] == d.left_quantile(cfg.p)
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
    return traj, row


# no multiple of _CHUNK or _CSV_ROWS
STREAM_N_MAX = 2 * simulate._CHUNK + 1001

# (distribution, p): the word path on the coin and on two atoms at their
# gap p = 0.3 (float-product ranks), a support holding -0.0, and the
# guide path on 16 atoms with a gap at p = 1/2
STREAM_SUPPORTS = {
    "coin": (fair_coin(), 0.5),
    "gap-0.3": (make_discrete([(0.0, 0.3), (1.0, 0.7)]), 0.3),
    "neg-zero": (make_discrete([(-0.0, 0.5), (1.0, 0.5)]), 0.5),
    "guide-16": (make_discrete([(j * 1.5, 1 / 16) for j in range(16)]), 0.5),
}


def _analysis_kwargs(analysis: str, burn_in: int) -> dict:
    if analysis == "convergence":
        return {}
    if analysis == "switch_stats":
        return {"burn_in": burn_in, "min_switches": 3}
    return {"burn_in": burn_in, "epsilon": 2.0}


def _first_block_end(cfg) -> int:
    # the record point that ends the first block of a replication: the last
    # one the first chunk that completes any completes
    points = simulate._StridePoints(cfg.n_max, cfg.record_stride)
    r1 = next(r1 for *_, r1 in simulate._chunks(len(cfg.distribution), points) if r1)
    return points[r1 - 1]


class TestStreamedReplications:
    """run_replicated folds and writes each replication's records a block
    (one chunk of the counting kernel) at a time, without a Trajectory.
    Its report rows and CSV bytes, and the Trajectory it hands to
    on_trajectory, equal run_trajectory plus the public analyses plus
    trajectory_csv_bytes on the whole trajectory, at every block edge."""

    def assert_streamed_as_whole(self, tmp_path, cfg, analysis, trajectories=True, **kwargs):
        paths, assembled = {}, {}
        report = run_replicated(
            cfg, analysis,
            csv_path=lambda rep: paths.setdefault(rep, tmp_path / f"traj_{rep}.csv"),
            on_trajectory=assembled.__setitem__ if trajectories else None,
            **kwargs,
        )
        assert len(report["replications"]) == cfg.replications
        for rep, row in enumerate(report["replications"]):
            traj, want = _reference_row(cfg, rep, analysis, **kwargs)
            assert row == want
            assert paths[rep].read_bytes() == trajectory_csv_bytes(traj)
            if trajectories:
                assert_same_records(assembled[rep], traj)
        return report

    @pytest.mark.parametrize("analysis", simulate.ANALYSES)
    @pytest.mark.parametrize("stride", [1, 7, simulate._CHUNK + 3])
    @pytest.mark.parametrize("support", list(STREAM_SUPPORTS))
    def test_rows_and_bytes_match_the_whole_trajectory(self, tmp_path, support, stride, analysis):
        d, p = STREAM_SUPPORTS[support]
        cfg = SimConfig(d, p, STREAM_N_MAX, 31, record_stride=stride, replications=2)
        kwargs = _analysis_kwargs(analysis, _first_block_end(cfg) + 1)
        report = self.assert_streamed_as_whole(tmp_path, cfg, analysis, **kwargs)
        if support == "neg-zero":
            assert b"-0.0" in (tmp_path / "traj_0.csv").read_bytes()
            if analysis == "switch_stats":
                assert "-0.0" in report["replications"][0]["visits"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("analysis", ["switch_stats", "sandwich_check"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("support", ["coin", "guide-16"])
    def test_burn_in_at_a_block_edge(self, tmp_path, monkeypatch, support, offset, analysis, threads):
        # burn_in one record before, at and just past the end of the first
        # block: it keeps two, one or none of that block's records
        _use_cpus(monkeypatch, 2)
        monkeypatch.setenv("QL_THREADS", threads)
        d, p = STREAM_SUPPORTS[support]
        cfg = SimConfig(d, p, STREAM_N_MAX, 8, record_stride=1, replications=3)
        kwargs = _analysis_kwargs(analysis, _first_block_end(cfg) + offset)
        self.assert_streamed_as_whole(tmp_path, cfg, analysis, trajectories=False, **kwargs)

    def test_switch_on_a_block_edge(self, tmp_path, monkeypatch):
        # 64-draw chunks and 50-row CSV pieces: the left quantile switches
        # between the last record of one block and the first of the next
        # in several replications, and the switch count carries over
        monkeypatch.setattr(simulate, "_CHUNK", 64)
        monkeypatch.setattr(simulate, "_CSV_ROWS", 50)
        cfg = SimConfig(fair_coin(), 0.5, 3001, 12, record_stride=1, replications=20)
        self.assert_streamed_as_whole(tmp_path, cfg, "switch_stats", burn_in=0, min_switches=3)
        on_edge = 0
        for rep in range(cfg.replications):
            lq = run_trajectory(cfg, rep).lq
            on_edge += int(np.count_nonzero(lq[64::64] != lq[63:-1:64]))
        assert on_edge >= 3

    @given(
        st.lists(st.sampled_from([0.0, 1.0, -1.0, 3.0, 3.5, math.inf, -math.inf, math.nan]),
                 min_size=1, max_size=40),
        st.integers(min_value=0, max_value=42),
        st.lists(st.integers(min_value=1, max_value=39), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_folds_over_any_split_match_one_block(self, values, burn_in, cuts):
        # NaN, infinities and values in and off the gap of the figure; the
        # switch fold merges its runs into the visits every 3 runs
        lq = np.array(values)
        rq, ns = lq[::-1].copy(), np.arange(1, len(lq) + 1)
        d = gapped_example()
        folds = (
            simulate._SwitchFold(burn_in),
            simulate._SandwichFold(d, 0.5, 0.5, burn_in),
            simulate._GapFold(d.quantile_pair(0.5)),
        )
        edges = sorted({0, len(lq), *(c for c in cuts if c < len(lq))})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_folds, "_RUNS", 3)
            for i, j in zip(edges, edges[1:]):
                for fold in folds:
                    fold.add(ns[i:j], lq[i:j], rq[i:j])
        whole = _traj(ns, lq, rq)
        assert folds[2].hits == gap_interior_hits(whole, d, 0.5)
        if burn_in > len(lq):
            for fold in folds[:2]:
                with pytest.raises(QuantileLimitsError, match="^no records at or beyond"):
                    fold.result()
            return
        assert folds[1].result() == sandwich_check(whole, d, 0.5, 0.5, burn_in)
        split, one = folds[0].result(), switch_stats(whole, burn_in)
        assert split.switch_count == one.switch_count
        assert repr((split.running_min, split.running_max)) == repr((one.running_min, one.running_max))
        assert sorted(map(repr, split.visits.items())) == sorted(map(repr, one.visits.items()))

    @pytest.mark.parametrize(
        "n_max, stride", [(1, 1), (10, 3), (12, 3), (5, 7), (7, 7), (70_001, 32_771)]
    )
    def test_stride_points_stand_in_for_their_array(self, n_max, stride):
        want = np.arange(stride, n_max + 1, stride, dtype=np.int64)
        if len(want) == 0 or want[-1] != n_max:
            want = np.append(want, n_max)
        points = simulate._StridePoints(n_max, stride)
        assert len(points) == len(want)
        assert [points[r] for r in range(len(want))] == want.tolist()
        for r0 in range(len(want) + 1):
            for r1 in range(len(want) + 2):
                assert np.array_equal(points[r0:r1], want[r0:r1])
        for n in sorted({0, 1, 2, stride - 1, stride, stride + 1, n_max - 1, n_max, n_max + 1}):
            for side in ("left", "right"):
                assert points.searchsorted(n, side=side) == np.searchsorted(want, n, side=side)


class TestReplicationGroups:
    """run_replicated runs consecutive replications as the lanes of one
    record plan (_Plan), a block at a time on one workspace: whatever the
    group size and the threads, every CSV and the report are the bytes of
    run_trajectory and trajectory_csv_bytes one replication at a time, a
    failure removes every file of its group, and a lane holds no block
    while the others run."""

    @staticmethod
    def run(monkeypatch, tmp_path, cfg, analysis, **kwargs):
        # the report, the CSV paths by rep, and the lanes of each plan made
        sizes, plan = [], simulate._Plan

        class Spied(plan):
            def __init__(self, cfg, lanes):
                sizes.append(lanes)
                super().__init__(cfg, lanes)

        monkeypatch.setattr(simulate, "_Plan", Spied)
        paths = {}
        report = run_replicated(
            cfg, analysis,
            csv_path=lambda rep: paths.setdefault(rep, tmp_path / f"traj_{rep}.csv"),
            **kwargs,
        )
        return report, paths, sorted(sizes)

    @pytest.mark.parametrize(
        "lanes, threads, groups",
        [(3, "1", [1, 3, 3]), (3, "2", [1, 3, 3]), (3, "3", [1, 3, 3]),
         (16, "1", [7]), (16, "2", [3, 4]), (16, "3", [1, 3, 3])],
    )
    @pytest.mark.parametrize("support, stride", [("coin", 1), ("guide-16", 7), ("neg-zero", 1)])
    def test_groups_give_the_bytes_of_one_replication(
        self, tmp_path, monkeypatch, support, stride, lanes, threads, groups
    ):
        _use_cpus(monkeypatch, 3)
        monkeypatch.setenv("QL_THREADS", threads)
        monkeypatch.setattr(simulate, "_LANES", lanes)
        d, p = STREAM_SUPPORTS[support]
        cfg = SimConfig(d, p, STREAM_N_MAX, 21, record_stride=stride, replications=7)
        analysis = "switch_stats" if support != "guide-16" else "sandwich_check"
        kwargs = _analysis_kwargs(analysis, 100)
        report, paths, sizes = self.run(monkeypatch, tmp_path, cfg, analysis, **kwargs)
        assert sizes == groups
        rows = []
        for rep in range(cfg.replications):
            traj, row = _reference_row(cfg, rep, analysis, **kwargs)
            assert paths[rep].read_bytes() == trajectory_csv_bytes(traj)
            rows.append(row)
        want = {**report, "replications": rows}
        assert report_to_json_bytes(report) == report_to_json_bytes(want)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failure_removes_every_file_of_its_group(self, tmp_path, monkeypatch, threads):
        # lane 2 of the group of reps 0-2 fails after its first block, once
        # every lane has written one: all three files go, the error names
        # rep 2 and its seed, and on one thread no later group starts
        _use_cpus(monkeypatch, 2)
        monkeypatch.setenv("QL_THREADS", threads)
        monkeypatch.setattr(simulate, "_LANES", 3)
        cfg = SimConfig(fair_coin(), 0.5, STREAM_N_MAX, 9, record_stride=1, replications=6)
        seed, blocks = derive_seed(9, 2), simulate._trajectory_blocks

        def failing(plan, rep_seed, *args):
            for i, block in enumerate(blocks(plan, rep_seed, *args)):
                if rep_seed == seed and i == 1:
                    raise RuntimeError("lane failed")
                yield block

        monkeypatch.setattr(simulate, "_trajectory_blocks", failing)
        with pytest.raises(RuntimeError, match="^lane failed") as info:
            self.run(monkeypatch, tmp_path, cfg, "convergence")
        assert info.value.__notes__ == [f"replication 2, seed {seed}"]
        left = sorted(p.name for p in tmp_path.iterdir())
        assert not {"traj_0.csv", "traj_1.csv", "traj_2.csv"} & set(left)
        if threads == "1":
            assert left == []
        else:  # the other group ran to its end on the other thread
            assert left in ([], ["traj_3.csv", "traj_4.csv", "traj_5.csv"])
        assert _pool_threads() == []

    def test_memory_does_not_grow_with_lanes(self, tmp_path, monkeypatch):
        # one thread, the coin at stride 1: a group of 16 lanes peaks within
        # one chunk-length row of a group of 3, which already holds the
        # plan's ranks and n texts while its middle lane runs; a lane that
        # held its block, or its counts, while the others run would add
        # more than a row each
        monkeypatch.setenv("QL_THREADS", "1")
        peaks = []
        for reps in (3, 16):
            cfg = SimConfig(fair_coin(), 0.5, STREAM_N_MAX, 3, record_stride=1, replications=reps)
            out = tmp_path / str(reps)
            out.mkdir()
            run_replicated(cfg, "switch_stats", min_switches=0,
                           csv_path=lambda rep: out / f"warm_{rep}.csv")
            tracemalloc.start()
            try:
                run_replicated(cfg, "switch_stats", min_switches=0,
                               csv_path=lambda rep: out / f"traj_{rep}.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < simulate._CHUNK * 8, peaks


def wide_spec(seed: int) -> dict:
    """The 128-atom support of the benchmark's simulate-wide workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads._wide_spec(seed)


# n on both sides of every power of ten, the int64 ends, -1 and 0
N_EDGES = sorted(
    {0, -1, 2**63 - 1, -(2**63)}
    | {s * (10**k + e) for k in range(19) for e in (-1, 0, 1) for s in (1, -1)}
)
# float64 bit patterns: +-0, +-inf, quiet and signalling NaNs with payloads,
# subnormals, the smallest normals (the widest repr) and +-1
BIT_EDGES = [
    0, 1 << 63, 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000,
    0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0123, 0x7FF0_0000_0000_0001,
    0x7FFF_FFFF_FFFF_FFFF, 1, 0x800F_FFFF_FFFF_FFFF, 0x0010_0000_0000_0000,
    0x8010_0000_0000_0000, 0x3FF0_0000_0000_0000, 0xBFF0_0000_0000_0000,
]


@st.composite
def csv_blocks(draw):
    """(ns, lq, rq) of one block: n drawn from a few values (edges mixed in)
    or a run of consecutive record points, each side from one pool of 1,
    2-4 or many float64 bit patterns, at _CSV_ROWS +- 1 rows or a few."""
    rows = draw(st.sampled_from([1, 2, 5, simulate._CSV_ROWS - 1, simulate._CSV_ROWS,
                                 simulate._CSV_ROWS + 1]))
    some_n = st.one_of(st.sampled_from(N_EDGES), st.integers(-(2**63), 2**63 - 1))
    ns = draw(st.lists(some_n, min_size=1, max_size=6))
    stride = draw(st.sampled_from([0, 1, 7]))
    some_bits = st.one_of(st.sampled_from(BIT_EDGES), st.integers(0, 2**64 - 1),
                          st.floats(width=64).map(lambda v: np.float64(v).view(np.uint64)))
    size = draw(st.sampled_from([1, 2, 3, 4, 5, 40]))
    pool = np.array(draw(st.lists(some_bits, min_size=size, max_size=size, unique_by=int)),
                    dtype=np.uint64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if stride:
        start = min(ns[0], 2**63 - 1 - stride * rows)
        ns = start + stride * np.arange(rows, dtype=np.int64)
    else:
        ns = rng.choice(np.array(ns, dtype=np.int64), rows)
    return ns, rng.choice(pool, rows).view(np.float64), rng.choice(pool, rows).view(np.float64)


def _traj(ns, lq, rq) -> Trajectory:
    return Trajectory(
        np.asarray(ns, dtype=np.int64),
        np.asarray(lq, dtype=np.float64),
        np.asarray(rq, dtype=np.float64),
        seed=0,
    )


class TestTrajectoryCsv:
    """trajectory_csv_bytes against the one-f-string-per-row oracle."""

    ATOMS = [-0.0, 0.1, 0.30000000000000004, 5e-324, 1e-300, 1e16, 1e22]

    def assert_oracle_bytes(self, traj) -> bytes:
        out = trajectory_csv_bytes(traj)
        assert out == trajectory_csv_bytes_rowwise(traj)
        return out

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_simulated_atoms(self, p):
        d = make_discrete((x, 1.0 / len(self.ATOMS)) for x in self.ATOMS)
        traj = run_trajectory(SimConfig(d, p, 3000, 5, record_stride=1), 0)
        self.assert_oracle_bytes(traj)

    def test_atoms_keep_their_repr(self):
        vals = np.array(self.ATOMS)
        traj = _traj(np.arange(1, 50), np.resize(vals, 49), np.resize(vals[::-1], 49))
        lines = self.assert_oracle_bytes(traj).splitlines()
        assert lines[1] == b"1,-0.0,1e+22"
        assert lines[3] == b"3,0.30000000000000004,1e-300"

    def test_values_off_the_support(self):
        neg_nan = np.array([0xFFF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0]
        vals = [math.nan, neg_nan, math.inf, -math.inf, -1.5, 2.2250738585072014e-308,
                -5e-324, 123456789.123, 1e-5, 1e16 + 2, -0.0, 0.0]
        rng = np.random.default_rng(3)
        lq = np.concatenate([vals, rng.standard_normal(200) * 1e6])
        rq = np.concatenate([vals[::-1], rng.choice(vals, 200)])
        out = self.assert_oracle_bytes(_traj(np.arange(1, len(lq) + 1), lq, rq))
        assert out.splitlines()[1] == b"1,nan,0.0"

    def test_n_digit_boundaries(self):
        ns = [1, 8, 9, 10, 11, 98, 99, 100, 101, 999, 1000, 999_999, 10**6,
              10**6 + 1, 2**40 - 1, 2**40, 0, -1, -9, -10, 2**63 - 1, -(2**63)]
        out = self.assert_oracle_bytes(_traj(ns, [1.0] * len(ns), [-1.0] * len(ns)))
        assert out.splitlines()[16] == b"1099511627776,1.0,-1.0"

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("chunks", [1, 2])
    def test_rows_at_a_chunk_boundary(self, chunks, offset):
        rows = chunks * simulate._CSV_ROWS + offset
        rng = np.random.default_rng(rows)
        lq = rng.choice(self.ATOMS, rows)
        rq = rng.choice([0.5, 1.0], rows)
        rq[-1] = 1e-300  # a wider value in the last chunk only
        ns = np.arange(1, rows + 1) * 7
        out = self.assert_oracle_bytes(_traj(ns, lq, rq))
        assert out.count(b"\n") == rows + 1

    @pytest.mark.parametrize("rows", [0, 1])
    def test_no_and_one_record(self, rows):
        out = self.assert_oracle_bytes(_traj(np.arange(1, rows + 1), [0.5] * rows, [1.5] * rows))
        assert out == b"n,lq,rq\n" + b"1,0.5,1.5\n" * rows

    @pytest.mark.parametrize(
        "first_n, values, padded",
        [(10**4, [math.nan, math.inf, 0.5], (False, False)),  # "nan" fills 3 bytes
         (9_000, [-0.0, -math.inf, -2.5], (True, False)),  # n crosses 10**4
         (10**4, [-0.0, math.nan, 1e22], (False, True)),
         (9_000, [math.nan, -0.0], (True, True))],
        ids=["neither", "n", "values", "both"],
    )
    def test_piece_ragged_in_n_values_both_or_neither(self, tmp_path, first_n, values, padded):
        # one _CSV_ROWS piece is a uint8 array of the oracle's rows, whether
        # the mask copy drops NULs from its n field, its value fields, both
        # or neither, written through fh.writelines as through b"".join
        rows = simulate._CSV_ROWS
        rng = np.random.default_rng(first_n)
        ns = np.arange(first_n, first_n + rows, dtype=np.int64)
        traj = _traj(ns, rng.choice(values, rows), rng.choice(values, rows))
        bits = np.concatenate([traj.lq, traj.rq]).view(np.uint64)
        table = _csvrows._value_table(np.unique(bits).view(np.float64).tolist())
        assert (_csvrows._n_field(ns)[2], table[1]) == padded
        piece = _csvrows._csv_rows(traj.ns, traj.lq, traj.rq)
        assert isinstance(piece, np.ndarray) and piece.dtype == np.uint8
        want = trajectory_csv_bytes_rowwise(traj)
        assert b"".join([b"n,lq,rq\n", piece]) == want
        with open(tmp_path / "piece.csv", "wb") as fh:
            fh.writelines([b"n,lq,rq\n", piece])
        assert (tmp_path / "piece.csv").read_bytes() == want
        assert b"-0.0" in want or b"nan" in want

    def test_written_file_streams_chunks(self, tmp_path):
        # 10^6 records write 16 MB: chunk by chunk, the peak stays near
        # 2 MB; joining the file first peaks at twice its size
        n = 10**6
        rng = np.random.default_rng(0)
        traj = _traj(np.arange(1, n + 1), rng.choice([-1.0, 1.0], n), rng.choice([-1.0, 1.0], n))
        path = tmp_path / "traj.csv"
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 15 * 10**6
        assert peak < size // 4
        assert path.read_bytes() == trajectory_csv_bytes(traj)

    def test_failed_encode_removes_partial_file(self, tmp_path, monkeypatch):
        rows = simulate._csv_rows
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("encoder failed")
            return rows(*args)

        monkeypatch.setattr(simulate, "_csv_rows", failing)
        n = 3 * simulate._CSV_ROWS
        traj = _traj(np.arange(1, n + 1), np.zeros(n), np.ones(n))
        path = tmp_path / "traj.csv"
        with pytest.raises(RuntimeError, match="encoder failed"):
            write_trajectory_csv(traj, path)
        assert len(calls) == 2
        assert not path.exists()

    def test_scratch_memory_is_bounded(self):
        # 10^6 records: 15 MB of CSV, built from chunk pieces and joined once;
        # encoding every row in one matrix peaks above 85 MB
        n = 10**6
        rng = np.random.default_rng(0)
        traj = _traj(np.arange(1, n + 1), rng.choice([-1.0, 1.0], n), rng.choice([-1.0, 1.0], n))
        tracemalloc.start()
        try:
            out = trajectory_csv_bytes(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.count(b"\n") == n + 1
        assert peak < 2 * len(out) + 8 * 2**20

    @settings(max_examples=80, deadline=None)
    @given(block=csv_blocks())
    @example(block=(np.array([10**8, 10**9 - 1]), np.full(2, 1e16), np.full(2, -0.0)))
    @example(block=(np.array([123, 99_999]), np.array([-1.5, 2.0]), np.array([1e22, np.nan])))
    @example(block=(np.array([5_000_000, 5_000_001]), np.full(2, 0.5), np.full(2, 0.5)))
    @example(block=(np.array([9, 10, 99_999, 100_000]), np.full(4, 0.5), np.full(4, 0.5)))
    def test_matches_rowwise_on_random_blocks(self, block):
        self.assert_oracle_bytes(_traj(*block))

    def test_repr_memory_does_not_grow_with_distinct_values(self, tmp_path):
        # every record holds a new value, and only one block's reprs are
        # kept at a time, so 4 * 10**5 records peak near 10**5
        peaks = []
        for n in (10**5, 4 * 10**5):
            values = np.random.default_rng(n).standard_normal(n)
            traj = _traj(np.arange(1, n + 1), values, values)
            tracemalloc.start()
            try:
                write_trajectory_csv(traj, tmp_path / "traj.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (tmp_path / "traj.csv").stat().st_size > 15 * 10**6
        assert peaks[1] < peaks[0] + 2**20, peaks

    @pytest.mark.parametrize(
        "support, stride, bound",
        [("coin", 1, 84.0), ("wide", 10, 103.0)],
    )
    def test_encoder_scratch_per_row(self, support, stride, bound):
        # tracemalloc peak of one _csv_rows call on the first _CSV_ROWS
        # records, in bytes per row: the coin's n = 1..16384 (two values of
        # two widths) and 128 atoms at stride 10 (11 distinct values).  The
        # per-digit encoder with a repr cache per file peaked at 84.91 and
        # 103.65 bytes per row; the peak sets peak RSS on simulate-dense.
        d = fair_coin() if support == "coin" else from_spec(wide_spec(1))
        rows = simulate._CSV_ROWS
        traj = run_trajectory(SimConfig(d, 0.5, stride * rows, 1, record_stride=stride), 0)
        ns, lq, rq = traj.ns, traj.lq, traj.rq
        simulate._csv_rows(ns[:1], lq[:1], rq[:1])  # builds the digit-group table
        tracemalloc.start()
        try:
            simulate._csv_rows(ns, lq, rq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / rows <= bound
