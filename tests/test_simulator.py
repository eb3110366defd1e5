import itertools
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_records,
    distributions_st,
    random_distribution,
    run_trajectory_streaming,
    seed_for_word,
    stream_word,
    trajectory_csv_bytes_rowwise,
)
from quantile_limits import simulate
from quantile_limits import rng as qrng
from quantile_limits.berry_esseen import bernoulli_moments, phi_of_k, std_normal_cdf
from quantile_limits.distributions import (
    bernoulli,
    fair_coin,
    gapped_example,
    make_discrete,
    point_mass,
)
from quantile_limits.empirical import sup_distances
from quantile_limits.errors import (
    EmptyWindow,
    ParameterOutOfRange,
    ProbabilityOutOfRange,
)
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
        for call in calls:
            with pytest.raises(ParameterOutOfRange) as info:
                call()
            assert info.value.param == param

    def test_counter_range_edges_accepted(self):
        top = 2**64 - 1
        assert qrng.stream_words(5, 1, top - 1).tolist() == [stream_word(5, top - 1)]
        assert len(qrng.uniforms(5, 0, top)) == 0
        assert qrng.uniform_matrix(np.array([5], dtype=np.uint64), 0).shape == (1, 0)


def _uniforms_of_words(words) -> np.ndarray:
    # uniform_matrix on seeds whose first word is each given word
    seeds = np.array([seed_for_word(w) for w in words], dtype=np.uint64)
    return qrng.uniform_matrix(seeds, 1)[:, 0]


class TestWordThreshold:
    """rng._word_threshold(x): a word's uniform exceeds x iff word >= W."""

    def test_agrees_with_uniform_matrix_on_a_stream(self):
        seeds = qrng.stream_words(2024, 3)
        words = qrng._word_matrix(seeds, 3000, 0)
        u = qrng.uniform_matrix(seeds, 3000)
        assert u.min() < 0.5 <= u.max()  # levels below and above 2**52
        for x0 in [u.min(), u.max(), *u[0, :30], *u[2, -30:]]:
            for x in (np.nextafter(x0, 0.0), x0, np.nextafter(x0, 1.0)):
                w = qrng._word_threshold(float(x))
                assert np.array_equal(words >= np.uint64(w), u > x), x

    @pytest.mark.parametrize(
        "level",
        [0, 1, 2**51 + 7, 2**52 - 2, 2**52 - 1, 2**52, 2**52 + 1, 2**52 + 2,
         3 * 2**51 + 5, 2**53 - 3, 2**53 - 2, 2**53 - 1],
    )
    def test_neighbour_levels(self, level):
        # words of the levels around one, lowest and highest of each: from
        # 2**52 up, ``+ 0.5`` rounds to even and two levels share a uniform
        words = [lv << 11 | low for lv in range(max(0, level - 3), min(2**53, level + 4))
                 for low in (0, 0x7FF)]
        u = _uniforms_of_words(words)
        for x0 in u[words.index(level << 11)], u[0], u[-1]:
            for x in (np.nextafter(x0, 0.0), x0, np.nextafter(x0, 1.0)):
                w = qrng._word_threshold(float(x))
                assert [word >= w for word in words] == (u > x).tolist(), (level, x)

    def test_no_word_above_one(self):
        # 1 - 1e-17 rounds to 1.0: no uniform exceeds it, and the threshold
        # is 2**64, past every word, not a wrapped small one
        assert 1.0 - 1e-17 == 1.0
        assert qrng._word_threshold(1.0 - 1e-17) == 2**64
        assert _uniforms_of_words([2**64 - 1])[0] <= 1.0 - 1e-17
        top = qrng._word_threshold(np.nextafter(1.0, 0.0))
        assert top == (2**53 - 1) << 11
        assert _uniforms_of_words([top - 1, top]).tolist() == [1.0 - 2**-52, 1.0]


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


def _levels_at_cum(d) -> np.ndarray:
    """Each cum entry and each guide bucket edge, 0.0 and 1.0 among them,
    with their float neighbours: the levels in [0, 1] where a lookup can go
    off by one.  (A cum entry before the last can round above 1.0.)"""
    k = d._guide[0]
    edges = np.concatenate([d.cum_array, np.arange(k + 1) / k])
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    return u[(u >= 0.0) & (u <= 1.0)]


class TestGuideTableDraw:
    """left_quantile_indices, the guide-table draw, against
    np.searchsorted(side="left")."""

    @staticmethod
    def assert_matches_searchsorted(d, u):
        got = d.left_quantile_indices(u)
        assert np.array_equal(got, np.searchsorted(d.cum_array, u, side="left"))
        assert d._guide[3] <= len(d).bit_length()

    @given(st.one_of(distributions_st(), packed_supports_st()))
    @settings(max_examples=300, deadline=None)
    def test_matches_searchsorted_at_cum_entries(self, d):
        self.assert_matches_searchsorted(d, _levels_at_cum(d))

    @given(st.one_of(distributions_st(), packed_supports_st()),
           st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_draws_match_searchsorted(self, d, seed):
        got = simulate._draw_indices(d, seed, 2000, start=17)
        want = np.searchsorted(d.cum_array, qrng.uniforms(seed, 2000, 17), side="left")
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "d",
        [fair_coin(), gapped_example(), point_mass(2.0),
         random_distribution(np.random.default_rng(5), 120),
         make_discrete([(0.0, 1.0 - 1e-6)] + [(float(i), 1e-9) for i in range(1, 1001)])],
        ids=["coin", "figure", "point", "random", "packed"],
    )
    def test_top_words_draw_level_one(self, d):
        # every word from 2**64 - 2048 up has level 2**53 - 1, whose uniform
        # rounds to exactly 1.0: it lands on the guide table's last entry,
        # bucket K, and draws the index searchsorted finds
        words = [2**64 - 1, 2**64 - 2048, 2**64 - 2049, 2**63, 0]
        for word in words:
            seed = seed_for_word(word)
            u = qrng.uniforms(seed, 3)
            want = np.searchsorted(d.cum_array, u, side="left")
            assert np.array_equal(simulate._draw_indices(d, seed, 3), want)

    def test_level_one_seed_samples(self):
        assert seed_for_word(2**64 - 1) == 3558559446808474027
        assert qrng.uniforms(3558559446808474027, 1).tolist() == [1.0]
        assert sample_stream(fair_coin(), 3558559446808474027, 1).tolist() == [1.0]

    def test_adversarial_packed_support(self):
        # all 1001 cum entries lie in the top one of 2048 buckets
        d = make_discrete([(0.0, 1.0 - 1e-6)] + [(float(i), 1e-9) for i in range(1, 1001)])
        assert len(d) == 1001
        assert d._guide[3] == 10
        self.assert_matches_searchsorted(d, _levels_at_cum(d))
        self.assert_matches_searchsorted(d, 1.0 - np.geomspace(1e-6, 1e-16, 5000))
        self.assert_matches_searchsorted(d, qrng.uniforms(3, 50_000))

    @pytest.mark.parametrize("atoms", [1, 2, 3, 4, 5, 128, 4096])
    def test_table_shape(self, atoms):
        d = make_discrete((float(i), 1.0 / atoms) for i in range(atoms))
        k, guide, cum, rounds = d._guide
        assert k >= 2 * atoms and k & (k - 1) == 0
        assert k < 4 * atoms or k == 2
        assert len(guide) == k + 1 and guide[k] == atoms - 1  # level 1.0
        assert np.all(cum[atoms:] == 1.0) and len(cum) == atoms + 2**rounds
        self.assert_matches_searchsorted(d, _levels_at_cum(d))


class TestIntegerArguments:
    """An integer argument given a float is refused with its name, never
    truncated or run past its bound."""

    @pytest.mark.parametrize(
        "param, call",
        [
            ("record_stride",
             lambda: SimConfig(fair_coin(), 0.5, 100, 1, record_stride=2.5)),
            ("n_max", lambda: SimConfig(fair_coin(), 0.5, 10.5, 1)),
            ("n", lambda: sample_stream(fair_coin(), 1, 2.5)),
            ("n", lambda: qrng.uniforms(1, 2.5)),
            ("checkpoints", lambda: simulate.gc_path(fair_coin(), 5, [1.5, 2.7])),
            ("checkpoints", lambda: simulate.gc_path(fair_coin(), 5, np.array([1.0, 2.0]))),
            ("master_seed", lambda: SimConfig(fair_coin(), 0.5, 100, 1.5)),
            ("seed", lambda: sample_stream(fair_coin(), 1.5, 10)),
        ],
        ids=["record_stride", "n_max", "sample_stream-n", "uniforms-n",
             "checkpoints", "checkpoints-integral-floats", "master_seed", "seed"],
    )
    def test_float_rejected(self, param, call):
        with pytest.raises(ParameterOutOfRange) as info:
            call()
        assert info.value.param == param

    def test_numpy_integers_accepted(self):
        got = sample_stream(fair_coin(), np.uint64(5), np.int64(3))
        assert np.array_equal(got, sample_stream(fair_coin(), 5, 3))
        dist, _ = simulate.gc_path(fair_coin(), 5, np.array([1, 2], dtype=np.uint64))
        assert np.array_equal(dist, simulate.gc_path(fair_coin(), 5, [1, 2])[0])


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
        with pytest.raises(ParameterOutOfRange) as info:
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
            with pytest.raises(ParameterOutOfRange) as info:
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
        with pytest.raises(ProbabilityOutOfRange):
            SimConfig(fair_coin(), 0.0, 10, 0)
        with pytest.raises(ProbabilityOutOfRange):
            SimConfig(fair_coin(), math.nan, 10, 0)
        with pytest.raises(ParameterOutOfRange):
            SimConfig(fair_coin(), 0.5, 0, 0)
        with pytest.raises(ParameterOutOfRange):
            SimConfig(fair_coin(), 0.5, 10, -1)
        with pytest.raises(ParameterOutOfRange):
            SimConfig(fair_coin(), 0.5, 10, 0, record_stride=0)
        with pytest.raises(ParameterOutOfRange):
            SimConfig(fair_coin(), 0.5, 10, 0, replications=0)


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

    @pytest.mark.parametrize("atoms", [1, 2, 13, 257])
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

    @pytest.mark.parametrize("atoms", [1, 3, 257, 4096])
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
        got = np.empty_like(want)
        covered = 0
        for r0, r1, cum in simulate._cumulative_counts(d, seed, rec_ns):
            assert r0 == covered < r1
            assert (r1 - r0) * atoms <= max(simulate._CELLS, atoms)
            got[r0:r1] = cum
            covered = r1
        assert covered == len(rec_ns)
        assert np.array_equal(got, want)

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


def _use_cpus(monkeypatch, cpus: int) -> None:
    affinity = set(range(cpus))
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: affinity, raising=False)


def _pool_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


class TestChunkWorkers:
    """_cumulative_counts on worker threads: the same counts, bounded, and
    no thread outlives the generator."""

    D = make_discrete([(0.0, 0.25), (1.0, 0.25), (2.5, 0.375), (4.0, 0.125)])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_counts_do_not_depend_on_workers(self, monkeypatch, workers):
        # small chunks, and thread switches as often as the interpreter
        # allows, so chunks finish out of order
        monkeypatch.setattr(simulate, "_CHUNK", 64)
        rng = np.random.default_rng(workers)
        rec_ns = np.cumsum(rng.integers(1, 200, size=400))
        one = list(simulate._cumulative_counts(self.D, 8, rec_ns))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = list(simulate._cumulative_counts(self.D, 8, rec_ns, workers))
        finally:
            sys.setswitchinterval(interval)
        assert [r[:2] for r in one] == [r[:2] for r in many]
        assert all(np.array_equal(a[2], b[2]) for a, b in zip(one, many))

    def test_gc_path_same_at_one_and_two_threads(self, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK", 97)
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_error_propagates(self, monkeypatch, workers):
        monkeypatch.setattr(simulate, "_CHUNK", 100)
        draw = simulate._draw_indices

        def failing(d, seed, n, start=0):
            if start >= 2000:
                raise RuntimeError("draw failed")
            return draw(d, seed, n, start)

        monkeypatch.setattr(simulate, "_draw_indices", failing)
        seen = []
        rec_ns = np.arange(50, 5000, 50)
        with pytest.raises(RuntimeError, match="draw failed"):
            for _, r1, _ in simulate._cumulative_counts(self.D, 1, rec_ns, workers):
                seen.append(r1)
        assert seen[-1] == 2000 // 50  # every chunk before the failing one
        assert _pool_threads() == []

    def test_early_close_joins_workers(self, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK", 100)
        gen = simulate._cumulative_counts(self.D, 1, np.arange(10, 10**6, 10), 2)
        next(gen)
        assert _pool_threads()
        gen.close()
        assert _pool_threads() == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunks_ahead_are_bounded(self, monkeypatch, workers):
        # records every 10 draws: each 100-draw chunk completes records, so
        # the consumer sees every chunk
        monkeypatch.setattr(simulate, "_CHUNK", 100)
        count, lock, started = simulate._chunk_counts, threading.Lock(), [0]

        def counting(*args):
            with lock:
                started[0] += 1
            return count(*args)

        monkeypatch.setattr(simulate, "_chunk_counts", counting)
        consumed = 0
        for _ in simulate._cumulative_counts(self.D, 1, np.arange(10, 20_001, 10), workers):
            consumed += 1
            assert started[0] <= consumed + (workers if workers > 1 else 0)
        assert consumed == started[0] == 200


class TestGcPath:
    @pytest.mark.parametrize(
        "checkpoints",
        [[0, 5], [5, 5], [10**19], [1, 2**63], [-(2**70), 5]],
        ids=["zero", "repeat", "past-int64", "last-past-int64", "below-int64"],
    )
    def test_bad_checkpoints_name_checkpoints(self, checkpoints):
        with pytest.raises(ParameterOutOfRange) as info:
            simulate.gc_path(fair_coin(), 1, checkpoints)
        assert info.value.param == "checkpoints"


class TestSwitchStats:
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
        with pytest.raises(EmptyWindow):
            switch_stats(traj, 5)

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

    def test_epsilon_validated(self):
        cfg = SimConfig(point_mass(7.0), 0.4, 10, 5)
        traj = run_trajectory(cfg, 0)
        with pytest.raises(ParameterOutOfRange):
            sandwich_check(traj, point_mass(7.0), 0.4, 0.0, 0)

    def test_empty_window(self):
        cfg = SimConfig(point_mass(7.0), 0.4, 10, 5)
        traj = run_trajectory(cfg, 0)
        with pytest.raises(EmptyWindow):
            sandwich_check(traj, point_mass(7.0), 0.4, 0.1, 11)


class TestBlockSchedule:
    def test_first_window(self):
        sched = block_schedule(bernoulli_moments(0.5), 0.25, 5, 10**8)
        assert sched.indices[0] == 1
        assert sched.entries[0] == (1, 577)  # phi(1) = 576

    def test_second_start_and_truncation(self):
        params = bernoulli_moments(0.5)
        sched = block_schedule(params, 0.25, 5, 10**8)
        n2 = 577 + phi_of_k(params, 577, 0.25).phi
        assert sched.indices == (1, 577, n2)
        assert len(sched.entries) == 1  # m_2 blows through the cap: no k >= 2

    def test_small_cap_truncates_everything(self):
        sched = block_schedule(bernoulli_moments(0.5), 0.25, 5, 100)
        assert sched.entries == ()
        assert sched.indices == (1,)

    def test_entries_satisfy_recurrence(self):
        params = bernoulli_moments(0.5)
        sched = block_schedule(params, 0.25, 3, 10**8)
        for n_k, m_k in sched.entries:
            assert m_k == n_k + phi_of_k(params, n_k, 0.25).phi
        assert all(a < b for a, b in zip(sched.indices, sched.indices[1:]))

    def test_k_max_respected(self):
        sched = block_schedule(bernoulli_moments(0.5), 0.25, 1, 10**12)
        assert len(sched.entries) == 1

    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            block_schedule(bernoulli_moments(0.5), 0.25, 0, 100)
        with pytest.raises(ParameterOutOfRange):
            block_schedule(bernoulli_moments(0.5), 0.25, 1, 0)


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
        # same phi(1) block: its words are made once, plus one uniform (the
        # next word) per rep
        q, alpha, reps, seed = 0.5, 0.25, 50, 31
        phi = phi_of_k(bernoulli_moments(q), 1, alpha).phi
        simulate._bernoulli_block_sums.cache_clear()
        fresh = block_event_experiment(q, alpha, reps, seed)
        simulate._bernoulli_block_sums.cache_clear()
        drawn = []
        word_matrix, uniform_matrix = simulate._word_matrix, simulate.uniform_matrix

        def counted(make):
            def make_counted(*args, **kwargs):
                out = make(*args, **kwargs)
                drawn.append(out.size)
                return out
            return make_counted

        monkeypatch.setattr(simulate, "_word_matrix", counted(word_matrix))
        monkeypatch.setattr(simulate, "uniform_matrix", counted(uniform_matrix))
        deviation_experiment(q, 1, alpha, reps, seed)
        assert block_event_experiment(q, alpha, reps, seed) == fresh
        assert sum(drawn) == reps * phi + reps
        sums = simulate._bernoulli_block_sums(q, phi, reps, seed)
        assert not sums.flags.writeable

    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            deviation_experiment(0.0, 1, 0.25, 10, 0)
        with pytest.raises(ParameterOutOfRange):
            deviation_experiment(0.5, 1, 0.25, 0, 0)


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

    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            block_event_experiment(1.0, 0.25, 10, 0)
        with pytest.raises(ParameterOutOfRange):
            block_event_experiment(0.5, 0.25, 0, 0)


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
        with pytest.raises(ParameterOutOfRange):
            run_replicated(cfg, "spectral")
        with pytest.raises(ParameterOutOfRange):
            run_replicated(cfg, "sandwich_check")  # epsilon missing

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
        with pytest.raises(ParameterOutOfRange) as info:
            run_replicated(cfg, analysis, on_trajectory=lambda r, t: seen.append(r), **kwargs)
        assert info.value.param == param
        assert seen == []

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
        # the error reaches the caller, the replications not yet started are
        # cancelled (at most workers + 1 run ahead), and the threads are joined
        monkeypatch.setenv("QL_THREADS", threads)
        seen = []

        def on_trajectory(rep, traj):
            if rep == 1:
                raise RuntimeError("write failed")
            seen.append(rep)

        cfg = SimConfig(fair_coin(), 0.5, 200, 4, replications=6)
        with pytest.raises(RuntimeError, match="write failed"):
            run_replicated(cfg, "convergence", on_trajectory=on_trajectory)
        assert set(seen) <= {0, 2, 3}
        assert _pool_threads() == []


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
