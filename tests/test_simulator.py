import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    assert_same_records,
    random_distribution,
    run_trajectory_streaming,
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
        # same phi(1) block: uniforms are made for it once, plus one per rep
        q, alpha, reps, seed = 0.5, 0.25, 50, 31
        phi = phi_of_k(bernoulli_moments(q), 1, alpha).phi
        simulate._bernoulli_block_sums.cache_clear()
        fresh = block_event_experiment(q, alpha, reps, seed)
        simulate._bernoulli_block_sums.cache_clear()
        drawn = []
        uniform_matrix = simulate.uniform_matrix

        def counted(words, n, start=0):
            u = uniform_matrix(words, n, start)
            drawn.append(u.size)
            return u

        monkeypatch.setattr(simulate, "uniform_matrix", counted)
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
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
        for raw, want in [("2", 2), ("3", 3), ("1000000", 3), ("0", 3),
                          ("-4", 3), ("two", 3), ("1.5", 3), ("", 3)]:
            monkeypatch.setenv("QL_THREADS", raw)
            assert simulate._worker_count() == want, raw
        monkeypatch.delenv("QL_THREADS")
        assert simulate._worker_count() == 3

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
