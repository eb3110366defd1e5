import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bf_sample_left_quantile,
    bf_sample_right_quantile,
    distributions_st,
    random_distribution,
)
from quantile_limits.distributions import fair_coin, gapped_example, point_mass
from quantile_limits.empirical import EmpiricalSample, gc_distance
from quantile_limits.errors import (
    EmptySample,
    ProbabilityOutOfRange,
    ValueOutsideSupport,
)
from quantile_limits.simulate import sample_stream


def sample_of(d, observations):
    s = EmpiricalSample.from_distribution(d)
    for x in observations:
        s.insert(x)
    return s


def four_atom():
    from quantile_limits.distributions import make_discrete

    return make_discrete([(1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)])


class TestSampleBasics:
    def test_new_sample_coin(self):
        s = EmpiricalSample.from_distribution(fair_coin())
        assert list(s.counts) == [0, 0] and s.n == 0

    def test_new_sample_three_atoms(self):
        s = EmpiricalSample.from_distribution(gapped_example())
        assert list(s.counts) == [0, 0, 0] and s.n == 0

    def test_empty_sample_has_no_ecdf(self):
        s = EmpiricalSample.from_distribution(fair_coin())
        with pytest.raises(EmptySample):
            s.ecdf(0.0)

    def test_insert_counts(self):
        s = sample_of(fair_coin(), [-1.0, -1.0])
        assert list(s.counts) == [2, 0] and s.n == 2

    def test_insert_top_atom(self):
        s = sample_of(gapped_example(), [5.0])
        assert list(s.counts) == [0, 0, 1] and s.n == 1

    def test_insert_off_support(self):
        s = EmpiricalSample.from_distribution(fair_coin())
        with pytest.raises(ValueOutsideSupport):
            s.insert(0.0)

    def test_extend_matches_insert(self):
        d = gapped_example()
        draws = sample_stream(d, 99, 500)
        a = EmpiricalSample.from_distribution(d)
        a.extend(draws)
        b = sample_of(d, draws.tolist())
        assert np.array_equal(a.counts, b.counts) and a.n == b.n

    def test_extend_off_support(self):
        s = EmpiricalSample.from_distribution(fair_coin())
        with pytest.raises(ValueOutsideSupport):
            s.extend(np.array([-1.0, 2.0]))

    @pytest.mark.parametrize("add", ["insert", "extend"])
    def test_off_support_message(self, add):
        s = EmpiricalSample.from_distribution(fair_coin())
        with pytest.raises(ValueOutsideSupport) as info:
            getattr(s, add)(2.5 if add == "insert" else np.array([-1.0, 2.5]))
        assert str(info.value) == "2.5 is not an atom of the bound support"

    def test_reset(self):
        s = sample_of(fair_coin(), [1.0])
        s.reset()
        assert s.n == 0 and list(s.counts) == [0, 0]


class TestEcdf:
    def test_coin_balanced(self):
        assert sample_of(fair_coin(), [-1.0, 1.0]).ecdf(-1.0) == 0.5

    def test_coin_all_heads(self):
        assert sample_of(fair_coin(), [1.0, 1.0]).ecdf(0.0) == 0.0

    def test_between_atoms(self):
        s = sample_of(four_atom(), [1.0, 2.0, 3.0, 4.0])
        assert s.ecdf(2.5) == 0.5


class TestSampleQuantiles:
    def test_left_even_count(self):
        s = sample_of(four_atom(), [1.0, 2.0, 3.0, 4.0])
        assert s.left_quantile(0.5) == 2.0
        assert bf_sample_left_quantile(s, 0.5) == 2.0

    def test_right_even_count(self):
        s = sample_of(four_atom(), [1.0, 2.0, 3.0, 4.0])
        assert s.right_quantile(0.5) == 3.0
        assert bf_sample_right_quantile(s, 0.5) == 3.0

    def test_odd_count_single_order_statistic(self):
        s = sample_of(four_atom(), [3.0, 1.0, 2.0])
        assert s.left_quantile(0.5) == 2.0
        assert s.right_quantile(0.5) == 2.0

    def test_coin_flat(self):
        s = sample_of(fair_coin(), [-1.0, 1.0])
        assert s.left_quantile(0.5) == -1.0
        assert s.right_quantile(0.5) == 1.0

    def test_preconditions(self):
        s = EmpiricalSample.from_distribution(fair_coin())
        with pytest.raises(EmptySample):
            s.left_quantile(0.5)
        s.insert(1.0)
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ProbabilityOutOfRange):
                s.left_quantile(bad)
            with pytest.raises(ProbabilityOutOfRange):
                s.right_quantile(bad)

    @given(
        distributions_st(max_atoms=8),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_and_order_statistic(self, d, n, seed, p):
        draws = sample_stream(d, seed, n)
        s = EmpiricalSample.from_distribution(d)
        s.extend(draws)
        lq, rq = s.left_quantile(p), s.right_quantile(p)
        assert lq == bf_sample_left_quantile(s, p)
        assert rq == bf_sample_right_quantile(s, p)
        assert lq <= rq
        # order statistics x_(ceil(np)) and x_(floor(np)+1), ranks resolved
        # with the same count/n semantics the ecdf uses
        xs = np.sort(draws)
        r = min(r for r in range(1, n + 1) if r / n >= p)
        assert lq == xs[r - 1]
        t = min(r for r in range(1, n + 1) if r / n > p)
        assert rq == xs[t - 1]
        if (n * p) != int(n * p):
            assert lq == rq

    @given(
        distributions_st(max_atoms=8),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_consistent_with_distribution_quantiles(self, d, n, seed, p):
        s = EmpiricalSample.from_distribution(d)
        s.extend(sample_stream(d, seed, n))
        emp = s.to_distribution()
        assert s.left_quantile(p) == emp.left_quantile(p)
        assert s.right_quantile(p) == emp.right_quantile(p)


class TestGCDistance:
    def test_balanced_coin_sample(self):
        g = gc_distance(sample_of(fair_coin(), [-1.0, 1.0]), fair_coin())
        assert g.value == 0.0

    def test_heads_only(self):
        g = gc_distance(sample_of(fair_coin(), [1.0, 1.0]), fair_coin())
        assert g.value == 0.5 and g.witness == -1.0

    def test_point_mass(self):
        d = point_mass(7.0)
        g = gc_distance(sample_of(d, [7.0, 7.0, 7.0]), d)
        assert g.value == 0.0 and g.witness == 7.0

    def test_requires_matching_support(self):
        with pytest.raises(ValueOutsideSupport):
            gc_distance(sample_of(fair_coin(), [1.0]), gapped_example())

    def test_requires_data(self):
        with pytest.raises(EmptySample):
            gc_distance(EmpiricalSample.from_distribution(fair_coin()), fair_coin())

    def test_witness_attains_value(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = random_distribution(rng, max_atoms=10)
            s = EmpiricalSample.from_distribution(d)
            s.extend(sample_stream(d, int(rng.integers(0, 2**60)), 37))
            g = gc_distance(s, d)
            assert abs(s.ecdf(g.witness) - d.cdf(g.witness)) == g.value

    def test_distance_shrinks_with_sample_size(self):
        # median over 100 seeds at n=1e4 sits below the median at n=1e2
        d = fair_coin()
        small, large = [], []
        for seed in range(100):
            draws = sample_stream(d, seed, 10_000)
            s = EmpiricalSample.from_distribution(d)
            s.extend(draws[:100])
            small.append(gc_distance(s, d).value)
            s.extend(draws[100:])
            large.append(gc_distance(s, d).value)
        assert np.median(large) < np.median(small)
