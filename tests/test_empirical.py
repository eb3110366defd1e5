import math
import re
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bf_sample_left_quantile,
    bf_sample_right_quantile,
    dist_and_level_st,
    distributions_st,
    exact_ranks,
    random_distribution,
)
from quantile_limits.distributions import fair_coin, gapped_example, make_discrete, point_mass
from quantile_limits.empirical import (
    EmpiricalSample,
    gc_distance,
    quantile_indices,
    quantile_ranks,
)
from quantile_limits.errors import QuantileLimitsError
from quantile_limits.simulate import sample_stream


def sample_of(d, observations):
    s = EmpiricalSample.from_distribution(d)
    for x in observations:
        s.insert(x)
    return s


def off_support(x):
    return f"^{re.escape(repr(x))} is not an atom of the bound support$"


def four_atom():
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
        with pytest.raises(QuantileLimitsError, match="^sample holds no observations$"):
            s.ecdf(0.0)

    def test_insert_counts(self):
        s = sample_of(fair_coin(), [-1.0, -1.0])
        assert list(s.counts) == [2, 0] and s.n == 2

    def test_insert_top_atom(self):
        s = sample_of(gapped_example(), [5.0])
        assert list(s.counts) == [0, 0, 1] and s.n == 1

    def test_insert_off_support(self):
        s = EmpiricalSample.from_distribution(fair_coin())
        with pytest.raises(QuantileLimitsError, match=off_support(0.0)):
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
        with pytest.raises(QuantileLimitsError, match=off_support(2.0)):
            s.extend(np.array([-1.0, 2.0]))

    @pytest.mark.parametrize("add", ["insert", "extend"])
    def test_off_support_message(self, add):
        s = EmpiricalSample.from_distribution(fair_coin())
        with pytest.raises(QuantileLimitsError, match=off_support(2.5)) as info:
            getattr(s, add)(2.5 if add == "insert" else np.array([-1.0, 2.5]))
        assert str(info.value) == "2.5 is not an atom of the bound support"

    def test_reset(self):
        s = sample_of(fair_coin(), [1.0])
        s.reset()
        assert s.n == 0 and list(s.counts) == [0, 0]

    @staticmethod
    def assert_support_refused(support):
        message = f"support must be nonempty, finite and strictly increasing, got {support!r}"
        with pytest.raises(QuantileLimitsError, match=re.escape(message)) as info:
            EmpiricalSample(support)
        assert info.value.param == "support"

    def test_decreasing_support_refused(self):
        # on (1.0, 0.0) the rank scan took 1.0 for the rank-10 order
        # statistic of ten of each, and extend refused the atom 1.0
        self.assert_support_refused((1.0, 0.0))
        s = EmpiricalSample((0.0, 1.0))
        s.extend(np.array([1.0]))
        s.extend(np.array([1.0] * 9 + [0.0] * 10))
        assert list(s.counts) == [10, 10]
        assert (s.left_quantile(0.5), s.right_quantile(0.5)) == (0.0, 1.0)

    def test_repeated_support_refused(self):
        # on (0.0, 0.0, 1.0) insert counted 0.0 in slot 1 and extend in slot 0
        self.assert_support_refused((0.0, 0.0, 1.0))
        self.assert_support_refused((-0.0, 0.0))
        for x, counts in [(0.0, [1, 0]), (-0.0, [1, 0]), (1, [0, 1]), (math.nan, [0, 0])]:
            a, b = EmpiricalSample((0.0, 1.0)), EmpiricalSample((0.0, 1.0))
            if x != x:  # off the support: both refuse it and count nothing
                with pytest.raises(QuantileLimitsError, match=off_support(x)):
                    a.insert(x)
                with pytest.raises(QuantileLimitsError, match=off_support(x)):
                    b.extend(np.array([x]))
            else:
                a.insert(x)
                b.extend(np.array([x]))
            assert list(a.counts) == list(b.counts) == counts, x
            assert a.n == b.n == sum(counts)

    @pytest.mark.parametrize("support", [(), (0.0, math.nan), (-math.inf, 0.0)],
                             ids=["empty", "nan", "inf"])
    def test_empty_or_non_finite_support_refused(self, support):
        self.assert_support_refused(support)


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
        with pytest.raises(QuantileLimitsError, match="^sample holds no observations$"):
            s.left_quantile(0.5)
        s.insert(1.0)
        for bad in (0.0, 1.0, -0.2, 1.3):
            message = re.escape(f"p must be in (0, 1), got {bad!r}")
            with pytest.raises(QuantileLimitsError, match=message) as info:
                s.left_quantile(bad)
            assert info.value.param == "p"
            with pytest.raises(QuantileLimitsError, match=message) as info:
                s.right_quantile(bad)
            assert info.value.param == "p"

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
        # order statistics x_(ceil(np)) and x_(floor(np)+1): the first ranks
        # r with r/n >= p and r/n > p, compared as exact fractions
        xs = np.sort(draws)
        r = min(r for r in range(1, n + 1) if Fraction(r, n) >= Fraction(p))
        assert lq == xs[r - 1]
        t = min(r for r in range(1, n + 1) if Fraction(r, n) > Fraction(p))
        assert rq == xs[t - 1]
        assert (r, t) == exact_ranks(n, p)
        if (n * Fraction(p)).denominator != 1:
            assert lq == rq

    @given(
        distributions_st(max_atoms=8),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_consistent_with_distribution_quantiles(self, d, n, seed, p):
        # the quantiles of the empirical distribution, found as
        # DiscreteDistribution finds them (bisect on its CDF at the atoms),
        # with that CDF the exact fractions count/n rather than float sums
        s = EmpiricalSample.from_distribution(d)
        s.extend(sample_stream(d, seed, n))
        cdf = [Fraction(int(c), n) for c in np.cumsum(s.counts)]
        assert s.left_quantile(p) == s.values[bisect_left(cdf, Fraction(p))]
        assert s.right_quantile(p) == s.values[bisect_right(cdf, Fraction(p))]


# levels with long binary expansions (the double 1/3 has 53 significant
# bits), where a rounded n*p or count/n can land on the wrong side of a rank
LEVELS = [0.1, 0.3, 0.37, 0.8, 1 / 3]


class TestExactRanks:
    @given(
        st.integers(min_value=1, max_value=2**63 - 1),
        st.sampled_from(LEVELS + [0.5, 0.25, 1e-4, 2.0**-70, 3 * 2.0**-60, 1 - 2.0**-53]),
    )
    @settings(max_examples=500, deadline=None)
    def test_ranks_are_exact(self, n, p):
        left, right = quantile_ranks(np.array([n]), p)
        assert (int(left[0]), int(right[0])) == exact_ranks(n, p)

    @pytest.mark.parametrize("p", LEVELS + [1e-4])
    def test_every_path_over_arrays(self, p):
        # products that fit in an int64; float products corrected by their
        # residual, among them every n whose n*p lies next to an integer
        # (1e-4 is num / 2**66, so k * 2**s wraps to 0); and Python
        # integers from 2**53 on
        num = p.as_integer_ratio()[0]
        fits = (2**63 - 1) // num
        rng = np.random.default_rng(7)
        near = np.unique(np.rint(np.arange(1, 3000) / p).astype(np.int64))
        for ns in (
            np.arange(1, fits + 1),
            np.concatenate([np.arange(fits - 100, fits + 100), near]),
            rng.integers(1, 2**53, size=2000),
            rng.integers(2**53, 2**63 - 1, size=300, endpoint=True),
        ):
            left, right = quantile_ranks(ns, p)
            want = [exact_ranks(n, p) for n in ns.tolist()]
            assert list(zip(left.tolist(), right.tolist())) == want

    @pytest.mark.parametrize("p", [0.5, 0.3, 1e-4])
    def test_ranks_hold_at_most_three_rows(self, p):
        # the shift path (0.5), and the float path with (0.3) and without
        # (1e-4, whose k * 2**s wraps to 0) its shifted truncation: past the
        # input, the two results and one scratch row, plus array headers
        ns = np.arange(10**6, 10**6 + 2**15, dtype=np.int64)
        quantile_ranks(ns, p)
        tracemalloc.start()
        try:
            left, right = quantile_ranks(ns, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * ns.nbytes + 4096
        want = [exact_ranks(n, p) for n in ns[::97].tolist()]
        assert list(zip(left[::97].tolist(), right[::97].tolist())) == want

    @pytest.mark.parametrize("p", LEVELS)
    def test_sample_quantiles_at_the_largest_size(self, p):
        # n = 2**63 - 1, and the first atom's count one below, at and one
        # above each rank: no float ratio count/n can tell these apart
        n = 2**63 - 1
        ranks = exact_ranks(n, p)
        s = EmpiricalSample((0.0, 1.0, 2.0))
        for rank in ranks:
            for c0 in (rank - 1, rank, rank + 1):
                s.counts[:] = [c0, 1, n - c0 - 1]
                s.n = n
                cum = np.cumsum(s.counts).tolist()
                want = [s.values[min(j for j in range(3) if cum[j] >= r)] for r in ranks]
                assert [s.left_quantile(p), s.right_quantile(p)] == want

    @given(
        dist_and_level_st(max_atoms=8),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_order_statistics_at_and_next_to_cdf_levels(self, dp, n, seed):
        # p is uniform, a CDF value cum[j], or math.nextafter of one
        d, p = dp
        draws = sample_stream(d, seed, n)
        s = EmpiricalSample.from_distribution(d)
        s.extend(draws)
        xs = np.sort(draws)
        left, right = exact_ranks(n, p)
        assert s.left_quantile(p) == xs[left - 1]
        assert s.right_quantile(p) == xs[right - 1]

    def test_non_binary_level_refused(self):
        # read as num / 2**s, Fraction(1, 3) gave the ranks of 1/2: left
        # quantile 1.0 of (-1, 1, 1), not -1.0
        s = sample_of(fair_coin(), [-1.0, 1.0, 1.0])
        for quantile in (s.left_quantile, s.right_quantile):
            message = r"^p must be a double, got Fraction\(1, 3\)$"
            with pytest.raises(QuantileLimitsError, match=message) as info:
                quantile(Fraction(1, 3))
            assert info.value.param == "p"
        assert s.left_quantile(np.float32(0.25)) == -1.0

    def test_indices_count_atoms_below_the_rank(self):
        # atoms on the first axis, one rank per record on the rest; a window
        # of atoms a .. b-1 plus a gives the same index when the atoms below
        # a are below every rank and those from b on reach every rank
        cum = np.array([[1, 2, 5], [3, 4, 6], [3, 7, 9], [9, 9, 9]])
        left, right = quantile_indices(cum, np.array([1, 4, 6]), np.array([2, 5, 7]))
        assert left.tolist() == [0, 1, 1] and right.tolist() == [1, 2, 2]
        # records 1 and 2 on the window of atoms 1 and 2
        part = quantile_indices(cum[1:3, 1:], np.array([4, 6]), np.array([5, 7]))
        assert [(1 + i).tolist() for i in part] == [[1, 1], [2, 2]]


class TestGCDistance:
    def test_balanced_coin_sample(self):
        assert gc_distance(sample_of(fair_coin(), [-1.0, 1.0]), fair_coin())[0] == 0.0

    def test_heads_only(self):
        assert gc_distance(sample_of(fair_coin(), [1.0, 1.0]), fair_coin()) == (0.5, -1.0)

    def test_point_mass(self):
        d = point_mass(7.0)
        assert gc_distance(sample_of(d, [7.0, 7.0, 7.0]), d) == (0.0, 7.0)

    def test_requires_matching_support(self):
        message = "^sample is not bound to this distribution's support$"
        with pytest.raises(QuantileLimitsError, match=message):
            gc_distance(sample_of(fair_coin(), [1.0]), gapped_example())

    def test_requires_data(self):
        with pytest.raises(QuantileLimitsError, match="^sample holds no observations$"):
            gc_distance(EmpiricalSample.from_distribution(fair_coin()), fair_coin())

    def test_witness_attains_value(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = random_distribution(rng, max_atoms=10)
            s = EmpiricalSample.from_distribution(d)
            s.extend(sample_stream(d, int(rng.integers(0, 2**60)), 37))
            value, witness = gc_distance(s, d)
            assert abs(s.ecdf(witness) - d.cdf(witness)) == value

    def test_distance_shrinks_with_sample_size(self):
        # median over 100 seeds at n=1e4 sits below the median at n=1e2
        d = fair_coin()
        small, large = [], []
        for seed in range(100):
            draws = sample_stream(d, seed, 10_000)
            s = EmpiricalSample.from_distribution(d)
            s.extend(draws[:100])
            small.append(gc_distance(s, d)[0])
            s.extend(draws[100:])
            large.append(gc_distance(s, d)[0])
        assert np.median(large) < np.median(small)
