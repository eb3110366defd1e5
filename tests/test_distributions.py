import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NEG_INF,
    POS_INF,
    bf_left_quantile,
    bf_right_quantile,
    bf_solution_interval,
    cdf_left_limit,
    dist_and_level_st,
    distributions_st,
    prob_of,
)
from quantile_limits.distributions import (
    QuantilePair,
    bernoulli,
    fair_coin,
    from_spec,
    gapped_example,
    make_discrete,
    point_mass,
)
from quantile_limits.errors import QuantileLimitsError


class TestMakeDiscrete:
    def test_sorts_atoms(self):
        d = make_discrete([(1, 0.5), (-1, 0.5)])
        assert d.as_pairs() == [(-1.0, 0.5), (1.0, 0.5)]

    def test_three_atom_instance_quantiles(self):
        d = make_discrete([(0, 0.5), (3, 0.3), (5, 0.2)])
        assert d.left_quantile(0.5) == 0.0
        assert d.right_quantile(0.5) == 3.0

    def test_merges_duplicates(self):
        d = make_discrete([(2, 0.5), (2, 0.5)])
        assert d.as_pairs() == [(2.0, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(QuantileLimitsError, match="^at least one atom is required$"):
            make_discrete([])

    def test_nonpositive_prob_rejected(self):
        message = r"^atom \(0\.0, -0\.5\) has non-positive probability$"
        with pytest.raises(QuantileLimitsError, match=message):
            make_discrete([(0, -0.5), (1, 1.5)])
        message = r"^atom \(0\.0, 0\.0\) has non-positive probability$"
        with pytest.raises(QuantileLimitsError, match=message):
            make_discrete([(0, 0.0), (1, 1.0)])

    def test_non_finite_rejected(self):
        with pytest.raises(QuantileLimitsError, match=r"^atom \(nan, 1\.0\) is not finite$"):
            make_discrete([(float("nan"), 1.0)])

    def test_sum_out_of_tolerance_rejected(self):
        message = r"^probabilities sum to 1\.1, outside 1 \+/- 1e-12$"
        with pytest.raises(QuantileLimitsError, match=message):
            make_discrete([(0, 0.5), (1, 0.6)])

    def test_residue_too_large_for_the_top_atom(self):
        # the top atom cannot absorb the first residue and stay positive, so
        # the largest prob takes it
        d = make_discrete([
            (0.0, 0.2508394984557776), (1.0, 0.26308504214489836), (2.0, 0.1860737049995595),
            (3.0, 0.111438388373034), (4.0, 0.18856336602673046), (6.0, 3e-17),
        ])
        assert d.probs == (
            0.25083949845577763, 0.2630850421448982, 0.18607370499955952,
            0.11143838837303402, 0.1885633660267305, 1.4102230246251565e-16,
        )
        assert math.fsum(d.probs) == 1.0 and min(d.probs) > 0.0
        assert d.cum[-2:] == (0.9999999999999999, 1.0)

    def test_renormalizes_to_exact_unit_sum(self):
        d = make_discrete([(0, 0.2 + 1e-13), (1, 0.3), (2, 0.5)])
        assert math.fsum(d.probs) == 1.0
        assert d.cum[-1] == 1.0

    @given(distributions_st())
    @settings(max_examples=200)
    def test_invariants(self, d):
        assert all(a < b for a, b in zip(d.values, d.values[1:]))
        assert all(q > 0 for q in d.probs)
        assert math.fsum(d.probs) == 1.0
        assert d.cum[-1] == 1.0

    def test_cum_stays_monotone_at_the_top(self):
        # the running sum of the first 23 probs rounds above 1.0; the last
        # atom's mass, about 4.5e-17, is below the draw's level spacing
        w = [1000.0] * 22 + [1.0, 1e-12]
        d = make_discrete((i, x / sum(w)) for i, x in enumerate(w))
        assert d.cum[-2] == d.cum[-1] == 1.0
        assert d.cdf(22.0) == 1.0
        assert d.left_quantile(1.0) == 22.0

    @given(st.lists(
        st.tuples(st.sampled_from([1.0, 1e-3, 1e-9, 1e-12, 1e-15, 1e-17]),
                  st.integers(min_value=1, max_value=1000)),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=300)
    def test_cum_non_decreasing_and_at_most_one(self, weights):
        w = [scale * k for scale, k in weights]
        total = math.fsum(w)
        d = make_discrete((i, x / total) for i, x in enumerate(w))
        assert all(a <= b for a, b in zip(d.cum, d.cum[1:]))
        assert max(d.cum) <= 1.0
        assert d.cum[-1] == 1.0


class TestCdf:
    def test_fair_coin_at_atom(self):
        assert fair_coin().cdf(-1.0) == 0.5

    def test_fair_coin_flat_region(self):
        assert fair_coin().cdf(0.0) == 0.5

    def test_three_atom_instance(self):
        assert gapped_example().cdf(3.0) == 0.5 + 0.3

    def test_outside_support(self):
        d = gapped_example()
        assert d.cdf(-10.0) == 0.0
        assert d.cdf(10.0) == 1.0

    def test_left_limit(self):
        # the tests' F(x-), an oracle of the solution interval
        d = gapped_example()
        assert cdf_left_limit(d, 3.0) == 0.5
        assert cdf_left_limit(d, 0.0) == 0.0
        assert cdf_left_limit(d, 2.0) == d.cdf(2.0) == 0.5


class TestQuantiles:
    def test_fair_coin_halves(self):
        c = fair_coin()
        assert c.left_quantile(0.5) == -1.0
        assert c.right_quantile(0.5) == 1.0

    def test_endpoint_levels(self):
        d = gapped_example()
        assert d.left_quantile(0.0) == NEG_INF
        assert d.right_quantile(1.0) == POS_INF
        assert d.left_quantile(1.0) == 5.0
        assert d.right_quantile(0.0) == 0.0

    def test_out_of_range_rejected(self):
        message = r"^p must be in \[0, 1\], got 1\.5$"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            fair_coin().left_quantile(1.5)
        assert info.value.param == "p"
        message = r"^p must be in \[0, 1\], got -0\.1$"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            fair_coin().right_quantile(-0.1)
        assert info.value.param == "p"

    def test_pair_point_mass(self):
        pair = point_mass(7.0).quantile_pair(0.3)
        assert (pair.left, pair.right, pair.coincide) == (7.0, 7.0, True)

    def test_pair_fair_coin_flat(self):
        pair = fair_coin().quantile_pair(0.5)
        assert (pair.left, pair.right, pair.coincide) == (-1.0, 1.0, False)

    def test_pair_fair_coin_quarter(self):
        # brute force over candidates {-1, 0, 1}: F(-1)=0.5 >= 0.25 first
        pair = fair_coin().quantile_pair(0.25)
        assert (pair.left, pair.right, pair.coincide) == (-1.0, -1.0, True)

    def test_pair_rejects_inverted(self):
        message = "^left quantile exceeds right quantile$"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            QuantilePair(p=0.5, left=1.0, right=-1.0)
        assert isinstance(info.value, ValueError)


class TestSolutionInterval:
    """[left, right] of the quantile pair solves F(x-) <= p <= F(x), and the
    set is one point exactly when the pair coincides."""

    @staticmethod
    def check(d, p, lo, hi):
        pair = d.quantile_pair(p)
        assert bf_solution_interval(d, p) == (pair.left, pair.right) == (lo, hi)
        assert pair.coincide == (lo == hi)

    def test_fair_coin_flat(self):
        self.check(fair_coin(), 0.5, -1.0, 1.0)

    def test_point_mass(self):
        self.check(point_mass(7.0), 0.5, 7.0, 7.0)

    def test_three_atom_instance_upper(self):
        # F(3)=0.8 < 0.9 <= F(5)=1
        self.check(gapped_example(), 0.9, 5.0, 5.0)

    def test_endpoints_extend_to_infinity(self):
        # at p = 0 the set is (-inf, 0], at p = 1 it is [5, inf)
        assert gapped_example().quantile_pair(0.0) == QuantilePair(0.0, NEG_INF, 0.0)
        assert gapped_example().quantile_pair(1.0) == QuantilePair(1.0, 5.0, POS_INF)


class TestProperties:
    @given(dist_and_level_st())
    @settings(max_examples=300)
    def test_matches_brute_force(self, case):
        d, p = case
        assert d.left_quantile(p) == bf_left_quantile(d, p)
        assert d.right_quantile(p) == bf_right_quantile(d, p)

    @given(dist_and_level_st())
    @settings(max_examples=200)
    def test_left_at_most_right(self, case):
        d, p = case
        assert d.left_quantile(p) <= d.right_quantile(p)

    @given(dist_and_level_st(), dist_and_level_st())
    @settings(max_examples=200)
    def test_monotone_in_level(self, case1, case2):
        d, p1 = case1
        _, p2 = case2
        if p1 > p2:
            p1, p2 = p2, p1
        assert d.left_quantile(p1) <= d.left_quantile(p2)
        assert d.right_quantile(p1) <= d.right_quantile(p2)

    @given(dist_and_level_st())
    @settings(max_examples=200)
    def test_open_gap_carries_no_mass(self, case):
        d, p = case
        pair = d.quantile_pair(p)
        inside = [q for v, q in d.as_pairs() if pair.left < v < pair.right]
        assert math.fsum(inside) == 0.0

    @given(dist_and_level_st())
    @settings(max_examples=200)
    def test_solution_interval_is_quantile_pair(self, case):
        d, p = case
        if not 0.0 < p < 1.0:
            return
        pair = d.quantile_pair(p)
        assert bf_solution_interval(d, p) == (pair.left, pair.right)

    @given(dist_and_level_st())
    @settings(max_examples=200)
    def test_quantiles_land_on_atoms(self, case):
        d, p = case
        atoms = set(d.values)
        assert d.left_quantile(p) in atoms
        assert d.right_quantile(p) in atoms


def unrecognized(spec):
    return re.escape(
        "unrecognized distribution spec: expected 'atoms' or family "
        f"coin/bernoulli/figure, got {spec!r}"
    )


class TestFromSpec:
    def test_atoms_form(self):
        d = from_spec({"atoms": [{"x": 0, "p": 0.5}, {"x": 2, "p": 0.5}]})
        assert d.as_pairs() == [(0.0, 0.5), (2.0, 0.5)]

    def test_families(self):
        assert from_spec({"family": "coin"}) == fair_coin()
        assert from_spec({"family": "figure"}) == gapped_example()
        assert from_spec({"family": "bernoulli", "q": 0.3}) == bernoulli(0.3)

    def test_bad_specs(self):
        with pytest.raises(QuantileLimitsError, match=unrecognized({"family": "cauchy"})):
            from_spec({"family": "cauchy"})
        message = "^q is required with family 'bernoulli'$"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            from_spec({"family": "bernoulli"})
        assert info.value.param == "q"
        with pytest.raises(QuantileLimitsError, match="^each atom needs 'x' and 'p' fields$"):
            from_spec({"atoms": [{"x": 0}]})

    @pytest.mark.parametrize(
        "spec",
        [{"family": "bernoulli"}, {"family": "coin", "q": 0.3}, {"family": "figure", "q": None}],
    )
    def test_q_goes_with_bernoulli(self, spec):
        rule = "required" if spec["family"] == "bernoulli" else "only valid"
        message = f"^q is {rule} with family 'bernoulli'$"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            from_spec(spec)
        assert info.value.param == "q"
        assert "family 'bernoulli'" in str(info.value)

    def test_family_must_be_a_name(self):
        for family in (["coin"], {"a": 1}, None, 1):
            with pytest.raises(QuantileLimitsError, match=unrecognized({"family": family})):
                from_spec({"family": family})

    @pytest.mark.parametrize(
        "spec, message",
        [({"family": "bernoulli", "q": "abc"}, "expected a number, got 'abc'"),
         ({"family": "bernoulli", "q": [1]}, "expected a number, got [1]"),
         ([1, 2], "a distribution spec must be an object, got [1, 2]"),
         ("coin", "a distribution spec must be an object, got 'coin'"),
         (None, "a distribution spec must be an object, got None"),
         ({"atoms": [{"x": "a", "p": 1}]}, "expected a number, got 'a'"),
         ({"atoms": [{"x": 0, "p": None}]}, "expected a number, got None")],
        ids=["spec0", "spec1", "spec2", "coin", "None", "spec5", "spec6"],
    )
    def test_malformed_content(self, spec, message):
        with pytest.raises(QuantileLimitsError, match=f"^{re.escape(message)}$"):
            from_spec(spec)

    def test_bernoulli_range(self):
        with pytest.raises(QuantileLimitsError, match=r"^q must be in \(0, 1\), got 1\.0$") as info:
            bernoulli(1.0)
        assert info.value.param == "q"


def test_distribution_is_value_like():
    a = make_discrete([(0, 0.5), (1, 0.5)])
    b = make_discrete([(1, 0.5), (0, 0.5)])
    assert a == b
    assert hash(a) == hash(b)
    assert len(a) == 2
    assert prob_of(a, 0.0) == 0.5
    assert prob_of(a, 0.25) == 0.0
