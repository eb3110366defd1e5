import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from quantile_limits.berry_esseen import (
    BEParams,
    bernoulli_moments,
    be_bound,
    interval_prob_bounds,
    phi_of_k,
    std_normal_cdf,
)
from quantile_limits.errors import QuantileLimitsError
from quantile_limits.simulate import deviation_experiment


def quad_normal_cdf(z: float) -> float:
    """Independent oracle: adaptive quadrature of the normal density."""
    density = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    tail, _ = quad(density, 0.0, abs(z), epsabs=1e-14, epsrel=1e-13)
    return 0.5 + math.copysign(tail, z)


def exact_binomial_cdf(n: int, k: int) -> Fraction:
    """P(Binomial(n, 1/2) <= k) as an exact rational, by direct summation."""
    if k < 0:
        return Fraction(0)
    return Fraction(sum(math.comb(n, j) for j in range(min(k, n) + 1)), 2**n)


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_saturation(self):
        assert abs(std_normal_cdf(40.0) - 1.0) <= 1e-15
        assert std_normal_cdf(-40.0) <= 1e-15

    def test_five_eighths_level(self):
        # numerical inversion gives z = 0.3186393639... for level 5/8
        assert std_normal_cdf(0.31864) == pytest.approx(0.625, abs=1e-5)

    def test_against_quadrature_oracle(self):
        for z in np.linspace(-6.0, 6.0, 121):
            assert abs(std_normal_cdf(float(z)) - quad_normal_cdf(float(z))) < 1e-12

    def test_reflection(self):
        for z in np.linspace(0.0, 10.0, 101):
            total = std_normal_cdf(float(z)) + std_normal_cdf(float(-z))
            assert abs(total - 1.0) < 1e-12

    def test_nondecreasing(self):
        zs = np.linspace(-12.0, 12.0, 481)
        vals = [std_normal_cdf(float(z)) for z in zs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestBernoulliMoments:
    def test_fair_values(self):
        m = bernoulli_moments(0.5)
        assert (m.mu, m.sigma, m.rho) == (0.5, 0.5, 0.125)

    def test_rho_identity(self):
        # q^3(1-q) + (1-q)^3 q == q(1-q)(q^2 + (1-q)^2)
        for q in (0.5, 0.2, 0.73):
            m = bernoulli_moments(q)
            assert m.rho == pytest.approx(q * (1 - q) * (q**2 + (1 - q) ** 2), rel=1e-15)

    def test_symmetric_in_q(self):
        # exact when 1-q is the exact complement (dyadic q), else to rounding
        for q in (0.25, 0.375, 0.5):
            assert bernoulli_moments(q).sigma == bernoulli_moments(1 - q).sigma
        for q in (0.1, 0.4, 0.73):
            assert bernoulli_moments(q).sigma == pytest.approx(
                bernoulli_moments(1 - q).sigma, rel=1e-15
            )

    def test_range_checks(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            message = re.escape(f"q must be in (0, 1), got {bad!r}")
            with pytest.raises(QuantileLimitsError, match=message) as info:
                bernoulli_moments(bad)
            assert info.value.param == "q"
        message = r"^sigma must be positive and finite, got 0\.0$"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            BEParams(mu=0.0, sigma=0.0, rho=1.0)
        assert info.value.param == "sigma"
        message = r"^rho must be positive and finite, got -1\.0$"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            BEParams(mu=0.0, sigma=1.0, rho=-1.0)
        assert info.value.param == "rho"


class TestBeBound:
    def test_unit_sample(self):
        assert be_bound(bernoulli_moments(0.5), 1) == 3.0

    def test_hundred(self):
        assert be_bound(bernoulli_moments(0.5), 100) == pytest.approx(0.3, abs=1e-15)

    def test_quarter_scaling(self):
        params = bernoulli_moments(0.3)
        for n in (1, 7, 50):
            assert be_bound(params, 4 * n) == be_bound(params, n) / 2.0

    def test_sample_size_checked(self):
        for bad in (0, -1):
            with pytest.raises(QuantileLimitsError, match=f"^n must be >= 1, got {bad}$") as info:
                be_bound(bernoulli_moments(0.5), bad)
            assert info.value.param == "n"

    @pytest.mark.parametrize("sigma", [1e-200, 1e-105, 1e103])
    def test_sigma_cube_out_of_double_range(self, sigma):
        # sigma**3 underflows to 0 (1e-200), makes the bound overflow
        # (1e-105) or overflows itself (1e103)
        params = BEParams(mu=0.0, sigma=sigma, rho=1.0)
        message = re.escape(
            f"sigma={sigma!r} is too small or too large: "
            "3*rho/(sigma^3*sqrt(n)) is not a finite double"
        )
        with pytest.raises(QuantileLimitsError, match=message) as info:
            be_bound(params, 4)
        assert info.value.param == "sigma"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            phi_of_k(params, 1, 0.25)
        assert info.value.param == "sigma"

    def test_n_past_double_range_names_n(self):
        # sqrt(n) overflows converting n to a double: n is at fault, not sigma
        # (spelled in brief: its 401 digits would fill the line)
        n = 10**400
        message = "n=1000...000 (401 digits) is too large: sqrt(n) is not a finite double"
        with pytest.raises(QuantileLimitsError, match=f"^{re.escape(message)}$") as info:
            be_bound(bernoulli_moments(0.5), n)
        assert info.value.param == "n"

    def test_rho_past_double_range_names_rho(self):
        # 3*rho overflows at rho = 1e308, whatever sigma and n
        params = BEParams(mu=0.0, sigma=1.0, rho=1e308)
        message = "rho=1e+308 is too large: 3*rho is not a finite double"
        for call in (lambda: be_bound(params, 1), lambda: phi_of_k(params, 1, 0.25)):
            with pytest.raises(QuantileLimitsError, match=f"^{re.escape(message)}$") as info:
                call()
            assert info.value.param == "rho"

    @pytest.mark.parametrize(
        "mu,sigma,rho,n",
        [(0.5, 0.5, 0.125, 1), (0.0, 1.0, 5e307, 1), (0.0, 1e-100, 1e-300, 10**7),
         (0.0, 1e100, 1.0, 2**1020), (0.0, 2.0, 3.0, 2**1024 - 2**971)],
    )
    def test_accepted_bounds_keep_their_value(self, mu, sigma, rho, n):
        # the checks in front of the one expression change no value it gives
        want = 3.0 * rho / (sigma**3 * math.sqrt(n))
        assert be_bound(BEParams(mu=mu, sigma=sigma, rho=rho), n) == want

    def test_runaway_n2_names_k(self):
        # n1 is 576 at sigma 1/2; only the n2 search passes 2**62
        message = "no feasible n below 2^62 for k=100000000000, sigma=0.5, rho=0.125, alpha=0.25"
        with pytest.raises(QuantileLimitsError, match=re.escape(message)) as info:
            phi_of_k(bernoulli_moments(0.5), 10**11, 0.25)
        assert info.value.param == "k"

    @pytest.mark.parametrize(
        "mu,sigma,rho,param",
        [(math.nan, 1.0, 1.0, "mu"), (math.inf, 1.0, 1.0, "mu"),
         (0.0, math.nan, 1.0, "sigma"), (0.0, math.inf, 1.0, "sigma"),
         (0.0, 1.0, math.nan, "rho"), (0.0, 1.0, math.inf, "rho")],
    )
    def test_moments_must_be_finite(self, mu, sigma, rho, param):
        rule = "finite" if param == "mu" else "positive and finite"
        bad = {"mu": mu, "sigma": sigma, "rho": rho}[param]
        message = f"^{param} must be {rule}, got {bad}$"
        with pytest.raises(QuantileLimitsError, match=message) as info:
            BEParams(mu=mu, sigma=sigma, rho=rho)
        assert info.value.param == param


class TestIntervalProbBounds:
    def test_one_sided_window_at_million(self):
        # width 0.5, two-sided slack 6*rho/(sigma^3*sqrt(n)) = 0.006
        lo, hi = interval_prob_bounds(bernoulli_moments(0.5), 10**6, float("-inf"), 0.0)
        assert lo == pytest.approx(0.494, abs=1e-12)
        assert hi == pytest.approx(0.506, abs=1e-12)

    def test_total_mass_window(self):
        params = bernoulli_moments(0.5)
        for n in (1, 100, 10**6):
            lo, hi = interval_prob_bounds(params, n, float("-inf"), float("inf"))
            assert hi == 1.0
            assert lo == max(0.0, 1.0 - 2.0 * be_bound(params, n))

    def test_brackets_exact_binomial_tail(self):
        # P(S_100 <= 50) for a fair Bernoulli sum, standardized threshold 0
        exact = float(exact_binomial_cdf(100, 50))
        lo, hi = interval_prob_bounds(bernoulli_moments(0.5), 100, float("-inf"), 0.0)
        assert lo < exact < hi

    def test_rejects_bad_interval(self):
        with pytest.raises(QuantileLimitsError, match=r"^need z1 < z2, got 1\.0 >= 1\.0$"):
            interval_prob_bounds(bernoulli_moments(0.5), 10, 1.0, 1.0)
        with pytest.raises(QuantileLimitsError, match=r"^need z1 < z2, got 2\.0 >= -2\.0$"):
            interval_prob_bounds(bernoulli_moments(0.5), 10, 2.0, -2.0)


class TestPhiOfK:
    def test_fair_coin_k1(self):
        res = phi_of_k(bernoulli_moments(0.5), 1, 0.25)
        assert (res.n1, res.n2, res.phi) == (576, 40, 576)

    def test_fair_coin_k2(self):
        res = phi_of_k(bernoulli_moments(0.5), 2, 0.25)
        assert res.n2 == 158
        assert res.phi == 576

    def test_n1_against_exact_arithmetic(self):
        # 3*rho/(sigma^3*sqrt(n)) <= alpha/2 with rho/sigma^3 = 1 and
        # alpha = 1/4 reduces to n >= 24^2 exactly
        assert phi_of_k(bernoulli_moments(0.5), 1, 0.25).n1 == 24**2

    def test_n2_against_mpmath_oracle(self):
        mpmath.mp.dps = 50
        for k, expected in ((1, 40), (2, 158)):
            threshold = mpmath.mpf(1) / 2 + mpmath.mpf("0.125")
            ok = lambda n: mpmath.ncdf(2 * k / mpmath.sqrt(n)) < threshold
            n_star = next(n for n in range(1, 1000) if ok(n))
            assert n_star == expected
            assert phi_of_k(bernoulli_moments(0.5), k, 0.25).n2 == n_star

    def test_minimality(self):
        params = bernoulli_moments(0.5)
        res = phi_of_k(params, 1, 0.25)
        assert be_bound(params, res.n1) <= 0.125
        assert be_bound(params, res.n1 - 1) > 0.125
        below = lambda n: std_normal_cdf(1 / (params.sigma * math.sqrt(n))) < 0.625
        assert below(res.n2) and not below(res.n2 - 1)

    def test_nondecreasing_in_k(self):
        params = bernoulli_moments(0.5)
        phis = [phi_of_k(params, k, 0.25).phi for k in range(1, 8)]
        assert all(a <= b for a, b in zip(phis, phis[1:]))

    @pytest.mark.parametrize("k", [2**1024 - 2**970, 10**400])
    def test_k_past_double_range_names_k(self, k):
        # k rounds past the largest double: no n is feasible, as for any
        # k that is too large, and the search refuses it in k's name
        # (spelled in brief, as its first and last digits and their count)
        digits = str(k)
        brief = f"{digits[:4]}...{digits[-3:]} ({len(digits)} digits)"
        message = f"no feasible n below 2^62 for k={brief}, sigma=0.5, rho=0.125, alpha=0.25"
        with pytest.raises(QuantileLimitsError, match=f"^{re.escape(message)}$") as info:
            phi_of_k(bernoulli_moments(0.5), k, 0.25)
        assert info.value.param == "k"

    def test_parameter_checks(self):
        params = bernoulli_moments(0.5)
        with pytest.raises(QuantileLimitsError, match=r"^k must be >= 1, got 0$") as info:
            phi_of_k(params, 0, 0.25)
        assert info.value.param == "k"
        for bad_alpha in (0.0, 0.5, 0.7, -0.1):
            message = rf"^alpha must be in \(0, 0\.5\), got {re.escape(repr(bad_alpha))}$"
            with pytest.raises(QuantileLimitsError, match=message) as info:
                phi_of_k(params, 1, bad_alpha)
            assert info.value.param == "alpha"


def test_deviation_probabilities_exceed_quarter():
    # the alpha = 1/4 guarantee is > 1/4 on each side; check k = 1 and 2
    for k in (1, 2):
        freq_low, freq_high = deviation_experiment(0.5, k, 0.25, 10_000, 1301 + k)
        assert freq_low > 0.25
        assert freq_high > 0.25
