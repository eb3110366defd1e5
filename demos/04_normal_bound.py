"""Normal-approximation error bounds checked against exact binomials,
plus the empirical-CDF sup distance shrinking with sample size.
"""

import math
from fractions import Fraction

from quantile_limits import (
    BEParams,
    be_bound,
    fair_coin,
    gc_path,
    interval_prob_bounds,
    std_normal_cdf,
)

params = BEParams(mu=0.0, sigma=1.0, rho=1.0)  # the +/-1 coin
print("uniform CDF error bound 3*rho/(sigma^3*sqrt(n)):")
for n in (25, 100, 400, 10_000):
    print(f"  n={n:>6}: bound={be_bound(params, n):.4f}")

print()
print("worst true error of the standardized fair-coin sum vs the bound:")
for n in (25, 100, 400):
    acc, worst = 0, 0.0
    denom = 2**n
    cdf_prev = 0.0
    for h in range(n + 1):
        acc += math.comb(n, h)
        z = (2 * h - n) / math.sqrt(n)
        phi = std_normal_cdf(z)
        cdf_h = float(Fraction(acc, denom))
        worst = max(worst, abs(cdf_h - phi), abs(cdf_prev - phi))
        cdf_prev = cdf_h
    print(f"  n={n:>4}: exact worst error {worst:.4f} <= bound {be_bound(params, n):.4f}")

print()
print("certified probability windows, fair coin mean below 0 (exact value 0.5+):")
for n in (100, 10_000, 1_000_000):
    lo, hi = interval_prob_bounds(params, n, float("-inf"), 0.0)
    print(f"  n={n:>8}: [{lo:.4f}, {hi:.4f}]")

print()
print("sup |F_n - F| for one fair-coin stream, by checkpoint:")
checkpoints = (100, 1000, 10_000, 100_000)
distances, witnesses = gc_path(fair_coin(), 41, checkpoints)
for ck, g, w in zip(checkpoints, distances, witnesses):
    print(f"  n={ck:>7}: distance={g:.5f} attained at x={w}")
