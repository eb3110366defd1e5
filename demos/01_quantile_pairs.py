"""Left and right quantiles of finite discrete distributions.

The two quantile functions disagree exactly where the CDF is flat at the
queried level; the flat stretch is the "gap" and its interior carries no
probability.  Everything printed here is computed in closed form.
"""

from quantile_limits import bernoulli, fair_coin, gapped_example, make_discrete

coin = fair_coin()
print("fair coin atoms:", coin.as_pairs())
for p in (0.25, 0.5, 0.75):
    pair = coin.quantile_pair(p)
    print(f"  p={p}:  left={pair.left}  right={pair.right}  coincide={pair.coincide}")

print()
fig = gapped_example()
print("gapped example atoms:", fig.as_pairs())
print("CDF at 0, 3, 5:", [fig.cdf(x) for x in (0.0, 3.0, 5.0)])
pair = fig.quantile_pair(0.5)
print(f"at p=0.5 the CDF is flat: left={pair.left}, right={pair.right}")
print("mass strictly inside the gap (0, 3):",
      sum(q for v, q in fig.as_pairs() if 0.0 < v < 3.0))

print()
print("the solution interval of F(x-) <= p <= F(x) is [left, right]:")
for p in (0.5, 0.8, 0.9):
    pair = fig.quantile_pair(p)
    print(f"  p={p}: [{pair.left}, {pair.right}]  unique={pair.coincide}")

print()
print("endpoints use extended reals:")
print("  left quantile at p=0:", fig.left_quantile(0.0))
print("  right quantile at p=1:", fig.right_quantile(1.0))

print()
custom = make_discrete([(v, w / 10) for v, w in [(-2, 1), (0, 4), (1.5, 2), (8, 3)]])
print("custom 4-atom distribution:", custom.as_pairs())
print("median pair:", custom.quantile_pair(0.5))
print("bernoulli(0.3) pair at 0.7:", bernoulli(0.3).quantile_pair(0.7))
