"""The deviation machinery behind the oscillation proof, run empirically.

phi(k) is the block length at which a centered Bernoulli sum escapes +/-k
on each side with probability > 1/2 - alpha.  Stacking disjoint blocks
(n_1, m_1], (m_1, n_2], ... produces independent paired events C_k whose
probabilities exceed 1/16, so they keep happening forever.
"""

from quantile_limits import (
    bernoulli_moments,
    block_event_experiment,
    block_schedule,
    deviation_experiment,
    phi_of_k,
)

params = bernoulli_moments(0.5)
print("fair Bernoulli moments:", params)

for k in (1, 2, 3):
    res = phi_of_k(params, k, alpha=0.25)
    print(f"phi({k}): n1={res.n1} (normal approx trusted), "
          f"n2={res.n2} (deviation within half a z), phi={res.phi}")

print()
freq_low, freq_high = deviation_experiment(0.5, k=1, alpha=0.25, reps=10_000,
                                           master_seed=2024)
print("deviation frequencies at phi(1)=576 over 10000 blocks:")
print(f"  P(S - phi/2 < -1) ~ {freq_low}   P(S - phi/2 > 1) ~ {freq_high}")
print("  guarantee: both > 0.25;  normal-approximation value ~ 0.45")

print()
idx = block_schedule(params, alpha=0.25, k_max=3, n_cap=10**8)
print("block schedule under cap 1e8:")
print("  complete windows:", tuple(zip(idx[::2], idx[1::2])))
print("  generated indices:", idx)
print("  (the next window start would exceed the cap: phi grows quadratically)")

print()
freq = block_event_experiment(0.5, alpha=0.25, reps=10_000, master_seed=2024)
print(f"paired event C_1 frequency over 10000 replications: {freq}")
print(f"  guaranteed > 1/16 = {1 / 16};  product of the two sides ~ 0.17")
