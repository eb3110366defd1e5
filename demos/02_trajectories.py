"""Sample quantile trajectories: convergence versus endless oscillation.

When the left and right quantiles coincide at p, the sample quantile
settles on the common value.  When they differ, the sample quantile keeps
jumping between the two gap edges forever; the running minimum approaches
the left edge and the running maximum the right edge.
"""

import numpy as np

from quantile_limits import (
    SimConfig,
    fair_coin,
    gapped_example,
    make_discrete,
    run_trajectory,
    sandwich_check,
    switch_stats,
)

# --- a distribution with coincident quantiles at p: the trajectory settles
uniform10 = make_discrete([(float(i), 0.1) for i in range(1, 11)])
cfg = SimConfig(uniform10, 0.37, 20_000, master_seed=3)
traj = run_trajectory(cfg, rep_index=0)
print("uniform 10-atom, p=0.37 (quantiles coincide at",
      uniform10.left_quantile(0.37), ")")
for n, lq, rq in list(zip(traj.ns, traj.lq, traj.rq))[::400]:
    print(f"  n={n:>6}  lq={lq}  rq={rq}")
print("  final:", (int(traj.ns[-1]), float(traj.lq[-1]), float(traj.rq[-1])))

# --- the fair coin at p=1/2: the sample quantile oscillates forever
print()
cfg = SimConfig(fair_coin(), 0.5, 50_000, master_seed=5, record_stride=1)
traj = run_trajectory(cfg, rep_index=0)
st = switch_stats(traj, burn_in=100)
print("fair coin, p=0.5: left quantile value switches after burn-in:",
      st.switch_count)
print("  band:", st.running_min, "..", st.running_max, " visits:", st.visits)

# --- the gapped example: oscillation pinned to the gap edges {0, 3}
print()
fig = gapped_example()
cfg = SimConfig(fig, 0.5, 50_000, master_seed=1, record_stride=1)
oks = 0
for rep in range(10):
    t = run_trajectory(cfg, rep)
    oks += sandwich_check(t, fig, 0.5, epsilon=0.1, burn_in=1000)
print("gapped example, p=0.5: sandwich containment past n=1000 holds in",
      f"{oks}/10 replications")
t = run_trajectory(cfg, 0)
values, counts = np.unique(t.lq[t.ns >= 1000], return_counts=True)
print("  recorded left-quantile occupancy:", dict(zip(values.tolist(), counts.tolist())))
