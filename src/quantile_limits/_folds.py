"""The analyses of a trajectory as folds over its blocks of records, in
order: ``run_replicated`` folds each block as it arrives, and
``switch_stats``, ``sandwich_check`` and ``gap_interior_hits`` fold a whole
trajectory as one block.

They live apart from :mod:`.simulate` because a module's source is compiled
at import when no bytecode is cached, and that compile's peak memory grows
with the module: it is part of every run's peak RSS.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution
from .errors import QuantileLimitsError, check_positive

# runs of one value the switch fold holds before it merges them into its
# visits (_SwitchFold)
_RUNS = 1 << 15


@dataclass(frozen=True)
class SwitchStats:
    """Oscillation summary of the recorded left-quantile sequence."""

    switch_count: int
    visits: dict
    running_min: float
    running_max: float


class _WindowFold:
    """The records past burn_in, over a trajectory's blocks in order: a
    fold takes each block with ``add(ns, lq, rq)``, then gives its result."""

    def __init__(self, burn_in: int):
        self.burn_in = burn_in
        self.records = self.kept = 0

    def _window(self, ns: np.ndarray):
        # an index of the block's records at or past burn_in: slice(None),
        # which copies nothing, when that is all of them, else a mask
        self.records += len(ns)
        if len(ns) and ns.min() >= self.burn_in:
            self.kept += len(ns)
            return slice(None)
        mask = ns >= self.burn_in
        self.kept += int(np.count_nonzero(mask))
        return mask

    def _check(self) -> None:
        if self.records == 0:
            raise QuantileLimitsError("trajectory holds no records")
        if self.kept == 0:
            raise QuantileLimitsError(f"no records at or beyond burn_in={self.burn_in}")


class _SwitchFold(_WindowFold):
    """switch_stats over blocks: the switch count carries the last left
    quantile from block to block, and the visits and extremes merge."""

    def __init__(self, burn_in: int):
        super().__init__(burn_in)
        self.switch_count = 0
        self.visits: dict = {}
        self.last = self.low = self.high = None
        # runs of one value and where each ends among the kept records, not
        # yet merged into the visits, and the end of the last merged run
        self.runs, self.ends, self.held, self.merged = [], [], 0, -1

    def add(self, ns, lq, rq) -> None:
        w = lq[self._window(ns)]
        if len(w) == 0:
            return
        # w is runs of one value, which end at each change and at w's end
        ends = np.append(np.flatnonzero(w[1:] != w[:-1]), len(w) - 1)
        self.switch_count += len(ends) - 1
        if self.last is not None:
            self.switch_count += bool(w[0] != self.last)
        self.last = w[-1]
        self.runs.append(w[ends])
        self.ends.append(ends + (self.kept - len(w)))
        self.held += len(ends)
        if self.held >= _RUNS:  # merged many blocks' worth at a time, not per block
            self._merge()

    def _merge(self) -> None:
        # the visits and extremes are the runs', so only the runs are sorted
        runs, ends = np.concatenate(self.runs), np.concatenate(self.ends)
        vals, which = np.unique(runs, return_inverse=True)
        counts = np.bincount(which, weights=np.diff(ends, prepend=self.merged))
        for v, c in zip(vals.tolist(), counts.tolist()):
            v = v if v == v else math.nan  # one NaN key, whichever block it is in
            self.visits[v] = self.visits.get(v, 0) + int(c)
        # np.minimum and np.maximum carry a NaN on, as min and max of w do
        low, high = runs.min(), runs.max()
        self.low = low if self.low is None else np.minimum(self.low, low)
        self.high = high if self.high is None else np.maximum(self.high, high)
        self.runs, self.ends, self.held, self.merged = [], [], 0, ends[-1]

    def result(self) -> SwitchStats:
        self._check()
        if self.runs:
            self._merge()
        return SwitchStats(self.switch_count, self.visits, float(self.low), float(self.high))


class _SandwichFold(_WindowFold):
    """sandwich_check over blocks."""

    def __init__(self, d: DiscreteDistribution, p: float, epsilon: float, burn_in: int):
        check_positive("epsilon", epsilon)
        pair = d.quantile_pair(p)
        super().__init__(burn_in)
        # v > lq - epsilon iff v >= lo and v < rq + epsilon iff v <= hi, exactly:
        # a rounded bound is the wanted double or a step short, and fsum's sign is exact
        lo, hi = pair.left - epsilon, pair.right + epsilon
        if math.fsum((lo, -pair.left, epsilon)) <= 0:
            lo = math.nextafter(lo, math.inf)
        if math.fsum((hi, -pair.right, -epsilon)) >= 0:
            hi = math.nextafter(hi, -math.inf)
        self.bounds = lo, pair.left, pair.right, hi
        self.inside = True

    def add(self, ns, lq, rq) -> None:
        window = self._window(ns)
        lo, left, right, hi = self.bounds
        for vals in (lq[window], rq[window]):
            # lo <= left <= right <= hi: the sandwich is [lo, hi] less the
            # open gap (left, right); a NaN fails min() >= lo
            if self.inside and len(vals):
                self.inside = bool(
                    vals.min() >= lo and vals.max() <= hi
                    and not np.any((vals > left) & (vals < right))
                )

    def result(self) -> bool:
        self._check()
        return self.inside


class _GapFold:
    """gap_interior_hits over blocks."""

    def __init__(self, pair):
        self.pair = pair
        self.hits = 0

    def add(self, ns, lq, rq) -> None:
        left, right = self.pair.left, self.pair.right
        inside_l = (lq > left) & (lq < right)
        inside_r = (rq > left) & (rq < right)
        self.hits += int(np.count_nonzero(inside_l) + np.count_nonzero(inside_r))


class _LastFold:
    """The last record of a trajectory's blocks."""

    def add(self, ns, lq, rq) -> None:
        self.n, self.lq, self.rq = int(ns[-1]), float(lq[-1]), float(rq[-1])
