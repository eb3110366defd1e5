"""Empirical distribution functions over a known finite support.

A sample is stored as per-atom counts rather than a list of observations:
the supports we simulate from are tiny (a handful of atoms) while sample
sizes reach 1e5..1e7, so counting makes inserts O(1) and quantile queries a
linear scan over the atoms.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, make_discrete
from .errors import EmptySample, ValueOutsideSupport, check_open


@dataclass(frozen=True)
class GCDistance:
    """Sup distance between an empirical CDF and its generating CDF.

    ``witness`` is the leftmost real x attaining ``value = sup |F_n - F|``.
    """

    value: float
    witness: float


class EmpiricalSample:
    """Streaming multiset of observations bound to a fixed finite support.

    Counts only ever grow; call :meth:`reset` to start over.  A sample is a
    single-owner accumulator: mutate it from one thread at a time (read-only
    queries on a quiescent sample are safe from anywhere).
    """

    __slots__ = ("values", "_index", "counts", "n")

    def __init__(self, support: tuple[float, ...]):
        self.values = tuple(float(v) for v in support)
        self._index = {v: i for i, v in enumerate(self.values)}
        self.counts = np.zeros(len(self.values), dtype=np.int64)
        self.n = 0

    @classmethod
    def from_distribution(cls, d: DiscreteDistribution) -> "EmpiricalSample":
        """Empty sample bound to d's support."""
        return cls(d.values)

    def reset(self) -> None:
        self.counts[:] = 0
        self.n = 0

    def insert(self, x: float) -> None:
        """Record one observation; x must be one of the bound support values."""
        i = self._index.get(float(x))
        if i is None:
            raise ValueOutsideSupport(f"{x!r} is not an atom of the bound support")
        self.counts[i] += 1
        self.n += 1

    def extend(self, xs: np.ndarray) -> None:
        """Bulk insert; every entry must lie on the support."""
        xs = np.asarray(xs, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        idx = np.searchsorted(values, xs)
        idx_clipped = np.minimum(idx, len(values) - 1)
        if not np.all(values[idx_clipped] == xs):
            bad = xs[values[idx_clipped] != xs][0]
            raise ValueOutsideSupport(f"{bad!r} is not an atom of the bound support")
        self.counts += np.bincount(idx_clipped, minlength=len(values))
        self.n += len(xs)

    def ecdf(self, x: float) -> float:
        """F_n(x) = (#observations <= x) / n."""
        self._require_data()
        total = 0
        for v, c in zip(self.values, self.counts):
            if v > x:
                break
            total += int(c)
        return total / self.n

    def left_quantile(self, p: float) -> float:
        """Sample left quantile: inf{x : F_n(x) >= p}, i.e. order statistic
        at rank ceil(n*p).  Requires 0 < p < 1 and a nonempty sample."""
        return self.values[self._quantile_indices(p)[0]]

    def right_quantile(self, p: float) -> float:
        """Sample right quantile: inf{x : F_n(x) > p}, i.e. order statistic
        at rank floor(n*p) + 1."""
        return self.values[self._quantile_indices(p)[1]]

    def _quantile_indices(self, p: float) -> tuple[int, int]:
        self._require_data()
        check_open("p", p)
        left, right = quantile_indices(np.cumsum(self.counts), self.n, p)
        return int(left), int(right)

    def to_distribution(self) -> DiscreteDistribution:
        """The empirical distribution: observed atoms weighted counts/n."""
        self._require_data()
        pairs = [
            (v, int(c) / self.n) for v, c in zip(self.values, self.counts) if c > 0
        ]
        return make_discrete(pairs)

    def _require_data(self) -> None:
        if self.n == 0:
            raise EmptySample("sample holds no observations")

    def __repr__(self) -> str:
        return f"EmpiricalSample(n={self.n}, support={self.values})"


def quantile_indices(cum_counts, n, p: float):
    """Atom indices of the sample left and right quantiles at level p.

    ``cum_counts[..., j]`` is the number of observations <= atom j among
    ``n`` (a scalar, or one count per row), so its last entry is ``n``.
    The left quantile is the first atom with ``cum_counts / n >= p``, the
    right quantile the first with ``cum_counts / n > p``; for 0 < p < 1 the
    last atom always qualifies.  This is the one place the sample-quantile
    rank rule lives.
    """
    ecdf = np.asarray(cum_counts) / np.asarray(n)[..., None]
    return (ecdf >= p).argmax(axis=-1), (ecdf > p).argmax(axis=-1)


def sup_distances(cum_counts, n, cdf):
    """sup_x |F_n(x) - F(x)| and the atom index of its leftmost witness.

    ``cum_counts[..., j]`` is the number of observations <= atom j among
    ``n`` (a scalar, or one count per row), and ``cdf[j]`` is F at atom j.
    Both functions are constant between consecutive atoms and zero below
    the first one, so the supremum over the reals equals the maximum over
    the per-atom levels; evaluating at the atoms covers every left limit
    too.  This is the one place the sup distance is computed.
    """
    diffs = np.abs(np.asarray(cum_counts) / np.asarray(n)[..., None] - cdf)
    j = diffs.argmax(axis=-1)
    return np.take_along_axis(diffs, j[..., None], axis=-1)[..., 0], j


def gc_distance(sample: EmpiricalSample, d: DiscreteDistribution) -> GCDistance:
    """Exact sup_x |F_n(x) - F(x)| for a sample bound to d's support, with
    its leftmost witness atom (see :func:`sup_distances`)."""
    sample._require_data()
    if sample.values != d.values:
        raise ValueOutsideSupport("sample is not bound to this distribution's support")
    value, j = sup_distances(np.cumsum(sample.counts), sample.n, d.cum_array)
    return GCDistance(float(value), d.values[int(j)])
