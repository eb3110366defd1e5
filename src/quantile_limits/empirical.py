"""Empirical distribution functions over a known finite support.

A sample is stored as per-atom counts rather than a list of observations:
the supports we simulate from are tiny (a handful of atoms) while sample
sizes reach 1e5..1e7, so an insert is a binary search over the atoms and a
quantile query a scan of their cumulative counts.
"""

from bisect import bisect_right

import numpy as np

from .distributions import DiscreteDistribution
from .errors import QuantileLimitsError, check_level


class EmpiricalSample:
    """Streaming multiset of observations bound to a fixed finite support,
    a nonempty, strictly increasing sequence of finite values.

    Counts only ever grow; call :meth:`reset` to start over.  A sample is a
    single-owner accumulator: mutate it from one thread at a time (read-only
    queries on a quiescent sample are safe from anywhere).
    """

    __slots__ = ("values", "counts", "n")

    def __init__(self, support: tuple[float, ...]):
        self.values = tuple(float(v) for v in support)
        # the quantile scan and extend's binary search need the atoms in
        # order and distinct
        values = np.asarray(self.values, dtype=np.float64)
        if not (len(values) and np.all(np.isfinite(values)) and np.all(values[1:] > values[:-1])):
            raise QuantileLimitsError(
                f"support must be nonempty, finite and strictly increasing, got {support!r}",
                param="support",
            )
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
        self.extend([x])

    def extend(self, xs: np.ndarray) -> None:
        """Bulk insert; every entry must lie on the support, else none is recorded."""
        xs = np.asarray(xs, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        idx = np.searchsorted(values, xs)  # below len(values) where xs is an atom
        on = values.take(idx, mode="clip") == xs
        if not on.all():
            raise QuantileLimitsError(f"{float(xs[~on][0])!r} is not an atom of the bound support")
        self.counts += np.bincount(idx, minlength=len(values))
        self.n += len(xs)

    def ecdf(self, x: float) -> float:
        """F_n(x) = (#observations <= x) / n."""
        self._require_data()
        return int(self.counts[: bisect_right(self.values, x)].sum()) / self.n

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
        (left_rank,), (right_rank,) = quantile_ranks([self.n], check_level("p", p))
        left, right = quantile_indices(np.cumsum(self.counts), left_rank, right_rank)
        return int(left), int(right)

    def _require_data(self) -> None:
        if self.n == 0:
            raise QuantileLimitsError("sample holds no observations")

    def __repr__(self) -> str:
        return f"EmpiricalSample(n={self.n}, support={self.values})"


def quantile_ranks(ns, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Order-statistic ranks of the sample left and right quantiles at level p.

    For each sample size n of the 1-d ``ns`` (positive, below 2**63) the
    left quantile inf{x : F_n(x) >= p} is the order statistic of rank
    ``L = ceil(n*p)`` and the right quantile inf{x : F_n(x) > p} that of
    rank ``R = floor(n*p) + 1`` (Hyndman & Fan 1996), with ``n*p`` the exact
    product for the double p, 0 < p < 1, not a rounded float one.  Returns
    ``(L, R)`` as int64 arrays.  This is the one place the sample-quantile
    rank rule lives.

    p is a double, so ``num / 2**s`` exactly: callers refuse any other value
    with check_level.
    Where every ``n*num`` fits in an int64 the ranks are shifts of it.  Else,
    for n below 2**53, the float product rounds ``n*p`` once.  Where it is
    not an integer, its truncation k is floor(n*p) and n*p is no integer.
    Where it is an integer k, n*p lies within 1/2 of k, so the residual
    ``n*num - k*2**s`` is below 2**54 in size, wrapping uint64 arithmetic
    gives it exactly, and its sign places n*p at, above or below k.  Larger
    n take Python integers.

    Each path makes its two results in place: the shift path with no other
    array of len(ns), the float path with one scratch array.
    """
    ns = np.asarray(ns, dtype=np.int64)
    num, den = p.as_integer_ratio()
    s = den.bit_length() - 1
    top = int(ns.max())
    if top <= (2**63 - 1) // num:
        t = min(s, 63)  # n*num < 2**63, so the shift by 63 stands in for larger s
        left = np.multiply(ns, num)
        right = left >> t
        right += 1
        np.negative(left, out=left)  # ceil(x / 2**t) = -(-x >> t)
        left >>= t
        np.negative(left, out=left)
        return left, right
    if top < 2**53:
        # k and two rows that end as the results.  Every step writes in
        # place, and each change of type is a copy (np.copyto), which numpy
        # makes without the buffers it casts a ufunc's operands through
        a, b, k = (np.empty(len(ns), dtype=np.int64) for _ in range(3))
        au, bu = a.view(np.uint64), b.view(np.uint64)
        prod = b.view(np.float64)
        np.copyto(prod, ns)
        prod *= p
        np.copyto(k, prod, casting="unsafe")  # truncated
        if s < 64:
            # where prod is no integer, neither is n*p, k is floor(n*p) and
            # res = n*num - k*2**s lies in (0, 2**s), so res > 0 there
            res, free = b, a
            np.left_shift(k.view(np.uint64), np.uint64(s), out=au)
            np.multiply(ns.view(np.uint64), np.uint64(num), out=bu)
            bu -= au
        else:
            # k * 2**s wraps to 0, so res is exact only where prod == k;
            # elsewhere it is set to 1, for k + 1
            res, free = a, b
            frac = a.view(np.float64)
            np.copyto(frac, k)
            np.subtract(prod, frac, out=frac)
            off = b.view(np.bool_)[: len(ns)]
            np.not_equal(frac, 0.0, out=off)
            np.multiply(ns.view(np.uint64), np.uint64(num), out=au)
            np.copyto(a, 1, where=off)
        # L = k + (res > 0) and R = k + (res >= 0), from sign bits: res is
        # never -2**63, so -res >> 63 is -1 iff res > 0
        np.negative(res, out=free)
        free >>= 63
        np.subtract(k, free, out=free)
        res >>= 63
        res += k
        res += 1
        return free, res
    ints = ns.tolist()
    return (
        np.array([-(-n * num // den) for n in ints], dtype=np.int64),
        np.array([n * num // den + 1 for n in ints], dtype=np.int64),
    )


def quantile_indices(cum_counts, left_rank, right_rank):
    """Atom indices of the sample left and right quantiles, from their ranks.

    ``cum_counts[j, ...]`` is the number of observations <= atom j, atoms on
    the first axis, and the ranks are those of :func:`quantile_ranks`, one
    per entry of the remaining axes (or scalars).  The quantile of rank r is
    the first atom whose cumulative count reaches r, so its index is the
    number of atoms whose count is below r: ``#{j : cum_counts[j] < r}``.
    Over a window of atoms that starts at atom a, with every atom below a
    counted and none above, the index is a plus the window's count.  The
    comparisons are between integers, so they are exact.
    """
    cum = np.asarray(cum_counts)
    return (cum < left_rank).sum(axis=0), (cum < right_rank).sum(axis=0)


def sup_distances(cum_counts, n, cdf):
    """Largest float |F_n - F| over the atoms, and its leftmost atom index.

    ``cum_counts[..., j]`` is the number of observations <= atom j among
    ``n`` (a scalar, or one count per row), and ``cdf[j]`` is F at atom j.
    Both functions are constant between consecutive atoms and zero below
    the first one, so sup_x |F_n(x) - F(x)| is attained at an atom.  What
    is returned is the float ``|C_j / n - F_j|``, a rounded quotient minus a
    rounded CDF, maximised over j, and the leftmost j attaining that
    maximum: it need not be the correctly rounded supremum, and where two
    atoms' exact distances differ by less than the rounding, the witness
    may differ from the exact one.  This is the one place the sup distance
    is computed.
    """
    diffs = np.abs(np.asarray(cum_counts) / np.asarray(n)[..., None] - cdf)
    j = diffs.argmax(axis=-1)
    return np.take_along_axis(diffs, j[..., None], axis=-1)[..., 0], j


def gc_distance(sample: EmpiricalSample, d: DiscreteDistribution) -> tuple[float, float]:
    """``(value, witness)``: sup_x |F_n(x) - F(x)| for a sample bound to d's support,
    as the float maximum of :func:`sup_distances`, and its leftmost atom."""
    sample._require_data()
    if sample.values != d.values:
        raise QuantileLimitsError("sample is not bound to this distribution's support")
    value, j = sup_distances(np.cumsum(sample.counts), sample.n, d.cum_array)
    return float(value), d.values[int(j)]
