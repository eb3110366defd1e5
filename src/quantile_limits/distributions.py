"""Finite discrete distributions with exact CDF and left/right quantiles.

Everything in this module is closed-form: a distribution is a finite list of
atoms, so the CDF is a finite step function and both quantile functions are
lookups into the cumulative-probability table.  Continuous distributions are
out of scope by design; discretize first if you need one.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyDistribution,
    NegativeProbability,
    NonFiniteAtom,
    ProbabilityOutOfRange,
    ProbabilitySumOutOfTolerance,
    QuantileLimitsError,
    check_open,
)


class QuantileSpecError(QuantileLimitsError):
    """Malformed distribution spec mapping."""


#: Accepted deviation of the input probability mass from 1 before rejection.
PROB_SUM_TOLERANCE = 1e-12

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class QuantilePair:
    """Left and right quantile values at one probability level.

    ``left <= right`` always; ``coincide`` records whether the two agree,
    which is exactly the condition under which sample quantiles converge.
    """

    p: float
    left: float
    right: float
    coincide: bool = field(init=False)

    def __post_init__(self):
        if not self.left <= self.right:
            raise ValueError("left quantile exceeds right quantile")
        object.__setattr__(self, "coincide", self.left == self.right)


@dataclass(frozen=True)
class SolutionInterval:
    """Solution set of F(x-) <= p <= F(x), as a closed interval [lo, hi]."""

    lo: float
    hi: float
    unique: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "unique", self.lo == self.hi)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Immutable finite distribution: strictly increasing values, positive probs.

    Construct through :func:`make_discrete` (or the family helpers), which
    sort, merge duplicates and renormalize.  ``cum`` is the cumulative
    probability table with the final entry pinned to exactly 1.0, so quantile
    lookups at p near 1 are never derailed by accumulated rounding.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]
    cum: tuple[float, ...]

    # cached ndarray views for the vectorized sampling/trajectory paths
    @cached_property
    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    @cached_property
    def cum_array(self) -> np.ndarray:
        return np.asarray(self.cum, dtype=np.float64)

    @cached_property
    def _guide(self) -> tuple[int, np.ndarray, np.ndarray, int]:
        # (K, guide, padded cum, rounds) of left_quantile_indices
        cum = self.cum_array
        k = 1 << (2 * len(cum) - 1).bit_length()
        guide = np.searchsorted(cum, np.arange(k + 1) / k, side="left")
        rounds = int(np.diff(guide).max()).bit_length()
        padded = np.concatenate([cum, np.ones(1 << rounds)])
        return k, guide, padded, rounds

    def left_quantile_indices(self, u: np.ndarray) -> np.ndarray:
        """Atom index of the left quantile at each level u in [0, 1].

        The first j with ``cum[j] >= u``, exactly as
        ``np.searchsorted(cum_array, u, side="left")`` finds it: the vector
        form of :meth:`left_quantile` (whose value at u = 0 is -inf, where
        this index is 0).  Levels are not checked; one outside [0, 1] or
        NaN gives a wrong index or an IndexError.

        It uses a Chen-Asau guide table (Chen & Asau 1974; Devroye 1986,
        section III.2), built once per distribution: K = 2**k >= 2 * atoms
        buckets of the unit interval, and ``guide[b]``, for b = 0 .. K, the
        first j with ``cum[j] >= b / K``.  A level u lies in bucket
        b = floor(u * K), exact in binary floating point since K is a power
        of two, so its index lies in ``[guide[b], guide[b + 1]]``; u = 1.0 is
        bucket K, whose ``guide[K]`` is already the index.  A fixed number of
        branchless bisection steps, the bit length of the widest bucket span
        (at most that of the atom count), add the count of the bucket's
        candidates whose cum lies below u.  ``cum`` is padded with
        ``2**rounds`` entries of 1.0, so no step reads past its end.  The
        lookup is a few array passes whatever the support size.
        """
        k, guide, cum, rounds = self._guide
        j = np.take(guide, (u * k).astype(np.intp))
        for r in range(rounds - 1, -1, -1):
            s = 1 << r
            j += s * (np.take(cum[s - 1 :], j) < u)  # cum[j + s - 1] < u
        return j

    def __len__(self) -> int:
        return len(self.values)

    def prob_of(self, x: float) -> float:
        """Probability mass at exactly x (0.0 if x is not an atom)."""
        i = bisect_left(self.values, x)
        if i < len(self.values) and self.values[i] == x:
            return self.probs[i]
        return 0.0

    def cdf(self, x: float) -> float:
        """F(x) = P(X <= x); right-continuous step function."""
        i = bisect_right(self.values, x)
        return 0.0 if i == 0 else self.cum[i - 1]

    def cdf_left_limit(self, x: float) -> float:
        """F(x-) = P(X < x); the left limit of the step function at x."""
        i = bisect_left(self.values, x)
        return 0.0 if i == 0 else self.cum[i - 1]

    def left_quantile(self, p: float) -> float:
        """inf{x : F(x) >= p}.  Returns -inf at p = 0 (infimum over all reals)."""
        _check_level(p)
        if p == 0.0:
            return NEG_INF
        # bisect_left on the cumulative table: first index with cum[i] >= p
        return self.values[bisect_left(self.cum, p)]

    def right_quantile(self, p: float) -> float:
        """inf{x : F(x) > p}.  Returns +inf at p = 1 (no x pushes F above 1)."""
        _check_level(p)
        if p == 1.0:
            return POS_INF
        # bisect_right: first index with cum[i] > p
        return self.values[bisect_right(self.cum, p)]

    def quantile_pair(self, p: float) -> QuantilePair:
        """Both quantiles at p, with the coincidence flag."""
        return QuantilePair(p, self.left_quantile(p), self.right_quantile(p))

    def solution_interval(self, p: float) -> SolutionInterval:
        """Solution set of F(x-) <= p <= F(x) for p strictly inside (0, 1).

        The set is the closed interval [left_quantile, right_quantile]; it is
        a single point exactly when the two quantiles coincide.  The weak left
        inequality is deliberate: with a strict one the set would lose its
        equivalence to quantile coincidence on flat CDF levels.
        """
        check_open("p", p)
        return SolutionInterval(self.left_quantile(p), self.right_quantile(p))

    def as_pairs(self) -> list[tuple[float, float]]:
        """Atoms as (value, probability) pairs, sorted by value."""
        return list(zip(self.values, self.probs))


def _check_level(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ProbabilityOutOfRange(f"p must be in [0, 1], got {p!r}", param="p")


def make_discrete(pairs: Iterable[tuple[float, float]]) -> DiscreteDistribution:
    """Build a validated distribution from (value, probability) pairs.

    Parameters
    ----------
    pairs :
        Iterable of (value, prob).  Probs must be positive and sum to 1
        within ``PROB_SUM_TOLERANCE``.  Duplicate values are merged by
        summing their probabilities.

    Returns
    -------
    DiscreteDistribution
        Atoms sorted by value, probabilities renormalized so that their
        float sum is exactly 1.0 and the last cumulative entry is 1.0.
    """
    items = [(float(v), float(q)) for v, q in pairs]
    if not items:
        raise EmptyDistribution("at least one atom is required")
    for v, q in items:
        if not math.isfinite(v) or not math.isfinite(q):
            raise NonFiniteAtom(f"atom ({v!r}, {q!r}) is not finite")
        if q <= 0.0:
            raise NegativeProbability(f"atom ({v!r}, {q!r}) has non-positive probability")
    total = math.fsum(q for _, q in items)
    if abs(total - 1.0) > PROB_SUM_TOLERANCE:
        raise ProbabilitySumOutOfTolerance(
            f"probabilities sum to {total!r}, outside 1 +/- {PROB_SUM_TOLERANCE}"
        )

    items.sort(key=lambda vq: vq[0])
    values: list[float] = []
    probs: list[float] = []
    for v, q in items:
        if values and values[-1] == v:
            probs[-1] = probs[-1] + q
        else:
            values.append(v)
            probs.append(q)

    if total != 1.0:
        probs = [q / total for q in probs]
    probs = _pin_unit_sum(probs)

    cum: list[float] = []
    acc = 0.0
    for q in probs:
        acc += q
        cum.append(acc)
    cum[-1] = 1.0  # total mass is 1 by construction; pin the float table to it

    return DiscreteDistribution(tuple(values), tuple(probs), tuple(cum))


def _pin_unit_sum(probs: list[float]) -> list[float]:
    # Nudge one prob by the (at most few-ulp) leftover so that
    # fsum(probs) == 1.0 holds exactly.  The top atom absorbs it: lower
    # probs may encode an exact flat CDF level (the transforms rely on
    # P(0) == p surviving construction untouched).  Fall back to the largest
    # prob only if the top one is too small to stay positive.
    for _ in range(4):
        residue = 1.0 - math.fsum(probs)
        if residue == 0.0:
            return probs
        if probs[-1] + residue > 0.0:
            probs[-1] += residue
        else:
            i = max(range(len(probs)), key=probs.__getitem__)
            probs[i] += residue
    raise AssertionError("probability renormalization failed to converge")


# ---------------------------------------------------------------------------
# Built-in families


def fair_coin() -> DiscreteDistribution:
    """Two atoms -1 and +1 with probability 1/2 each."""
    return make_discrete([(-1.0, 0.5), (1.0, 0.5)])


def bernoulli(q: float) -> DiscreteDistribution:
    """Atoms 0 and 1 with P(1) = q, for 0 < q < 1."""
    check_open("q", q)
    return make_discrete([(0.0, 1.0 - q), (1.0, q)])


def gapped_example() -> DiscreteDistribution:
    """The canonical gapped example: atoms 0, 3, 5 with probs 0.5, 0.3, 0.2.

    Its CDF is flat at level 0.5 between 0 and 3, so the left and right
    quantiles at p = 0.5 split to 0 and 3.  Registered as family ``figure``.
    """
    return make_discrete([(0.0, 0.5), (3.0, 0.3), (5.0, 0.2)])


def point_mass(x: float) -> DiscreteDistribution:
    """Degenerate distribution concentrated at x."""
    return make_discrete([(x, 1.0)])


def from_spec(spec: Mapping) -> DiscreteDistribution:
    """Parse the distribution-spec mapping used by spec files and the CLI.

    Accepted forms::

        {"atoms": [{"x": 0.0, "p": 0.5}, ...]}
        {"family": "coin"}
        {"family": "bernoulli", "q": 0.3}
        {"family": "figure"}
    """
    if not isinstance(spec, Mapping):
        raise QuantileSpecError(f"a distribution spec must be an object, got {spec!r}")
    if "atoms" in spec:
        atoms = spec["atoms"]
        if not isinstance(atoms, Sequence):
            raise QuantileSpecError("'atoms' must be a list of {x, p} objects")
        try:
            pairs = [(_spec_number(a["x"]), _spec_number(a["p"])) for a in atoms]
        except (TypeError, KeyError) as exc:
            raise QuantileSpecError("each atom needs 'x' and 'p' fields") from exc
        return make_discrete(pairs)
    family = spec.get("family")
    if family == "coin":
        return fair_coin()
    if family == "bernoulli":
        if "q" not in spec:
            raise QuantileSpecError("family 'bernoulli' requires field 'q'")
        return bernoulli(_spec_number(spec["q"]))
    if family == "figure":
        return gapped_example()
    raise QuantileSpecError(
        f"unrecognized distribution spec: expected 'atoms' or family "
        f"coin/bernoulli/figure, got {dict(spec)!r}"
    )


def _spec_number(x) -> float:
    try:
        return float(x)
    except (TypeError, ValueError) as exc:
        raise QuantileSpecError(f"expected a number, got {x!r}") from exc
