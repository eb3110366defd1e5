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

from .errors import QuantileLimitsError, check_closed, check_open
from .rng import _LEVELS, _level_threshold


#: Accepted deviation of the input probability mass from 1 before rejection.
PROB_SUM_TOLERANCE = 1e-12

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class QuantilePair:
    """Left and right quantile values at one probability level.

    ``left <= right`` always; ``coincide`` records whether the two agree,
    which is exactly the condition under which sample quantiles converge.
    For 0 < p < 1, [left, right] is the solution set of F(x-) <= p <= F(x).
    The weak left inequality is deliberate: with a strict one the set would
    lose its equivalence to quantile coincidence on flat CDF levels.
    """

    p: float
    left: float
    right: float
    coincide: bool = field(init=False)

    def __post_init__(self):
        if not self.left <= self.right:
            raise QuantileLimitsError("left quantile exceeds right quantile")
        object.__setattr__(self, "coincide", self.left == self.right)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Immutable finite distribution: strictly increasing values, positive probs.

    Construct through :func:`make_discrete` (or the family helpers), which
    sort, merge duplicates and renormalize.  ``cum`` is the non-decreasing
    cumulative probability table, with no entry above 1.0 and the final
    entry pinned to exactly 1.0, so quantile lookups at p near 1 are never
    derailed by accumulated rounding.
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
        # (shift, guide, padded level thresholds, rounds) of _level_indices
        t = _level_threshold(self.cum_array)
        k = (2 * len(t) - 1).bit_length()
        shift = 53 - k
        guide = np.searchsorted(t, np.arange((1 << k) + 1, dtype=np.int64) << shift, side="right")
        rounds = int(np.diff(guide).max()).bit_length()
        padded = np.concatenate([t, np.full(1 << rounds, _LEVELS, dtype=np.int64)])
        return shift, guide, padded, rounds

    def _level_indices(
        self, levels: np.ndarray, out: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        """Atom index drawn at each level, written to out.

        A level is the top 53 bits ``word >> 11`` of a generator word, in
        an int64 array (see :mod:`.rng`); the index is that of the left
        quantile at the level's uniform u, the first j with ``cum[j] >= u``.
        With ``T[j] = _level_threshold(cum[j])``, the first level whose
        uniform exceeds ``cum[j]`` (2**53 when none does), ``u > cum[j]``
        iff ``level >= T[j]``, so the index is the number of j with
        ``T[j] <= level``: exactly ``np.searchsorted(cum_array, u, "left")``.
        It is at most ``len(self) - 1``, since ``T`` of the last entry, 1.0,
        is 2**53.  ``out`` and ``scratch`` are int64 arrays of the levels'
        length, and the lookup makes no other array of it.

        It uses a Chen-Asau guide table (Chen & Asau 1974; Devroye 1986,
        section III.2), built once per distribution: K = 2**k >= 2 * atoms
        buckets of the levels, and ``guide[b]``, for b = 0 .. K, the number
        of j with ``T[j] <= b * 2**(53 - k)``.  A level lies in bucket
        ``level >> (53 - k)``, so its index lies in
        ``[guide[b], guide[b + 1]]``.  A fixed number of branchless
        bisection steps, the bit length of the widest bucket span (at most
        that of the atom count), add the count of the bucket's candidates
        whose T is at most the level.  ``T`` is padded with ``2**rounds``
        entries of 2**53, so no step reads past its end, and every index the
        lookup takes is in range by construction.
        """
        shift, guide, t, rounds = self._guide
        np.right_shift(levels, shift, out=scratch)
        np.take(guide, scratch, out=out, mode="wrap")
        for r in range(rounds - 1, -1, -1):
            np.take(t[(1 << r) - 1 :], out, out=scratch, mode="wrap")  # T[j + 2**r - 1]
            np.less_equal(scratch, levels, out=scratch)
            if r:
                scratch <<= r
            out += scratch
        return out

    def __len__(self) -> int:
        return len(self.values)

    def cdf(self, x: float) -> float:
        """F(x) = P(X <= x); right-continuous step function."""
        i = bisect_right(self.values, x)
        return 0.0 if i == 0 else self.cum[i - 1]

    def left_quantile(self, p: float) -> float:
        """inf{x : F(x) >= p}.  Returns -inf at p = 0 (infimum over all reals)."""
        check_closed("p", p)
        if p == 0.0:
            return NEG_INF
        # bisect_left on the cumulative table: first index with cum[i] >= p
        return self.values[bisect_left(self.cum, p)]

    def right_quantile(self, p: float) -> float:
        """inf{x : F(x) > p}.  Returns +inf at p = 1 (no x pushes F above 1)."""
        check_closed("p", p)
        if p == 1.0:
            return POS_INF
        # bisect_right: first index with cum[i] > p
        return self.values[bisect_right(self.cum, p)]

    def quantile_pair(self, p: float) -> QuantilePair:
        """Both quantiles at p, with the coincidence flag."""
        return QuantilePair(p, self.left_quantile(p), self.right_quantile(p))

    def as_pairs(self) -> list[tuple[float, float]]:
        """Atoms as (value, probability) pairs, sorted by value."""
        return list(zip(self.values, self.probs))


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
        float sum is exactly 1.0.  The cumulative table is non-decreasing,
        no entry exceeds 1.0, and the last entry is exactly 1.0.

    Draws see 2**53 levels (see :mod:`.rng`), and an atom is drawn only at
    the levels whose uniform lies in its step of the CDF.  The uniforms are
    at least 2**-53 apart, so an atom whose mass is below that spacing
    holds at most one of them, and usually none: it is drawn with
    probability at most 2**-52, and usually cannot be drawn at all.
    """
    items = [(float(v), float(q)) for v, q in pairs]
    if not items:
        raise QuantileLimitsError("at least one atom is required")
    for v, q in items:
        if not math.isfinite(v) or not math.isfinite(q):
            raise QuantileLimitsError(f"atom ({v!r}, {q!r}) is not finite")
        if q <= 0.0:
            raise QuantileLimitsError(f"atom ({v!r}, {q!r}) has non-positive probability")
    total = math.fsum(q for _, q in items)
    if abs(total - 1.0) > PROB_SUM_TOLERANCE:
        raise QuantileLimitsError(
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
        acc = min(acc + q, 1.0)  # rounding must not lift a partial sum past 1
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


#: The built-in families by name: each constructor, and the spec fields it
#: takes as its arguments, in order.
FAMILIES = {
    "coin": (fair_coin, ()),
    "bernoulli": (bernoulli, ("q",)),
    "figure": (gapped_example, ()),
}


def from_spec(spec: Mapping) -> DiscreteDistribution:
    """Parse the distribution-spec mapping used by spec files and the CLI.

    Accepted forms::

        {"atoms": [{"x": 0.0, "p": 0.5}, ...]}
        {"family": "coin"}
        {"family": "bernoulli", "q": 0.3}
        {"family": "figure"}

    A family's fields are required with it and refused with any other.
    """
    if not isinstance(spec, Mapping):
        raise QuantileLimitsError(f"a distribution spec must be an object, got {spec!r}")
    if "atoms" in spec:
        atoms = spec["atoms"]
        if not isinstance(atoms, Sequence):
            raise QuantileLimitsError("'atoms' must be a list of {x, p} objects")
        try:
            pairs = [(_spec_number(a["x"]), _spec_number(a["p"])) for a in atoms]
        except (TypeError, KeyError) as exc:
            raise QuantileLimitsError("each atom needs 'x' and 'p' fields") from exc
        return make_discrete(pairs)
    family = spec.get("family")
    if not (isinstance(family, str) and family in FAMILIES):
        raise QuantileLimitsError(
            f"unrecognized distribution spec: expected 'atoms' or family "
            f"{'/'.join(FAMILIES)}, got {dict(spec)!r}"
        )
    make, fields = FAMILIES[family]
    for owner, (_, taken) in FAMILIES.items():
        for name in taken:
            if name in fields and name not in spec:
                raise QuantileLimitsError(f"{name} is required with family {family!r}", param=name)
            if name in spec and name not in fields:
                raise QuantileLimitsError(f"{name} is only valid with family {owner!r}", param=name)
    return make(*(_spec_number(spec[name]) for name in fields))


def _spec_number(x) -> float:
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise QuantileLimitsError(f"expected a number, got {x!r}") from exc
