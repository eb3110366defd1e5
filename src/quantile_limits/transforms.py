"""Gap-removing transformations of gapped distributions.

Both transforms apply at a level p where the left and right quantiles differ
(the CDF is flat at height p across the open gap, which carries zero
probability):

* ``binarize`` sends everything at or below the left quantile to 0 and
  everything at or above the right quantile to 1, producing a Bernoulli
  variable with P(0) = p exactly.
* ``collapse_shift`` slides all mass at or above the right quantile down by
  the gap width h = rq - lq, gluing the two halves together so that both
  quantiles of the output coincide at the original left quantile.

Each transform exists at distribution level (exact contract checks) and at
value level (streaming simulation of transformed paths).
"""

from dataclasses import dataclass

from .distributions import DiscreteDistribution, make_discrete
from .errors import NoQuantileGap, ParameterOutOfRange, ValueInGap, check_open

BINARIZE = "binarize"
COLLAPSE_SHIFT = "collapse_shift"


@dataclass(frozen=True)
class TransformSpec:
    """Frozen parameters of one transform: kind, level, gap edges, shift."""

    kind: str
    p: float
    lq: float
    rq: float
    h: float | None = None

    def __post_init__(self):
        if self.kind not in (BINARIZE, COLLAPSE_SHIFT):
            raise ParameterOutOfRange(f"unknown transform kind {self.kind!r}", param="kind")
        if not self.lq < self.rq:
            raise NoQuantileGap(
                f"left and right quantiles coincide or invert at p={self.p!r}: "
                f"lq={self.lq!r}, rq={self.rq!r}"
            )
        if self.kind == COLLAPSE_SHIFT and self.h != self.rq - self.lq:
            raise ParameterOutOfRange("collapse_shift requires h == rq - lq", param="h")


def gap_spec(d: DiscreteDistribution, p: float, kind: str) -> TransformSpec:
    """Build the transform spec for d at level p; requires a quantile gap."""
    check_open("p", p)
    pair = d.quantile_pair(p)
    h = pair.right - pair.left if kind == COLLAPSE_SHIFT else None
    return TransformSpec(kind=kind, p=p, lq=pair.left, rq=pair.right, h=h)


def binarize_value(spec: TransformSpec, x: float) -> float:
    """0 if x <= lq, 1 if x >= rq.  Values strictly inside the gap have
    probability zero, so seeing one signals a sampling bug upstream."""
    if x <= spec.lq:
        return 0.0
    if x >= spec.rq:
        return 1.0
    raise ValueInGap(f"{x!r} lies in the zero-probability gap ({spec.lq!r}, {spec.rq!r})")


def collapse_shift_value(spec: TransformSpec, x: float) -> float:
    """x if x <= lq; x - h if x >= rq.

    The right edge must land exactly on the left one, so it is returned
    directly instead of through the subtraction (x - h suffers float
    cancellation when lq and rq have very different magnitudes).
    """
    if x <= spec.lq:
        return x
    if x >= spec.rq:
        return spec.lq if x == spec.rq else x - spec.h
    raise ValueInGap(f"{x!r} lies in the zero-probability gap ({spec.lq!r}, {spec.rq!r})")


def _push_through(d: DiscreteDistribution, spec: TransformSpec, value_map) -> DiscreteDistribution:
    # image atoms can collide (e.g. the shifted right edge onto the left edge);
    # make_discrete merges them by summing probability
    return make_discrete((value_map(spec, v), q) for v, q in d.as_pairs())


def binarize(d: DiscreteDistribution, p: float) -> DiscreteDistribution:
    """Two-point image {0, 1} of d at a gapped level p, with P(0) = p exactly.

    P(0) equals the CDF height on the flat stretch, which is p itself: the
    left quantile forces F(lq) >= p and the right quantile forces F(lq) <= p.
    """
    return _push_through(d, gap_spec(d, p, BINARIZE), binarize_value)


def collapse_shift(d: DiscreteDistribution, p: float) -> DiscreteDistribution:
    """Gap-collapsed image of d at level p.

    Output contract: left_quantile(out, p) == right_quantile(out, p)
    == left_quantile(d, p), exactly.
    """
    return _push_through(d, gap_spec(d, p, COLLAPSE_SHIFT), collapse_shift_value)
