"""Berry-Esseen bound arithmetic and the deviation sample-size construction.

The classical Berry-Esseen statement used throughout: for i.i.d. summands
with mean mu, standard deviation sigma and third absolute central moment
rho = E|X - mu|^3, the standardized-sum CDF G_n satisfies

    |G_n(x) - Phi(x)| <= 3 * rho / (sigma^3 * sqrt(n))   for all x,

with the printed constant 3 kept as-is (no modern sharpening).  From it,
``phi_of_k`` builds the smallest sample size at which the centered Bernoulli
sum escapes +/-k with probability > 1/2 - alpha on each side.
"""

import math
from dataclasses import dataclass, field

from .errors import (
    QuantileLimitsError,
    _brief,
    check_at_least,
    check_finite,
    check_open,
    check_positive,
)


@dataclass(frozen=True)
class BEParams:
    """Moment triple (mean, standard deviation, third absolute central moment)."""

    mu: float
    sigma: float
    rho: float

    def __post_init__(self):
        check_finite("mu", self.mu)
        check_positive("sigma", self.sigma)
        check_positive("rho", self.rho)


@dataclass(frozen=True)
class PhiOfK:
    """Result of the deviation sample-size search.

    ``n1`` is the smallest n with 3*rho/(sigma^3*sqrt(n)) <= alpha/2 (the
    normal approximation is trusted from there on); ``n2`` is the smallest n
    with Phi(k/(sigma*sqrt(n))) < 1/2 + alpha/2 (a +/-k deviation is only
    half a standard error away); ``phi = max(n1, n2)``.
    """

    k: int
    alpha: float
    n1: int
    n2: int
    phi: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "phi", max(self.n1, self.n2))


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function.

    Phi(z) = erfc(-z / sqrt(2)) / 2; accurate to well below 1e-12 over the
    range that matters here (|z| <= 40 saturates to 0/1 in double precision).
    """
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def bernoulli_moments(q: float) -> BEParams:
    """Moments of a Bernoulli(q) draw: mean q, sd sqrt(q(1-q)),
    third absolute central moment q^3(1-q) + (1-q)^3 q."""
    check_open("q", q)
    sigma = math.sqrt(q * (1.0 - q))
    rho = q**3 * (1.0 - q) + (1.0 - q) ** 3 * q
    return BEParams(mu=q, sigma=sigma, rho=rho)


def be_bound(params: BEParams, n: int) -> float:
    """The uniform CDF error bound 3*rho/(sigma^3*sqrt(n)) at sample size n."""
    check_at_least("n", n, 1)
    # the first factor past the double range is at fault: sqrt(n), 3*rho or sigma^3
    try:
        root = math.sqrt(n)
    except OverflowError:
        raise _nonfinite("n", n, "sqrt(n)") from None
    if 3.0 * params.rho == math.inf:
        raise _nonfinite("rho", params.rho, "3*rho")
    try:
        bound = 3.0 * params.rho / (params.sigma**3 * root)
    except (OverflowError, ZeroDivisionError):
        bound = math.nan
    if not math.isfinite(bound):
        raise _nonfinite("sigma", params.sigma, "3*rho/(sigma^3*sqrt(n))", "too small or too large")
    return bound


def _nonfinite(name: str, x, expr: str, what: str = "too large") -> QuantileLimitsError:
    return QuantileLimitsError(
        f"{name}={_brief(x)} is {what}: {expr} is not a finite double", param=name
    )


def interval_prob_bounds(
    params: BEParams, n: int, z1: float, z2: float
) -> tuple[float, float]:
    """Certified bracket for P(z1 < sqrt(n)*(mean_n - mu)/sigma <= z2).

    Combines the normal-window mass Phi(z2) - Phi(z1) with the two-sided
    slack 6*rho/(sigma^3*sqrt(n)) (one bound contribution per endpoint),
    clipped into [0, 1].  Endpoints may be -inf/+inf.
    """
    if not z1 < z2:
        raise QuantileLimitsError(f"need z1 < z2, got {z1!r} >= {z2!r}")
    width = std_normal_cdf(z2) - std_normal_cdf(z1)
    slack = 2.0 * be_bound(params, n)
    return max(0.0, width - slack), min(1.0, width + slack)


def phi_of_k(params: BEParams, k: int, alpha: float) -> PhiOfK:
    """Smallest block length making +/-k deviations of the centered sum likely.

    Parameters
    ----------
    params :
        Summand moments (use :func:`bernoulli_moments` for coin experiments).
    k :
        Deviation threshold, a positive integer.
    alpha :
        Slack in (0, 1/2); the guaranteed one-sided escape probability at
        ``phi`` is > 1/2 - alpha.

    Both component sizes are minimal: their conditions fail at n1 - 1 and
    n2 - 1.  The n1 condition is a weak inequality and the n2 condition is
    strict, so the two strictnesses combine to the strict lemma conclusion.
    """
    check_at_least("k", k, 1)
    check_open("alpha", alpha, 0.0, 0.5)
    half = alpha / 2.0
    n1 = _least_n(lambda n: be_bound(params, n) <= half)
    try:
        k_float = float(k)  # what k / x divides
    except OverflowError:  # k is past the double range: no n is feasible
        k_float = math.inf
    n2 = _least_n(
        lambda n: std_normal_cdf(k_float / (params.sigma * math.sqrt(n))) < 0.5 + half
    )
    if n1 is None or n2 is None:  # n1 runs away as sigma shrinks, n2 also as k grows
        raise QuantileLimitsError(
            f"no feasible n below 2^62 for k={_brief(k)}, sigma={params.sigma!r}, "
            f"rho={params.rho!r}, alpha={alpha!r}",
            param="sigma" if n1 is None else "k",
        )
    return PhiOfK(k=k, alpha=alpha, n1=n1, n2=n2)


def _least_n(pred) -> int | None:
    """Least n >= 1 satisfying a monotone predicate, by doubling + bisection;
    None when there is none below 2^62."""
    if pred(1):
        return 1
    lo, hi = 1, 2  # invariant: pred(lo) false
    while not pred(hi):
        lo, hi = hi, hi * 2
        if hi > 1 << 62:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi
