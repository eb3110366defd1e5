"""Exception types raised by quantile-limits operations, and the range checks
that raise them.

Each ``check_*`` helper holds one range rule on an argument.  Rules are
written as ``not <in range>``, so NaN fails, and the error's ``param`` names
the argument (the CLI prints ``n_max`` as ``--n-max``).  The integer rules
(``check_at_least``, ``check_at_most``, ``check_seed``) refuse a float too.
"""

import math
import operator


class QuantileLimitsError(ValueError):
    """Base class for all validation errors raised by this package; ``param``
    names the argument at fault, or is None."""

    def __init__(self, *args, param: str | None = None):
        super().__init__(*args)
        self.param = param


class EmptyDistribution(QuantileLimitsError):
    """Distribution constructed from an empty atom list."""


class NegativeProbability(QuantileLimitsError):
    """An atom probability is zero or negative."""


class NonFiniteAtom(QuantileLimitsError):
    """An atom value or probability is NaN or infinite."""


class ProbabilitySumOutOfTolerance(QuantileLimitsError):
    """Atom probabilities do not sum to 1 within the construction tolerance."""


class ParameterOutOfRange(QuantileLimitsError):
    """A numeric parameter violates its documented range."""


class ProbabilityOutOfRange(ParameterOutOfRange):
    """A probability-valued parameter lies outside its required range."""


class ValueOutsideSupport(QuantileLimitsError):
    """An observation does not match any atom of the bound support."""


class EmptySample(QuantileLimitsError):
    """Operation requires at least one observation."""


class InvalidInterval(QuantileLimitsError):
    """Interval endpoints are not strictly ordered."""


class NoQuantileGap(QuantileLimitsError):
    """Transform requires distinct left and right quantiles at the level."""


class ValueInGap(QuantileLimitsError):
    """A value lies strictly inside the zero-probability quantile gap."""


class EmptyWindow(QuantileLimitsError):
    """No trajectory records remain after the burn-in cutoff."""


def _out_of_range(param: str, rule: str, x, error=ParameterOutOfRange):
    return error(f"{param} must be {rule}, got {x!r}", param=param)


def check_open(param: str, x, lo=0.0, hi=1.0) -> None:
    """``lo < x < hi``, for a probability-valued argument."""
    if not lo < x < hi:
        raise _out_of_range(param, f"in ({lo:g}, {hi:g})", x, ProbabilityOutOfRange)


def _check_integer(param: str, x) -> None:
    try:
        operator.index(x)
    except TypeError:
        raise _out_of_range(param, "an integer", x) from None


def check_at_least(param: str, x, lo) -> None:
    _check_integer(param, x)
    if not x >= lo:
        raise _out_of_range(param, f">= {lo}", x)


def check_at_most(param: str, x, hi) -> None:
    _check_integer(param, x)
    if not x <= hi:
        raise _out_of_range(param, f"<= {hi}", x)


def check_positive(param: str, x) -> None:
    if not 0.0 < x < math.inf:
        raise _out_of_range(param, "positive and finite", x)


def check_finite(param: str, x) -> None:
    if not math.isfinite(x):
        raise _out_of_range(param, "finite", x)


def check_seed(param: str, x) -> None:
    """``0 <= x < 2**64``: a seed is never silently reduced mod 2**64."""
    _check_integer(param, x)
    if not 0 <= x < 1 << 64:
        raise _out_of_range(param, "an unsigned 64-bit integer", x)
