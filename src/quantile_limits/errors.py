"""The one exception type of quantile-limits, and the range checks that raise it.

Every refusal in the package is a ``QuantileLimitsError``, a ``ValueError``
whose message says what was wrong and whose ``param`` names the argument at
fault (None where no single argument is).  Callers tell refusals apart by
``param``, never by type: the CLI prints ``param`` as the flag (``n_max`` as
``--n-max``).

Each ``check_*`` helper holds one range rule on an argument.  Rules are
written as ``not <in range>``, so NaN fails.  The integer rules
(``check_at_least``, ``check_at_most``, ``check_seed``) refuse a float too.
"""

import math
import operator


class QuantileLimitsError(ValueError):
    """An input outside the documented contract; ``param`` names the argument
    at fault, or is None."""

    def __init__(self, *args, param: str | None = None):
        super().__init__(*args)
        self.param = param


def _out_of_range(param: str, rule: str, x):
    return QuantileLimitsError(f"{param} must be {rule}, got {x!r}", param=param)


def check_open(param: str, x, lo=0.0, hi=1.0) -> None:
    """``lo < x < hi``, for a probability-valued argument."""
    if not lo < x < hi:
        raise _out_of_range(param, f"in ({lo:g}, {hi:g})", x)


def check_closed(param: str, x) -> None:
    """``0 <= x <= 1``, for a probability that may be an endpoint."""
    if not 0.0 <= x <= 1.0:
        raise _out_of_range(param, "in [0, 1]", x)


def check_level(param: str, x) -> float:
    """``0 < x < 1`` and x a double exactly, the only level the rank rule reads
    as it is (Fraction(1, 3) would run as another one); returns float(x)."""
    check_open(param, x)
    if float(x) != x:
        raise _out_of_range(param, "a double", x)
    return float(x)


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


def check_size(param: str, x) -> None:
    """``1 <= x < 2**63``: a sample size is a positive int64."""
    check_at_least(param, x, 1)
    check_at_most(param, x, 2**63 - 1)


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
