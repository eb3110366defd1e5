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


# integers of more digits than this are spelled in brief (_brief)
_BRIEF_DIGITS = 30


def _brief(x) -> str:
    """``repr(x)``, but an integer of more than 30 digits as its first four
    and last three digits and its digit count, ``1000...000 (401 digits)``:
    in full it would fill the line, and past 4300 digits Python refuses to
    spell it at all.  The digits are found by a division with a short
    quotient, so a huge integer costs little more than its bit count."""
    if not isinstance(x, int) or -(10**_BRIEF_DIGITS) < x < 10**_BRIEF_DIGITS:
        return repr(x)
    mag = abs(x)
    d = int((mag.bit_length() - 1) * math.log10(2)) + 1  # the digit count, or about it
    while 10 ** (d - 1) > mag:
        d -= 1
    while 10**d <= mag:
        d += 1
    return f"{'-' if x < 0 else ''}{mag // 10 ** (d - 4)}...{mag % 1000:03d} ({d} digits)"


def _out_of_range(param: str, rule: str, x):
    return QuantileLimitsError(f"{param} must be {rule}, got {_brief(x)}", param=param)


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
