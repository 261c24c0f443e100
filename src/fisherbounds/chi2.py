"""One-sided chi-square baseline for 2x2 tables.

The statistic for one degree of freedom reduces to

    n (n mxa - mx ma)^2 / (mx ma (n - mx) (n - ma)),

a single float division of exact integer products.  The one-sided
p-value is the standard normal upper tail at the signed square root of
the statistic, equivalent to halving the two-sided chi-square tail and
keeping the observed direction.  No continuity correction is applied.
Its log stays finite where the linear tail underflows to 0.0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .contingency import ContingencyTable

__all__ = ["Chi2Result", "chi2_one_sided", "normal_upper_tail"]

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_DOUBLE_MIN = 2.0**-1022  # the smallest normal double


class Chi2Result(NamedTuple):
    """statistic >= 0; p_one_sided is 0.5 exactly at independence.

    log_p is ln p_one_sided, finite where p_one_sided underflows.
    rule_of_thumb_ok reports the classical applicability gate: the
    smallest expected cell count must reach 5.
    """

    statistic: float
    p_one_sided: float
    log_p: float
    min_expected: float
    rule_of_thumb_ok: bool


def normal_upper_tail(z: float) -> float:
    """Q(z) = P(N(0,1) > z), via the complementary error function."""
    return 0.5 * math.erfc(z / _SQRT2)


def _log_upper_tail(z: float, p: float) -> float:
    """ln Q(z), given p = normal_upper_tail(z).

    ln p while p is a normal double; below that, the asymptotic series
    of Abramowitz and Stegun 7.1.23,

        Q(z) = exp(-z^2 / 2) / (z sqrt(2 pi)) (1 - 1/z^2 + 3/z^4 - 15/z^6 + ...),

    summed until its terms fall below 1e-17.  The switch comes near
    z = 37.5, where the terms fall fast.
    """
    if p >= _DOUBLE_MIN:
        return math.log(p)
    w = 1.0 / (z * z)
    series, term, m = 1.0, 1.0, 1
    while abs(term) > 1e-17:
        term *= -(2 * m - 1) * w
        series += term
        m += 1
    return -0.5 * z * z - math.log(z) - _LOG_SQRT_2PI + math.log(series)


def chi2_one_sided(t: ContingencyTable) -> Chi2Result:
    """Signed-root chi-square p-value of a table.

    The sign comes from the integer leverage numerator, and the >= 5
    rule compares integer cell products against 5n, so neither decision
    depends on float rounding.  min_expected divides the smallest of
    those products by n once, so it equals the smallest of the four
    expected counts each rounded on its own.
    """
    n, mx, ma, d = t.n, t.mx, t.ma, t.delta_counts
    mnx, mna = n - mx, n - ma
    statistic = (n * d * d) / (mx * ma * mnx * mna)
    z = math.sqrt(statistic)
    if d < 0:
        z = -z
    smallest_product = min(mx * ma, mx * mna, mnx * ma, mnx * mna)
    p = normal_upper_tail(z)
    return Chi2Result(
        statistic, p, _log_upper_tail(z, p), smallest_product / n, smallest_product >= 5 * n
    )
