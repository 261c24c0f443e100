"""Exact one-sided Fisher p-values via the hypergeometric tail sum.

The observed table contributes the point probability p_0 and each more
extreme table multiplies in one further ratio

    q_i = ((mxna - i + 1) (mnxa - i + 1)) / ((mxa + i) (mnxna + i)),

which falls strictly as i grows, giving

    p_F = p_0 (1 + q_1 + q_1 q_2 + ... + q_1 q_2 ... q_J).

The parenthesised sum runs in linear space with compensated summation;
all its terms lie in (0, 1], so scaling by p_0 only at the very end
keeps the accumulation well conditioned and immune to p_0 underflow.
Each q_i is one float division of two exact integer products, matching
the cancellation that derives the ratio in the first place.

exact_fisher sums all J + 1 terms and is the reference.
exact_fisher_certified sums the same terms in the same order but stops
as soon as the rest provably cannot change the double total, so both
return the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .contingency import ContingencyTable
from .errors import CapacityExceeded, NegativeDependency, OutOfRange

__all__ = [
    "PValue",
    "TermEngine",
    "log_factorial",
    "log_binomial",
    "make_term_engine",
    "exact_fisher",
    "exact_fisher_certified",
    "exact_fisher_oracle",
    "ORACLE_CAP",
]


@dataclass(frozen=True, slots=True)
class PValue:
    """A probability held in log space with a linear view.

    raw_log is the log of the value as computed, before any clamping,
    and is the authoritative ranking key: it stays finite and ordered
    when the linear value underflows to 0.0, and it keeps the original
    magnitude when an upper bound exceeded 1 and was clamped.  After
    clamping log_value <= 0, linear_value = exp(log_value), and
    clamped implies linear_value == 1.0.
    """

    raw_log: float
    log_value: float
    linear_value: float
    clamped: bool
    terms_evaluated: int

    @classmethod
    def from_log(cls, raw_log: float, terms_evaluated: int) -> "PValue":
        if raw_log > 0.0:
            return cls(raw_log, 0.0, 1.0, True, terms_evaluated)
        return cls(raw_log, raw_log, math.exp(raw_log), False, terms_evaluated)


@dataclass(frozen=True, slots=True)
class TermEngine:
    """Per-table state of the term recurrence.

    log_p0 is ln p_0 of the observed table, log_pabs is the margin-only
    factor ln(ma! (n - ma)! / n!) shared by every term, and j counts the
    ratio steps available beyond the observed table.
    """

    table: ContingencyTable
    log_p0: float
    log_pabs: float
    j: int

    @property
    def positive_dependency(self) -> bool:
        return self.table.delta_counts > 0

    def ratio(self, i: int) -> float:
        """q_i as a single division of two exact integer products."""
        if not 1 <= i <= self.j:
            raise OutOfRange(f"i={i} outside 1..{self.j}")
        t = self.table
        return ((t.mxna - i + 1) * (t.mnxa - i + 1)) / ((t.mxa + i) * (t.mnxna + i))

    def ratios(self):
        """Yield q_1 .. q_J in order."""
        t = self.table
        mxa, mxna, mnxa, mnxna = t.mxa, t.mxna, t.mnxa, t.mnxna
        for i in range(1, self.j + 1):
            yield ((mxna - i + 1) * (mnxa - i + 1)) / ((mxa + i) * (mnxna + i))


def log_factorial(i: int) -> float:
    """ln i! as math.lgamma(i + 1)."""
    if i < 0:
        raise OutOfRange(f"i={i} is negative")
    try:
        return math.lgamma(i + 1)
    except OverflowError:
        raise OutOfRange(f"ln {i}! overflows a double") from None


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) as ln n! - (ln k! + ln (n - k)!).

    The subtrahends are added before subtracting, which makes the
    result exactly symmetric in k and n - k and exactly 0.0 at the edges.
    """
    if not 0 <= k <= n:
        raise OutOfRange(f"need 0 <= k <= n, got n={n}, k={k}")
    return log_factorial(n) - (log_factorial(k) + log_factorial(n - k))


def make_term_engine(t: ContingencyTable) -> TermEngine:
    """Build the engine for a table from math.lgamma log-factorials.

    The arithmetic is log_binomial's, written out straight-line because
    engine builds dominate a screen of many small tables: log_pabs is
    -log_binomial(n, ma) and log_p0 adds log_binomial(mx, mxa) and
    log_binomial(n - mx, mnxna) to it, bit for bit.
    """
    lg = math.lgamma
    n, mx, ma, mxa = t.n, t.mx, t.ma, t.mxa
    mxna = mx - mxa
    mnxa = ma - mxa
    mnxna = n - mx - ma + mxa
    log_pabs = -(lg(n + 1) - (lg(ma + 1) + lg(n - ma + 1)))
    log_p0 = (
        (lg(mx + 1) - (lg(mxa + 1) + lg(mxna + 1)))
        + (lg(n - mx + 1) - (lg(mnxna + 1) + lg(mnxa + 1)))
        + log_pabs
    )
    return TermEngine(t, log_p0, log_pabs, mxna if mxna < mnxa else mnxa)


def _kahan_partial(engine: TermEngine, count: int) -> tuple[float, float, float]:
    """Compensated sum of the first count partial products 1, q_1, q_1 q_2, ...

    Returns (sum, compensation, last product).  The upper-bound family
    reuses this exact accumulation order for its leading terms, so a
    bound with no tail left reproduces exact_fisher bit for bit.
    """
    total = 0.0
    comp = 0.0
    prod = 1.0
    ratios = engine.ratios()
    for i in range(count):
        if i > 0:
            prod *= next(ratios)
        y = prod - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total, comp, prod


def exact_fisher(engine: TermEngine) -> PValue:
    """Exact p_F of a positive dependency; costs O(J) ratio steps.

    The linear value underflows to 0.0 for extreme tables while raw_log
    stays finite, so ranking by significance keeps working.
    """
    if not engine.positive_dependency:
        raise NegativeDependency(
            "exact_fisher needs a positive dependency; negate the consequent first"
        )
    total, _, _ = _kahan_partial(engine, engine.j + 1)
    return PValue.from_log(engine.log_p0 + math.log(total), engine.j + 1)


# The geometric tail bound is used only while 1 - q >= 8 u (u = 2^-53).
_GEOMETRIC_Q_MAX = 1.0 - 2.0**-50
# Rounding below the normal range adds at most 2^-1075 per product;
# J 2^-1021 covers all of it in the stop test.
_SUBNORMAL_SLACK = 2.0**-1021


def exact_fisher_certified(engine: TermEngine) -> PValue:
    """Exact p_F, stopping once the unsummed terms cannot change it.

    Walks the terms of exact_fisher in the same compensated order and
    stops before the next term when the running product prod has
    underflowed to 0.0, or when the float test

        2.5 prod min(q / (1 - q), L) + J 2^-1021 - comp < ulp(total) / 2

    holds, with q the next ratio, L the number of unsummed terms, and
    q / (1 - q) taken only while q <= 1 - 2^-50.  raw_log therefore
    equals exact_fisher's bit for bit, and terms_evaluated counts the
    terms actually summed: a few dozen on strong tables, O(sqrt n) near
    independence, never more than J + 1.

    Why the unsummed terms cannot change total (u = 2^-53, rounding to
    nearest):

    1. total >= 1 dominates every added y, so each Kahan step is an
       error-free transformation: -comp is exactly the true running sum
       minus total, so total - comp rounds to total.
    2. Let c_1 .. c_L be the products the full sum would still add and S
       their sum.  A step that leaves total fixed sets comp to -y, so the
       low part r = -comp evolves as r <- fl(r + c).  For a float r and
       c >= 0, r <= fl(r + c) <= r + 2c: either c is below half the gap
       above r and the sum rounds back to r, or the rounding error is at
       most half a gap no wider than 2c.  So every r stays within
       [-comp, -comp + 2S].
    3. Rounding is monotone and the gap above total is ulp(total), so by
       1 every r in [-comp, ulp(total) / 2) leaves total fixed.  Total
       therefore never moves if 2S - comp < ulp(total) / 2.
    4. The exact ratios fall strictly and stay below 1, and rounding is
       monotone, so the computed ratios lie in (0, 1] and do not grow,
       and neither do the computed products.  Hence S <= L prod with no
       rounding slack, and once prod == 0.0 every c is 0.0 and r never
       leaves -comp.
    5. While q <= 1 - 8u, each product is at most q (1 + u) times the one
       before, plus 2^-1075 below the normal range, and 1 - q (1 + u) >=
       (7/8)(1 - q).  Summing the geometric series gives S <= (8/7)(1 + u)
       prod q / (1 - q) + L 2^-1022 / 7.
    6. By 4 and 5, 2S is below the first two terms of the test.  Their
       float value still is: each of its few roundings loses at most a
       factor 1 - u, or 2^-1075 below the normal range, which the step
       from 16/7 to 2.5 and the slack J 2^-1021 absorb.  Subtracting comp
       and comparing with the float ulp(total) / 2 are monotone, so the
       test passing implies 2S - comp < ulp(total) / 2, and 3 applies.
    """
    if not engine.positive_dependency:
        raise NegativeDependency(
            "exact_fisher_certified needs a positive dependency;"
            " negate the consequent first"
        )
    ulp = math.ulp
    slack = engine.j * _SUBNORMAL_SLACK
    total = 1.0
    comp = 0.0
    prod = 1.0
    remaining = engine.j
    for q in engine.ratios():
        if prod == 0.0:
            break
        g = q / (1.0 - q) if q <= _GEOMETRIC_Q_MAX else remaining
        if g > remaining:
            g = remaining
        if 2.5 * prod * g + slack - comp < 0.5 * ulp(total):
            break
        prod *= q
        y = prod - comp
        t = total + y
        comp = (t - total) - y
        total = t
        remaining -= 1
    return PValue.from_log(engine.log_p0 + math.log(total), engine.j + 1 - remaining)


ORACLE_CAP = 20_000


def exact_fisher_oracle(t: ContingencyTable, cap: int = ORACLE_CAP) -> Fraction:
    """p_F as an exact rational; no floating point anywhere.

    Each side's binomial coefficient starts from math.comb at the
    observed cell and advances along k with C(m, k+1) = C(m, k) (m - k)
    / (k + 1) in exact integer steps (the division is always exact).
    That recurrence runs over different quantities than the floating
    q_i path, so agreement between the two is a genuine cross-check.
    Cost grows quickly with n; the cap keeps requests honest.
    """
    if t.n > cap:
        raise CapacityExceeded(f"n={t.n} above oracle cap {cap}")
    mnx = t.n - t.mx
    cx = math.comb(t.mx, t.mxa)
    cnx = math.comb(mnx, t.mnxna)
    total = cx * cnx
    kx = t.mxa
    kn = t.mnxna
    for _ in range(t.j):
        cx = cx * (t.mx - kx) // (kx + 1)
        kx += 1
        cnx = cnx * (mnx - kn) // (kn + 1)
        kn += 1
        total += cx * cnx
    return Fraction(total, math.comb(t.n, t.ma))
