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

exact_fisher sums all J + 1 terms and is the reference.  _walk sums
the same terms in the same order once for ub2, ub_k and the certified
p_F, which stops as soon as the rest provably cannot change the double
total, so both return the same bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .contingency import ContingencyTable
from .errors import CapacityExceeded, NegativeDependency, OutOfRange

__all__ = [
    "PValue",
    "TermEngine",
    "make_term_engine",
    "exact_fisher",
    "exact_fisher_certified",
    "exact_fisher_oracle",
]


class PValue(NamedTuple):
    """A probability held in log space with a linear view.

    raw_log is the log of the value as computed, before any clamping,
    and is the authoritative ranking key: it stays finite and ordered
    when the linear value underflows to 0.0, and it keeps the original
    magnitude when an upper bound exceeded 1.  The three views clamp
    such a bound to 1, so log_value <= 0, linear_value =
    exp(log_value), and clamped implies linear_value == 1.0.
    """

    raw_log: float
    terms_evaluated: int

    @property
    def clamped(self) -> bool:
        return self.raw_log > 0.0

    @property
    def log_value(self) -> float:
        return 0.0 if self.raw_log > 0.0 else self.raw_log

    @property
    def linear_value(self) -> float:
        return 1.0 if self.raw_log > 0.0 else math.exp(self.raw_log)


class TermEngine(NamedTuple):
    """Per-table state of the term recurrence of a positive dependency.

    log_p0 is ln p_0 of the observed table and j counts the ratio steps
    available beyond it.  make_term_engine builds one only for a table
    with positive dependency, so every function that takes an engine
    relies on that sign.
    """

    table: ContingencyTable
    log_p0: float
    j: int

    def _ratio_parts(self, l: int) -> tuple[int, int]:
        """Numerator and denominator of q_{l+1} as exact integers."""
        t = self.table
        return (t.mxna - l) * (t.mnxa - l), (t.mxa + l + 1) * (t.mnxna + l + 1)

    def ratios(self):
        """Yield q_1 .. q_J in order; the hot loop inlines _ratio_parts."""
        t = self.table
        mxa, mxna, mnxa, mnxna = t.mxa, t.mxna, t.mnxa, t.mnxna
        for i in range(1, self.j + 1):
            yield ((mxna - i + 1) * (mnxa - i + 1)) / ((mxa + i) * (mnxna + i))


# The supported range of n.  Within it every ratio stays more than
# 1/n >= 2^-50 below 1, as the stop proof in _walk needs, and no float
# the package computes overflows.  It does not bound the error of
# log_p0, which grows with n ln n; see the README's numerical notes.
_MAX_N = 2**50


def make_term_engine(t: ContingencyTable) -> TermEngine:
    """Build the engine for a table from math.lgamma log-factorials.

    The one place the package refuses a valid table: NegativeDependency
    for one without positive dependency (negate the consequent to test
    the opposite direction), then OutOfRange for n above 2^50, both
    before any log-factorial.  Each ln C(m, k) is ln m! - (ln k! +
    ln (m - k)!), the subtrahends added before subtracting, which makes
    it exactly symmetric in k and m - k and exactly 0.0 at the edges: log_p0 is ln C(mx, mxa) + ln C(n - mx,
    mnxna) - ln C(n, ma), so the edge table (n, ma, ma, ma) has log_p0
    = -ln C(n, ma) exactly.  Written out straight-line because engine
    builds dominate a screen of many small tables.
    """
    if t.delta_counts <= 0:
        raise NegativeDependency(f"leverage numerator {t.delta_counts} is not positive")
    n = t.n
    if n > _MAX_N:
        raise OutOfRange("counts too large for double-precision arithmetic")
    lg = math.lgamma
    mx, ma, mxa = t.mx, t.ma, t.mxa
    mxna, mnxa, mnxna = t.mxna, t.mnxa, t.mnxna
    log_pabs = -(lg(n + 1) - (lg(ma + 1) + lg(n - ma + 1)))
    log_p0 = (
        (lg(mx + 1) - (lg(mxa + 1) + lg(mxna + 1)))
        + (lg(n - mx + 1) - (lg(mnxna + 1) + lg(mnxa + 1)))
        + log_pabs
    )
    return TermEngine(t, log_p0, t.j)


def exact_fisher(engine: TermEngine) -> PValue:
    """Exact p_F of a positive dependency; costs O(J) ratio steps.

    The linear value underflows to 0.0 for extreme tables while raw_log
    stays finite, so ranking by significance keeps working.
    """
    total, comp, prod = 1.0, 0.0, 1.0
    for q in engine.ratios():
        prod *= q
        y = prod - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return PValue(engine.log_p0 + math.log(total), engine.j + 1)


def _log_tail_factor(engine: TermEngine, l: int) -> float:
    """ln(q^2 / (1 - q)) for q = q_{l+1}, from exact integer products."""
    return _log_factor(*engine._ratio_parts(l))


def _log_factor(a: int, b: int) -> float:
    """ln(q^2 / (1 - q)) for q = a / b."""
    return 2.0 * math.log(a) - math.log(b) - math.log(b - a)


def _tail(engine: TermEngine, l: int, total: float, comp: float, prod: float):
    """ln of the sum closed at term l by a geometric tail in q = q_{l+1}
    (total - comp sums terms 0 .. l - 1, prod is term l), and ln of its
    error ceiling p_0 q^2 / (1 - q), -inf if l = J."""
    a, b = engine._ratio_parts(l)
    if a >= b:
        # q < 1 is proven under positive dependency; guards the division below
        raise RuntimeError(f"ratio q_{l + 1} >= 1 on {engine.table}")
    d = (b - a) / b
    if d == 1.0:
        # q is 0 (l = J) or rounded away entirely; the series is 1
        geometric = 1.0
    else:
        geometric = -math.expm1((engine.j - l + 1) * math.log1p(-d)) / d
    log_ceiling = engine.log_p0 + _log_factor(a, b) if a else -math.inf
    return engine.log_p0 + math.log(total + (prod * geometric - comp)), log_ceiling


# Rounding below the normal range adds at most 2^-1075 per product;
# J 2^-1021 covers all of it in the stop test.
_SUBNORMAL_SLACK = 2.0**-1021


def _walk(engine: TermEngine, k: int, exact: bool):
    """One compensated pass over 1, q_1, q_1 q_2, ... for ub2, ub_k and p_F.

    Returns (ub2, ln of its error ceiling, ub_k, ln of its error
    ceiling, p_F or None).  A geometric tail closes the prefix sum at
    term 0 for ub2 and at term k - 1 for ub_k, which is the full sum
    once k - 1 > J.  The walk ends at the later of term k - 1 and, if
    exact, the certified stop below.

    p_F sums the terms of exact_fisher in the same compensated order and
    stops before the next term when the running product prod has
    underflowed to 0.0, or when the float test

        2.5 prod min(q / (1 - q), L) + J 2^-1021 - comp < ulp(total) / 2

    holds, with q the next ratio and L the number of unsummed terms.
    raw_log therefore equals exact_fisher's bit for bit, and
    terms_evaluated counts the terms actually summed: a few dozen on
    strong tables, O(sqrt n) near independence, never more than J + 1.

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
    5. Every computed q is at most 1 - 8u: every exact ratio is at most
       q_1, 1 - q_1 > 1/n, make_term_engine admits only n <= 2^50 = 1/(8u),
       and the integer division rounds correctly to the double grid, on
       which 1 - 8u lies.  So each product is at most q (1 + u) times the
       one before, plus 2^-1075 below the normal range, and
       1 - q (1 + u) >= (7/8)(1 - q).  Summing the geometric series gives
       S <= (8/7)(1 + u) prod q / (1 - q) + L 2^-1022 / 7.
    6. By 4 and 5, 2S is below the first two terms of the test.  Their
       float value still is: each of its few roundings loses at most a
       factor 1 - u, or 2^-1075 below the normal range, which the step
       from 16/7 to 2.5 and the slack J 2^-1021 absorb.  Subtracting comp
       and comparing with the float ulp(total) / 2 are monotone, so the
       test passing implies 2S - comp < ulp(total) / 2, and 3 applies.
    """
    j = engine.j
    log_ub2, log_err_ub2 = _tail(engine, 0, 0.0, 0.0, 1.0)
    log_ubk, log_err_ubk = log_ub2, log_err_ub2
    p_fisher = None
    ulp = math.ulp
    slack = j * _SUBNORMAL_SLACK
    total, comp, prod = 1.0, 0.0, 1.0  # term 0 added to the state (0, 0, 1)
    remaining = j  # unsummed terms
    tail_left = j + 2 - k  # remaining when term k - 1 comes up
    for q in engine.ratios():
        if exact:
            g = q / (1.0 - q)
            if g > remaining:
                g = remaining
            if prod == 0.0 or 2.5 * prod * g + slack - comp < 0.5 * ulp(total):
                p_fisher = PValue(engine.log_p0 + math.log(total), j + 1 - remaining)
                if remaining < tail_left:
                    break
                exact = False
        elif remaining < tail_left:
            break
        prod *= q
        if remaining == tail_left:
            log_ubk, log_err_ubk = _tail(engine, k - 1, total, comp, prod)
        y = prod - comp
        t = total + y
        comp = (t - total) - y
        total = t
        remaining -= 1
    else:
        if exact:
            p_fisher = PValue(engine.log_p0 + math.log(total), j + 1)
        if tail_left < 1:
            log_ubk, log_err_ubk = engine.log_p0 + math.log(total), -math.inf
    ub_k = PValue(log_ubk, min(k, j + 1))
    return PValue(log_ub2, 1), log_err_ub2, ub_k, log_err_ubk, p_fisher


def exact_fisher_certified(engine: TermEngine) -> PValue:
    """Exact p_F from _walk, stopping once the unsummed terms cannot change it.

    raw_log equals exact_fisher's bit for bit (the proof is in _walk);
    terms_evaluated counts the terms actually summed.
    """
    return _walk(engine, 1, True)[4]


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
    from fractions import Fraction  # loaded here: only the oracle uses it

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
