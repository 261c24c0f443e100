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

exact_fisher sums all J + 1 terms from TermEngine.ratios() and is the
reference; ratios() writes q_i apart from _walk on purpose.  _walk sums
the same terms in the same order in one pass, stepping two running
products, the numerator and the denominator of q_i, by their first
differences (in doubles while every value stays below 2^53).  A closing
ends the sum with a geometric tail: ub2's before the loop, ub_k's in it.
Its certified p_F stops once the rest provably cannot change the double
total, so it returns exact_fisher's bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .contingency import ContingencyTable, _new
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

    def ratios(self):
        """Yield q_1 .. q_J for the reference exact_fisher; written apart
        from _walk's two stepped running products, so the walk is tested
        against it."""
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
    for one without positive dependency (negate the consequent to test the
    opposite direction), then OutOfRange for n above 2^50, both before any
    log-factorial.  Each ln C(m, k) is ln m! - (ln k! + ln (m - k)!), the
    subtrahends added before subtracting, which makes it exactly symmetric
    in k and m - k and exactly 0.0 at the edges.  log_p0 is ln C(mx, mxa)
    + ln C(n - mx, mnxna) - ln C(n, ma), so the edge table (n, ma, ma, ma)
    has log_p0 = -ln C(n, ma) exactly.  Written out straight-line because
    engine builds dominate a screen of many small tables.
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
    return _new(TermEngine, (t, log_p0, t.j))


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


def _log_ceiling(a: int, b: int) -> float:
    """ln(q^2 / (1 - q)) for q = a / b, 0 <= a < b exact integers; -inf at q = 0."""
    return 2.0 * math.log(a) - math.log(b) - math.log(b - a) if a else -math.inf


def _closing(a, b, left: int) -> tuple[float, float]:
    """A closing's geometric factor 1 + q + ... + q^left and log error
    ceiling ln(q^2 / (1 - q)) for q = a / b, from exact integers 0 <= a < b
    (ints, or doubles below 2^53)."""
    if a >= b:
        # q < 1 is proven under positive dependency; guards the division by b - a
        raise RuntimeError(f"ratio {a} / {b} is not below 1")
    d = (b - a) / b
    geometric = 1.0 if d == 1.0 else -math.expm1((left + 1) * math.log1p(-d)) / d
    return geometric, _log_ceiling(a, b)


# Rounding below the normal range adds at most 2^-1075 per product;
# J 2^-1021 covers all of it in the stop test.
_SUBNORMAL_SLACK = 2.0**-1021


def _walk(engine: TermEngine, k: int, exact: bool):
    """One compensated pass over 1, q_1, q_1 q_2, ... for ub2, ub_k and p_F.

    Returns (ub2, ln of its error ceiling, ub_k, ln of its error
    ceiling, p_F or None).  The state (l, a, b, da, db, total, comp,
    prod) starts at term l = 0 from (total, comp, prod) = (0, 0, 1).  At
    term l, prod = q_1 ... q_l, and q_{l+1} is the float division a / b
    of the running products a = x y and b = u v of x = mxna - l, y =
    mnxa - l, u = mxa + l + 1 and v = mnxna + l + 1, the values ratios()
    divides; da and db are their first differences (step 9).  All four
    are exact integers, held as doubles when the exact sum runs and they
    stay below 2^53 (step 10).  ub2 closes before the loop (step 11).
    Each term closes ub_k's tail if it is due, adds prod in a Kahan step,
    runs the stop test below with q = a / b only where the float prod q,
    the next prod (step 12), is below thresh = ulp(2 (J + 1)), the one
    place a pass is possible (step 7), and steps prod, a, b, da and db.

    A closing at term l adds prod (1 + q + ... + q^(J-l)) in q = q_{l+1}
    to the sum so far, takes p_0 q^2 / (1 - q) as its error ceiling and
    counts l + 1 exact terms.  ub2 closes at term 0, ub_k at term min(k,
    J + 1) - 1.  At term J, q_{J+1} = 0, so the tail is prod, the ceiling
    0 and the closed sum the full sum.  The walk ends at the later of
    ub_k's closing and, if exact, the stop.

    p_F sums the terms of exact_fisher in the same compensated order and
    stops after term l when the running product prod has underflowed to
    0.0, or when the float test

        2.5 prod g + J 2^-1021 - comp < ulp(total) / 2,  g = q / (1 - q)

    holds.  raw_log therefore equals exact_fisher's bit for bit, and
    terms_evaluated counts the terms actually summed: a few dozen on
    strong tables, O(sqrt n) near independence, never more than J + 1.

    Why the unsummed terms cannot change total (u = 2^-53, rounding to
    nearest):

    1. The test runs only after term 0, whose Kahan step from (0, 0, 1)
       is exact.  From then on total >= 1 dominates every added y, so
       each Kahan step is an error-free transformation: -comp is exactly
       the true running sum minus total, so total - comp rounds to total.
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
       and neither do the computed products.  Once prod == 0.0 every c
       is 0.0 and r never leaves -comp.
    5. Every computed q is at most 1 - 8u: every exact ratio is at most
       q_1, 1 - q_1 > 1/n, make_term_engine admits only n <= 2^50 = 1/(8u),
       and the integer division rounds correctly to the double grid, on
       which 1 - 8u lies.  So each product is at most q (1 + u) times the
       one before, plus 2^-1075 below the normal range, and
       1 - q (1 + u) >= (7/8)(1 - q).  Summing the geometric series gives
       S <= (8/7)(1 + u) prod q / (1 - q) + L 2^-1022 / 7.
    6. By 5, 2S is below the first two terms of the test.  Their float
       value still is: each of its few roundings loses at most a factor
       1 - u, or 2^-1075 below the normal range, which the step from
       16/7 to 2.5 and the slack J 2^-1021 absorb.  Subtracting comp
       and comparing with the float ulp(total) / 2 are monotone, so the
       test passing implies 2S - comp < ulp(total) / 2, and 3 applies.
    7. The test passes only where prod q < thresh, so running it only
       there changes no result.  If prod == 0.0, prod q is 0.0.
       Otherwise g >= q because the float 1 - q is at most 1.  By 1,
       |comp| <= ulp(total) / 2, so a pass makes the float 2.5 prod g
       smaller than ulp(total).  Its two roundings lose less than the
       factor 2.5 / 2, so prod q < ulp(total) / 2, or prod g lies below
       the normal range.  By 1 and 4, total is within ulp(total) / 2 of
       a sum of at most J + 1 products, each at most 1, so total < 2 (J +
       1) and ulp(total) <= thresh.  Without the exact sum, or once it has
       stopped, thresh = -1.0 and no term runs the test.
    8. Where the test runs, g <= L = J - l, so capping g at L, as
       S <= L prod allows, would move no stop.  If q < 1/2, g <= 1 <= L,
       or L = 0 and g = q = 0.  Else 1 - q is exact and g > L needs
       q > L / (L + 1) >= 1/2, so not at term 0: there prod q = q > 1/4 >=
       ulp(n + 2) >= thresh.  At l >= 1, with A = mxa, D = mnxna, a = L s,
       b <= (A + D + l + 1)^2 <= n^2 and (L + 1) s < J (s + l) = mxna mnxa
       < A D = b - (l + 1)(A + D + l + 1), so a / b lies over (l + 1) / (2 n)
       >= 2^-50 below L / (L + 1), and q, within 2^-54 of a / b, below it.

    Why each term's cheaper arithmetic moves no bit:

    9. (x - 1)(y - 1) = x y - (x + y - 1) and (u + 1)(v + 1) = u v + (u +
       v + 1).  So a <- a - da and b <- b + db, with da = mxna + mnxa -
       2l - 1 falling and db = mxa + mnxna + 2l + 3 rising by 2 per term,
       keep a and b equal to the integers x y and u v at every term, and
       q = a / b divides the same integers as ratios().
    10. If the exact sum runs and (mxa + 1 + J)(mnxna + 1 + J) < 2^53, a,
        b, da and db become doubles once, before the loop.  Every value
        the loop reads is then an integer of magnitude below 2^53: b is
        at most its value at term J, 0 <= a <= mxna mnxa < b under
        positive dependency, and |da|, |db| <= 2n + 3 < 2^52.  Each step
        yields such a value, so it is exact; the update after term J may
        round but is never read.  The double a / b is the correctly
        rounded quotient, which is what int true division returns, and
        a closing's b - a and logs see the same values, so the doubles
        give the ints' bits.  On ints the steps stay ints: a step by the
        float 2.0 would turn da and db into doubles that round past
        2^53.  A bounds-only walk takes at most k - 1 steps and keeps
        ints.
    11. At term 0, (total, comp, prod) = (0, 0, 1), so a closing's total
        + (prod g - comp) is g bit for bit, and ub2 = p_0 g closes before
        the loop.  If min(k, J + 1) = 1, ub_k's closing falls at term 0
        as well and is ub2's, so no closing is left for the loop.
    12. The filter's prod q and the step's are one rounding of the same
        operands, so the filter's value is the next prod.
    """
    table, j, log_p0 = engine.table, engine.j, engine.log_p0
    log, ulp = math.log, math.ulp
    x, y, u, v = table.mxna, table.mnxa, table.mxa + 1, table.mnxna + 1
    a, b, da, db, two = x * y, u * v, x + y - 1, u + v + 1, 2
    if exact and (u + j) * (v + j) < 2**53:
        a, b, da, db, two = float(a), float(b), float(da), float(db), 2.0
    geometric, ceiling = _closing(a, b, j)
    ub2 = ubk = _new(PValue, (log_p0 + log(geometric), 1))
    ub2_log_ceiling = ubk_log_ceiling = log_p0 + ceiling
    close = min(k, j + 1) - 1  # ub_k's closing term; -1 once none is left
    if close == 0:
        if not exact:
            return ub2, ub2_log_ceiling, ubk, ubk_log_ceiling, None
        close = -1
    slack = j * _SUBNORMAL_SLACK
    total, comp, prod = 0.0, 0.0, 1.0
    p_fisher = None
    # the stop test can pass only where prod q < thresh (step 7); -1.0 when it is off
    thresh = ulp(2.0 * (j + 1)) if exact else -1.0
    for l in range(j + 1):
        if l == close:
            geometric, ceiling = _closing(a, b, j - l)
            ubk = _new(PValue, (log_p0 + log(total + (prod * geometric - comp)), l + 1))
            ubk_log_ceiling = log_p0 + ceiling
            if thresh < 0.0:
                break
        w = prod - comp
        s = total + w
        comp = (s - total) - w
        total = s
        q = a / b
        next_prod = prod * q
        if next_prod < thresh:
            g = q / (1.0 - q)
            if prod == 0.0 or 2.5 * prod * g + slack - comp < 0.5 * ulp(total):
                p_fisher = _new(PValue, (log_p0 + log(total), l + 1))
                if l >= close:
                    break
                thresh = -1.0
        prod = next_prod
        a -= da
        b += db
        da -= two
        db += two
    else:  # only the exact sum, its stop test failing at term J, gets here
        p_fisher = _new(PValue, (log_p0 + log(total), j + 1))
    return ub2, ub2_log_ceiling, ubk, ubk_log_ceiling, p_fisher


def exact_fisher_certified(engine: TermEngine) -> PValue:
    """Exact p_F from _walk, stopping once the unsummed terms cannot change it.

    raw_log equals exact_fisher's bit for bit (the proof is in _walk);
    terms_evaluated counts the terms actually summed.
    """
    return _walk(engine, 1, True)[4]


ORACLE_CAP = 20_000


def exact_fisher_oracle(t: ContingencyTable):
    """p_F as an exact Fraction; no floating point anywhere.

    Each side's binomial coefficient starts from math.comb at the
    observed cell and advances along k with C(m, k+1) = C(m, k) (m - k)
    / (k + 1) in exact integer steps (the division is always exact).
    That recurrence runs over different quantities than the floating
    q_i path, so agreement between the two is a genuine cross-check.
    Cost grows quickly with n, so it refuses n above ORACLE_CAP.
    """
    from fractions import Fraction  # only the oracle uses it: loaded here, so not annotated

    if t.n > ORACLE_CAP:
        raise CapacityExceeded(f"n={t.n} above oracle cap {ORACLE_CAP}")
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
