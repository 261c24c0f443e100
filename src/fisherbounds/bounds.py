"""Constant-time upper bounds on the exact p-value, with error guarantees.

Three bounds, ordered ub_k <= ub2 <= ub1 and all above p_F:

  ub1   closed form p_0 (1 + P(X not A) P(not X A) / leverage); exact
        only when J = 0.
  ub2   geometric series in the first ratio, p_0 (1 - q_1^(J+1)) / (1 - q_1);
        exact when J <= 1.
  ub_k  first k terms summed exactly, remaining tail bounded by a
        geometric series in q_k; ub2 is the k = 1 member.

ub2, ub_k and p_F are prefixes of one series, which report walks once
(exact._walk).  Every bound costs O(1) beyond the k exact terms, versus
O(J) for the full sum.  The guarantee predicates give lift thresholds
under which the absolute error is at most p_0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .chi2 import Chi2Result, chi2_one_sided
from .contingency import ContingencyTable, DerivedStats, _measures
from .errors import InvalidK
from .exact import PValue, TermEngine, _log_tail_factor, _walk, make_term_engine

__all__ = [
    "ApproxReport",
    "GuaranteeFlags",
    "ub1",
    "ub2",
    "ub_k",
    "error_bound_ub2",
    "guarantees",
    "report",
]

def _require_k(k: int) -> None:
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise InvalidK(f"k must be a positive integer, got {k!r}")


def _require_extra_k(k: int) -> None:
    """eval and sweep print ub1 and ub2 on lines of their own, so the extra
    order they print must be at least 3."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 3:
        raise InvalidK(
            f"k must be an integer >= 3, got {k!r}; orders 1 and 2 are always included"
        )


def ub1(engine: TermEngine) -> PValue:
    """Closed-form bound p_0 (1 + P(X not A) P(not X A) / leverage).

    The multiplier collapses to the exact integer ratio
    mxa * mnxna / (n mxa - mx ma), because the leverage numerator
    satisfies n mxa - mx ma = mxa mnxna - mxna mnxa.  A table with J = 0
    therefore gets multiplier exactly 1.0 and ub1 = p_0 = p_F, and the
    multiplier r reproduces the odds ratio through odds = r / (r - 1).
    """
    t = engine.table
    multiplier = (t.mxa * t.mnxna) / t.delta_counts
    return PValue(engine.log_p0 + math.log(multiplier), 1)


def ub_k(engine: TermEngine, k: int) -> PValue:
    """First k terms exact, the rest bounded geometrically in q_k.

    exact._walk up to term k - 1.  Once k - 1 >= J every term is summed
    exactly and the result equals exact_fisher's bit for bit.
    terms_evaluated records min(k, J + 1), the number of exactly
    computed terms.
    """
    _require_k(k)
    return _walk(engine, k, False)[2]


def ub2(engine: TermEngine) -> PValue:
    """Geometric-series bound p_0 (1 - q_1^(J+1)) / (1 - q_1).

    The k = 1 member of ub_k, so a J = 0 table returns exactly p_0.
    """
    return ub_k(engine, 1)


def error_bound_ub2(engine: TermEngine) -> float:
    """Ceiling on ub2 - p_F: p_0 q_1^2 / (1 - q_1), or 0 when J = 0.

    report carries its log, which stays finite where this linear value
    underflows.
    """
    return math.exp(engine.log_p0 + _log_tail_factor(engine, 0)) if engine.j else 0.0


class GuaranteeFlags(NamedTuple):
    """Lift thresholds under which an error ceiling of p_0 is proven.

    ub2_within_p0 additionally forces ub2 <= 2 p_F.
    """

    ub1_within_p0: bool
    ub2_within_p0: bool


def guarantees(s: DerivedStats) -> GuaranteeFlags:
    """Threshold tests on the lift, decided in exact integer arithmetic.

    lift >= 2 compares n mxa against 2 mx ma directly; the golden-ratio
    test squares 2 lift - 1 >= sqrt(5) so no irrational is evaluated.
    """
    return GuaranteeFlags(*_lift_flags(s.table))


def _lift_flags(t: ContingencyTable) -> tuple[bool, bool]:
    """ub1_within_p0 and ub2_within_p0: the one formula of guarantees and report."""
    margins = t.mx * t.ma
    joint = t.n * t.mxa
    u = 2 * joint - margins
    return joint >= 2 * margins, u >= 0 and u * u >= 5 * margins * margins


class ApproxReport(NamedTuple):
    """The one per-table record that eval, batch and sweep print.

    lift, leverage and odds_ratio are derive_stats's.  p_fisher, the one
    field that is not constant-time, is the certified early-stopping
    sum, equal bit for bit to the full O(J) sum, or None when skipped.
    log_error_bound and log_error_bound_ub2 are the logs of the error
    ceilings of ub_k and ub2, -inf once no tail is left.  The ceiling on
    ub_k - p_F is p_0 q_k^2 / (1 - q_k), scaled by p_0 although the
    approximated tail begins only at term k - 1, which keeps it loose.
    """

    table: ContingencyTable
    lift: float
    leverage: float
    odds_ratio: float
    ub1: PValue
    ub2: PValue
    ub_k: PValue
    k_used: int
    log_error_bound: float
    log_error_bound_ub2: float
    guarantee_ub1: bool
    guarantee_ub2: bool
    chi2: Chi2Result
    p_fisher: PValue | None

    @property
    def terms(self) -> int:
        """J + 1, the terms of the full exact sum."""
        return self.table.j + 1

    @property
    def clamped(self) -> bool:
        """Whether any of ub1, ub2 and ub_k exceeded 1 and prints as 1."""
        return self.ub1.clamped or self.ub2.clamped or self.ub_k.clamped


def report(t: ContingencyTable, k: int = 3, include_exact: bool = True) -> ApproxReport:
    """Evaluate every measure for one table.

    ub2, ub_k, both error ceilings and p_fisher come from one pass of
    exact._walk.  p_fisher stops once the rest cannot change the double
    result: a few dozen terms on strong tables, O(sqrt n) near
    independence, at most J + 1.  make_term_engine refuses a table
    first: NegativeDependency without positive dependency, then
    OutOfRange for n above 2^50; InvalidK comes after both.  Within that
    range no float computed here overflows.
    """
    engine = make_term_engine(t)
    _require_k(k)
    ub2_pv, log_err_ub2, ubk_pv, log_err_ubk, p_fisher = _walk(engine, k, include_exact)
    return ApproxReport(
        t, *_measures(t), ub1(engine), ub2_pv, ubk_pv, k, log_err_ubk, log_err_ub2,
        *_lift_flags(t), chi2_one_sided(t), p_fisher,
    )
