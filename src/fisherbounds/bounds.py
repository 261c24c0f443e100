"""Constant-time upper bounds on the exact p-value, with error guarantees.

Three bounds, ordered ub_k <= ub2 <= ub1 and all above p_F:

  ub1   closed form p_0 (1 + P(X not A) P(not X A) / leverage); exact
        only when J = 0.
  ub2   geometric series in the first ratio, p_0 (1 - q_1^(J+1)) / (1 - q_1);
        exact when J <= 1.
  ub_k  first k terms summed exactly, remaining tail bounded by a
        geometric series in q_k; ub2 is the k = 1 member.

Every bound costs O(1) beyond the k exact terms, versus O(J) for the
full sum.  The guarantee predicates give lift thresholds under which
the absolute error is at most p_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chi2 import Chi2Result, chi2_one_sided
from .contingency import ContingencyTable, DerivedStats, derive_stats
from .errors import InvalidK, NegativeDependency
from .exact import (
    PValue,
    TermEngine,
    _kahan_partial,
    exact_fisher_certified,
    make_term_engine,
)

__all__ = [
    "ApproxReport",
    "GuaranteeFlags",
    "ub1",
    "ub2",
    "ub_k",
    "error_bound_ub2",
    "error_bound_ub_k",
    "guarantees",
    "report",
]

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def _require_positive(engine: TermEngine, what: str) -> None:
    if not engine.positive_dependency:
        raise NegativeDependency(
            f"{what} needs a positive dependency; negate the consequent first"
        )


def ub1(engine: TermEngine) -> PValue:
    """Closed-form bound p_0 (1 + P(X not A) P(not X A) / leverage).

    The multiplier collapses to the exact integer ratio
    mxa * mnxna / (n mxa - mx ma), because the leverage numerator
    satisfies n mxa - mx ma = mxa mnxna - mxna mnxa.  A table with J = 0
    therefore gets multiplier exactly 1.0 and ub1 = p_0 = p_F, and the
    multiplier r reproduces the odds ratio through odds = r / (r - 1).
    """
    _require_positive(engine, "ub1")
    t = engine.table
    multiplier = (t.mxa * t.mnxna) / t.delta_counts
    return PValue.from_log(engine.log_p0 + math.log(multiplier), 1)


def ub_k(engine: TermEngine, k: int) -> PValue:
    """First k terms exact, the rest bounded geometrically in q_k.

    Once k - 1 > J every term is summed exactly and the result equals
    exact_fisher's bit for bit; the same already holds at k - 1 = J,
    where the geometric factor collapses to 1.  terms_evaluated records
    min(k, J + 1), the number of exactly computed terms.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise InvalidK(f"k must be a positive integer, got {k!r}")
    _require_positive(engine, "ub_k")
    j = engine.j
    tail_from = k - 1
    total, comp, prod = _kahan_partial(engine, min(tail_from, j + 1))
    if tail_from <= j:
        if tail_from > 0:
            prod *= engine.ratio(tail_from)
        t = engine.table
        a = (t.mxna - tail_from) * (t.mnxa - tail_from)
        b = (t.mxa + tail_from + 1) * (t.mnxna + tail_from + 1)
        if a >= b:
            # q < 1 is proven under positive dependency; guards the division below
            raise RuntimeError(f"ratio q_{tail_from + 1} >= 1 on {t}")
        if a == 0:
            geometric = 1.0
        else:
            d = (b - a) / b
            if d == 1.0:
                # q rounded away entirely; the series is 1 to double precision
                geometric = 1.0
            else:
                geometric = -math.expm1((j - tail_from + 1) * math.log1p(-d)) / d
        y = prod * geometric - comp
        t2 = total + y
        comp = (t2 - total) - y
        total = t2
    return PValue.from_log(engine.log_p0 + math.log(total), min(k, j + 1))


def ub2(engine: TermEngine) -> PValue:
    """Geometric-series bound p_0 (1 - q_1^(J+1)) / (1 - q_1).

    The k = 1 member of ub_k, so a J = 0 table returns exactly p_0.
    """
    return ub_k(engine, 1)


def error_bound_ub_k(engine: TermEngine, k: int) -> float:
    """Ceiling on ub_k - p_F: p_0 q_k^2 / (1 - q_k), or 0 once no tail is left.

    Scaled by p_0 even though the approximated tail begins only at term
    k - 1, which keeps the ceiling loose; _error_bound_ub_k_tail scales
    by that term instead and exists for the test suite.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise InvalidK(f"k must be a positive integer, got {k!r}")
    _require_positive(engine, "error_bound_ub_k")
    return math.exp(engine.log_p0 + _log_tail_factor(engine, k - 1)) if k <= engine.j else 0.0


def error_bound_ub2(engine: TermEngine) -> float:
    """Ceiling on ub2 - p_F: p_0 q_1^2 / (1 - q_1)."""
    return error_bound_ub_k(engine, 1)


def _log_tail_factor(engine: TermEngine, l: int) -> float:
    """ln(q^2 / (1 - q)) for q = q_{l+1}, from exact integer products."""
    t = engine.table
    a = (t.mxna - l) * (t.mnxa - l)
    b = (t.mxa + l + 1) * (t.mnxna + l + 1)
    return 2.0 * math.log(a) - math.log(b) - math.log(b - a)


def _error_bound_ub_k_tail(engine: TermEngine, k: int) -> float:
    """Variant of error_bound_ub_k scaled by the term the tail starts from.

    Tighter than the published form whenever k > 1; kept private as a
    test-suite reference point.
    """
    if k > engine.j:
        return 0.0
    log_scale = engine.log_p0
    for i in range(1, k):
        log_scale += math.log(engine.ratio(i))
    return math.exp(log_scale + _log_tail_factor(engine, k - 1))


@dataclass(frozen=True, slots=True)
class GuaranteeFlags:
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
    t = s.table
    margins = t.mx * t.ma
    u = 2 * t.n * t.mxa - margins
    return GuaranteeFlags(
        ub1_within_p0=t.n * t.mxa >= 2 * margins,
        ub2_within_p0=u >= 0 and u * u >= 5 * margins * margins,
    )


@dataclass(frozen=True, slots=True)
class ApproxReport:
    """Everything a batch row needs, bundled per table.

    p_fisher is the exact value from the certified early-stopping sum,
    equal bit for bit to the full O(J) sum, and None when skipped; all
    other fields are constant-time.  error_bound is the ceiling for the
    ub_k actually used.
    """

    table: ContingencyTable
    stats: DerivedStats
    ub1: PValue
    ub2: PValue
    ub_k: PValue
    k_used: int
    error_bound: float
    guarantee_ub1: bool
    guarantee_ub2: bool
    chi2: Chi2Result
    p_fisher: PValue | None


def report(t: ContingencyTable, k: int = 3, include_exact: bool = True) -> ApproxReport:
    """Evaluate every measure for one table.

    p_fisher comes from exact_fisher_certified, so its cost is the number
    of terms that can still change the double result: a few dozen on
    strong tables, O(sqrt n) near independence, at most J + 1.
    """
    stats = derive_stats(t)
    engine = make_term_engine(t)
    _require_positive(engine, "report")
    flags = guarantees(stats)
    return ApproxReport(
        table=t,
        stats=stats,
        ub1=ub1(engine),
        ub2=ub2(engine),
        ub_k=ub_k(engine, k),
        k_used=k,
        error_bound=error_bound_ub_k(engine, k),
        guarantee_ub1=flags.ub1_within_p0,
        guarantee_ub2=flags.ub2_within_p0,
        chi2=chi2_one_sided(t, stats),
        p_fisher=exact_fisher_certified(engine) if include_exact else None,
    )
