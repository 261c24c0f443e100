"""Acceptance gate: one test per numbered criterion.

Every test records a one-line verdict that the terminal summary prints
after the run, then asserts it.  Numeric thresholds are fixed here and
nowhere else; corpora are frozen by seed so reruns are bit-identical.
"""

from __future__ import annotations

import math
import time

import pytest

from fisherbounds import (
    SweepSpec,
    build_table,
    check_rows,
    derive_stats,
    error_bound_ub2,
    exact_fisher,
    exact_fisher_oracle,
    guarantees,
    large_scale_terms,
    make_term_engine,
    run_bench,
    run_sweep,
    ub1,
    ub2,
    ub_k,
)
from fisherbounds.bench import DEFAULT_SIZES
from fisherbounds.bounds import _log_tail_factor
from fisherbounds.reftables import ANNOTATIONS, STATUS_ANNOTATED, STATUS_FAIL

from conftest import (
    CORPUS_SEED,
    EXHAUSTIVE_POSITIVE,
    EXHAUSTIVE_POSITIVE_J0,
    EXHAUSTIVE_POSITIVE_J1,
    STRONG_SEED,
    TIE_SLACK,
    iter_exhaustive,
    random_positive_tables,
    record_acceptance,
    sample_strong_tables,
)

RANDOM_COUNT = 10_000
RANDOM_MAX_N = 5_000


@pytest.fixture(scope="module")
def exhaustive40():
    tables = list(iter_exhaustive(40, positive_only=True))
    assert len(tables) == EXHAUSTIVE_POSITIVE
    return tables


@pytest.fixture(scope="module")
def random5000():
    return random_positive_tables(RANDOM_COUNT, RANDOM_MAX_N, seed=CORPUS_SEED)


def _rel_to_fraction(pv, fr) -> float:
    value = float(fr)
    if value >= 1e-300:
        return abs(pv.linear_value - value) / value
    log_value = math.log(fr.numerator) - math.log(fr.denominator)
    return abs(pv.raw_log - log_value) / abs(log_value)


def test_criterion_1_table_reproduction():
    started = time.perf_counter()
    checks = check_rows()
    elapsed = time.perf_counter() - started
    fails = [c for c in checks if c.status == STATUS_FAIL]
    annotated = {
        (*c.row.key, c.column): c for c in checks if c.status == STATUS_ANNOTATED
    }
    misprint = annotated.get((1000, 200, 250, 63, "chi2_p"))
    ok = (
        len(checks) == 90
        and not fails
        and set(annotated) == set(ANNOTATIONS)
        and misprint is not None
        and abs(misprint.computed - 0.0088) <= 1e-3
        and elapsed < 1.0
    )
    detail = (
        f"90 cells: {90 - len(annotated) - len(fails)} within print tolerance,"
        f" {len(annotated)} documented print artifacts,"
        f" {len(fails)} unexplained; misprint cell computed"
        f" {misprint.computed:.4f} vs corrected 0.0088; {elapsed:.2f}s"
    )
    record_acceptance(1, ok, detail)
    assert ok, detail


def test_criterion_2_oracle_equivalence(exhaustive40, random5000):
    started = time.perf_counter()
    worst = 0.0
    for t in exhaustive40:
        worst = max(
            worst,
            _rel_to_fraction(exact_fisher(make_term_engine(t)), exact_fisher_oracle(t)),
        )
    for t in random5000:
        worst = max(
            worst,
            _rel_to_fraction(exact_fisher(make_term_engine(t)), exact_fisher_oracle(t)),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 120.0
    detail = (
        f"{len(exhaustive40)} exhaustive (n<=40) + {len(random5000)} random"
        f" (n<={RANDOM_MAX_N}) tables, worst rel {worst:.2e}, {elapsed:.0f}s"
    )
    record_acceptance(2, ok, detail)
    assert ok, detail


def _order_ks(j: int, exhaustive: bool) -> list[int]:
    if exhaustive:
        ks = set(range(3, j + 3))
    else:
        ks = {3, 4, 7, 16, 64, j // 2, j + 1, j + 2}
        ks = {k for k in ks if 3 <= k <= j + 2}
    ks.add(max(3, j + 2))
    return sorted(ks)


def test_criterion_3_soundness(exhaustive40, random5000):
    worst = 0.0
    equality_breaks = 0
    checked = 0
    for tables, exhaustive in ((exhaustive40, True), (random5000, False)):
        for t in tables:
            engine = make_term_engine(t)
            pf = exact_fisher(engine).raw_log
            u1 = ub1(engine).raw_log
            u2 = ub2(engine).raw_log
            worst = max(worst, u2 - u1)
            previous = None
            for k in _order_ks(t.j, exhaustive):
                uk = ub_k(engine, k).raw_log
                worst = max(worst, pf - uk, uk - u2)
                if previous is not None:
                    worst = max(worst, uk - previous)
                previous = uk
            # the list ends at max(3, j + 2), where no tail remains
            if previous != pf:
                equality_breaks += 1
            checked += 1
    ok = worst <= TIE_SLACK and equality_breaks == 0
    detail = (
        f"{checked} tables, worst log-ordering slack {worst:.1e}"
        f" (budget {TIE_SLACK:.0e}), {equality_breaks} tables where the"
        f" exhausted bound left the exact value"
    )
    record_acceptance(3, ok, detail)
    assert ok, detail


def _log_gap(larger: float, smaller: float) -> float:
    """ln(exp(larger) - exp(smaller)) for larger > smaller."""
    return smaller + math.log(math.expm1(larger - smaller))


def test_criterion_4_error_ceilings_and_guarantees(exhaustive40, random5000):
    violations = 0
    guaranteed_1 = 0
    guaranteed_2 = 0
    checked = 0
    for t in (*exhaustive40, *random5000):
        engine = make_term_engine(t)
        pf = exact_fisher(engine).raw_log
        u2 = ub2(engine).raw_log
        diff2 = u2 - pf
        if engine.j == 0:
            # no tail: the bound is 0 and ub2 must reproduce p_F exactly
            if diff2 != 0.0:
                violations += 1
        elif diff2 > TIE_SLACK:
            bound_log = engine.log_p0 + _log_tail_factor(engine, 0)
            if _log_gap(u2, pf) > bound_log + 1e-9:
                violations += 1
        flags = guarantees(derive_stats(t))
        if flags.ub1_within_p0:
            guaranteed_1 += 1
            u1 = ub1(engine).raw_log
            if u1 - pf > TIE_SLACK and _log_gap(u1, pf) > engine.log_p0 + 1e-9:
                violations += 1
        if flags.ub2_within_p0:
            guaranteed_2 += 1
            if diff2 > TIE_SLACK and _log_gap(u2, pf) > engine.log_p0 + 1e-9:
                violations += 1
            if u2 > math.log(2.0) + pf + 1e-9:
                violations += 1
        checked += 1
    ok = violations == 0
    detail = (
        f"{checked} tables, {violations} violations;"
        f" lift>=2 on {guaranteed_1}, lift>=golden on {guaranteed_2}"
    )
    record_acceptance(4, ok, detail)
    assert ok, detail


def test_criterion_5_exactness_edges(exhaustive40):
    j0 = [t for t in exhaustive40 if t.j == 0]
    j1 = [t for t in exhaustive40 if t.j == 1]
    worst = 0.0
    for t in j0:
        engine = make_term_engine(t)
        pf = exact_fisher(engine).linear_value
        worst = max(
            worst,
            abs(ub1(engine).linear_value - pf) / pf,
            abs(ub2(engine).linear_value - pf) / pf,
        )
    for t in j1:
        engine = make_term_engine(t)
        pf = exact_fisher(engine).linear_value
        worst = max(worst, abs(ub2(engine).linear_value - pf) / pf)
    ok = (
        len(j0) == EXHAUSTIVE_POSITIVE_J0
        and len(j1) == EXHAUSTIVE_POSITIVE_J1
        and worst <= 1e-12
    )
    detail = (
        f"{len(j0)} tables at J=0, {len(j1)} at J=1, worst rel gap {worst:.1e}"
    )
    record_acceptance(5, ok, detail)
    assert ok, detail


def test_criterion_6_figure_sweep():
    points = run_sweep(SweepSpec(1000, 200, 250, 51, 120, k=3))
    by_mxa = {p.table.mxa: p for p in points}
    facts = (
        by_mxa[55].terms == 146
        and by_mxa[65].terms == 136
        and by_mxa[55].lift == 1.1
        and by_mxa[65].lift == 1.3
    )
    monotone = True
    previous = None
    for p in points:
        engine = make_term_engine(p.table)
        pf = exact_fisher(engine).linear_value
        gaps = (
            math.exp(ub1(engine).raw_log) - pf,
            math.exp(ub2(engine).raw_log) - pf,
            math.exp(ub_k(engine, 3).raw_log) - pf,
        )
        if previous is not None and any(g > q for g, q in zip(gaps, previous)):
            monotone = False
        previous = gaps
    ok = facts and monotone
    detail = (
        f"terms {by_mxa[55].terms}@55 {by_mxa[65].terms}@65,"
        f" lifts {by_mxa[55].lift} and {by_mxa[65].lift},"
        f" pre-clamp gaps monotone over 51..120: {monotone}"
    )
    record_acceptance(6, ok, detail)
    assert ok, detail


def test_criterion_7_performance():
    results = run_bench(DEFAULT_SIZES, repetitions=3)
    js = [r.j for r in results]
    flat = all(
        max(r.seconds_per_call[name] for r in results)
        <= 2.0 * min(r.seconds_per_call[name] for r in results)
        for name in ("ub1", "ub2", "ub3")
    )
    exact_times = [r.seconds_per_call["exact"] for r in results]
    grows = all(b > a for a, b in zip(exact_times, exact_times[1:]))
    spread = exact_times[-1] / exact_times[0]
    terms = large_scale_terms()
    ok = (
        js == [400, 4000, 40000]
        and flat
        and grows
        and spread >= 25.0
        and terms == 200_001
    )
    detail = (
        f"J {js[0]}..{js[-1]}, bounds flat within 2x: {flat},"
        f" exact grew {spread:.0f}x, large-scale terms {terms}"
    )
    record_acceptance(7, ok, detail)
    assert ok, detail


def test_criterion_8_rank_agreement():
    tables = sample_strong_tables(1000, seed=STRONG_SEED)
    assert all(t.n * t.mxa >= 2 * t.mx * t.ma for t in tables)
    keyed = []
    for i, t in enumerate(tables):
        engine = make_term_engine(t)
        keyed.append(
            (f"t{i:04d}", exact_fisher(engine).raw_log, ub1(engine).raw_log)
        )
    by_exact = [rid for pf, rid in sorted((pf, rid) for rid, pf, _ in keyed)[:100]]
    by_bound = [rid for u1, rid in sorted((u1, rid) for rid, _, u1 in keyed)[:100]]
    overlap = len(set(by_exact) & set(by_bound))
    ok = overlap == 100
    detail = f"1000 tables with lift >= 2: top-100 overlap {overlap}/100"
    record_acceptance(8, ok, detail)
    assert ok, detail
