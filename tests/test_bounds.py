"""Upper-bound family against exact rational re-derivations.

Every expected value here is an independent Fraction computation of the
same closed forms, so the float path is checked against arithmetic that
cannot round.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from fisherbounds import (
    InvalidK,
    NegativeDependency,
    OutOfRange,
    build_table,
    chi2_one_sided,
    derive_stats,
    error_bound_ub2,
    exact_fisher,
    exact_fisher_certified,
    guarantees,
    make_term_engine,
    report,
    ub1,
    ub2,
    ub_k,
)
from fisherbounds.bounds import _log_tail_factor

from conftest import CORPUS_SEED, EXHAUSTIVE_POSITIVE, iter_exhaustive, random_positive_tables


def _p0(t) -> Fraction:
    return Fraction(
        math.comb(t.mx, t.mxa) * math.comb(t.n - t.mx, t.mnxa),
        math.comb(t.n, t.ma),
    )


def _q(t, i: int) -> Fraction:
    return Fraction(
        (t.mxna - i + 1) * (t.mnxa - i + 1), (t.mxa + i) * (t.mnxna + i)
    )


def _p_fisher(t) -> Fraction:
    total = Fraction(0)
    prod = Fraction(1)
    for i in range(t.j + 1):
        if i > 0:
            prod *= _q(t, i)
        total += prod
    return _p0(t) * total


def _ub1(t) -> Fraction:
    return _p0(t) * Fraction(t.mxa * t.mnxna, t.delta_counts)


def _ub_k(t, k: int) -> Fraction:
    j = t.j
    total = Fraction(0)
    prod = Fraction(1)
    for i in range(min(k - 1, j + 1)):
        if i > 0:
            prod *= _q(t, i)
        total += prod
    if k - 1 <= j:
        if k - 1 > 0:
            prod *= _q(t, k - 1)
        q = _q(t, k)
        m = j - (k - 1) + 1
        total += prod * ((1 - q**m) / (1 - q))
    return _p0(t) * total


def _err_k(t, k: int) -> Fraction:
    if k > t.j:
        return Fraction(0)
    q = _q(t, k)
    return _p0(t) * q * q / (1 - q)


def _error_bound_ub_k(t, k: int) -> float:
    """The ceiling on ub_k - p_F as report carries it, in linear space."""
    return math.exp(report(t, k=k, include_exact=False).log_error_bound)


def _error_bound_ub_k_tail(engine, k: int) -> float:
    """The ceiling on ub_k - p_F scaled by the term the tail starts from,
    not by p_0.

    Tighter than the published form whenever k > 1; a reference point.
    """
    if k > engine.j:
        return 0.0
    log_scale = engine.log_p0
    for q in itertools.islice(engine.ratios(), k - 1):
        log_scale += math.log(q)
    return math.exp(log_scale + _log_tail_factor(engine, k - 1))


def _kahan_partial(engine, count: int) -> tuple[float, float, float]:
    """Compensated sum of the first count products 1, q_1, q_1 q_2, ...

    Returns (sum, compensation, last product), each prefix walked anew.
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


def _two_pass_ub_k(engine, k: int) -> float:
    """raw_log of ub_k as a separate prefix walk plus geometric tail."""
    j = engine.j
    tail_from = k - 1
    total, comp, prod = _kahan_partial(engine, min(tail_from, j + 1))
    if tail_from <= j:
        if tail_from > 0:
            prod *= next(itertools.islice(engine.ratios(), tail_from - 1, None))
        t = engine.table
        a = (t.mxna - tail_from) * (t.mnxa - tail_from)
        b = (t.mxa + tail_from + 1) * (t.mnxna + tail_from + 1)
        if a == 0:
            geometric = 1.0
        else:
            d = (b - a) / b
            if d == 1.0:
                geometric = 1.0
            else:
                geometric = -math.expm1((j - tail_from + 1) * math.log1p(-d)) / d
        y = prod * geometric - comp
        total += y
    return engine.log_p0 + math.log(total)


SMALL_POSITIVE = list(iter_exhaustive(max_n=22, positive_only=True))


class TestUb1:
    def test_matches_rational_form(self):
        for t in SMALL_POSITIVE:
            engine = make_term_engine(t)
            expected = _ub1(t)
            value = math.exp(ub1(engine).raw_log)
            assert value == pytest.approx(float(expected), rel=1e-12)

    def test_exact_at_j_zero(self):
        for t in SMALL_POSITIVE:
            if t.j != 0:
                continue
            engine = make_term_engine(t)
            assert ub1(engine).raw_log == exact_fisher(engine).raw_log

    def test_multiplier_reproduces_odds_ratio(self):
        # with r = mxa mnxna / delta, the odds ratio equals r / (r - 1);
        # skip near-singular r where the float subtraction cancels
        for t in random_positive_tables(300, 800, seed=11):
            r = (t.mxa * t.mnxna) / t.delta_counts
            if r - 1.0 < 1e-3:
                continue
            odds = derive_stats(t).odds_ratio
            assert odds == pytest.approx(r / (r - 1.0), rel=1e-9)

    def test_clamped_when_bound_exceeds_one(self):
        t = build_table(1000, 500, 500, 251)
        pv = ub1(make_term_engine(t))
        assert pv.clamped
        assert pv.linear_value == 1.0
        assert pv.log_value == 0.0
        expected = _ub1(t)
        assert expected > 1
        assert pv.raw_log == pytest.approx(math.log(float(expected)), rel=1e-9)

    def test_refuses_nonpositive_dependency(self):
        with pytest.raises(NegativeDependency):
            ub1(make_term_engine(build_table(100, 50, 50, 25)))


class TestUbK:
    def test_matches_rational_form(self):
        for t in SMALL_POSITIVE[::7]:
            engine = make_term_engine(t)
            for k in range(1, t.j + 3):
                expected = _ub_k(t, k)
                value = math.exp(ub_k(engine, k).raw_log)
                assert value == pytest.approx(float(expected), rel=1e-12)

    def test_ub2_is_first_member(self):
        for t in SMALL_POSITIVE[::13]:
            engine = make_term_engine(t)
            assert ub2(engine).raw_log == ub_k(engine, 1).raw_log

    def test_chain_reaches_exact_value_bitwise(self):
        for t in SMALL_POSITIVE[::5]:
            engine = make_term_engine(t)
            exact = exact_fisher(engine).raw_log
            assert ub_k(engine, t.j + 1).raw_log == exact
            assert ub_k(engine, t.j + 2).raw_log == exact
            assert ub_k(engine, t.j + 9).raw_log == exact

    def test_rational_ordering_is_strict_before_convergence(self):
        for t in SMALL_POSITIVE[::11]:
            pf = _p_fisher(t)
            values = [_ub_k(t, k) for k in range(1, t.j + 2)]
            for a, b in zip(values, values[1:]):
                assert b <= a
            assert all(v >= pf for v in values)
            assert values[-1] == pf
            if t.j >= 1:
                assert _ub1(t) >= values[0]

    def test_terms_evaluated_counts_exact_terms(self):
        t = build_table(1000, 200, 250, 60)
        engine = make_term_engine(t)
        assert ub_k(engine, 3).terms_evaluated == 3
        assert ub_k(engine, 500).terms_evaluated == t.j + 1

    @pytest.mark.parametrize("bad", [0, -2, True, False, 2.5, "3"])
    def test_rejects_bad_k(self, bad):
        engine = make_term_engine(build_table(100, 30, 40, 20))
        with pytest.raises(InvalidK):
            ub_k(engine, bad)

    def test_refuses_nonpositive_dependency(self):
        with pytest.raises(NegativeDependency):
            ub_k(make_term_engine(build_table(100, 50, 50, 25)), 3)


class TestErrorBounds:
    def test_matches_rational_form(self):
        for t in SMALL_POSITIVE[::7]:
            for k in range(1, t.j + 2):
                expected = _err_k(t, k)
                value = _error_bound_ub_k(t, k)
                if expected == 0:
                    assert value == 0.0
                else:
                    assert value == pytest.approx(float(expected), rel=1e-12)

    def test_ub2_alias(self):
        for t in [build_table(1000, 200, 250, 60), build_table(10, 4, 7, 4)]:
            assert error_bound_ub2(make_term_engine(t)) == _error_bound_ub_k(t, 1)

    def test_actual_error_within_bound_rationally(self):
        # exact rational comparison: no float slack anywhere
        for t in SMALL_POSITIVE[::9]:
            pf = _p_fisher(t)
            for k in range(1, t.j + 1):
                err = _ub_k(t, k) - pf
                assert err <= _err_k(t, k)

    def test_tail_scaled_variant_is_tighter_and_still_valid(self):
        for t in SMALL_POSITIVE[::9]:
            engine = make_term_engine(t)
            pf = _p_fisher(t)
            for k in range(2, t.j + 1):
                loose = _error_bound_ub_k(t, k)
                tight = _error_bound_ub_k_tail(engine, k)
                assert tight <= loose * (1 + 1e-12)
                prod = Fraction(1)
                for s in range(1, k):
                    prod *= _q(t, s)
                rational_tight = _err_k(t, k) * prod
                assert tight == pytest.approx(float(rational_tight), rel=1e-11)
                assert _ub_k(t, k) - pf <= rational_tight

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidK):
            report(build_table(100, 30, 40, 20), k=0)


class TestGuarantees:
    @pytest.mark.parametrize(
        "config,expected",
        [
            ((100, 20, 25, 10), (True, True)),
            ((100, 20, 30, 9), (False, False)),
            ((1000, 100, 100, 17), (False, True)),
            ((10000, 1000, 1000, 162), (False, True)),
            ((10000, 1000, 1000, 161), (False, False)),
        ],
    )
    def test_lift_thresholds(self, config, expected):
        flags = guarantees(derive_stats(build_table(*config)))
        assert (flags.ub1_within_p0, flags.ub2_within_p0) == expected

    def test_threshold_test_is_exact_not_float(self):
        # lift 2 exactly sits on the boundary and must count as >= 2
        flags = guarantees(derive_stats(build_table(100, 20, 25, 10)))
        assert flags.ub1_within_p0

    def test_guaranteed_error_holds_rationally(self):
        for t in SMALL_POSITIVE[::4]:
            flags = guarantees(derive_stats(t))
            pf = _p_fisher(t)
            p0 = _p0(t)
            if flags.ub1_within_p0:
                assert _ub1(t) - pf <= p0
            if flags.ub2_within_p0:
                assert _ub_k(t, 1) - pf <= p0
                assert _ub_k(t, 1) <= 2 * pf


class TestAccuracy:
    def test_ub4_beats_chi2_on_weak_balanced_case(self):
        # at the weakest-dependency balanced configuration the normal
        # tail is closer than ub3 would suggest from four decimals, but
        # four exact terms are already more accurate than it
        t = build_table(1000, 500, 500, 263)
        engine = make_term_engine(t)
        pf = exact_fisher(engine).linear_value
        chi = chi2_one_sided(t).p_one_sided
        ub4 = ub_k(engine, 4).linear_value
        assert ub4 - pf < abs(chi - pf)


class TestReport:
    def test_fields_are_wired(self):
        t = build_table(1000, 200, 250, 63)
        rep = report(t, k=3)
        engine = make_term_engine(t)
        assert rep.table == t
        assert rep.k_used == 3
        assert rep.ub1.raw_log == ub1(engine).raw_log
        assert rep.ub2.raw_log == ub2(engine).raw_log
        assert rep.ub_k.raw_log == ub_k(engine, 3).raw_log
        assert rep.log_error_bound == engine.log_p0 + _log_tail_factor(engine, 2)
        assert math.exp(rep.log_error_bound_ub2) == error_bound_ub2(engine)
        assert rep.p_fisher is not None
        assert rep.p_fisher.raw_log == exact_fisher(engine).raw_log
        s = derive_stats(t)
        assert (rep.lift, rep.leverage, rep.odds_ratio) == (s.lift, s.leverage, s.odds_ratio)
        flags = guarantees(s)
        assert rep.guarantee_ub1 == flags.ub1_within_p0
        assert rep.guarantee_ub2 == flags.ub2_within_p0
        assert rep.terms == t.j + 1 == 138
        assert not rep.clamped

    def test_exact_evaluation_can_be_skipped(self):
        rep = report(build_table(1000, 200, 250, 63), include_exact=False)
        assert rep.p_fisher is None
        assert rep.ub1.linear_value > 0

    def test_refuses_nonpositive_dependency(self):
        with pytest.raises(NegativeDependency):
            report(build_table(100, 50, 50, 25))

    def test_error_ceilings_stay_finite_in_log_space(self):
        # the linear ceilings underflow to 0.0 although J = 100 > k
        t = build_table(5000, 2500, 2500, 2400)
        engine = make_term_engine(t)
        rep = report(t, k=3)
        assert math.exp(rep.log_error_bound) == 0.0
        assert rep.log_error_bound == engine.log_p0 + _log_tail_factor(engine, 2)
        assert rep.log_error_bound_ub2 == engine.log_p0 + _log_tail_factor(engine, 0)
        assert -3000.0 < rep.log_error_bound < rep.log_error_bound_ub2 < -2000.0

    def test_no_tail_left_gives_a_zero_ceiling(self):
        t = build_table(1000, 200, 250, 60)
        rep = report(t, k=t.j + 1)
        assert rep.log_error_bound == -math.inf
        assert report(build_table(10, 4, 7, 4)).log_error_bound_ub2 == -math.inf

    def test_counts_beyond_double_range_raise_out_of_range(self):
        for n in (2**50 + 1, 10**306, 10**400):
            with pytest.raises(OutOfRange, match="too large"):
                report(build_table(n, n // 4, n // 4, n // 8))

    def test_the_sign_is_refused_before_the_range(self):
        # make_term_engine decides the sign before the range, so a huge
        # table without positive dependency is not OutOfRange
        n = 10**306
        with pytest.raises(NegativeDependency):
            report(build_table(n, n // 4, n // 4, n // 16))

    def test_out_of_range_comes_before_a_bad_k(self):
        # make_term_engine refuses n above 2^50 before report checks k
        for n in (10**306, 10**160):
            with pytest.raises(OutOfRange, match="too large"):
                report(build_table(n, n // 2 + 1, n // 2 + 1, n // 2), k=0)

    def test_shared_formulas_match_derive_stats_and_guarantees_bit_for_bit(self):
        checked = 0
        for t in iter_exhaustive(max_n=40, positive_only=True):
            rep = report(t, include_exact=False)
            s = derive_stats(t)
            assert [x.hex() for x in (rep.lift, rep.leverage, rep.odds_ratio)] == [
                x.hex() for x in (s.lift, s.leverage, s.odds_ratio)
            ], t
            flags = guarantees(s)
            assert (rep.guarantee_ub1, rep.guarantee_ub2) == (
                flags.ub1_within_p0, flags.ub2_within_p0
            ), t
            checked += 1
        assert checked == EXHAUSTIVE_POSITIVE


class TestOnePass:
    """report walks the ratio sequence once, with or without the exact sum;
    each value keeps the bits of its own separate walk: ub2 and ub_k of
    _two_pass_ub_k, p_F of the full O(J) sum and both error ceilings of
    _log_tail_factor, -inf once no tail is left (J = 0 for ub2, k > J for
    ub_k)."""

    @staticmethod
    def _check(tables) -> None:
        for t in tables:
            engine = make_term_engine(t)
            j, log_p0 = t.j, engine.log_p0
            ub2_bits = _two_pass_ub_k(engine, 1)
            err_ub2 = log_p0 + _log_tail_factor(engine, 0) if j else -math.inf
            p_fisher = exact_fisher_certified(engine)
            assert p_fisher.raw_log == exact_fisher(engine).raw_log, t
            for k in {1, 2, 3, 5, j + 1, j + 2}:
                ubk_bits = _two_pass_ub_k(engine, k)
                err_ubk = log_p0 + _log_tail_factor(engine, k - 1) if k <= j else -math.inf
                for include_exact in (True, False):
                    rep = report(t, k=k, include_exact=include_exact)
                    assert rep.ub2.raw_log == ub2_bits, (t, k)
                    assert rep.ub_k.raw_log == ubk_bits, (t, k)
                    assert rep.ub_k.terms_evaluated == min(k, j + 1), (t, k)
                    assert rep.log_error_bound_ub2 == err_ub2, (t, k)
                    assert rep.log_error_bound == err_ubk, (t, k)
                    assert rep.p_fisher == (p_fisher if include_exact else None), (t, k)
                    if k > j:
                        assert rep.ub_k.raw_log == p_fisher.raw_log, (t, k)

    def test_exhaustive_corpus(self):
        self._check(iter_exhaustive(positive_only=True))

    def test_random_corpus(self):
        self._check(random_positive_tables(2000, 20000, seed=CORPUS_SEED))
