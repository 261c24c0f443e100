"""Normal-tail baseline: quantile anchors, symmetry, exact integer gates."""

from __future__ import annotations

import math

import mpmath
import pytest

from fisherbounds import (
    build_table,
    chi2_one_sided,
    exact_fisher,
    make_term_engine,
    normal_upper_tail,
)
from fisherbounds.chi2 import _log_upper_tail

from conftest import CORPUS_SEED, iter_exhaustive, random_positive_tables


def _chi2(config):
    return chi2_one_sided(build_table(*config))


class TestNormalUpperTail:
    def test_zero_is_exactly_half(self):
        assert normal_upper_tail(0.0) == 0.5

    def test_95th_quantile(self):
        assert normal_upper_tail(1.6448536) == pytest.approx(0.05, abs=1e-6)

    def test_tail_symmetry(self):
        for i in range(-80, 81):
            z = i / 10.0
            assert normal_upper_tail(z) + normal_upper_tail(-z) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_matches_high_precision_normal_cdf(self):
        mpmath.mp.dps = 40
        for i in range(-320, 321):
            z = i / 40.0
            expected = float(mpmath.ncdf(-mpmath.mpf(z)))
            assert normal_upper_tail(z) == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing(self):
        values = [normal_upper_tail(i / 4.0) for i in range(-32, 33)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestLogUpperTail:
    # 0.5 erfc(z / sqrt 2) leaves the normal doubles near z = 37.5 and
    # underflows to 0.0 near z = 38.5
    GRID = [i / 20.0 for i in range(-100, 1000)] + [50.0, 100.0, 1e3, 1e5, 1e150]

    def test_matches_high_precision_log_tail_across_the_switch(self):
        mpmath.mp.dps = 40
        for z in self.GRID:
            expected = float(mpmath.log(mpmath.ncdf(-mpmath.mpf(z))))
            got = _log_upper_tail(z, normal_upper_tail(z))
            assert got == pytest.approx(expected, rel=1e-14), z

    def test_is_the_log_of_the_linear_tail_while_that_is_normal(self):
        for z in self.GRID:
            p = normal_upper_tail(z)
            if p >= 2.0**-1022:
                assert _log_upper_tail(z, p) == math.log(p)

    def test_strictly_decreasing_through_the_switch(self):
        values = [_log_upper_tail(z, normal_upper_tail(z)) for z in self.GRID]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_chi2_result_carries_the_log_of_a_vanished_tail(self):
        r = _chi2((10000, 100, 100, 100))
        assert r.p_one_sided == 0.0
        assert r.log_p == _log_upper_tail(math.sqrt(r.statistic), 0.0)
        assert -5006.0 < r.log_p < -5005.0
        normal = _chi2((1000, 200, 250, 60))
        assert normal.log_p == math.log(normal.p_one_sided)


class TestChi2OneSided:
    def test_statistic_is_exact_integer_ratio(self):
        r = _chi2((1000, 200, 250, 60))
        assert r.statistic == 100_000_000_000 / 30_000_000_000
        assert r.p_one_sided == normal_upper_tail(math.sqrt(r.statistic))

    def test_independence_gives_half(self):
        r = _chi2((10, 5, 4, 2))
        assert r.statistic == 0.0
        assert r.p_one_sided == 0.5

    def test_negative_dependency_lands_above_half(self):
        r = _chi2((10, 5, 4, 1))
        assert r.statistic > 0.0
        assert r.p_one_sided > 0.5

    def test_swapping_antecedent_and_consequent_is_bitwise_neutral(self):
        configs = [
            (1000, 200, 250, 60),
            (1000, 50, 200, 15),
            (97, 13, 41, 11),
            (10000, 500, 2000, 115),
        ]
        for n, mx, ma, mxa in configs:
            a = _chi2((n, mx, ma, mxa))
            b = _chi2((n, ma, mx, mxa))
            assert a.statistic == b.statistic
            assert a.p_one_sided == b.p_one_sided

    def test_rule_of_thumb_boundary_is_integer_exact(self):
        # min margin product 500 against 5 n = 500: the gate admits equality
        assert _chi2((100, 50, 10, 6)).rule_of_thumb_ok
        assert not _chi2((100, 50, 9, 5)).rule_of_thumb_ok

    def test_min_expected_cell(self):
        r = _chi2((1000, 200, 250, 60))
        assert r.min_expected == 50.0
        assert not _chi2((1000, 20, 30, 5)).rule_of_thumb_ok

    def test_min_expected_is_the_smallest_rounded_expected_count(self):
        # one division of the smallest product equals the smallest of the
        # four expected counts n P(X) P(A), ... each rounded on its own
        tables = list(iter_exhaustive(max_n=30))
        tables += random_positive_tables(500, 10**12, CORPUS_SEED)
        for t in tables:
            expected = (
                t.mx * t.ma / t.n,
                t.mx * (t.n - t.ma) / t.n,
                (t.n - t.mx) * t.ma / t.n,
                (t.n - t.mx) * (t.n - t.ma) / t.n,
            )
            assert chi2_one_sided(t).min_expected == min(expected)

    def test_approximation_gap_shrinks_on_balanced_margins(self):
        # same nominal p-value scale, very different margin balance
        balanced = build_table(10000, 5000, 5000, 2578)
        skewed = build_table(1000, 50, 200, 19)
        gaps = []
        for t in (balanced, skewed):
            pf = exact_fisher(make_term_engine(t)).linear_value
            chi = chi2_one_sided(t).p_one_sided
            gaps.append(abs(chi - pf))
        assert gaps[0] < gaps[1] / 10.0
