"""The term engine's math.lgamma log-factorials: accuracy, symmetry, range.

make_term_engine writes each ln C(m, k) out as ln m! - (ln k! + ln (m - k)!);
these tests check its log_pabs = -ln C(n, ma) and log_p0 against math.comb.
"""

from __future__ import annotations

import math
import random

import pytest

from fisherbounds import OutOfRange, build_table, make_term_engine, negate_consequent, report


def _log_p0(n: int, mx: int, ma: int, mxa: int) -> float:
    """ln p_0 from exact integer binomials; math.log rounds each big int once."""
    return (
        math.log(math.comb(mx, mxa))
        + math.log(math.comb(n - mx, ma - mxa))
        - math.log(math.comb(n, ma))
    )


class TestValues:
    def test_base_cases(self):
        # the smallest table: p_0 = C(1, 1) C(1, 0) / C(2, 1) = 1/2
        engine = make_term_engine(build_table(2, 1, 1, 1))
        assert engine.log_pabs == pytest.approx(-math.log(2), rel=1e-15)
        assert engine.log_p0 == pytest.approx(-math.log(2), rel=1e-15)

    def test_matches_exact_integer_factorials(self):
        # sizes around 170, where n! leaves the double range; the
        # difference of log-factorials keeps their absolute error
        for n in (2, 5, 20, 50, 100, 170, 171, 250, 300):
            tolerance = 1e-14 * math.log(math.factorial(n))
            for ma in (1, n // 3, n // 2, n - 1):
                if not 0 < ma < n:
                    continue
                engine = make_term_engine(build_table(n, 1, ma, 1))
                exact = -math.log(math.comb(n, ma))
                assert engine.log_pabs == pytest.approx(exact, abs=tolerance)

    def test_index_out_of_range(self):
        # ln n! passes the largest double near n = 2.6e305
        t = build_table(10**306, 10**305, 10**305, 10**304)
        with pytest.raises(OverflowError):
            make_term_engine(t)
        with pytest.raises(OutOfRange):
            report(t)


class TestLogBinomial:
    def test_matches_exact_integer_binomials(self):
        for n in (3, 17, 100, 333, 500):
            step = max(1, n // 7)
            for mx in range(1, n, step):
                for ma in range(1, n, step):
                    for mxa in range(max(0, mx + ma - n), min(mx, ma) + 1, step):
                        engine = make_term_engine(build_table(n, mx, ma, mxa))
                        exact = _log_p0(n, mx, ma, mxa)
                        assert engine.log_p0 == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_symmetry_is_exact(self):
        # negation maps ma to n - ma, and ln C(n, ma) is exactly symmetric
        for n in (7, 50, 333, 400):
            for ma in range(1, n):
                t = build_table(n, 1, ma, 1)
                assert make_term_engine(t).log_pabs == make_term_engine(negate_consequent(t)).log_pabs

    def test_edges_are_exactly_zero(self):
        # mxa = mx = ma puts both conditional binomials at their edges,
        # C(mx, mx) and C(n - mx, n - mx), which must add exactly 0.0
        for n in range(2, 51):
            for m in range(1, n):
                engine = make_term_engine(build_table(n, m, m, m))
                assert engine.log_p0 == engine.log_pabs

    def test_term_engine_inlines_the_same_arithmetic(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(4, 5000)
            mx = rng.randint(1, n - 1)
            ma = rng.randint(1, n - 1)
            mxa = rng.randint(max(0, mx + ma - n), min(mx, ma))
            engine = make_term_engine(build_table(n, mx, ma, mxa))
            scale = math.log(math.comb(n, ma))
            assert engine.log_pabs == pytest.approx(-scale, rel=1e-12)
            assert engine.log_p0 == pytest.approx(_log_p0(n, mx, ma, mxa), abs=1e-12 * scale)
