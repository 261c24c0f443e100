"""Log-factorials and log binomials on math.lgamma: accuracy, symmetry, range."""

from __future__ import annotations

import math
import random

import pytest

from fisherbounds import (
    OutOfRange,
    build_table,
    log_binomial,
    log_factorial,
    make_term_engine,
)


class TestValues:
    def test_base_cases(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0
        assert log_factorial(2) == pytest.approx(math.log(2), rel=1e-15)

    def test_matches_exact_integer_factorials(self):
        for i in (2, 5, 20, 50, 100, 170, 171, 250, 300):
            exact = math.log(math.factorial(i))
            assert log_factorial(i) == pytest.approx(exact, rel=1e-14)

    def test_monotone_nondecreasing(self):
        values = [log_factorial(i) for i in range(501)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_index_out_of_range(self):
        with pytest.raises(OutOfRange):
            log_factorial(-1)
        # ln i! passes the largest double near i = 2.6e305
        with pytest.raises(OutOfRange):
            log_factorial(10**306)

    def test_negative_size_rejected(self):
        # math.lgamma(0) would raise its own pole error for i = -1; the
        # range check must come first, for every negative i
        for i in (-1, -2, -(10**400)):
            with pytest.raises(OutOfRange):
                log_factorial(i)


class TestLogBinomial:
    def test_matches_exact_integer_binomials(self):
        for n in (1, 2, 17, 100, 333, 500):
            for k in range(0, n + 1, max(1, n // 7)):
                exact = math.log(math.comb(n, k))
                assert log_binomial(n, k) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_symmetry_is_exact(self):
        for n in (7, 50, 333, 400):
            for k in range(n + 1):
                assert log_binomial(n, k) == log_binomial(n, n - k)

    def test_edges_are_exactly_zero(self):
        for n in range(51):
            assert log_binomial(n, 0) == 0.0
            assert log_binomial(n, n) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(OutOfRange):
            log_binomial(5, 6)
        with pytest.raises(OutOfRange):
            log_binomial(5, -1)
        with pytest.raises(OutOfRange):
            log_binomial(10**306, 3)

    def test_term_engine_inlines_the_same_arithmetic(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(4, 10**7)
            mx = rng.randint(1, n - 1)
            ma = rng.randint(1, n - 1)
            mxa = rng.randint(max(0, mx + ma - n), min(mx, ma))
            t = build_table(n, mx, ma, mxa)
            engine = make_term_engine(t)
            log_pabs = -log_binomial(n, ma)
            log_p0 = (
                log_binomial(mx, mxa) + log_binomial(n - mx, n - mx - ma + mxa)
            ) + log_pabs
            assert engine.log_pabs == log_pabs
            assert engine.log_p0 == log_p0
