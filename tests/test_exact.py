"""Exact tail evaluation against independent rational arithmetic."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from fisherbounds import (
    CapacityExceeded,
    NegativeDependency,
    OutOfRange,
    PValue,
    build_table,
    exact_fisher,
    exact_fisher_certified,
    exact_fisher_oracle,
    make_term_engine,
)
from fisherbounds.bench import benchmark_shape
from fisherbounds.exact import ORACLE_CAP

from conftest import (
    CORPUS_SEED,
    double_switch_near_independence,
    double_switch_small_j,
    integer_path_near_independence,
    iter_exhaustive,
    random_positive_tables,
)


def _oracle_from_scratch(t) -> Fraction:
    """Tail sum with a fresh binomial per term; no shared recurrence."""
    total = 0
    for i in range(t.j + 1):
        total += math.comb(t.mx, t.mxa + i) * math.comb(t.n - t.mx, t.mnxa - i)
    return Fraction(total, math.comb(t.n, t.ma))


def _rel_error(pv: PValue, fr: Fraction) -> float:
    linear = float(fr)
    if linear >= 1e-300:
        return abs(pv.linear_value - linear) / linear
    log_fr = math.log(fr.numerator) - math.log(fr.denominator)
    return abs(pv.raw_log - log_fr) / abs(log_fr)


class TestPValue:
    def test_from_log_regular(self):
        pv = PValue(math.log(0.25), 3)
        assert pv.linear_value == pytest.approx(0.25, rel=1e-15)
        assert pv.log_value == pv.raw_log
        assert not pv.clamped
        assert pv.terms_evaluated == 3

    def test_from_log_clamps_above_one(self):
        pv = PValue(0.7, 1)
        assert pv.raw_log == 0.7
        assert pv.log_value == 0.0
        assert pv.linear_value == 1.0
        assert pv.clamped

    @pytest.mark.parametrize(
        "raw_log", [-math.inf, -800.0, -745.2, -0.0, 0.0, 5e-324, 0.7], ids=repr
    )
    def test_views_clamp_at_one_by_construction(self, raw_log):
        pv = PValue(raw_log, 2)
        assert (pv.raw_log, pv.terms_evaluated) == (raw_log, 2)
        # the views a bound above 1 clamps to, bit for bit (-0.0 stays -0.0)
        log_value = 0.0 if raw_log > 0.0 else raw_log
        assert pv.log_value.hex() == log_value.hex()
        assert pv.linear_value.hex() == math.exp(log_value).hex()
        assert pv.clamped == (raw_log > 0.0)
        assert pv.log_value <= 0.0
        assert pv.linear_value == math.exp(pv.log_value)
        assert not pv.clamped or pv.linear_value == 1.0

    def test_stores_only_the_log_and_the_term_count(self):
        assert PValue._fields == ("raw_log", "terms_evaluated")

    def test_deep_tail_keeps_log_information(self):
        t = build_table(5000, 2500, 2500, 2400)
        pv = exact_fisher(make_term_engine(t))
        assert pv.linear_value == 0.0
        assert math.isfinite(pv.raw_log)
        assert pv.raw_log < -1000.0
        assert not pv.clamped


class TestTermEngine:
    def test_point_probability_matches_rational(self):
        for t in [
            build_table(1000, 500, 500, 275),
            build_table(100, 30, 40, 20),
            build_table(57, 12, 33, 11),
        ]:
            engine = make_term_engine(t)
            p0 = (
                Fraction(math.comb(t.mx, t.mxa))
                * math.comb(t.n - t.mx, t.mnxa)
                / math.comb(t.n, t.ma)
            )
            assert math.exp(engine.log_p0) == pytest.approx(float(p0), rel=1e-12)

    def test_margin_factor_is_reciprocal_choose(self):
        # log_p0 of the edge table (n, ma, ma, ma) is the margin factor alone
        engine = make_term_engine(build_table(200, 90, 90, 90))
        assert engine.log_p0 == pytest.approx(
            -math.log(math.comb(200, 90)), rel=1e-13
        )

    def test_refuses_exactly_the_tables_without_positive_dependency(self):
        # the one place the package decides the sign
        refused = 0
        for t in iter_exhaustive(max_n=15):
            if t.positive_dependency:
                assert make_term_engine(t).table == t
            else:
                with pytest.raises(NegativeDependency, match=f"numerator {t.delta_counts} "):
                    make_term_engine(t)
                refused += 1
        assert refused > 0

    def test_refuses_n_above_two_to_the_fifty(self):
        # the supported range, decided after the sign: within it
        # 1 - q_1 > 1/n >= 2^-50, as the certified stop needs
        k = 2**48  # cells a = d = k, b = k - 1, c = k + 1, so n = 2^50
        engine = make_term_engine(build_table(4 * k, 2 * k - 1, 2 * k + 1, k))
        assert 1.0 - next(engine.ratios()) >= 2.0**-50
        beyond = [build_table(2**50 + 1, 2**49, 2**49, 2**48 + 1)]
        # J = 2 tables at n near 4e31 and 3e33, where q_1 would round to
        # within 2 ulps of 1 and to exactly 1.0
        for m in (2**53, 2**56):
            mxna = m * m // 2 - 4
            beyond.append(build_table(2 * m + mxna + 2, m + mxna, m + 2, m))
        for t in beyond:
            assert t.positive_dependency
            with pytest.raises(OutOfRange, match="too large for double-precision"):
                make_term_engine(t)
        with pytest.raises(NegativeDependency):
            make_term_engine(build_table(2**50 + 1, 2**49, 2**49, 2**47))

    def test_ratio_matches_rational(self):
        t = build_table(100, 30, 40, 20)
        engine = make_term_engine(t)
        qs = list(engine.ratios())
        assert len(qs) == engine.j
        for i, q in enumerate(qs, 1):
            expected = Fraction(
                (t.mxna - i + 1) * (t.mnxa - i + 1), (t.mxa + i) * (t.mnxna + i)
            )
            assert q == pytest.approx(float(expected), rel=1e-15)

    def test_ratios_strictly_decreasing(self):
        for t in iter_exhaustive(max_n=25, positive_only=True):
            qs = list(make_term_engine(t).ratios())
            assert all(b < a for a, b in zip(qs, qs[1:]))


class TestExactFisher:
    def test_refuses_nonpositive_dependency(self):
        for t in [build_table(100, 50, 50, 25), build_table(100, 50, 50, 10)]:
            with pytest.raises(NegativeDependency):
                exact_fisher(make_term_engine(t))

    def test_counts_every_term(self):
        t = build_table(1000, 200, 250, 60)
        pv = exact_fisher(make_term_engine(t))
        assert pv.terms_evaluated == t.j + 1 == 141

    def test_matches_oracle_on_small_tables(self):
        worst = 0.0
        for t in iter_exhaustive(max_n=20, positive_only=True):
            pv = exact_fisher(make_term_engine(t))
            worst = max(worst, _rel_error(pv, exact_fisher_oracle(t)))
        assert worst <= 1e-12

    def test_matches_oracle_on_random_tables(self):
        for t in random_positive_tables(200, 2000, seed=52):
            pv = exact_fisher(make_term_engine(t))
            assert _rel_error(pv, exact_fisher_oracle(t)) <= 1e-11


def _near_independent_tables(count: int, seed: int) -> list:
    """Lift 1 to 1.2, n log-uniform up to 2e6: the longest certified sums."""
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        n = round(10.0 ** rng.uniform(3.0, math.log10(2e6)))
        mx = rng.randint(n // 20, n // 2)
        ma = rng.randint(n // 20, n // 2)
        mxa = min(mx, ma, math.ceil(mx * ma / n * rng.uniform(1.0, 1.2)))
        if n * mxa - mx * ma > 0:
            tables.append(build_table(n, mx, ma, mxa))
    return tables


def _stop_test_at_every_term(engine) -> PValue:
    """exact_fisher_certified's sum with its stop test run after every term.

    The walk runs the test only where prod q is small enough for it to
    pass; this copy runs it everywhere, on ratios() in place of the
    walk's running products, so it shows that skipping it elsewhere
    never moves the stop.
    """
    j = engine.j
    slack = j * 2.0**-1021
    total, comp, prod = 0.0, 0.0, 1.0
    ratios = engine.ratios()
    for remaining in range(j, -1, -1):
        w = prod - comp
        s = total + w
        comp = (s - total) - w
        total = s
        q = next(ratios, 0.0)  # q_{J+1} = 0
        g = min(q / (1.0 - q), remaining)
        if prod == 0.0 or 2.5 * prod * g + slack - comp < 0.5 * math.ulp(total):
            return PValue(engine.log_p0 + math.log(total), j + 1 - remaining)
        prod *= q
    return PValue(engine.log_p0 + math.log(total), j + 1)


def _near_independence_at(n: int, count: int, seed: int) -> list:
    """Lift just above 1 at one n: the largest J and the loosest filter."""
    rng = random.Random(seed)
    tables = []
    for _ in range(count):
        mx = rng.randint(n // 10, n // 2)
        ma = rng.randint(n // 10, n // 2)
        tables.append(build_table(n, mx, ma, mx * ma // n + rng.randint(1, 3)))
    return tables


def _strong_near_the_cap(count: int, seed: int) -> list:
    """n within 5000 of 2^50 and far from independence: a few dozen terms."""
    rng = random.Random(seed)
    tables = []
    for _ in range(count):
        n = 2**50 - rng.randint(0, 5000)
        mx = rng.randint(n // 10, n // 2)
        ma = rng.randint(n // 10, n // 2)
        mxa = min(mx, ma, math.ceil(mx * ma / n * rng.uniform(1.5, 3.0)))
        tables.append(build_table(n, mx, ma, mxa))
    return tables


def _j_at_most_two() -> list:
    return [t for t in iter_exhaustive(positive_only=True) if t.j <= 2]


def _underflow_table() -> list:
    """A table whose certified sum ends only when its product reaches 0.0."""
    mxa, mnxna, m = 2**31 - 1, 2**32 - 1, 32
    return [build_table(mxa + mnxna + 2 * m, mxa + m, mxa + m, mxa)]


class TestExactFisherCertified:
    @staticmethod
    def _terms_against_the_full_sum(tables) -> tuple[int, int]:
        certified_terms = full_terms = 0
        for t in tables:
            engine = make_term_engine(t)
            full = exact_fisher(engine)
            certified = exact_fisher_certified(engine)
            assert certified.raw_log == full.raw_log, t
            assert 1 <= certified.terms_evaluated <= t.j + 1, t
            certified_terms += certified.terms_evaluated
            full_terms += full.terms_evaluated
        return certified_terms, full_terms

    def test_equals_the_full_sum_on_the_exhaustive_corpus(self):
        self._terms_against_the_full_sum(iter_exhaustive(positive_only=True))

    def test_equals_the_full_sum_on_the_random_corpus(self):
        certified, full = self._terms_against_the_full_sum(
            random_positive_tables(2000, 20000, seed=CORPUS_SEED)
        )
        assert certified < full / 4

    def test_equals_the_full_sum_near_independence(self):
        certified, full = self._terms_against_the_full_sum(
            _near_independent_tables(40, seed=CORPUS_SEED)
        )
        assert certified < full / 10

    def test_strong_tables_stop_after_a_few_dozen_terms(self):
        engine = make_term_engine(benchmark_shape(200_000))
        assert engine.j + 1 == 40001
        pv = exact_fisher_certified(engine)
        assert pv.raw_log == exact_fisher(engine).raw_log
        assert pv.terms_evaluated <= 100

    def test_underflowed_product_ends_the_sum(self):
        # q_1 = 2^-53 exactly, so 1 + q_1 is a tie that rounds back to 1 and
        # leaves -comp at exactly half an ulp: no tail bound can pass the
        # stop test, and the walk ends only when the product reaches 0.0
        (t,) = _underflow_table()
        engine = make_term_engine(t)
        assert next(engine.ratios()) == 2.0**-53
        pv = exact_fisher_certified(engine)
        assert pv.raw_log == exact_fisher(engine).raw_log
        assert pv.terms_evaluated == 21
        assert engine.j + 1 == 33

    @pytest.mark.parametrize(
        "tables",
        [
            pytest.param(lambda: _near_independence_at(10**4, 50, CORPUS_SEED), id="near_independence_1e4"),
            pytest.param(lambda: _near_independence_at(10**6, 20, CORPUS_SEED), id="near_independence_1e6"),
            pytest.param(lambda: _near_independence_at(10**8, 5, CORPUS_SEED), id="near_independence_1e8"),
            pytest.param(lambda: _strong_near_the_cap(30, CORPUS_SEED), id="strong_near_2_to_the_50"),
            pytest.param(_j_at_most_two, id="j_at_most_2"),
            pytest.param(_underflow_table, id="underflow"),
            # the exact walk steps doubles below 2^53 and ints from there on
            pytest.param(double_switch_small_j, id="double_switch_j_3"),
            pytest.param(double_switch_near_independence, id="double_switch_near_independence"),
            pytest.param(integer_path_near_independence, id="integer_path_4e8"),
        ],
    )
    def test_stops_where_the_stop_test_at_every_term_stops(self, tables):
        for t in tables():
            engine = make_term_engine(t)
            assert exact_fisher_certified(engine) == _stop_test_at_every_term(engine), t

    def test_refuses_nonpositive_dependency(self):
        with pytest.raises(NegativeDependency):
            exact_fisher_certified(make_term_engine(build_table(100, 50, 50, 25)))


class TestOracle:
    def test_probabilities_sum_to_one_exactly(self):
        # the hypergeometric point masses over the full support add to 1
        for n in (7, 12, 19, 25):
            for mx in range(1, n):
                for ma in range(1, n):
                    lo = max(0, mx + ma - n)
                    hi = min(mx, ma)
                    total = sum(
                        math.comb(mx, i) * math.comb(n - mx, ma - i)
                        for i in range(lo, hi + 1)
                    )
                    assert Fraction(total, math.comb(n, ma)) == 1

    def test_recurrence_equals_independent_comb_sums(self):
        for t in iter_exhaustive(max_n=25, positive_only=True):
            assert exact_fisher_oracle(t) == _oracle_from_scratch(t)

    def test_recurrence_equals_independent_comb_sums_random(self):
        for t in random_positive_tables(200, 3000, seed=7):
            assert exact_fisher_oracle(t) == _oracle_from_scratch(t)

    def test_oracle_values_are_probabilities(self):
        for t in iter_exhaustive(max_n=15, positive_only=True):
            p = exact_fisher_oracle(t)
            assert 0 < p <= 1

    def test_capacity_cap(self):
        t = build_table(25000, 1000, 1000, 200)
        with pytest.raises(CapacityExceeded):
            exact_fisher_oracle(t)
        assert exact_fisher_oracle(build_table(ORACLE_CAP, 1000, 1000, 200)) > 0
