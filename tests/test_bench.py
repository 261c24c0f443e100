"""Benchmark harness: shapes, term counts, verdict predicates.

Real timing runs are kept tiny; the verdict predicates are mostly
exercised on synthetic results so the suite does not inherit timer
noise.
"""

from __future__ import annotations

from fisherbounds import (
    DEFAULT_REPETITIONS,
    DEFAULT_SIZES,
    BenchResult,
    bounds_flat_within,
    exact_grows,
    large_scale_terms,
    run_bench,
)
from fisherbounds.bench import MEASURE_NAMES, benchmark_shape


def _result(n, j, exact, bound):
    times = {"exact": exact, "ub1": bound, "ub2": bound, "ub3": bound}
    return BenchResult(n, j, j + 1, times)


class TestShapes:
    def test_benchmark_shape_drives_j_to_a_fifth_of_n(self):
        for n in (2000, 20000, 200000):
            t = benchmark_shape(n)
            assert (t.mx, t.ma) == (n // 2, n // 2)
            assert t.j == n // 5
            assert t.delta_counts > 0

    def test_large_scale_term_count(self):
        assert large_scale_terms() == 200001
        assert large_scale_terms(2000) == 401

    def test_defaults(self):
        assert DEFAULT_SIZES == (2000, 20000, 200000)
        assert DEFAULT_REPETITIONS == 5
        assert MEASURE_NAMES == ("exact", "ub1", "ub2", "ub3")


class TestVerdicts:
    def test_flat_bounds_pass(self):
        results = [_result(2000, 400, 1e-4, 1e-6), _result(20000, 4000, 1e-3, 1.5e-6)]
        assert bounds_flat_within(results)
        assert exact_grows(results)

    def test_growing_bounds_fail_flatness(self):
        results = [_result(2000, 400, 1e-4, 1e-6), _result(20000, 4000, 1e-3, 3e-6)]
        assert not bounds_flat_within(results)

    def test_shrinking_exact_time_fails_growth(self):
        results = [_result(2000, 400, 1e-3, 1e-6), _result(20000, 4000, 1e-4, 1e-6)]
        assert not exact_grows(results)

    def test_growth_check_sorts_by_j(self):
        results = [_result(20000, 4000, 1e-3, 1e-6), _result(2000, 400, 1e-4, 1e-6)]
        assert exact_grows(results)


class TestRunBench:
    def test_zero_repetitions_short_circuits(self):
        assert run_bench((2000,), 0) == []

    def test_small_real_run_measures_every_name(self):
        results = run_bench((400, 2000), repetitions=2)
        assert [r.n for r in results] == [400, 2000]
        assert [r.terms for r in results] == [81, 401]
        for r in results:
            assert set(r.seconds_per_call) == set(MEASURE_NAMES)
            assert all(v > 0.0 for v in r.seconds_per_call.values())

    def test_exact_time_tracks_the_term_count_at_scale(self):
        # J differs by 25x between these sizes; even a noisy timer
        # separates the O(J) path from the O(1) bounds
        results = run_bench((400, 10000), repetitions=3)
        assert exact_grows(results)
        small, big = results
        assert big.seconds_per_call["exact"] > 3.0 * small.seconds_per_call["exact"]
        for name in MEASURE_NAMES[1:]:
            times = [r.seconds_per_call[name] for r in results]
            assert max(times) <= 3.0 * min(times), name
