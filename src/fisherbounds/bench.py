"""Micro-benchmarks separating O(1) bounds from the O(J) exact tail.

The configurations share one shape: balanced margins at half the data
size and an overlap of 0.6 times the margin, which drives J to n/5.
Timing runs through timeit (garbage collection off) on the process's
CPU-time clock, so time the process spends waiting for a CPU is not
counted.  It calibrates an inner loop so each sample spans at least half
a millisecond, takes the samples round-robin over sizes and measures,
and reports the fastest, least disturbed of each pair's samples.
"""

from __future__ import annotations

import time
import timeit
from typing import Callable, NamedTuple, Sequence

from .bounds import ub1, ub2, ub_k
from .contingency import ContingencyTable, build_table
from .exact import exact_fisher, make_term_engine

__all__ = [
    "DEFAULT_SIZES",
    "DEFAULT_REPETITIONS",
    "BenchResult",
    "large_scale_terms",
    "run_bench",
    "bounds_flat_within",
    "exact_grows",
]

DEFAULT_SIZES = (2000, 20000, 200000)
DEFAULT_REPETITIONS = 5
MEASURE_NAMES = ("exact", "ub1", "ub2", "ub3")

_MIN_SAMPLE_SECONDS = 5e-4


def benchmark_shape(n: int) -> ContingencyTable:
    """The standard benchmark family: mx = ma = n/2, mxa = 0.6 mx."""
    mx = n // 2
    return build_table(n, mx, mx, (6 * mx) // 10)


def large_scale_terms() -> int:
    """Exact-path terms of the benchmark shape at n = 1000000, from J alone."""
    return benchmark_shape(1_000_000).j + 1


class BenchResult(NamedTuple):
    n: int
    j: int
    seconds_per_call: dict[str, float]

    @property
    def terms(self) -> int:
        """J + 1, the terms of the full exact sum."""
        return self.j + 1


def _measures(engine) -> tuple[Callable[[], object], ...]:
    """The timed calls on one engine, in MEASURE_NAMES order."""
    return (
        lambda: exact_fisher(engine),
        lambda: ub1(engine),
        lambda: ub2(engine),
        lambda: ub_k(engine, 3),
    )


def _calibrated(fn: Callable[[], object]) -> tuple[timeit.Timer, int]:
    """A timer for fn and a loop count that makes one sample span at least
    _MIN_SAMPLE_SECONDS."""
    timer = timeit.Timer(fn, timer=time.process_time)
    number = 1
    while timer.timeit(number) < _MIN_SAMPLE_SECONDS:
        number *= 4
    return timer, number


def run_bench(
    sizes: Sequence[int] = DEFAULT_SIZES,
    repetitions: int = DEFAULT_REPETITIONS,
) -> list[BenchResult]:
    """CPU seconds per call of each measure at each size.

    Every (size, measure) pair is calibrated first.  The samples then go
    round-robin over all pairs, repetitions rounds of one sample each, so
    a slow phase of the machine lands on every pair alike instead of on
    one size, and each pair keeps its fastest sample.  A size without a
    benchmark table, or one given twice, is a ValueError naming it,
    raised before any timing.
    """
    engines = []
    for n in sizes:
        if any(e.table.n == n for e in engines):
            raise ValueError(f"n={n} is given more than once")
        try:
            engines.append(make_term_engine(benchmark_shape(n)))
        except ValueError as exc:
            raise ValueError(f"no benchmark table at n={n}: {exc}") from None
    if repetitions <= 0:
        return []
    calibrated = [[_calibrated(fn) for fn in _measures(e)] for e in engines]
    samples = [[[] for _ in MEASURE_NAMES] for _ in engines]
    for _ in range(repetitions):
        for row, lists in zip(calibrated, samples):
            for (timer, number), taken in zip(row, lists):
                taken.append(timer.timeit(number) / number)
    return [
        BenchResult(e.table.n, e.j, {name: min(s) for name, s in zip(MEASURE_NAMES, lists)})
        for e, lists in zip(engines, samples)
    ]


def bounds_flat_within(results: Sequence[BenchResult]) -> bool:
    """True when every bound's per-call time varies at most by a factor of
    2 across the sizes, the flatness acceptance criterion 7 asks for."""
    for name in MEASURE_NAMES[1:]:  # the bounds, after "exact"
        times = [r.seconds_per_call[name] for r in results]
        if max(times) > 2.0 * min(times):
            return False
    return True


def exact_grows(results: Sequence[BenchResult]) -> bool:
    """True when exact-path time increases with J between all size pairs."""
    ordered = sorted(results, key=lambda r: r.j)
    for small, big in zip(ordered, ordered[1:]):
        if big.seconds_per_call["exact"] <= small.seconds_per_call["exact"]:
            return False
    return True
