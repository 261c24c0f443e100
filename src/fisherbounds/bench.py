"""Micro-benchmarks separating O(1) bounds from the O(J) exact tail.

The configurations share one shape: balanced margins at half the data
size and an overlap of 0.6 times the margin, which drives J to n/5.
Timing uses a monotonic clock through timeit (garbage collection off),
calibrates an inner loop so each sample spans at least half a
millisecond, and reports the fastest, least disturbed of several samples.
"""

from __future__ import annotations

import timeit
from dataclasses import dataclass
from typing import Callable, Sequence

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


def large_scale_terms(n: int = 1_000_000) -> int:
    """Exact-path term count for the benchmark shape at a given size.

    Pure arithmetic; nothing is evaluated.  At the default size the
    exact tail would need 200001 terms while every bound stays O(1).
    """
    return benchmark_shape(n).j + 1


@dataclass(frozen=True, slots=True)
class BenchResult:
    n: int
    j: int
    terms: int
    seconds_per_call: dict[str, float]


def _measure(fn: Callable[[], object], repetitions: int) -> float:
    timer = timeit.Timer(fn)
    number = 1
    elapsed = timer.timeit(number)
    while elapsed < _MIN_SAMPLE_SECONDS:
        number *= 4
        elapsed = timer.timeit(number)
    samples = [timer.timeit(number) / number for _ in range(repetitions)]
    return min(samples)


def run_bench(
    sizes: Sequence[int] = DEFAULT_SIZES,
    repetitions: int = DEFAULT_REPETITIONS,
) -> list[BenchResult]:
    if repetitions <= 0:
        return []
    results = []
    for n in sizes:
        t = benchmark_shape(n)
        engine = make_term_engine(t)
        measured = {
            "exact": _measure(lambda: exact_fisher(engine), repetitions),
            "ub1": _measure(lambda: ub1(engine), repetitions),
            "ub2": _measure(lambda: ub2(engine), repetitions),
            "ub3": _measure(lambda: ub_k(engine, 3), repetitions),
        }
        results.append(BenchResult(t.n, t.j, t.j + 1, measured))
    return results


def bounds_flat_within(results: Sequence[BenchResult], factor: float = 2.0) -> bool:
    """True when every bound's per-call time varies at most by factor."""
    for name in MEASURE_NAMES[1:]:  # the bounds, after "exact"
        times = [r.seconds_per_call[name] for r in results]
        if max(times) > factor * min(times):
            return False
    return True


def exact_grows(results: Sequence[BenchResult]) -> bool:
    """True when exact-path time increases with J between all size pairs."""
    ordered = sorted(results, key=lambda r: r.j)
    for small, big in zip(ordered, ordered[1:]):
        if big.seconds_per_call["exact"] <= small.seconds_per_call["exact"]:
            return False
    return True
