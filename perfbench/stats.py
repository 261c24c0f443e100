"""Percentiles that state their sample count, best-of-repeats latencies,
and the run-to-run spread."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    p: float
    value: float
    samples: int
    beyond: int


def percentile(samples: Sequence[float], p: float) -> Percentile:
    """Nearest-rank percentile, refused when fewer than ten samples lie beyond it.

    A tail percentile resting on a handful of samples says little, so
    p99 needs at least 1000 samples and p50 at least 20.
    """
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    count = len(samples)
    rank = math.ceil(p / 100.0 * count)
    beyond = count - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {count} samples has {max(beyond, 0)} beyond it;"
            f" need at least {MIN_BEYOND}"
        )
    return Percentile(p, sorted(samples)[rank - 1], count, beyond)


def groups_for(calls: int, min_samples: int) -> int:
    """How many groups best_of needs to give at least min_samples values."""
    return max(1, -(-min_samples // calls))


def best_of(passes: Sequence[Sequence[int]], groups: int) -> list[int]:
    """Each call's fastest latency over its repeats.

    passes holds one row of latencies per pass over the same calls, in
    the order the passes ran.  The passes are dealt round-robin into
    groups, so each group spans the whole run, and each group gives its
    own fastest latency per call: calls x groups values in all.

    On a shared machine a neighbour can slow the core for a second or
    more; the fastest repeat is the call's cost when it had the core.
    """
    if len(passes) < groups:
        raise ValueError(f"{len(passes)} passes cannot fill {groups} groups")
    best = [list(passes[g]) for g in range(groups)]
    for i in range(groups, len(passes)):
        row = best[i % groups]
        for j, value in enumerate(passes[i]):
            if value < row[j]:
                row[j] = value
    return [value for row in best for value in row]


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
