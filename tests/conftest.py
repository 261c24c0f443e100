"""Shared corpora and the acceptance-criteria summary hook.

The exhaustive corpus enumerates every valid table up to a size cap;
the random corpora draw uniformly over valid counts with fixed seeds so
every run sees the same tables.  Acceptance tests record one verdict
per criterion; the terminal summary prints them as single lines after
the run.
"""

from __future__ import annotations

import io
import random
from typing import Iterator

from fisherbounds import ContingencyTable, build_table, rows_from_batch_csv, write_batch_csv

CORPUS_SEED = 1729
STRONG_SEED = 777

EXHAUSTIVE_MAX_N = 40
EXHAUSTIVE_TOTAL = 132470
EXHAUSTIVE_POSITIVE = 65792
EXHAUSTIVE_POSITIVE_J0 = 20540
EXHAUSTIVE_POSITIVE_J1 = 15094

# measured worst ordering tie across the corpora is 4.2e-16 relative;
# this slack absorbs float ties without hiding a real ordering bug
TIE_SLACK = 1e-13


def iter_exhaustive(
    max_n: int = EXHAUSTIVE_MAX_N, positive_only: bool = False
) -> Iterator[ContingencyTable]:
    """Every valid table with n <= max_n, optionally only delta > 0."""
    for n in range(1, max_n + 1):
        for mx in range(1, n):
            for ma in range(1, n):
                lo = max(0, mx + ma - n)
                hi = min(mx, ma)
                for mxa in range(lo, hi + 1):
                    if positive_only and n * mxa - mx * ma <= 0:
                        continue
                    yield build_table(n, mx, ma, mxa)


def random_positive_tables(
    count: int, max_n: int, seed: int
) -> list[ContingencyTable]:
    """Uniformly drawn valid tables with delta > 0, resampled on misses."""
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        n = rng.randint(5, max_n)
        mx = rng.randint(1, n - 1)
        ma = rng.randint(1, n - 1)
        mxa = rng.randint(max(0, mx + ma - n), min(mx, ma))
        if n * mxa - mx * ma <= 0:
            continue
        tables.append(build_table(n, mx, ma, mxa))
    return tables


def read_back(results, path) -> list:
    """Ranking rows of evaluated results, read back from their batch output."""
    out = io.StringIO()
    write_batch_csv(out, results, None)
    path.write_text(out.getvalue(), encoding="utf-8")
    return rows_from_batch_csv(str(path))


def sample_strong_tables(count: int, seed: int) -> list[ContingencyTable]:
    """Random tables with lift >= 2, the regime with ranking guarantees.

    Margins stay at or below n/2 so a lift of 2 is always reachable;
    the overlap is drawn from [ceil(2 mx ma / n), min(mx, ma)].
    """
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        n = rng.randint(50, 2000)
        mx = rng.randint(1, n // 2)
        ma = rng.randint(1, n // 2)
        lo = -(-2 * mx * ma // n)
        hi = min(mx, ma)
        if lo > hi:
            continue
        mxa = rng.randint(lo, hi)
        if n * mxa - mx * ma <= 0:
            continue
        tables.append(build_table(n, mx, ma, mxa))
    return tables


_ACCEPTANCE: dict[int, tuple[bool, str]] = {}


def record_acceptance(number: int, ok: bool, detail: str = "") -> None:
    _ACCEPTANCE[number] = (bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        ok, detail = _ACCEPTANCE[number]
        verdict = "PASS" if ok else "FAIL"
        line = f"criterion {number}: {verdict}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
