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


def double_switch_small_j() -> list[ContingencyTable]:
    """J = 3 and a q_1 near 0.2, with the walk's largest product (mxa + 1 +
    J)(mnxna + 1 + J) at 2^26 (2^27 - 1), just below 2^53, where the exact
    walk steps doubles, and at 2^53, where it keeps ints."""
    return [
        build_table(2**26 + 2**49 + mnxna - 1, 2**26 - 1, 2**26 + 2**49 - 4, 2**26 - 4)
        for mnxna in (2**27 - 5, 2**27 - 4)
    ]


def double_switch_near_independence() -> list[ContingencyTable]:
    """mx = ma = 2^26 - 1 one above independence (J about 5e7), with the
    walk's largest product (mx + 1)(n - mx + 1) just below 2^53 and at 2^53."""
    m = 2**26 - 1
    return [build_table(n, m, m, m * m // n + 1) for n in (m + 2**27 - 2, m + 2**27 - 1)]


def integer_path_near_independence() -> list[ContingencyTable]:
    """(4e8, 2e8, 2e8, 1e8 + 1): products near 1e16, past 2^53, from the first
    term, so the exact walk steps ints; its certified sum takes 41963 terms."""
    return [build_table(4 * 10**8, 2 * 10**8, 2 * 10**8, 10**8 + 1)]


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
