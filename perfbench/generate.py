"""Seeded input generators, one per workload.

Each generator is a pure function of its seed: the same seed gives the
same rows and the same CSV bytes.  Rows are (id, fields) pairs, where
fields are the four count strings n, mx, ma, mxa exactly as written to
the CSV; expected maps every id to the reject reason the batch command
must report for it, or None for a row that must be evaluated.

Heavy-tailed quantities (n in deep, mx in mine) are drawn by stratified
sampling: row i takes a seeded point inside the i-th of N equal strata,
and the other coordinates use fixed strata permutations.  The seed
still moves every value, but the total work and the latency quantiles
hardly change from seed to seed, so run-to-run spread measures the
program, not the luck of the draw.

No workload holds a row with n > 1e7.  Such a row aborts the whole
batch (a known defect: the log-factorial table raises CapacityExceeded,
which the batch command does not turn into a reject), but an exact
evaluation at that size costs seconds at baseline, which does not fit
the run time.  The output check counts an aborted run as all rows
failed, so a later workload can add those rows.

No screen or deep row prints a probability from the subnormal double
range (about 4.9e-324 to 2.2e-308).  There a printed p-value loses
digits (known defect (e): format_pvalue formats the linear value, which
keeps too few significant bits), so such a row would fail the oracle
check on every run.  The workloads must run without failures to be
timed at all, so the defect is shown instead by SUBNORMAL_PROBE, which
run.py checks after every run and reports beside the metrics.  A draw
that lands in the band is drawn again; mine is not filtered, because
it compares raw logs and prints nothing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

HEADER = "id,n,mx,ma,mxa\n"

BAD_ROW = "BAD_ROW"
MARGIN_VIOLATION = "MARGIN_VIOLATION"
DEGENERATE_MARGIN = "DEGENERATE_MARGIN"
NONPOSITIVE_DEPENDENCY = "NONPOSITIVE_DEPENDENCY"
REASONS = (BAD_ROW, MARGIN_VIOLATION, DEGENERATE_MARGIN, NONPOSITIVE_DEPENDENCY)

SCREEN_ROWS = 20_000
SCREEN_MAX_N = 20_000
SCREEN_BAD_SHARE = 0.03

DEEP_ROWS = 250
DEEP_MIN_N = 10_000
DEEP_MAX_N = 2_000_000

# log10 of the subnormal double range, widened by half a decade each way
SUBNORMAL_LOG10 = (-324.5, -307.1)
# Tables whose p_F lies in the subnormal range (1e-323 to 1e-318), with n
# under the oracle's cap, so the check can see whether the printed six
# digits survive the loss of precision there.
SUBNORMAL_PROBE = (
    (10_950, 4_703, 2_305, 1_794),
    (11_238, 991, 3_922, 896),
    (17_104, 4_280, 1_427, 1_010),
)

MINE_N = 20_000
MINE_ANTECEDENTS = 250
MINE_CONSEQUENT_SHARES = (0.04, 0.1, 0.25, 0.4)
MINE_MIN_MX = 5
MINE_MAX_MX = 2_000


@dataclass(frozen=True)
class Inputs:
    rows: list[tuple[str, tuple[str, ...]]]
    expected: dict[str, str | None]

    def csv_text(self) -> str:
        return HEADER + "".join(
            f"{rid},{','.join(fields)}\n" for rid, fields in self.rows
        )

    def valid_tables(self) -> list[tuple[int, int, int, int]]:
        """Counts of every row that must be evaluated, in input order."""
        return [
            tuple(int(f) for f in fields)
            for rid, fields in self.rows
            if self.expected[rid] is None
        ]


def _counts(n: int, mx: int, ma: int, mxa: int) -> tuple[str, ...]:
    return (str(n), str(mx), str(ma), str(mxa))


def _positive_overlap(n: int, mx: int, ma: int, lift: float) -> int:
    """Overlap at about the given lift, nudged up to a positive dependency."""
    mxa = min(mx, ma, math.ceil(lift * mx * ma / n))
    if n * mxa - mx * ma <= 0:
        mxa = mx * ma // n + 1
    return mxa


def prints_subnormal(n: int, mx: int, ma: int, mxa: int) -> bool:
    """Whether a value the check reads may lie in the subnormal band.

    p_F, ubk, ub2 and ub1 all lie between the point probability p_0 and
    ub1 = p_0 mxa mnxna / (n mxa - mx ma), so the table is in the band
    when that interval meets it.
    """
    lg = math.lgamma
    mnxna = n - mx - ma + mxa
    ln_p0 = (
        lg(mx + 1) + lg(n - mx + 1) + lg(ma + 1) + lg(n - ma + 1) - lg(n + 1)
        - lg(mxa + 1) - lg(mx - mxa + 1) - lg(ma - mxa + 1) - lg(mnxna + 1)
    )
    ln_ub1 = ln_p0 + math.log(mxa * mnxna / (n * mxa - mx * ma))
    low, high = SUBNORMAL_LOG10
    return ln_p0 / math.log(10) <= high and ln_ub1 / math.log(10) >= low


def probe() -> Inputs:
    """SUBNORMAL_PROBE as batch input, every row to be evaluated."""
    ids = [f"p{i}" for i in range(len(SUBNORMAL_PROBE))]
    return Inputs(list(zip(ids, (_counts(*t) for t in SUBNORMAL_PROBE))), dict.fromkeys(ids))


def _malformed(rng: random.Random, reason: str, n: int) -> tuple[str, ...]:
    mx = rng.randint(1, n - 1)
    ma = rng.randint(1, n - 1)
    if reason == BAD_ROW:
        kind = rng.randrange(3)
        if kind == 0:
            return (str(n), str(mx), f"{ma}.5", "1")
        if kind == 1:
            return (str(n), str(mx), str(ma))
        return (str(n), "x" + str(mx), str(ma), "1")
    if reason == DEGENERATE_MARGIN:
        return _counts(n, 0, ma, 0) if rng.random() < 0.5 else _counts(n, mx, n, mx)
    if reason == MARGIN_VIOLATION:
        return _counts(n, mx, ma, min(mx, ma) + 1)
    # mx ma / n >= mx + ma - n always, so the floor is a valid overlap
    return _counts(n, mx, ma, mx * ma // n)


def screen(seed: int) -> Inputs:
    """Random positive tables drawn like the test suite's random corpus.

    Why: bounds-only screening of a large collection is the paper's
    headline use.  Per-row constant costs dominate here (report
    assembly, the bounds, chi-squared, number formatting and CSV I/O);
    the exact sum never runs and log-factorial growth is negligible.
    A few percent of rows are malformed, violate the margins or show no
    positive dependency, so the rejects path runs too.
    """
    rng = random.Random(f"screen-{seed}")
    rows = []
    expected: dict[str, str | None] = {}
    for i in range(SCREEN_ROWS):
        rid = f"s{i:05d}"
        if rng.random() < SCREEN_BAD_SHARE:
            reason = REASONS[rng.randrange(len(REASONS))]
            rows.append((rid, _malformed(rng, reason, rng.randint(5, SCREEN_MAX_N))))
            expected[rid] = reason
            continue
        while True:
            n = rng.randint(5, SCREEN_MAX_N)
            mx = rng.randint(1, n - 1)
            ma = rng.randint(1, n - 1)
            mxa = rng.randint(max(0, mx + ma - n), min(mx, ma))
            if n * mxa - mx * ma > 0 and not prints_subnormal(n, mx, ma, mxa):
                break
        rows.append((rid, _counts(n, mx, ma, mxa)))
        expected[rid] = None
    return Inputs(rows, expected)


def deep(seed: int) -> Inputs:
    """A few hundred large tables evaluated with exact values on.

    Why: the O(J) exact sum and the per-process log-factorial growth
    dominate.  n is log-uniform from 1e4 to 2e6, margins run from n/20
    to n/2 and the lift from about 1 to 3, so J reaches about 4e5 and
    runs near independence are included.  Bounds and formatting are a
    rounding error here, so an early-stop or lgamma change shows on
    this workload while screen should not move.

    Rows come in ascending n.  The shared log-factorial table grows by
    doubling from whatever n arrives first, so under a shuffled order
    its final size, and with it peak memory and growth time, would
    change with the seed.
    """
    rng = random.Random(f"deep-{seed}")
    count = DEEP_ROWS
    span = math.log(DEEP_MAX_N / DEEP_MIN_N)
    rows = []
    for i in range(count):
        while True:
            n = round(DEEP_MIN_N * math.exp(span * (i + rng.random()) / count))
            fx = ((i * 193) % count + rng.random()) / count
            fa = ((i * 311) % count + rng.random()) / count
            fl = ((i * 127) % count + rng.random()) / count
            mx = max(1, round(n / 20 * 10.0 ** fx))
            ma = max(1, round(n / 20 * 10.0 ** fa))
            mx, ma = min(mx, n // 2), min(ma, n // 2)
            table = (n, mx, ma, _positive_overlap(n, mx, ma, 1.0 + 2.0 * fl))
            if not prints_subnormal(*table):
                break
        rows.append(table)
    rows = [_counts(*t) for t in sorted(rows)]
    ids = [f"d{i:04d}" for i in range(len(rows))]
    return Inputs(list(zip(ids, rows)), dict.fromkeys(ids))


def mine(seed: int) -> Inputs:
    """A rule-mining candidate stream over one dataset.

    Why: this is the library caller inside a search loop, calling
    report(build_table(...)) once per candidate with the defaults
    (k = 3, exact included): no process start, no CSV and a warm
    log-factorial table.  Every candidate pairs one antecedent with one
    of a handful of consequents, so the inputs share their margins
    heavily and a margin-keyed cache would show here and not in screen.
    Antecedent margins are skewed small (log-uniform from 5 to 2000 at
    n = 20000) and the lift runs from about 1 to 4, so the median call
    is dominated by the bounds and report, and the tail by the exact sum.
    """
    rng = random.Random(f"mine-{seed}")
    n = MINE_N
    consequents = [round(share * n) + rng.randint(-20, 20) for share in MINE_CONSEQUENT_SHARES]
    count = MINE_ANTECEDENTS
    span = math.log(MINE_MAX_MX / MINE_MIN_MX)
    antecedents = [
        round(MINE_MIN_MX * math.exp(span * (i + rng.random()) / count)) for i in range(count)
    ]
    total = count * len(consequents)
    # the stream visits antecedents in a seeded order, but each lift
    # stratum stays tied to the mx stratum, so the heavy tail of the
    # exact sums (large mx at low lift) is the same from seed to seed
    order = list(range(count))
    rng.shuffle(order)
    rows = []
    for position, i in enumerate(order):
        mx = antecedents[i]
        for c, ma in enumerate(consequents):
            stratum = i * len(consequents) + c
            lift = 1.0 + 3.0 * (((stratum * 389) % total) + rng.random()) / total
            rid = f"m{position * len(consequents) + c:04d}"
            rows.append((rid, _counts(n, mx, ma, _positive_overlap(n, mx, ma, lift))))
    return Inputs(rows, {rid: None for rid, _ in rows})


GENERATORS = {"screen": screen, "deep": deep, "mine": mine}
