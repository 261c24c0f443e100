"""Output checks, run after the timed region.

Each check returns the set of row ids (or call indices) that failed,
with one message per failure, so failures can feed failed_share.

- Every input row lands exactly once, in the output or the rejects,
  with the reject reason its generator recorded.
- Every output row satisfies p_fisher <= ubk <= ub2 <= ub1, compared in
  log space on keys parsed from the printed text, so values that
  underflow doubles still compare.
- Rows with n <= ORACLE_CAP (exact.py) agree with the big-rational oracle to the
  six printed digits.
- For a sample of rows with n <= ORACLE_CAP, ubk is at least the oracle's
  p_F, so wrong bounds that are still in order are caught where exact
  values are off.
"""

from __future__ import annotations

import csv
import io
import math

# float ties between bounds that coincide, such as ub_k and p_F at k > J
TIE_SLACK = 1e-12
OUTPUT_COLUMNS = ("id", "n", "mx", "ma", "mxa", "j", "p_fisher", "ub1", "ub2", "ubk", "k")
_LN10 = math.log(10.0)


def log_of_printed(text: str) -> float:
    """Natural log of a printed probability, read the way ranking._log10_key reads it."""
    text = text.strip()
    if not text:
        raise ValueError("missing value")
    mantissa, sep, exponent = text.partition("e")
    m = float(mantissa)
    if m <= 0.0:
        return -math.inf
    return math.log(m) + (int(exponent) * _LN10 if sep else 0.0)


class Oracle:
    """ln p_F from the package's big-rational oracle, cached per table."""

    def __init__(self):
        from fisherbounds import build_table
        from fisherbounds.exact import ORACLE_CAP, exact_fisher_oracle

        self.cap = ORACLE_CAP
        self._exact = lambda counts: exact_fisher_oracle(build_table(*counts))
        self._cache: dict[tuple[int, int, int, int], float] = {}

    def log_p(self, counts: tuple[int, int, int, int]) -> float:
        if counts not in self._cache:
            f = self._exact(counts)
            self._cache[counts] = math.log(f.numerator) - math.log(f.denominator)
        return self._cache[counts]


def _ordered(keys: list[float]) -> bool:
    return all(a <= b + TIE_SLACK for a, b in zip(keys, keys[1:]))


def _print_tolerance(log_value: float) -> float:
    """Half a unit in the sixth significant digit of the value, in log space.

    The unit is 1e-5 of the decimal mantissa m in [1, 10), so the
    allowed relative error is 0.5e-5 / m, plus 1e-9 for the rounding the
    value already carried before it was printed.
    """
    mantissa = 10.0 ** ((log_value / _LN10) % 1.0)
    return 0.5e-5 / mantissa * (1 + 1e-6) + 1e-9


def _agrees(log_value: float, log_exact: float) -> bool:
    return abs(log_value - log_exact) <= _print_tolerance(log_value)


def _bounds_exact(log_bound: float, log_exact: float) -> bool:
    return log_bound + _print_tolerance(log_bound) >= log_exact


def check_batch(
    inputs,
    out_text: str,
    rejects_text: str | None,
    exact: bool,
    oracle: Oracle,
    bound_sample: frozenset[str] = frozenset(),
) -> dict[str, str]:
    """Failures of one batch run, keyed by row id; ubk is held against the
    oracle on the rows in bound_sample."""
    failed: dict[str, str] = {}
    seen: set[str] = set()
    counts = {rid: fields for rid, fields in inputs.rows}

    def land(rid: str) -> bool:
        if rid not in inputs.expected:
            failed[rid] = "id not in the input"
            return False
        if rid in seen:
            failed[rid] = "row appears twice"
            return False
        seen.add(rid)
        return True

    reader = csv.DictReader(io.StringIO(out_text))
    if not set(OUTPUT_COLUMNS) <= set(reader.fieldnames or ()):
        return {rid: "output header lacks the checked columns" for rid in inputs.expected}
    for row in reader:
        rid = row["id"]
        if not land(rid):
            continue
        if inputs.expected[rid] is not None:
            failed[rid] = f"evaluated, expected reject {inputs.expected[rid]}"
            continue
        try:
            n, mx, ma, mxa = (int(f) for f in counts[rid])
            if [row["n"], row["mx"], row["ma"], row["mxa"]] != list(counts[rid]):
                raise ValueError("counts differ from the input")
            if int(row["j"]) != min(mx - mxa, ma - mxa) or row["k"] != "3":
                raise ValueError(f"j={row['j']} k={row['k']}")
            keys = [log_of_printed(row[c]) for c in ("ubk", "ub2", "ub1")]
            if exact:
                p = log_of_printed(row["p_fisher"])
                keys.insert(0, p)
                if n <= oracle.cap and not _agrees(p, oracle.log_p((n, mx, ma, mxa))):
                    raise ValueError(f"p_fisher {row['p_fisher']} disagrees with the oracle")
            elif row["p_fisher"].strip():
                raise ValueError("p_fisher printed under --no-exact")
            if not _ordered(keys):
                raise ValueError("p_fisher <= ubk <= ub2 <= ub1 violated")
            if rid in bound_sample and n <= oracle.cap:
                if not _bounds_exact(log_of_printed(row["ubk"]), oracle.log_p((n, mx, ma, mxa))):
                    raise ValueError(f"ubk {row['ubk']} is below the oracle's p_F")
        except (AttributeError, KeyError, ValueError) as exc:
            failed[rid] = str(exc) or type(exc).__name__

    if rejects_text is not None:
        reader = csv.DictReader(io.StringIO(rejects_text))
        if reader.fieldnames != ["id", "reason", "detail"]:
            return {rid: "rejects header is not id,reason,detail" for rid in inputs.expected}
        for row in reader:
            rid = row["id"]
            if land(rid) and row["reason"] != inputs.expected[rid]:
                failed[rid] = f"rejected as {row['reason']}, expected {inputs.expected[rid]}"

    for rid in inputs.expected:
        if rid not in seen:
            failed[rid] = "row missing from output and rejects"
    return failed


def check_calls(
    tables: list[tuple[int, int, int, int]],
    results: list,
    exact: bool,
    oracle: Oracle,
    bound_sample: frozenset[int] = frozenset(),
) -> dict[int, str]:
    """Failures of the library calls, keyed by index into tables; ubk is
    held against the oracle on the indices in bound_sample.

    results holds, per call, [p_fisher, ub1, ub2, ubk] as raw natural
    logs (p_fisher None when skipped) followed by k, or None for a call
    that raised.
    """
    failed: dict[int, str] = {}
    if len(results) != len(tables):
        return {i: "no result" for i in range(len(tables))}
    for i, (counts, res) in enumerate(zip(tables, results)):
        if res is None:
            failed[i] = "call raised"
            continue
        p, b1, b2, bk, k = res
        keys = [bk, b2, b1]
        if exact:
            if p is None:
                failed[i] = "p_fisher missing"
                continue
            keys.insert(0, p)
            if counts[0] <= oracle.cap and not _agrees(p, oracle.log_p(counts)):
                failed[i] = "p_fisher disagrees with the oracle"
                continue
        if k != 3 or not _ordered(keys):
            failed[i] = "p_fisher <= ubk <= ub2 <= ub1 violated"
        elif i in bound_sample and counts[0] <= oracle.cap and not _bounds_exact(bk, oracle.log_p(counts)):
            failed[i] = "ubk is below the oracle's p_F"
    return failed
