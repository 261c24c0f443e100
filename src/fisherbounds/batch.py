"""CSV batch evaluation with deterministic order and formatting.

Input rows carry the header id,n,mx,ma,mxa.  Each valid row becomes one
output row; invalid rows go to a rejects stream with a reason code, and
every input row lands in exactly one of the two.  Reading, evaluating
and writing form one lazy pass in constant memory, in input order, and
floats print with six significant digits, so batch output is a pure
function of batch input.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

from .bounds import ApproxReport, _require_k, report
from .contingency import build_table, negate_consequent
from .errors import DegenerateMargin, MarginViolation, NegativeDependency, OutOfRange

__all__ = [
    "BatchRecord",
    "Reject",
    "INPUT_HEADER",
    "OUTPUT_HEADER",
    "REJECT_HEADER",
    "read_table_csv",
    "run_batch",
    "write_batch_csv",
    "format_float",
    "format_pvalue",
]

INPUT_HEADER = ("id", "n", "mx", "ma", "mxa")
OUTPUT_HEADER = (
    "id", "n", "mx", "ma", "mxa", "j", "lift", "leverage", "odds",
    "p_fisher", "ub1", "ub2", "ubk", "k", "err_bound", "chi2_p",
    "min_expected", "guarantee_ub1", "guarantee_ub2", "clamped",
)
REJECT_HEADER = ("id", "reason", "detail")

REASON_BAD_ROW = "BAD_ROW"
REASON_MARGIN = "MARGIN_VIOLATION"
REASON_DEGENERATE = "DEGENERATE_MARGIN"
REASON_NONPOSITIVE = "NONPOSITIVE_DEPENDENCY"
REASON_OUT_OF_RANGE = "OUT_OF_RANGE"

_LN10 = math.log(10.0)


@dataclass(frozen=True, slots=True)
class BatchRecord:
    """One evaluated row: its input id and its report, which holds the table."""

    row_id: str
    report: ApproxReport


@dataclass(frozen=True, slots=True)
class Reject:
    row_id: str
    reason: str
    detail: str


def read_table_csv(path: str) -> Iterator[tuple[str, list[str]]]:
    """Rows of an id,n,mx,ma,mxa file as (id, remaining fields) pairs, lazily.

    The file is opened and its mandatory header checked at the call; the
    rows are read as they are consumed.  Each physical line is parsed on
    its own, so a stray quote cannot swallow the lines after it.  Lines
    whose fields are all blank are skipped; a line the csv module cannot
    split (an unbalanced quote, a field over its size limit) comes with
    no fields, and bytes that are not UTF-8 read as U+FFFD, so run_batch
    rejects such a line like any other malformed one.  Rows without an
    id get one from their line number.
    """
    rows = _read_rows(path)
    next(rows)  # runs to the header check; the file closes with the generator
    return rows


def _split_line(line: str) -> list[str] | None:
    """Fields of one line, or None when the csv module cannot split it."""
    try:
        return next(csv.reader((line,), strict=True), [])
    except csv.Error:
        return None


def _read_rows(path: str):
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
        header = _split_line(fh.readline())
        if header is None or tuple(h.strip().lower() for h in header) != INPUT_HEADER:
            raise ValueError(f"expected header {','.join(INPUT_HEADER)!r} in {path}")
        yield None
        for line_no, line in enumerate(fh, 2):
            row = _split_line(line)
            if row is None:
                yield f"line{line_no}", []
            elif any(f.strip() for f in row):
                yield row[0].strip() or f"line{line_no}", [f.strip() for f in row[1:]]


def _evaluate(
    row_id: str,
    fields: Sequence[str],
    k: int,
    negate: bool,
    include_exact: bool,
) -> BatchRecord | Reject:
    try:
        n, mx, ma, mxa = (int(f) for f in fields)
    except ValueError:
        return Reject(row_id, REASON_BAD_ROW, "expected four integer counts")
    try:
        t = build_table(n, mx, ma, mxa)
    except DegenerateMargin as exc:
        return Reject(row_id, REASON_DEGENERATE, str(exc))
    except MarginViolation as exc:
        return Reject(row_id, REASON_MARGIN, str(exc))
    if negate:
        t = negate_consequent(t)
    try:
        return BatchRecord(row_id, report(t, k=k, include_exact=include_exact))
    except NegativeDependency as exc:
        return Reject(row_id, REASON_NONPOSITIVE, str(exc))
    except OutOfRange as exc:
        return Reject(row_id, REASON_OUT_OF_RANGE, str(exc))


def run_batch(
    rows: Iterable[tuple[str, Sequence[str]]],
    k: int = 3,
    negate: bool = False,
    include_exact: bool = True,
) -> Iterator[BatchRecord | Reject]:
    """Evaluate rows lazily, one result per row in input order.

    k is checked at the call, before any row is read.  With negate,
    every table is replaced by its consequent negation before
    evaluation.  Rows whose (possibly negated) table shows no positive
    dependency are rejected, and so are rows whose counts are too large
    for double-precision arithmetic.
    """
    _require_k(k)
    return (_evaluate(rid, f, k, negate, include_exact) for rid, f in rows)


def format_float(value: float) -> str:
    return f"{value:.6g}"


def format_pvalue(pv) -> str:
    """Six significant digits of a probability; see _format_log."""
    return _format_log(pv.log_value)


def _format_log(log_value: float) -> str:
    """Six significant digits of exp(log_value), from the linear value
    while it is a normal double and from the log below that, where
    subnormals keep too few bits and deep tails underflow to 0.  Every
    log formatted here is at most ln n, so exp cannot overflow."""
    linear = math.exp(log_value)
    if linear >= sys.float_info.min or log_value == -math.inf:
        return f"{linear:.6g}"
    exponent10 = log_value / _LN10
    exponent = math.floor(exponent10)
    mantissa = 10.0 ** (exponent10 - exponent)
    if round(mantissa, 5) >= 10.0:
        mantissa /= 10.0
        exponent += 1
    return f"{mantissa:.6g}e{exponent:+03d}"


def _output_row(rec: BatchRecord) -> list[str]:
    r = rec.report
    t = r.table
    s = r.stats
    any_clamped = r.ub1.clamped or r.ub2.clamped or r.ub_k.clamped
    return [
        rec.row_id,
        str(t.n),
        str(t.mx),
        str(t.ma),
        str(t.mxa),
        str(t.j),
        format_float(s.lift),
        format_float(s.leverage),
        format_float(s.odds_ratio),
        format_pvalue(r.p_fisher) if r.p_fisher is not None else "",
        format_pvalue(r.ub1),
        format_pvalue(r.ub2),
        format_pvalue(r.ub_k),
        str(r.k_used),
        _format_log(r.log_error_bound),
        _format_log(r.chi2.log_p),
        format_float(r.chi2.min_expected),
        str(int(r.guarantee_ub1)),
        str(int(r.guarantee_ub2)),
        str(int(any_clamped)),
    ]


def write_batch_csv(
    out: IO[str], results: Iterable[BatchRecord | Reject], rejects: IO[str] | None
) -> tuple[int, dict[str, int]]:
    """Write each result as it arrives, evaluated rows to out and rejects
    to rejects (only counted when it is None), each stream under its
    header.  Returns the rows written to out and the rejects per reason."""
    # csv defaults to CRLF; the output contract is LF
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(OUTPUT_HEADER)
    reject_writer = None
    if rejects is not None:
        reject_writer = csv.writer(rejects, lineterminator="\n")
        reject_writer.writerow(REJECT_HEADER)
    written = 0
    by_reason: dict[str, int] = {}
    for item in results:
        if isinstance(item, BatchRecord):
            writer.writerow(_output_row(item))
            written += 1
        else:
            by_reason[item.reason] = by_reason.get(item.reason, 0) + 1
            if reject_writer is not None:
                reject_writer.writerow([item.row_id, item.reason, item.detail])
    return written, by_reason
