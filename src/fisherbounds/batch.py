"""CSV batch evaluation with deterministic order and formatting.

Input rows carry the header id,n,mx,ma,mxa.  Each valid row becomes one
output row; invalid rows go to a rejects stream with a reason code, and
every input row lands in exactly one of the two.  Floats print with six
significant digits, so batch output is a pure function of batch input.

Every CSV file the package reads, input or output, goes through
_read_chunks, which checks its header at the call, and _parse_lines.
The library path (read_table_csv, run_batch, write_batch_csv) is one
lazy pass, row by row.  The batch command reads the input in chunks of
CHUNK_LINES raw lines, each evaluated by run_batch and formatted to text
by _evaluate_chunk.  An input of one chunk is evaluated in-process; a
longer one goes to a pool of one worker process per usable CPU, with at
most two chunks per worker in flight, and the texts are written in input
order.  Both give the bytes the library path gives.  Every way the run
ends, killed by a signal included, the workers end with it.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections import deque
from functools import partial
from itertools import chain, islice
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .bounds import ApproxReport, _require_k, report
from .chi2 import _DOUBLE_MIN
from .contingency import ContingencyTable, negate_consequent
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

# raw lines per chunk; from 250 to 2000 lines measured alike
CHUNK_LINES = 1000


class BatchRecord(NamedTuple):
    """One evaluated row: its input id and its report, which holds the table."""

    row_id: str
    report: ApproxReport


class Reject(NamedTuple):
    row_id: str
    reason: str
    detail: str


def read_table_csv(path: str) -> Iterator[tuple[str, list[str]]]:
    """Rows of an id,n,mx,ma,mxa file as (id, remaining fields) pairs, lazily.

    The header is checked at the call, by _read_chunks; the rows are read
    as they are consumed, and each line is parsed as _parse_lines parses it.
    """
    return (row for first, lines in _read_chunks(path, INPUT_HEADER) for row in _parse_lines(first, lines))


def _split_line(line: str) -> list[str] | None:
    """Fields of one line, or None when the csv module cannot split it."""
    try:
        return next(csv.reader((line,), strict=True), [])
    except csv.Error:
        return None


def _parse_lines(first_line_no: int, lines: Iterable[str]) -> Iterator[tuple[str, list[str]]]:
    """The package's one line parser: (id, stripped fields) for each line
    not all blank, the first being line number first_line_no of its file.

    Each line is parsed on its own, so a stray quote cannot swallow the
    lines after it.  A line without quotes that fits the csv field size
    limit is split at its commas, as the csv module would split it, and
    any other line by the csv module.  A line the csv module cannot split,
    or one that holds a NUL (which the csv module reads on some Pythons
    only), comes with no fields.  A row without an id gets line<N>.
    """
    limit = csv.field_size_limit()
    for line_no, line in enumerate(lines, first_line_no):
        if "\0" in line:
            row = None
        elif '"' in line or len(line) > limit:
            row = _split_line(line)
        else:
            row = line.rstrip("\r\n").split(",")
        if row is None:
            yield f"line{line_no}", []
        elif any(f.strip() for f in row):
            yield row[0].strip() or f"line{line_no}", [f.strip() for f in row[1:]]


def _read_chunks(path: str, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """The package's one CSV reader: the lines after a file's header as
    (first line number, up to CHUNK_LINES raw lines) chunks, lazily.

    The header names, stripped and lower-cased, are checked at the call,
    a ValueError unless they are header.  A byte-order mark is dropped and
    bytes that are not UTF-8 read as U+FFFD.
    """
    chunks = _chunks(path, header)
    next(chunks)  # opens the file and checks its header
    return chunks


def _chunks(path: str, header: tuple[str, ...]):
    """_read_chunks's generator.  It pauses after the header check, so the
    check runs at the call and the file is closed however the chunks end."""
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
        if tuple(h.strip().lower() for h in _split_line(fh.readline()) or ()) != header:
            raise ValueError(f"expected header {','.join(header)!r} in {path}")
        yield None
        line_no = 2
        while lines := list(islice(fh, CHUNK_LINES)):
            yield line_no, lines
            line_no += len(lines)


def _evaluate(
    row_id: str,
    fields: Sequence[str],
    k: int,
    negate: bool,
    include_exact: bool,
) -> BatchRecord | Reject:
    try:
        n, mx, ma, mxa = map(int, fields)
    except ValueError:
        return Reject(row_id, REASON_BAD_ROW, "expected four integer counts")
    try:
        t = ContingencyTable(n, mx, ma, mxa)
        if negate:
            t = negate_consequent(t)
        return BatchRecord(row_id, report(t, k=k, include_exact=include_exact))
    except DegenerateMargin as exc:
        return Reject(row_id, REASON_DEGENERATE, str(exc))
    except MarginViolation as exc:
        return Reject(row_id, REASON_MARGIN, str(exc))
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
    if linear >= _DOUBLE_MIN or log_value == -math.inf:
        return f"{linear:.6g}"
    exponent10 = log_value / _LN10
    exponent = math.floor(exponent10)
    mantissa = 10.0 ** (exponent10 - exponent)
    if round(mantissa, 5) >= 10.0:
        mantissa /= 10.0
        exponent += 1
    return f"{mantissa:.6g}e{exponent:+03d}"


# an output line: ints print as str() prints them, as csv.writer does, the
# probabilities from _format_log, since they may lie below the normal range
_ROW = "%s,%s,%s,%s,%s,%s,%.6g,%.6g,%.6g,%s,%s,%s,%s,%s,%s,%s,%.6g,%d,%d,%d\n"
# characters in an id that csv.writer quotes, on one Python or another
_QUOTED = frozenset(',"\r\n\0')


def _format_row(rec: BatchRecord) -> str:
    """The package's one row formatter: one evaluated row as an output
    line.  An id that is not a str, or holds a character in _QUOTED, is
    written by csv.writer, so it is quoted as this Python quotes it."""
    r = rec.report
    t = r.table
    row_id = rec.row_id
    if type(row_id) is not str or not _QUOTED.isdisjoint(row_id):
        field = io.StringIO()
        csv.writer(field, lineterminator="\n").writerow((row_id, ""))
        row_id = field.getvalue()[:-2]
    ub1, ub2, ubk = r.ub1.raw_log, r.ub2.raw_log, r.ub_k.raw_log
    p_fisher = r.p_fisher
    return _ROW % (
        row_id, t.n, t.mx, t.ma, t.mxa, t.j, r.lift, r.leverage, r.odds_ratio,
        "" if p_fisher is None else _format_log(p_fisher.log_value),
        _format_log(0.0 if ub1 > 0.0 else ub1),
        _format_log(0.0 if ub2 > 0.0 else ub2),
        _format_log(0.0 if ubk > 0.0 else ubk),
        r.k_used, _format_log(r.log_error_bound), _format_log(r.chi2.log_p),
        r.chi2.min_expected, r.guarantee_ub1, r.guarantee_ub2,
        ub1 > 0.0 or ub2 > 0.0 or ubk > 0.0,
    )


def _write_results(write, reject_writer, results: Iterable[BatchRecord | Reject]):
    """The package's one row writer: each evaluated row to write, each
    reject to reject_writer (only counted when it is None).  Returns the
    rows written and the rejects per reason."""
    written = 0
    by_reason: dict[str, int] = {}
    for item in results:
        if isinstance(item, BatchRecord):
            write(_format_row(item))
            written += 1
        else:
            by_reason[item.reason] = by_reason.get(item.reason, 0) + 1
            if reject_writer is not None:
                reject_writer.writerow([item.row_id, item.reason, item.detail])
    return written, by_reason


def write_batch_csv(
    out: IO[str], results: Iterable[BatchRecord | Reject], rejects: IO[str] | None
) -> tuple[int, dict[str, int]]:
    """Write each result as it arrives, evaluated rows to out and rejects
    to rejects (only counted when it is None), each stream under its
    header.  Returns the rows written to out and the rejects per reason."""
    out.write(",".join(OUTPUT_HEADER) + "\n")
    reject_writer = None
    if rejects is not None:
        # csv defaults to CRLF; the output contract is LF
        reject_writer = csv.writer(rejects, lineterminator="\n")
        reject_writer.writerow(REJECT_HEADER)
    return _write_results(out.write, reject_writer, results)


def _evaluate_chunk(
    first_line_no: int,
    lines: list[str],
    k: int,
    negate: bool,
    include_exact: bool,
) -> tuple[str, str, int, dict[str, int]]:
    """One chunk of input lines, parsed, evaluated by run_batch and written
    as write_batch_csv writes them, without the headers: the output text,
    the rejects text, the rows written and the rejects per reason.  Worker
    processes run it on their chunks."""
    out, rejects = io.StringIO(), io.StringIO()
    written, by_reason = _write_results(
        out.write,
        csv.writer(rejects, lineterminator="\n"),
        run_batch(_parse_lines(first_line_no, lines), k, negate, include_exact),
    )
    return out.getvalue(), rejects.getvalue(), written, by_reason


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform can say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _end_with_parent() -> None:
    """Worker initializer: end this worker once the batch process is gone,
    however it ended, so that a killed run leaves no worker behind that
    waits for chunks forever."""
    import threading
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    def exit_once_the_parent_is_gone():
        wait([parent_process().sentinel])
        os._exit(1)

    threading.Thread(target=exit_once_the_parent_is_gone, daemon=True).start()


def _write_texts(out: IO[str], rejects: IO[str] | None, texts) -> tuple[int, dict[str, int]]:
    """Write chunk results in the order given; their rows and rejects summed."""
    written = 0
    by_reason: dict[str, int] = {}
    for text, reject_text, rows, reasons in texts:
        out.write(text)
        if rejects is not None:
            rejects.write(reject_text)
        written += rows
        for reason, count in reasons.items():
            by_reason[reason] = by_reason.get(reason, 0) + count
    return written, by_reason


def _in_order(pool, evaluate, chunks, window: int):
    """evaluate's results over chunks in input order, from the pool, with at
    most window chunks submitted and not yet yielded."""
    pending: deque = deque()
    for chunk in chunks:
        pending.append(pool.submit(evaluate, *chunk))
        if len(pending) == window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _write_chunks(
    out: IO[str],
    chunks: Iterator[tuple[int, list[str]]],
    rejects: IO[str] | None,
    k: int,
    negate: bool,
    include_exact: bool,
) -> tuple[int, dict[str, int]]:
    """The batch command's run: write_batch_csv's bytes for the rows of
    chunks (from _read_chunks), evaluated in-process when they are one
    chunk or one CPU is usable, else by one worker process per usable
    CPU, but no more workers than the chunks of the first window.  Every
    exit path, an error included, ends the workers first."""
    write_batch_csv(out, (), rejects)  # the headers
    evaluate = partial(_evaluate_chunk, k=k, negate=negate, include_exact=include_exact)
    workers = _usable_cpus()
    head = list(islice(chunks, 2 * workers))
    workers = min(workers, len(head))
    if workers < 2:
        return _write_texts(out, rejects, (evaluate(*c) for c in chain(head, chunks)))

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork starts each worker with the package loaded, where spawn would
    # import it again; the executor forks every worker before it starts
    # its own thread, so no thread is forked
    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_end_with_parent)
    try:
        return _write_texts(out, rejects, _in_order(pool, evaluate, chain(head, chunks), 2 * workers))
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a batch worker process ended abruptly: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)
