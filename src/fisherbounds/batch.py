"""CSV batch evaluation with deterministic order and formatting.

Input rows carry the header id,n,mx,ma,mxa.  Each valid row becomes one
output row; invalid rows go to a rejects stream with a reason code, and
every input row lands in exactly one of the two.  Floats print with six
significant digits, so batch output is a pure function of batch input.

The library path (read_table_csv, run_batch, write_batch_csv) is one
lazy pass, row by row.  The batch command reads the input in chunks of
CHUNK_LINES raw lines, each evaluated and formatted to text by
_evaluate_chunk.  An input of one chunk is evaluated in-process; a
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

    The header is checked at the call; the rows are read as they are
    consumed, and each line is parsed as _parse_lines parses it.
    """
    return (row for first, lines in _input_chunks(path) for row in _parse_lines(first, lines))


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
    lines after it; a line the csv module cannot split comes with no
    fields.  A row without an id gets line<N>.
    """
    for line_no, line in enumerate(lines, first_line_no):
        row = _split_line(line)
        if row is None:
            yield f"line{line_no}", []
        elif any(f.strip() for f in row):
            yield row[0].strip() or f"line{line_no}", [f.strip() for f in row[1:]]


def _read_chunks(path: str):
    """The header names, stripped and lower-cased, then the lines after it
    as (first line number, up to CHUNK_LINES raw lines) chunks, lazily.

    A byte-order mark is dropped and bytes that are not UTF-8 read as
    U+FFFD.
    """
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
        yield tuple(h.strip().lower() for h in _split_line(fh.readline()) or ())
        line_no = 2
        while lines := list(islice(fh, CHUNK_LINES)):
            yield line_no, lines
            line_no += len(lines)


def _input_chunks(path: str) -> Iterator[tuple[int, list[str]]]:
    """The chunks of an id,n,mx,ma,mxa file; the header is checked at the call."""
    chunks = _read_chunks(path)
    if next(chunks) != INPUT_HEADER:
        raise ValueError(f"expected header {','.join(INPUT_HEADER)!r} in {path}")
    return chunks


def _read_rows(path: str):
    """The package's one CSV reader: the header names, then (id, fields)
    for each line, as _read_chunks and _parse_lines read them."""
    chunks = _read_chunks(path)
    yield next(chunks)
    for first, lines in chunks:
        yield from _parse_lines(first, lines)


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
    if linear >= _DOUBLE_MIN or log_value == -math.inf:
        return f"{linear:.6g}"
    exponent10 = log_value / _LN10
    exponent = math.floor(exponent10)
    mantissa = 10.0 ** (exponent10 - exponent)
    if round(mantissa, 5) >= 10.0:
        mantissa /= 10.0
        exponent += 1
    return f"{mantissa:.6g}e{exponent:+03d}"


def _output_row(rec: BatchRecord) -> list[str | int]:
    """One output row; csv.writer prints the ints as str() would."""
    r = rec.report
    t = r.table
    chi2 = r.chi2
    p_fisher = r.p_fisher
    return [
        rec.row_id,
        t.n,
        t.mx,
        t.ma,
        t.mxa,
        t.j,
        format_float(r.lift),
        format_float(r.leverage),
        format_float(r.odds_ratio),
        format_pvalue(p_fisher) if p_fisher is not None else "",
        format_pvalue(r.ub1),
        format_pvalue(r.ub2),
        format_pvalue(r.ub_k),
        r.k_used,
        _format_log(r.log_error_bound),
        _format_log(chi2.log_p),
        format_float(chi2.min_expected),
        int(r.guarantee_ub1),
        int(r.guarantee_ub2),
        int(r.clamped),
    ]


def _write_results(writer, reject_writer, results: Iterable[BatchRecord | Reject]):
    """The package's one row writer: each evaluated row to writer, each
    reject to reject_writer (only counted when it is None).  Returns the
    rows written and the rejects per reason."""
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
    return _write_results(writer, reject_writer, results)


def _evaluate_chunk(
    first_line_no: int,
    lines: list[str],
    k: int,
    negate: bool,
    include_exact: bool,
    with_rejects: bool,
) -> tuple[str, str | None, int, dict[str, int]]:
    """One chunk of input lines, parsed, evaluated and written as
    write_batch_csv writes them, without the headers: the output text,
    the rejects text (None without with_rejects), the rows written and
    the rejects per reason.  Worker processes run it on their chunks."""
    out = io.StringIO()
    rejects = io.StringIO() if with_rejects else None
    reject_writer = None if rejects is None else csv.writer(rejects, lineterminator="\n")
    written, by_reason = _write_results(
        csv.writer(out, lineterminator="\n"),
        reject_writer,
        (_evaluate(rid, f, k, negate, include_exact) for rid, f in _parse_lines(first_line_no, lines)),
    )
    return out.getvalue(), None if rejects is None else rejects.getvalue(), written, by_reason


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
    chunks (from _input_chunks), evaluated in-process when they are one
    chunk or one CPU is usable, else by one worker process per usable
    CPU, but no more workers than the chunks of the first window.  Every
    exit path, an error included, ends the workers first."""
    write_batch_csv(out, (), rejects)  # the headers
    evaluate = partial(
        _evaluate_chunk,
        k=k,
        negate=negate,
        include_exact=include_exact,
        with_rejects=rejects is not None,
    )
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
