"""Command-line interface.

Subcommands: eval (one table), batch (CSV in, CSV out), sweep (overlap
range, CSV out), reproduce-tables (check against the embedded
reference grid), rank-agreement (compare orderings from a batch file),
bench (O(1) bounds vs O(J) exact timing).

Each handler imports the modules only it uses, so a command loads
nothing it does not run.

Exit codes: 0 success (also when stdout's reader has gone), 1 usage
error, 2 validation or data failure, 3 reference-grid check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from itertools import combinations
from typing import Sequence

from . import __version__
from .batch import INPUT_HEADER, _format_log, _read_chunks, _write_chunks, format_float, format_pvalue
from .bounds import _require_extra_k, _require_k, report
from .contingency import _smallest_admissible, build_table, negate_consequent
from .errors import NegativeDependency

__all__ = ["main", "entry", "EXIT_OK", "EXIT_USAGE", "EXIT_DATA", "EXIT_REPRODUCTION"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REPRODUCTION = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    """A finite number >= 0; nan would fail every check and inf pass every one."""
    value = float(text)
    if 0.0 <= value < math.inf:
        return value
    raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fisherbounds",
        description=(
            "Exact one-sided dependency p-values for 2x2 contingency tables"
            " and constant-time upper bounds with error guarantees."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a single table")
    for name in ("n", "mx", "ma", "mxa"):
        p_eval.add_argument(name, type=int)
    p_eval.add_argument("--k", type=int, default=3, help="exact leading terms (>= 3)")
    p_eval.add_argument(
        "--negate", action="store_true", help="evaluate the negated consequent"
    )
    p_eval.add_argument(
        "--no-exact", action="store_true", help="skip the exact evaluation"
    )
    p_eval.set_defaults(handler=_cmd_eval)

    p_batch = sub.add_parser("batch", help="evaluate a CSV of tables")
    p_batch.add_argument("input", help="CSV with header id,n,mx,ma,mxa")
    p_batch.add_argument("--k", type=int, default=3)
    p_batch.add_argument("--negate", action="store_true")
    p_batch.add_argument("--no-exact", action="store_true")
    p_batch.add_argument("--out", help="output CSV path (default stdout)")
    p_batch.add_argument("--rejects", help="rejected-rows CSV path")
    p_batch.set_defaults(handler=_cmd_batch)

    p_sweep = sub.add_parser("sweep", help="evaluate a range of overlap counts")
    for name in ("n", "mx", "ma", "mxa_lo", "mxa_hi"):
        p_sweep.add_argument(name, type=int)
    p_sweep.add_argument(
        "--k", type=int, default=3, help="extra bound order (>= 3) to tabulate"
    )
    p_sweep.add_argument("--no-exact", action="store_true")
    p_sweep.add_argument("--out", help="output CSV path (default stdout)")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_repro = sub.add_parser(
        "reproduce-tables", help="check computed values against the reference grid"
    )
    p_repro.add_argument(
        "--case", type=int, choices=(1, 2, 3), help="restrict to one margin case"
    )
    p_repro.add_argument(
        "--tolerance", type=_tolerance, help="override every per-column tolerance"
    )
    p_repro.set_defaults(handler=_cmd_reproduce)

    p_rank = sub.add_parser(
        "rank-agreement", help="compare rule orderings from a batch output file"
    )
    p_rank.add_argument("input", help="batch output CSV (needs p_fisher values)")
    p_rank.add_argument("--top", type=int, default=100, help="top-set size")
    p_rank.set_defaults(handler=_cmd_rank_agreement)

    p_bench = sub.add_parser("bench", help="time the bounds against the exact tail")
    p_bench.add_argument("--sizes", help="comma-separated data sizes")
    p_bench.add_argument("--reps", type=int)
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def _open_csv(path: str | None, default):
    if path is None:
        return contextlib.nullcontext(default)
    # newline="" keeps the csv module's LF terminators untranslated
    return open(path, "w", encoding="utf-8", newline="")


def _cmd_eval(args) -> int:
    _require_extra_k(args.k)
    t = build_table(args.n, args.mx, args.ma, args.mxa)
    if args.negate:
        t = negate_consequent(t)
    try:
        rep = report(t, k=args.k, include_exact=not args.no_exact)
    except NegativeDependency:
        lo = _smallest_admissible(t)
        if args.negate:
            # the hint names the mxa the user typed: the negated table's
            # overlap mx - mxa must reach its own smallest admissible value
            hint = f"no positive dependency in the negated table at mxa={args.mxa};"
            hint += f" largest admissible mxa is {t.mx - lo}; a run without --negate"
        else:
            hint = f"no positive dependency at mxa={t.mxa}; smallest admissible mxa is {lo}; --negate"
        raise NegativeDependency(f"{hint} tests the opposite direction") from None
    lines = [
        ("n", str(t.n)),
        ("mx", str(t.mx)),
        ("ma", str(t.ma)),
        ("mxa", str(t.mxa)),
        ("j", str(t.j)),
        ("terms", str(rep.terms)),
        ("lift", format_float(rep.lift)),
        ("leverage", format_float(rep.leverage)),
        ("odds", format_float(rep.odds_ratio)),
    ]
    if rep.p_fisher is not None:
        lines.append(("p_fisher", format_pvalue(rep.p_fisher)))
        lines.append(("terms_summed", str(rep.p_fisher.terms_evaluated)))
    lines += [
        ("ub1", format_pvalue(rep.ub1)),
        ("ub2", format_pvalue(rep.ub2)),
        (f"ub{rep.k_used}", format_pvalue(rep.ub_k)),
        ("err_bound_ub2", _format_log(rep.log_error_bound_ub2)),
        (f"err_bound_ub{rep.k_used}", _format_log(rep.log_error_bound)),
        ("chi2_p", _format_log(rep.chi2.log_p)),
        ("chi2_stat", format_float(rep.chi2.statistic)),
        ("min_expected", format_float(rep.chi2.min_expected)),
        ("rule_of_thumb_ok", str(rep.chi2.rule_of_thumb_ok).lower()),
        ("guarantee_ub1", str(rep.guarantee_ub1).lower()),
        ("guarantee_ub2", str(rep.guarantee_ub2).lower()),
        ("clamped", str(rep.clamped).lower()),
    ]
    for key, value in lines:
        print(f"{key} = {value}")
    return EXIT_OK


def _same_file(a: str, b: str) -> bool:
    """Two paths to one regular file, or one path where either is not there."""
    try:
        return os.path.samefile(a, b) and os.path.isfile(a)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _cmd_batch(args) -> int:
    # the paths, the input, its header and k are checked before any output
    # file exists, so a refused run touches no file
    paths = (("the input", args.input), ("--out", args.out), ("--rejects", args.rejects))
    for (name_a, a), (name_b, b) in combinations(paths, 2):
        if a and b and _same_file(a, b):
            raise ValueError(f"{name_a} and {name_b} are the same file: {b}")
    chunks = _read_chunks(args.input, INPUT_HEADER)
    _require_k(args.k)
    with _open_csv(args.out, sys.stdout) as out, _open_csv(args.rejects, None) as rejects:
        written, by_reason = _write_chunks(
            out, chunks, rejects, k=args.k, negate=args.negate, include_exact=not args.no_exact
        )
    if by_reason and not args.rejects:
        rejected = sum(by_reason.values())
        detail = ", ".join(f"{reason}={count}" for reason, count in sorted(by_reason.items()))
        print(
            f"rejected {rejected} of {written + rejected} rows ({detail});"
            " use --rejects to capture them",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .sweep import SweepSpec, _reports, write_sweep_csv

    spec = SweepSpec(
        args.n,
        args.mx,
        args.ma,
        args.mxa_lo,
        args.mxa_hi,
        k=args.k,
        include_exact=not args.no_exact,
    )
    with _open_csv(args.out, sys.stdout) as out:
        write_sweep_csv(out, spec, _reports(spec))
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    from .reftables import STATUS_ANNOTATED, STATUS_FAIL, check_rows

    checks = check_rows(tolerance=args.tolerance, case=args.case)
    failed = 0
    annotated = 0
    for c in checks:
        t = c.row
        line = (
            f"n={t.n} mx={t.mx} ma={t.ma} mxa={t.mxa} {c.column}:"
            f" computed={c.computed:.8g} recorded={c.recorded:g} {c.status}"
        )
        if c.note:
            line += f"  ({c.note})"
        print(line)
        if c.status == STATUS_FAIL:
            failed += 1
        elif c.status == STATUS_ANNOTATED:
            annotated += 1
    rows = len(checks) // 5
    print(
        f"{rows} rows, {len(checks)} cells:"
        f" {len(checks) - failed - annotated} PASS, {annotated} ANNOTATED,"
        f" {failed} FAIL"
    )
    return EXIT_REPRODUCTION if failed else EXIT_OK


def _cmd_rank_agreement(args) -> int:
    from .ranking import rank_agreement, rows_from_batch_csv

    rows = rows_from_batch_csv(args.input)
    agreement = rank_agreement(rows, args.top)
    print(f"rows = {agreement.row_count}")
    print(f"top_k = {agreement.top_k}")
    for p in agreement.pairs:
        print(
            f"{p.measure_a} vs {p.measure_b}:"
            f" top_overlap = {p.top_overlap:.4f}, spearman = {p.spearman:.6f}"
        )
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .bench import DEFAULT_REPETITIONS, DEFAULT_SIZES, MEASURE_NAMES, run_bench
    from .bench import bounds_flat_within, exact_grows, large_scale_terms

    sizes = DEFAULT_SIZES
    if args.sizes is not None:
        try:
            sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
        except ValueError:
            raise ValueError(f"--sizes expects comma-separated integers, got {args.sizes!r}")
    reps = DEFAULT_REPETITIONS if args.reps is None else args.reps
    try:
        results = run_bench(sizes, reps)
    except ValueError as exc:  # a size without a benchmark table
        raise ValueError(f"--sizes: {exc}") from None
    if not results:
        return EXIT_OK
    header = f"{'n':>10} {'j':>8} {'terms':>8}" + "".join(
        f" {name:>12}" for name in MEASURE_NAMES
    )
    print(header)
    for r in results:
        cells = "".join(f" {r.seconds_per_call[name]:>12.3e}" for name in MEASURE_NAMES)
        print(f"{r.n:>10} {r.j:>8} {r.terms:>8}{cells}")
    print(f"exact terms for the n=1000000 benchmark shape: {large_scale_terms()}")
    if len(results) < 2:
        return EXIT_OK
    flat = bounds_flat_within(results)
    grows = exact_grows(results)
    print(f"bounds J-independent within 2x: {'yes' if flat else 'NO'}")
    print(f"exact time grows with J: {'yes' if grows else 'NO'}")
    return EXIT_OK if flat and grows else EXIT_DATA


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader has gone, as under `| head`: point stdout at the
        # null device so the exit-time flush cannot fail again, and end quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
