"""Programs the benchmark starts as fresh processes.

    python3 child.py setup N MX MA MXA
        Import fisherbounds and build the term engine for one table,
        timing both from inside the process.
    python3 child.py loop TABLES.json RESULT.json --seconds S [--exact] [--trace SPANS.json]
        The library caller: report(build_table(...)) once per table, in
        complete passes over the list, until S seconds have passed (at
        least one pass) or MAX_CALLS calls were timed.  Call latencies go
        to RESULT.json.lat as native 64-bit integers (ns), one per call
        of every pass, failed calls included.
        With --trace, untraced and traced passes alternate.
    python3 child.py cli RESULT.json [--trace SPANS.json] -- BATCH ARGS...
        Run cli.main on the arguments, with or without the spans.

fisherbounds must be importable (the caller sets PYTHONPATH); every
program writes its measurements as JSON to RESULT.json or stdout.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter, perf_counter_ns

import spans

# latency samples live in a preallocated array, so the worker's peak RSS
# does not grow with the number of calls a faster program fits in a run
MAX_CALLS = 100_000
# a traced loop stops adding passes here to bound the spans held in memory
MAX_SPANS = 400_000
K = 3


def _setup(argv: list[str]) -> None:
    t0 = perf_counter()
    import fisherbounds

    t1 = perf_counter()
    fisherbounds.make_term_engine(fisherbounds.build_table(*(int(a) for a in argv)))
    t2 = perf_counter()
    import fisherbounds.cli  # noqa: F401  (the rest of what a CLI process imports)

    t3 = perf_counter()
    print(json.dumps({"setup_s": t2 - t0, "cli_import_s": (t1 - t0) + (t3 - t2)}))


def _keys(rep) -> list:
    p = rep.p_fisher
    return [
        None if p is None else p.raw_log,
        rep.ub1.raw_log,
        rep.ub2.raw_log,
        rep.ub_k.raw_log,
        rep.k_used,
    ]


def _pass(fb, tables, exact, latencies, failures):
    """One timed pass; returns (wall seconds, reports in order)."""
    build_table = fb.build_table
    report = fb.report
    out = []
    start = perf_counter()
    for i, (n, mx, ma, mxa) in enumerate(tables):
        t = perf_counter_ns()
        try:
            rep = report(build_table(n, mx, ma, mxa), k=K, include_exact=exact)
        except Exception as exc:  # a failed call is counted, not fatal
            failures.append([i, f"{type(exc).__name__}: {exc}"])
            rep = None
        latencies.append(perf_counter_ns() - t)
        out.append(rep)
    return perf_counter() - start, out


def _loop(argv: list[str]) -> None:
    import argparse

    parser = argparse.ArgumentParser(prog="child.py loop")
    parser.add_argument("tables")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--exact", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    with open(args.tables, encoding="utf-8") as fh:
        tables = [tuple(t) for t in json.load(fh)]

    t0 = perf_counter()
    import fisherbounds as fb

    # the warm-up a mining loop pays once: the table for its largest n
    fb.make_term_engine(fb.build_table(*max(tables)))
    setup_s = perf_counter() - t0

    latencies = array("q", bytes(8 * MAX_CALLS))
    timed = 0
    failures: list = []
    first = None
    mismatched = 0
    walls: list[float] = []
    untraced_walls: list[float] = []
    recorder = None
    deadline = perf_counter() + args.seconds
    while True:
        if args.trace:
            if recorder is None:
                recorder = spans.Recorder()
            recorder.uninstall()
            wall, _ = _pass(fb, tables, args.exact, [], failures)
            untraced_walls.append(wall)
            recorder.install()
        pass_latencies: list[int] = []
        wall, reps = _pass(fb, tables, args.exact, pass_latencies, failures)
        latencies[timed:timed + len(pass_latencies)] = array("q", pass_latencies)
        timed += len(pass_latencies)
        walls.append(wall)
        keys = [None if r is None else _keys(r) for r in reps]
        if first is None:
            first = keys
        elif keys != first:
            mismatched += 1
        if timed + len(tables) > MAX_CALLS or (recorder and len(recorder.spans) > MAX_SPANS):
            break
        if perf_counter() >= deadline:
            break

    result = {
        "setup_s": setup_s,
        "passes": len(walls),
        "calls": len(walls) * len(tables),
        "wall_s": sum(walls),
        "pass_walls": walls,
        "failures": failures,
        "mismatched_passes": mismatched,
        "results": first,
    }
    if recorder is not None:
        recorder.uninstall()
        result["untraced_wall_s"] = sum(untraced_walls)
        result["trace"] = recorder.summary(sum(walls))
        result["trace"]["log_factorial_entries"] = spans.log_factorial_entries()
        recorder.write_spans(args.trace)
    with open(args.result + ".lat", "wb") as fh:
        latencies[:timed].tofile(fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _cli(argv: list[str]) -> None:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    result_path = opts[0]
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    t0 = perf_counter()
    import fisherbounds.cli

    import_s = perf_counter() - t0
    recorder = None
    if spans_path:
        recorder = spans.Recorder()
        recorder.install()
    t1 = perf_counter()
    code = fisherbounds.cli.main(cli_args)
    wall_s = perf_counter() - t1

    result = {"exit_code": code, "import_s": import_s, "wall_s": wall_s}
    if recorder is not None:
        recorder.uninstall()
        result["trace"] = recorder.summary(wall_s)
        result["trace"]["log_factorial_entries"] = spans.log_factorial_entries()
        recorder.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    sys.exit(code)


if __name__ == "__main__":
    {"setup": _setup, "loop": _loop, "cli": _cli}[sys.argv[1]](sys.argv[2:])
