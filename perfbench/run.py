"""The repository benchmark: three seeded workloads, checked and timed.

    python3 perfbench/run.py --workload {screen,deep,mine} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from src/ without
installing it.  Every run generates its inputs from the seed, runs the
workload against the unmodified package, checks the outputs outside the
timed region, writes a result file with provenance under perfbench/out/
and prints the metrics, ending with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics in rounds until S seconds have
passed.  A round is one set-up probe (a fresh process that imports the
package and builds the engine for the largest table), then for screen
and deep one batch command (python3 -m fisherbounds batch), then one
fresh library process calling report(build_table(...)) over the valid
rows (on screen the first 2000, on deep only those with n <= 1e5, so
that most of the run goes to batch commands and each call is repeated
many times) for the workload's loop_seconds.  mine has no batch
command.  Every kind of sample is spread over the whole run, and each
metric takes the fastest repeat (stats.best_of for the calls), which
holds steady on a machine whose speed switches with its neighbours'
load; see perfbench/README.md.

--trace 1 measures the per-layer metrics instead: the batch command (or
the mine loop) with spans around the package's public functions,
alternating with untraced runs to state the tracing overhead.  See
perfbench/README.md for every metric and which layer should move it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field

import check
import generate
import spans
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_ROUNDS = 3
MIN_CALLS = 1000  # p99 needs ten samples beyond it
MIN_REPEATS = 3  # timed passes per best-of group, at least
BOUND_SAMPLE = 200  # oracle-range tables whose ubk is held against p_F


@dataclass(frozen=True)
class Workload:
    name: str
    exact: bool
    batch_args: tuple[str, ...] | None  # None: no batch command, library only
    rejects: bool = False
    loop_seconds: float = 2.0  # library loop time per round
    loop_max_n: int | None = None  # the library loop skips larger tables
    loop_rows: int | None = None  # and takes at most this many of the first


WORKLOADS = {
    "screen": Workload(
        "screen", exact=False, batch_args=("--no-exact",), rejects=True, loop_seconds=1.0, loop_rows=2000
    ),
    "deep": Workload("deep", exact=True, batch_args=(), loop_seconds=0.5, loop_max_n=100_000),
    "mine": Workload("mine", exact=True, batch_args=None),
}

END_TO_END = {
    "rows_per_s": "1/s",
    "calls_per_s": "1/s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    **{f"{name}.{part}": unit for name in spans.NAMES for part, unit in (("calls", "count"), ("self_s", "s"))},
    "exact.make_term_engine.calls_per_row": "calls/row",
    "exact.terms": "count",
    "exact.ns_per_term": "ns",
    "logfact.entries": "count",
    "logfact.bytes": "B",
    "batch.bytes_in": "B",
    "batch.bytes_out": "B",
    **{f"batch.rejects.{reason}": "count" for reason in generate.REASONS},
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead": "share",
    "trace.spans": "count",
    "trace.absent": "count",
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list[str], stdout_path: str, stderr_path: str) -> tuple[int, float, float]:
    """Run a process to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _child(*args: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "child.py"), *args]


def _reject_counts(rejects_text: str | None) -> dict[str, int]:
    counts = dict.fromkeys(generate.REASONS, 0)
    if rejects_text:
        for row in csv.DictReader(io.StringIO(rejects_text)):
            counts[row["reason"]] = counts.get(row["reason"], 0) + 1
    return counts


def machine_speed_ms() -> float:
    """Fastest of three runs of a fixed pure-Python kernel, in ms.

    It is the same work on every commit, so it tells a slow machine
    phase apart from a slow program in the result file.
    """
    exp, log = math.exp, math.log
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(1, 20_000):
            acc += log(i) - exp(-acc * 1e-9) / i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _provenance(seed: int) -> dict:
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
    }


@dataclass
class Run:
    """One benchmark run: its inputs, its output directory and its failures.

    Timed processes only record what they printed or returned; the first
    batch output and the first library results are checked once, by
    finish(), after the timed region.  A later process that returns
    anything else is failed whole, so each row or call counts at most once.
    """

    workload: Workload
    inputs: generate.Inputs
    out_dir: str
    seed: int
    oracle: check.Oracle = field(default_factory=check.Oracle)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    reference_batch: tuple[str, str | None] | None = None  # (output, rejects) of the first batch run
    batch_matches: int = 0  # batch runs that printed the reference bytes
    reference_calls: list | None = None  # results of the first library process
    call_errors: list = field(default_factory=list)  # what its raising calls raised
    call_matches: int = 0  # library passes that returned the reference results
    processes: int = 0

    def __post_init__(self):
        self.tables = self.inputs.valid_tables()
        limit = self.workload.loop_max_n
        self.loop_tables = [t for t in self.tables if limit is None or t[0] <= limit][: self.workload.loop_rows]
        in_range = sorted({t for t in self.tables if t[0] <= self.oracle.cap})
        sample = set(random.Random(f"check-{self.seed}").sample(in_range, min(BOUND_SAMPLE, len(in_range))))
        self.batch_sample = frozenset(
            rid for rid, fields in self.inputs.rows
            if self.inputs.expected[rid] is None and tuple(map(int, fields)) in sample
        )
        self.call_sample = frozenset(i for i, t in enumerate(self.loop_tables) if t in sample)
        self.input_path = self._path("input.csv")
        with open(self.input_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.inputs.csv_text())
        self.tables_path = self._path("tables.json")
        with open(self.tables_path, "w", encoding="utf-8") as fh:
            json.dump(self.loop_tables, fh)

    def _path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.failures.append(message)

    def setup_probe(self) -> dict | None:
        """Import plus engine build for the largest table, in a fresh process."""
        self.processes += 1
        stdout = self._path(f"setup{self.processes}.json")
        code, _, _ = _spawn(_child("setup", *map(str, max(self.tables))), stdout, stdout + ".err")
        if code != 0:
            self.fail(0, f"setup probe exited {code}: {_read(stdout + '.err')[-500:]}")
            return None
        return json.loads(_read(stdout))

    def loop(self, seconds: float, trace: bool = False) -> dict | None:
        """The library caller in a fresh process."""
        self.processes += 1
        result_path = self._path(f"loop{self.processes}.json")
        argv = _child("loop", self.tables_path, result_path, "--seconds", str(seconds))
        if self.workload.exact:
            argv.append("--exact")
        if trace:
            argv += ["--trace", self._path("loop-spans.json")]
        err = result_path + ".err"
        code, _, rss = _spawn(argv, result_path + ".out", err)
        if code != 0 or not os.path.exists(result_path):
            self.attempted += len(self.loop_tables)
            self.fail(len(self.loop_tables), f"library loop exited {code}: {_read(err)[-500:]}")
            return None
        res = json.loads(_read(result_path))
        res["peak_rss_mb"] = rss
        res["latencies_ns"] = array("q")
        with open(result_path + ".lat", "rb") as fh:
            res["latencies_ns"].frombytes(fh.read())
        os.remove(result_path + ".lat")
        self.attempted += res["calls"]
        results = res.pop("results")
        if self.reference_calls is None:
            self.reference_calls = results
            self.call_errors = res["failures"][:3]
        if results != self.reference_calls:
            self.fail(res["calls"], "library results differ from the first process's")
        else:
            mismatched = res["mismatched_passes"]
            if mismatched:
                self.fail(mismatched * len(self.loop_tables), f"{mismatched} passes differ from the first")
            self.call_matches += res["passes"] - mismatched
        return res

    def batch(self, mode: str = "plain") -> dict:
        """One batch command; mode 'plain' runs it as users do, 'launcher'
        and 'traced' run cli.main through child.py without or with spans."""
        self.processes += 1
        index = self.processes
        out_path = self._path(f"batch{index}.csv")
        rejects_path = self._path(f"rejects{index}.csv")
        cli_args = ["batch", self.input_path, "--out", out_path, *self.workload.batch_args]
        if self.workload.rejects:
            cli_args += ["--rejects", rejects_path]
        result_path = self._path(f"launch{index}.json")
        if mode == "plain":
            argv = [sys.executable, "-m", "fisherbounds", *cli_args]
        elif mode == "launcher":
            argv = _child("cli", result_path, "--", *cli_args)
        else:
            argv = _child("cli", result_path, "--trace", self._path("batch-spans.json"), "--", *cli_args)
        stderr_path = self._path(f"batch{index}.err")
        code, wall, rss = _spawn(argv, self._path(f"batch{index}.out"), stderr_path)
        rows = len(self.inputs.rows)
        self.attempted += rows
        run = {"wall_s": wall, "rows": rows, "peak_rss_mb": rss, "exit_code": code}
        if code != 0 or not os.path.exists(out_path):
            self.fail(rows, f"batch run {index} exited {code}: {_read(stderr_path)[-500:]}")
            return run
        out_text = _read(out_path)
        rejects_text = _read(rejects_path) if self.workload.rejects else None
        run["bytes_in"] = os.path.getsize(self.input_path)
        run["bytes_out"] = len(out_text.encode()) + len((rejects_text or "").encode())
        run["rejects_by_reason"] = _reject_counts(rejects_text)
        if mode != "plain":
            run.update(json.loads(_read(result_path)))
        first = self.reference_batch is None
        if first:
            self.reference_batch = (out_text, rejects_text)
        if (out_text, rejects_text) == self.reference_batch:
            self.batch_matches += 1
        else:
            self.fail(rows, f"batch run {index} printed other bytes than the first")
        if first:
            return run  # the first run's files stay for inspection
        os.remove(out_path)
        if self.workload.rejects:
            os.remove(rejects_path)
        return run

    def probe_subnormal(self) -> dict:
        """Known defect (e) on generate.SUBNORMAL_PROBE, after the timed region.

        One batch command with exact values on, checked like a workload's
        output.  The workloads keep such tables out (see generate.py), so
        what this finds is reported beside the metrics, not counted in
        failed.
        """
        inputs = generate.probe()
        csv_path, out_path = self._path("probe.csv"), self._path("probe-out.csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(inputs.csv_text())
        argv = [sys.executable, "-m", "fisherbounds", "batch", csv_path, "--out", out_path]
        code, _, _ = _spawn(argv, self._path("probe.out"), self._path("probe.err"))
        if code != 0 or not os.path.exists(out_path):
            failed = {"all": f"batch exited {code}: {_read(self._path('probe.err'))[-300:]}"}
        else:
            failed = check.check_batch(
                inputs, _read(out_path), None, True, self.oracle, frozenset(inputs.expected)
            )
        return {"rows": len(inputs.rows), "misprinted": len(failed), "failures": sorted(failed.items())}

    def finish(self) -> None:
        """Check the reference batch output and library results, after timing.

        Every run that repeated the reference repeats its failures too.
        """
        exact = self.workload.exact
        if self.reference_batch is not None:
            failed = check.check_batch(self.inputs, *self.reference_batch, exact, self.oracle, self.batch_sample)
            if failed:
                self.fail(
                    len(failed) * self.batch_matches,
                    f"{len(failed)} rows in each of {self.batch_matches} batch runs: {sorted(failed.items())[:5]}",
                )
        if self.reference_calls is not None:
            failed = check.check_calls(self.loop_tables, self.reference_calls, exact, self.oracle, self.call_sample)
            if failed:
                self.fail(
                    len(failed) * self.call_matches,
                    f"{len(failed)} calls in each of {self.call_matches} passes: {sorted(failed.items())[:5]}"
                    f" raised: {self.call_errors}",
                )


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    probes: list[dict] = []
    batches: list[dict] = []
    loops: list[dict] = []
    passes: list[array] = []
    calls = len(run.loop_tables)
    groups = stats.groups_for(calls, MIN_CALLS)
    speeds: list[float] = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or len(passes) < MIN_REPEATS * groups or time.perf_counter() < deadline:
        rounds += 1
        speeds.append(machine_speed_ms())
        probe = run.setup_probe()
        if probe:
            probes.append(probe)
        if run.workload.batch_args is not None:
            batches.append(run.batch())
        loop = run.loop(run.workload.loop_seconds)
        if loop is None:
            break
        loops.append(loop)
        latencies = loop.pop("latencies_ns")
        passes += [latencies[k:k + calls] for k in range(0, len(latencies), calls)]

    values: dict[str, float] = {}
    details: dict = {
        "rounds": rounds,
        "machine_speed_ms": {"best": min(speeds), "median": statistics.median(speeds)},
        "setup_probes": probes,
        "batch_runs": batches,
        "loops": loops,
    }
    if probes:
        values["setup_s"] = min(p["setup_s"] for p in probes)
    try:
        # the rate and p50 take each call's best over every pass; p99
        # needs 1000 samples, so on deep it takes the best per group
        best = stats.best_of(passes, 1)
        p50 = stats.percentile(best, 50)
        p99 = stats.percentile(stats.best_of(passes, groups) if groups > 1 else best, 99)
    except ValueError as exc:
        run.fail(0, f"call latencies: {exc}")
    else:
        values["calls_per_s"] = len(best) / (sum(best) / 1e9)
        values["call_p50_us"] = p50.value / 1e3
        values["call_p99_us"] = p99.value / 1e3
        details["call_passes"] = len(passes)
        details["call_groups"] = groups
        details["call_p50_samples"] = p50.samples
        details["call_p50_beyond"] = p50.beyond
        details["call_p99_samples"] = p99.samples
        details["call_p99_beyond"] = p99.beyond
    ok = [b for b in batches if b["exit_code"] == 0]
    if run.workload.batch_args is None:
        # mine has no batch command: its rows are its calls
        if "calls_per_s" in values:
            values["rows_per_s"] = values["calls_per_s"]
        if loops:
            values["peak_rss_mb"] = statistics.median(loop["peak_rss_mb"] for loop in loops)
    elif ok:
        values["rows_per_s"] = max(b["rows"] / b["wall_s"] for b in ok)
        values["peak_rss_mb"] = statistics.median(b["peak_rss_mb"] for b in ok)
    return values, details


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    probes = [p for p in (run.setup_probe() for _ in range(MIN_ROUNDS)) if p]
    details: dict = {"setup_probes": probes}
    bytes_in = bytes_out = 0
    rejects = _reject_counts(None)
    if run.workload.batch_args is not None:
        traced: list[dict] = []
        untraced: list[dict] = []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(run.batch("launcher"))
            traced.append(run.batch("traced"))
        runs = [r for r in traced if "trace" in r]
        summaries = [r["trace"] for r in runs]
        passes = len(runs)
        traced_wall = sum(r["wall_s"] for r in runs)
        untraced_wall = sum(r["wall_s"] for r in untraced if "import_s" in r)
        rows_per_pass = len(run.inputs.rows)
        if runs:
            bytes_in, bytes_out = runs[0]["bytes_in"], runs[0]["bytes_out"]
            rejects = runs[0]["rejects_by_reason"]
        details["batch_runs"] = traced + untraced
    else:
        loop = run.loop(seconds, trace=True)
        summaries = [loop["trace"]] if loop else []
        passes = loop["passes"] if loop else 0
        traced_wall = loop["wall_s"] if loop else 0.0
        untraced_wall = loop["untraced_wall_s"] if loop else 0.0
        rows_per_pass = len(run.loop_tables)
        if loop:
            loop.pop("latencies_ns")
            details["loop"] = loop

    values: dict[str, float] = {}
    per = max(passes, 1)
    for name in spans.NAMES:
        values[f"{name}.calls"] = sum(s["functions"][name]["calls"] for s in summaries) / per
        values[f"{name}.self_s"] = sum(s["functions"][name]["self_s"] for s in summaries) / per
    terms = sum(s["terms"] for s in summaries) / per
    fisher_self = values["exact.exact_fisher.self_s"]
    entries = max((s["log_factorial_entries"] for s in summaries), default=0)
    values.update(
        {
            "exact.make_term_engine.calls_per_row": values["exact.make_term_engine.calls"] / rows_per_pass,
            "exact.terms": terms,
            "exact.ns_per_term": fisher_self / terms * 1e9 if terms else 0.0,
            "logfact.entries": entries,
            "logfact.bytes": 8 * entries,
            "batch.bytes_in": bytes_in,
            "batch.bytes_out": bytes_out,
            "cli.import_s": statistics.median(p["cli_import_s"] for p in probes) if probes else 0.0,
            "trace.wall_s": traced_wall / per,
            "trace.untraced_s": sum(s["untraced_s"] for s in summaries) / per,
            "trace.overhead": traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
            "trace.spans": sum(s["spans"] for s in summaries) / per,
            "trace.absent": max((len(s["absent"]) for s in summaries), default=0),
        }
    )
    for reason, count in rejects.items():
        values[f"batch.rejects.{reason}"] = count
    details["absent"] = sorted({a for s in summaries for a in s["absent"]})
    details["traced_passes"] = passes
    return values, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that _spawn kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "fisherbounds", "__init__.py")):
        print(f"error: no package at {os.path.join(SRC, 'fisherbounds')}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    provenance = _provenance(args.seed)
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(HERE, "out", label)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    run = Run(workload, generate.GENERATORS[workload.name](args.seed), out_dir, args.seed)
    measure = per_layer if args.trace else end_to_end
    values, details = measure(run, args.seconds)
    run.finish()
    os.remove(run.tables_path)
    probe = run.probe_subnormal()

    names = PER_LAYER if args.trace else END_TO_END
    missing = [n for n in names if n not in values]
    if missing:
        run.fail(0, f"metrics not measured: {missing}")
    correct = run.failed == 0 and not run.failures
    attempted = max(run.attempted, 1)
    metrics = {n: {"value": values.get(n, 0.0), "unit": names[n]} for n in names}

    provenance["loadavg_end"] = os.getloadavg()
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance,
        "correct": correct,
        "attempted": attempted,
        "failed": run.failed,
        "failed_share": run.failed / attempted,
        "failures": run.failures[:20],
        "known_defect_e_probe": probe,
        "metrics": metrics,
        "details": details,
    }
    result_path = os.path.join(HERE, "out", f"{label}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}, {args.seconds:g} s")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if "call_p50_samples" in details:
        print(
            f"  call p50 from {details['call_p50_samples']} samples ({details['call_p50_beyond']} beyond it),"
            f" p99 from {details['call_p99_samples']} ({details['call_p99_beyond']} beyond it)"
        )
    if details.get("absent"):
        print(f"  absent (no longer in the package): {', '.join(details['absent'])}")
    print(f"  failed_share {record['failed_share']:.6g} ({run.failed} of {attempted})")
    print(
        f"  known defect (e), subnormal p-values: {probe['misprinted']} of {probe['rows']} probe rows"
        " print wrong digits (reported here, not counted in failed)"
    )
    for message in run.failures[:5]:
        print(f"  FAILED: {message}")
    print(f"  result file: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
