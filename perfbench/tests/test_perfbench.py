"""Tests of the benchmark itself: generators, output check, percentiles, spans.

Run with: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

from fisherbounds import run_batch, write_batch_csv, write_rejects_csv  # noqa: E402


@pytest.mark.parametrize("name", sorted(generate.GENERATORS))
def test_generators_are_deterministic(name):
    make = generate.GENERATORS[name]
    a, b, c = make(7), make(7), make(8)
    assert a.csv_text() == b.csv_text()
    assert a.expected == b.expected
    assert a.csv_text() != c.csv_text()
    assert [rid for rid, _ in a.rows] == list(a.expected)


def test_screen_rejects_every_reason_and_stays_small():
    inputs = generate.screen(3)
    reasons = [r for r in inputs.expected.values() if r is not None]
    assert set(reasons) == set(generate.REASONS)
    assert 0.01 < len(reasons) / len(inputs.rows) < 0.05
    assert max(t[0] for t in inputs.valid_tables()) <= generate.SCREEN_MAX_N


def test_deep_comes_in_ascending_n():
    tables = generate.deep(5).valid_tables()
    assert [t[0] for t in tables] == sorted(t[0] for t in tables)


@pytest.mark.parametrize("name", ["screen", "deep"])
def test_printing_workloads_keep_out_of_the_subnormal_band(name):
    assert not any(generate.prints_subnormal(*t) for t in generate.GENERATORS[name](11).valid_tables())


def test_subnormal_band_test_sees_the_probe_and_ordinary_tables():
    assert all(generate.prints_subnormal(*t) for t in generate.SUBNORMAL_PROBE)
    assert not generate.prints_subnormal(1000, 200, 250, 60)  # p_F = 0.043
    assert not generate.prints_subnormal(5000, 2500, 2500, 2400)  # p_F about 5e-1142


def test_probe_reports_the_subnormal_defect_without_failing_the_run(tmp_path):
    run_ = run.Run(run.WORKLOADS["screen"], _small_inputs(), str(tmp_path), seed=1)
    probe = run_.probe_subnormal()
    assert probe["rows"] == len(generate.SUBNORMAL_PROBE)
    assert probe["misprinted"] == 3  # known defect (e); 0 once it is fixed
    assert all("oracle" in message for _, message in probe["failures"])
    assert run_.failed == 0 and not run_.failures


def _small_inputs():
    rows = [
        ("a", ("1000", "200", "250", "60")),
        ("b", ("5000", "2500", "2500", "1600")),
        ("c", ("100", "40", "40", "10")),
        ("d", ("100", "40", "40", "41")),
        ("e", ("100", "0", "40", "0")),
        ("f", ("100", "x", "40", "1")),
        ("g", ("5000", "2500", "2500", "2400")),
    ]
    expected = {
        "a": None,
        "b": None,
        "c": generate.NONPOSITIVE_DEPENDENCY,
        "d": generate.MARGIN_VIOLATION,
        "e": generate.DEGENERATE_MARGIN,
        "f": generate.BAD_ROW,
        "g": None,
    }
    return generate.Inputs(rows, expected)


def _batch_output(inputs, exact=True):
    results = run_batch(inputs.rows, include_exact=exact)
    out, rejects = io.StringIO(), io.StringIO()
    write_batch_csv(out, results)
    write_rejects_csv(rejects, results)
    return out.getvalue(), rejects.getvalue()


def test_check_accepts_correct_output():
    inputs = _small_inputs()
    out, rejects = _batch_output(inputs)
    assert check.check_batch(inputs, out, rejects, True, check.Oracle()) == {}
    out, rejects = _batch_output(inputs, exact=False)
    assert check.check_batch(inputs, out, rejects, False, check.Oracle()) == {}


def test_check_catches_corrupted_value():
    inputs = _small_inputs()
    out, rejects = _batch_output(inputs)
    lines = out.splitlines(keepends=True)
    fields = lines[1].split(",")
    column = lines[0].split(",").index("p_fisher")
    fields[column] = "0.0428804"  # printed value is 0.0428803
    lines[1] = ",".join(fields)
    failed = check.check_batch(inputs, "".join(lines), rejects, True, check.Oracle())
    assert list(failed) == ["a"]
    assert "oracle" in failed["a"]


def test_check_catches_broken_ordering():
    inputs = _small_inputs()
    out, rejects = _batch_output(inputs, exact=False)
    header = out.splitlines()[0].split(",")
    lines = out.splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[header.index("ub1")] = "1e-90"
    lines[2] = ",".join(fields)
    failed = check.check_batch(inputs, "".join(lines), rejects, False, check.Oracle())
    assert list(failed) == ["b"]


def test_check_catches_wrong_bounds_still_in_order():
    inputs = _small_inputs()
    out, rejects = _batch_output(inputs, exact=False)
    header = out.splitlines()[0].split(",")
    lines = out.splitlines(keepends=True)
    fields = lines[1].split(",")
    for column in ("ubk", "ub2", "ub1"):
        fields[header.index(column)] = "1e-30"  # p_F is 0.0428803
    lines[1] = ",".join(fields)
    corrupted = "".join(lines)
    assert check.check_batch(inputs, corrupted, rejects, False, check.Oracle()) == {}
    failed = check.check_batch(inputs, corrupted, rejects, False, check.Oracle(), frozenset({"a", "b"}))
    assert list(failed) == ["a"]
    assert "below the oracle" in failed["a"]


def test_failures_count_each_row_once(tmp_path):
    inputs = _small_inputs()
    out, rejects = _batch_output(inputs, exact=False)
    run_ = run.Run(run.WORKLOADS["screen"], inputs, str(tmp_path), seed=1)
    assert run_.batch_sample == {"a", "b", "g"}
    run_.reference_batch = (out.replace("\na,", "\nz,"), rejects)  # row a missing, z unknown
    run_.batch_matches = 3
    run_.finish()
    assert run_.failed == 2 * 3


def test_check_catches_missing_row_and_wrong_reason():
    inputs = _small_inputs()
    out, rejects = _batch_output(inputs)
    out = "".join(line for line in out.splitlines(keepends=True) if not line.startswith("g,"))
    rejects = rejects.replace("d,MARGIN_VIOLATION", "d,BAD_ROW")
    failed = check.check_batch(inputs, out, rejects, True, check.Oracle())
    assert set(failed) == {"d", "g"}
    assert "missing" in failed["g"]
    assert "expected MARGIN_VIOLATION" in failed["d"]


def test_check_calls_catches_corrupted_value():
    tables = [(1000, 200, 250, 60), (5000, 2500, 2500, 1600)]
    oracle = check.Oracle()
    from fisherbounds import build_table, report

    good = []
    for t in tables:
        r = report(build_table(*t))
        good.append([r.p_fisher.raw_log, r.ub1.raw_log, r.ub2.raw_log, r.ub_k.raw_log, r.k_used])
    assert check.check_calls(tables, good, True, oracle) == {}
    collapsed = [[None, -70.0, -70.0, -70.0, 3] for _ in good]
    assert check.check_calls(tables, collapsed, False, oracle) == {}
    assert list(check.check_calls(tables, collapsed, False, oracle, frozenset({0}))) == [0]
    bad = [list(g) for g in good]
    bad[0][0] += 1e-4
    assert list(check.check_calls(tables, bad, True, oracle)) == [0]
    assert list(check.check_calls(tables, [good[0], None], True, oracle)) == [1]


def test_percentile_reports_count_and_refuses_thin_tails():
    samples = list(range(1000))
    p99 = stats.percentile(samples, 99)
    assert (p99.value, p99.samples, p99.beyond) == (989, 1000, 10)
    with pytest.raises(ValueError):
        stats.percentile(samples[:999], 99)
    assert stats.percentile(list(range(20)), 50).beyond == 10
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 50)


def test_best_of_takes_each_calls_fastest_repeat_per_group():
    passes = [[5, 9, 7], [4, 10, 8], [6, 3, 9], [8, 8, 1]]
    assert stats.best_of(passes, 1) == [4, 3, 1]
    # passes 0 and 2 form the first group, 1 and 3 the second
    assert stats.best_of(passes, 2) == [5, 3, 7, 4, 8, 1]
    assert passes[0] == [5, 9, 7]
    with pytest.raises(ValueError):
        stats.best_of(passes, 5)
    assert stats.groups_for(1000, 1000) == 1
    assert stats.groups_for(108, 1000) == 10


def test_spans_add_up_and_absent_names_do_not_crash(monkeypatch):
    import fisherbounds
    import fisherbounds.cli  # noqa: F401

    monkeypatch.setattr(spans, "TRACED", spans.TRACED + (("logfact", "gone"), ("nomodule", "f")))
    monkeypatch.setattr(spans, "NAMES", spans.NAMES + ("logfact.gone", "nomodule.f"))
    recorder = spans.Recorder()
    original = fisherbounds.report
    recorder.install()
    try:
        from time import perf_counter

        start = perf_counter()
        for t in [(1000, 200, 250, 60), (5000, 2500, 2500, 1600)]:
            fisherbounds.report(fisherbounds.build_table(*t))
        wall = perf_counter() - start
    finally:
        recorder.uninstall()
    assert fisherbounds.report is original
    summary = recorder.summary(wall)
    assert summary["absent"] == ["logfact.gone", "nomodule.f"]
    functions = summary["functions"]
    assert functions["bounds.report"]["calls"] == 2
    assert functions["bounds.ub_k"]["calls"] == 4  # ub_k directly and through ub2
    assert functions["logfact.gone"]["calls"] == 0
    self_total = sum(f["self_s"] for f in functions.values())
    assert self_total + summary["untraced_s"] == pytest.approx(wall, abs=1e-6)
    assert summary["terms"] == 141 + 901


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: a p-value in the subnormal double range prints"
    " from its linear value, which has too few significant bits",
)
def test_subnormal_p_value_prints_six_correct_digits():
    # p_F = 2.05793e-322 is printed as 2.07508e-322
    inputs = generate.Inputs([("x", ("11238", "991", "3922", "896"))], {"x": None})
    out, rejects = _batch_output(inputs)
    assert check.check_batch(inputs, out, rejects, True, check.Oracle()) == {}
