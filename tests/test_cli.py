"""Command-line surface: flags, formats, exit codes, error routing."""

from __future__ import annotations

import errno
import io
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import fisherbounds
from fisherbounds import OUTPUT_HEADER, REJECT_HEADER, __version__, batch, bench
from fisherbounds.cli import EXIT_DATA, EXIT_OK, EXIT_REPRODUCTION, EXIT_USAGE, main


def _lines_as_dict(stdout: str) -> dict[str, str]:
    pairs = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        assert sep, f"unexpected line {line!r}"
        pairs[key] = value
    return pairs


EVAL_KEYS = (
    "n", "mx", "ma", "mxa", "j", "terms", "lift", "leverage", "odds",
    "p_fisher", "terms_summed", "ub1", "ub2", "ub3", "err_bound_ub2",
    "err_bound_ub3", "chi2_p", "chi2_stat", "min_expected", "rule_of_thumb_ok",
    "guarantee_ub1", "guarantee_ub2", "clamped",
)


class TestEval:
    def test_reports_every_field_in_order(self, capsys):
        assert main(["eval", "1000", "200", "250", "60"]) == EXIT_OK
        out = _lines_as_dict(capsys.readouterr().out)
        assert tuple(out) == EVAL_KEYS
        assert out["j"] == "140"
        assert out["terms"] == "141"
        assert out["lift"] == "1.2"
        assert out["p_fisher"] == "0.0428803"
        assert out["terms_summed"] == "42"
        assert out["rule_of_thumb_ok"] == "true"
        assert out["guarantee_ub1"] == "false"
        assert out["clamped"] == "false"

    def test_k_names_the_bound_columns(self, capsys):
        assert main(["eval", "1000", "200", "250", "60", "--k", "5"]) == EXIT_OK
        out = _lines_as_dict(capsys.readouterr().out)
        assert "ub5" in out
        assert "err_bound_ub5" in out
        assert "ub3" not in out

    def test_no_exact_drops_the_exact_line(self, capsys):
        assert main(["eval", "1000", "200", "250", "60", "--no-exact"]) == EXIT_OK
        out = _lines_as_dict(capsys.readouterr().out)
        assert "p_fisher" not in out
        assert "terms_summed" not in out
        assert "ub1" in out

    def test_terms_summed_counts_the_certified_sum_not_j_plus_one(self, capsys):
        assert main(["eval", "100000", "50000", "50000", "30000"]) == EXIT_OK
        out = _lines_as_dict(capsys.readouterr().out)
        assert out["terms"] == "20001"
        assert out["terms_summed"] == "47"

    def test_negate_echoes_the_evaluated_table(self, capsys):
        assert main(["eval", "1000", "200", "250", "40", "--negate"]) == EXIT_OK
        out = _lines_as_dict(capsys.readouterr().out)
        assert out["ma"] == "750"
        assert out["mxa"] == "160"

    def test_clamped_bound_prints_one(self, capsys):
        assert main(["eval", "1000", "500", "500", "251"]) == EXIT_OK
        out = _lines_as_dict(capsys.readouterr().out)
        assert out["ub1"] == "1"
        assert out["clamped"] == "true"

    def test_deep_tail_prints_in_exponent_form(self, capsys):
        assert main(["eval", "5000", "2500", "2500", "2400"]) == EXIT_OK
        out = _lines_as_dict(capsys.readouterr().out)
        assert "e-" in out["p_fisher"]
        # J = 100 > k, so neither ceiling is 0 though both underflow doubles
        assert out["err_bound_ub2"] == "1.51943e-1147"
        assert out["err_bound_ub3"] == "1.39671e-1147"

    @pytest.mark.parametrize("n", [10**306, 10**400], ids=["e306", "e400"])
    def test_counts_beyond_double_range_exit_two(self, n, capsys):
        counts = [str(n), str(n // 10), str(n // 10), str(n // 20)]
        assert main(["eval", *counts]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: counts too large")
        assert main(["sweep", *counts, str(n // 20 + 1)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: counts too large")
        # a table without positive dependency fails before any evaluation
        assert main(["eval", str(n), str(n // 2), str(n // 2), "1"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error:")

    def test_nonpositive_dependency_exits_two_with_a_hint(self, capsys):
        assert main(["eval", "100", "50", "50", "20"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "smallest admissible mxa is 26;" in err
        assert "--negate tests the opposite direction" in err

    def test_negated_nonpositive_dependency_hints_at_a_run_without_negate(self, capsys):
        assert main(["eval", "1000", "200", "250", "60", "--negate"]) == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: no positive dependency in the negated table at mxa=60;"
            " largest admissible mxa is 49;"
            " a run without --negate tests the opposite direction\n"
        )

    def test_negated_hint_is_the_largest_mxa_that_runs(self, capsys):
        assert main(["eval", "1000", "200", "250", "49", "--negate"]) == EXIT_OK
        capsys.readouterr()
        assert main(["eval", "1000", "200", "250", "50", "--negate"]) == EXIT_DATA
        assert "at mxa=50; largest admissible mxa is 49;" in capsys.readouterr().err

    def test_hint_for_a_huge_table_stays_in_integers(self, capsys):
        n = 10**400
        assert main(["eval", str(n), str(n // 2), str(n // 2), "1"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: no positive dependency at mxa=1;")
        assert f"smallest admissible mxa is {n // 4 + 1};" in err
        assert main(["eval", str(n), str(n // 2), str(n // 2), str(n // 4), "--negate"]) == EXIT_DATA
        assert f"largest admissible mxa is {n // 4 - 1};" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_k_below_three_exits_two(self, k, capsys):
        # ub1 and ub2 always have their own lines, so orders 1 and 2 would
        # print a second, contradicting line under the same name
        assert main(["eval", "1000", "200", "250", "60", "--k", k]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "orders 1 and 2 are always included" in captured.err

    def test_margin_violation_exits_two(self, capsys):
        assert main(["eval", "10", "4", "7", "5"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error:")

    def test_non_integer_argument_is_a_usage_error(self, capsys):
        assert main(["eval", "1000", "200", "250", "x"]) == EXIT_USAGE

    def test_missing_argument_is_a_usage_error(self, capsys):
        assert main(["eval", "1000", "200", "250"]) == EXIT_USAGE


class TestBatch:
    @pytest.fixture()
    def input_csv(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "id,n,mx,ma,mxa\n"
            "a,1000,200,250,60\n"
            "b,1000,200,250,63\n"
            "c,100,50,50,25\n",
            encoding="utf-8",
        )
        return path

    def test_writes_csv_and_summarizes_rejects(self, input_csv, tmp_path, capsys):
        out_path = tmp_path / "out.csv"
        code = main(["batch", str(input_csv), "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(OUTPUT_HEADER)
        assert len(lines) == 3
        assert captured.out == ""
        assert (
            captured.err.strip()
            == "rejected 1 of 3 rows (NONPOSITIVE_DEPENDENCY=1);"
            " use --rejects to capture them"
        )

    def test_rejects_file_replaces_the_summary(self, input_csv, tmp_path, capsys):
        out_path = tmp_path / "out.csv"
        rej_path = tmp_path / "rej.csv"
        code = main(
            ["batch", str(input_csv), "--out", str(out_path), "--rejects", str(rej_path)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        rej_lines = rej_path.read_text(encoding="utf-8").splitlines()
        assert rej_lines[0] == ",".join(REJECT_HEADER)
        assert rej_lines[1].startswith("c,NONPOSITIVE_DEPENDENCY,")

    def test_default_output_is_stdout(self, input_csv, capsys):
        assert main(["batch", str(input_csv)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == ",".join(OUTPUT_HEADER)

    def test_byte_order_mark_gives_the_same_output(self, input_csv, tmp_path, capsys):
        # Excel's "CSV UTF-8" starts the file with EF BB BF
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + input_csv.read_bytes())
        assert main(["batch", str(input_csv)]) == EXIT_OK
        plain = capsys.readouterr()
        assert main(["batch", str(bom_csv)]) == EXIT_OK
        assert capsys.readouterr() == plain

    def test_missing_input_exits_two(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "absent.csv")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--out", "{input}"],
            ["--rejects", "{input}"],
            ["--out", "{other}", "--rejects", "{other}"],
        ],
        ids=["out-is-input", "rejects-is-input", "out-is-rejects"],
    )
    def test_same_file_twice_exits_two_before_writing(
        self, flags, input_csv, tmp_path, capsys
    ):
        before = input_csv.read_bytes()
        other = tmp_path / "both.csv"
        argv = [f.format(input=input_csv, other=other) for f in flags]
        assert main(["batch", str(input_csv), *argv]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "are the same file" in captured.err
        assert captured.err.count("\n") == 1
        assert input_csv.read_bytes() == before
        assert not other.exists()

    def test_foreign_header_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("n,mx,ma,mxa\n10,4,7,3\n", encoding="utf-8")
        assert main(["batch", str(path)]) == EXIT_DATA
        assert "expected header" in capsys.readouterr().err


def _die(*args, **kwargs):
    os._exit(1)


class _ReaderGoneAfterOneLine:
    """A stdout whose reader leaves after the first line, as under `| head -n 1`."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        if self.fh.tell():
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return self.fh.write(text)

    def flush(self):
        self.fh.flush()

    def fileno(self):
        return self.fh.fileno()


class TestPooledBatch:
    """An input of more than one chunk goes to worker processes; every way
    the run ends, the workers are gone when main returns."""

    @pytest.fixture()
    def big_csv(self, tmp_path, monkeypatch):
        # two workers even on a machine with one usable CPU
        monkeypatch.setattr(batch, "_usable_cpus", lambda: 2)
        path = tmp_path / "big.csv"
        rows = "".join(f"r{i},1000,200,250,{60 + i % 40}\n" for i in range(4 * batch.CHUNK_LINES))
        path.write_text("id,n,mx,ma,mxa\n" + rows, encoding="utf-8")
        return path

    def test_worker_that_dies_ends_the_run_with_one_error_line(
        self, big_csv, tmp_path, monkeypatch, capsys
    ):
        # the fork start method hands the patched module to the workers
        monkeypatch.setattr(batch, "_evaluate_chunk", _die)
        out = tmp_path / "out.csv"
        assert main(["batch", str(big_csv), "--out", str(out), "--no-exact"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: a batch worker process ended abruptly")
        assert err.count("\n") == 1
        assert multiprocessing.active_children() == []

    def test_closed_stdout_pipe_exits_zero_quietly(self, big_csv, tmp_path, monkeypatch, capsys):
        with open(tmp_path / "stdout", "w", encoding="utf-8") as fh:
            monkeypatch.setattr(sys, "stdout", _ReaderGoneAfterOneLine(fh))
            assert main(["batch", str(big_csv), "--no-exact"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert multiprocessing.active_children() == []
        assert (tmp_path / "stdout").read_text(encoding="utf-8") == ",".join(OUTPUT_HEADER) + "\n"


    def test_pool_has_no_more_workers_than_chunks(self, big_csv, tmp_path, monkeypatch):
        from concurrent import futures

        sizes = []

        class Recorded(futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", Recorded)
        monkeypatch.setattr(batch, "_usable_cpus", lambda: 8)
        out = tmp_path / "out.csv"
        assert main(["batch", str(big_csv), "--out", str(out), "--no-exact"]) == EXIT_OK
        assert sizes == [4]
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 4 * batch.CHUNK_LINES
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self") or "fork" not in multiprocessing.get_all_start_methods(),
        reason="reads process states from /proc; patches the workers through fork",
    )
    def test_killed_run_takes_its_workers_with_it(self, big_csv, tmp_path):
        # each worker notes its pid and then waits, so both are busy when
        # the batch process is killed, as a harness that times out kills it
        pids = tmp_path / "pids"
        script = (
            "import os, time\n"
            "from fisherbounds import batch\n"
            "from fisherbounds.cli import main\n"
            "def note_and_wait(*args, **kwargs):\n"
            f"    with open({str(pids)!r}, 'a') as fh:\n"
            "        fh.write(f'{os.getpid()}\\n')\n"
            "    time.sleep(600)\n"
            "batch._usable_cpus = lambda: 2\n"
            "batch._evaluate_chunk = note_and_wait\n"
            f"main(['batch', {str(big_csv)!r}, '--out', {str(tmp_path / 'out.csv')!r}])\n"
        )
        src = os.path.dirname(os.path.dirname(fisherbounds.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = [int(p) for p in pids.read_text().split()] if pids.exists() else []
            assert len(workers) == 2
            proc.kill()
            proc.wait(timeout=60)
            deadline = time.monotonic() + 10
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            proc.kill()
            proc.wait(timeout=60)
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """Whether a process is there and not a zombie, from /proc."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestSweep:
    def test_writes_one_row_per_overlap(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code = main(["sweep", "1000", "200", "250", "55", "60", "--out", str(out_path)])
        assert code == EXIT_OK
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("mxa,j,terms,")
        assert lines[0].endswith(",ub3")

    def test_nonpositive_start_exits_two_with_the_first_admissible(self, capsys):
        assert main(["sweep", "1000", "200", "250", "45", "60"]) == EXIT_DATA
        assert "smallest admissible mxa is 51" in capsys.readouterr().err

    def test_reversed_range_exits_two(self, capsys):
        assert main(["sweep", "1000", "200", "250", "60", "55"]) == EXIT_DATA
        assert "empty sweep" in capsys.readouterr().err

    def test_low_extra_order_exits_two(self, capsys):
        assert main(["sweep", "1000", "200", "250", "55", "60", "--k", "2"]) == EXIT_DATA
        assert "orders 1 and 2 are always included" in capsys.readouterr().err

    @pytest.mark.parametrize("to_file", [False, True])
    def test_refused_sweep_writes_nothing(self, to_file, tmp_path, capsys):
        # n above 2^50 is refused only by the term engine, which every
        # point reaches through report
        out_path = tmp_path / "sweep.csv"
        flags = ["--out", str(out_path)] if to_file else []
        assert main(["sweep", str(2**50 + 10), "200", "250", "60", "61", *flags]) == EXIT_DATA
        captured = capsys.readouterr()
        assert "too large for double-precision" in captured.err
        assert captured.out == ""
        assert not out_path.exists()

    def test_rows_are_written_as_the_reports_are_made(self, monkeypatch):
        # a reader that stops after the first data row ends a 20000-overlap
        # sweep after a handful of reports, not after the whole range
        from fisherbounds import sweep

        made = []
        real_report = sweep.report
        monkeypatch.setattr(
            sweep, "report", lambda *args, **kw: made.append(1) or real_report(*args, **kw)
        )

        class Stop(Exception):
            pass

        class FirstRowOnly(io.StringIO):
            def write(self, text):
                if self.getvalue().count("\n") >= 2:
                    raise Stop
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", FirstRowOnly())
        with pytest.raises(Stop):
            main(["sweep", "100000000", "50000000", "50000000", "25000001", "25020000",
                  "--no-exact"])
        assert 1 <= len(made) <= 3


class TestReproduceTables:
    def test_full_grid_summary(self, capsys):
        assert main(["reproduce-tables"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "18 rows, 90 cells: 83 PASS, 7 ANNOTATED, 0 FAIL"
        assert "corrected reading 0.0088" in out

    def test_case_filter(self, capsys):
        assert main(["reproduce-tables", "--case", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "6 rows, 30 cells: 27 PASS, 3 ANNOTATED, 0 FAIL"

    def test_crushing_tolerance_exits_three(self, capsys):
        assert main(["reproduce-tables", "--tolerance", "1e-12"]) == EXIT_REPRODUCTION
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "18 rows, 90 cells: 0 PASS, 7 ANNOTATED, 83 FAIL"

    def test_loose_tolerance_passes_everything(self, capsys):
        assert main(["reproduce-tables", "--tolerance", "0.5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "18 rows, 90 cells: 90 PASS, 0 ANNOTATED, 0 FAIL"

    def test_unknown_case_is_a_usage_error(self, capsys):
        assert main(["reproduce-tables", "--case", "4"]) == EXIT_USAGE

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1", "-1e-9"])
    def test_tolerance_that_is_not_finite_and_non_negative_is_a_usage_error(
        self, bad, capsys
    ):
        assert main(["reproduce-tables", f"--tolerance={bad}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected a finite number >= 0" in captured.err


class TestRankAgreement:
    @pytest.fixture()
    def batch_file(self, tmp_path):
        rows = ["id,n,mx,ma,mxa"]
        rows += [f"r{mxa},1000,200,250,{mxa}" for mxa in range(51, 81)]
        in_path = tmp_path / "in.csv"
        in_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out_path = tmp_path / "batch.csv"
        assert main(["batch", str(in_path), "--out", str(out_path)]) == EXIT_OK
        return out_path

    def test_reports_every_pair(self, batch_file, capsys):
        assert main(["rank-agreement", str(batch_file), "--top", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "rows = 30"
        assert lines[1] == "top_k = 10"
        pair_lines = [l for l in lines[2:] if " vs " in l]
        assert len(pair_lines) == 10
        assert any(
            l.startswith("p_fisher vs ub1: top_overlap = 1.0000") for l in pair_lines
        )

    def test_refuses_batch_output_without_exact_values(self, tmp_path, capsys):
        in_path = tmp_path / "in.csv"
        in_path.write_text("id,n,mx,ma,mxa\na,1000,200,250,60\n", encoding="utf-8")
        out_path = tmp_path / "noexact.csv"
        assert (
            main(["batch", str(in_path), "--out", str(out_path), "--no-exact"])
            == EXIT_OK
        )
        assert main(["rank-agreement", str(out_path)]) == EXIT_DATA
        assert "--no-exact" in capsys.readouterr().err

    def test_foreign_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "foreign.csv"
        path.write_text("id,value\na,1\n", encoding="utf-8")
        assert main(["rank-agreement", str(path)]) == EXIT_DATA
        assert "not a batch output file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("row", "row_id"),
        [
            # a file cut short inside a row
            ("a,1000,200,250,60,140,1.2,0.01", "a"),
            # an unbalanced quote: read as one field, it would run on
            # through the lines after it; the line cannot be split alone
            (
                '"b,1000,200,250,60,140,1.2,0.01,1.37594,0.0428803,0.0507688,'
                "0.0484486,0.044655,3,0.0190739,0.0339446,50,0,0,0",
                "line3",
            ),
        ],
        ids=["truncated", "leading-quote"],
    )
    def test_partial_row_exits_two_naming_it(self, row, row_id, batch_file, capsys):
        header, first, *rest = batch_file.read_text(encoding="utf-8").splitlines()
        batch_file.write_text("\n".join([header, first, row, *rest]) + "\n", encoding="utf-8")
        assert main(["rank-agreement", str(batch_file)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: row {row_id} of {batch_file} is not a full batch output row\n"
        )

    def test_repeated_id_exits_two_naming_it(self, tmp_path, capsys):
        # rankings key on the id: with ids a, a, b, c these rows read
        # spearman 0.134840 where a, d, b, c read 1.000000
        in_path = tmp_path / "in.csv"
        rows = [f"{rid},1000,200,250,{mxa}" for rid, mxa in zip("aabc", (60, 80, 70, 65))]
        in_path.write_text("id,n,mx,ma,mxa\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out_path = tmp_path / "batch.csv"
        assert main(["batch", str(in_path), "--out", str(out_path)]) == EXIT_OK
        assert main(["rank-agreement", str(out_path), "--top", "2"]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: row id a appears twice in {out_path}\n"

    def test_bad_number_exits_two_naming_row_column_and_file(self, batch_file, capsys):
        header, first, *rest = batch_file.read_text(encoding="utf-8").splitlines()
        fields = first.split(",")
        fields[OUTPUT_HEADER.index("p_fisher")] = "abc"
        batch_file.write_text("\n".join([header, ",".join(fields), *rest]) + "\n", encoding="utf-8")
        assert main(["rank-agreement", str(batch_file)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: row {fields[0]} of {batch_file}, column p_fisher:"
            " could not convert string to float: 'abc'\n"
        )

    @pytest.mark.parametrize("bad", ["nan", "-1", "1.5", "-1e-5"])
    def test_value_that_is_not_a_probability_exits_two(self, bad, tmp_path, capsys):
        # with nan on row a and -1 on row b these rows read top_overlap
        # 0.5000 and spearman -0.200000 where the true values read 1.0000
        # and 1.000000
        in_path = tmp_path / "in.csv"
        rows = [f"{rid},1000,200,250,{mxa}" for rid, mxa in zip("abcd", (60, 80, 70, 65))]
        in_path.write_text("id,n,mx,ma,mxa\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out_path = tmp_path / "batch.csv"
        assert main(["batch", str(in_path), "--out", str(out_path)]) == EXIT_OK
        header, *lines = out_path.read_text(encoding="utf-8").splitlines()
        column = OUTPUT_HEADER.index("p_fisher")
        for i, value in ((0, bad), (1, "-1")):
            fields = lines[i].split(",")
            fields[column] = value
            lines[i] = ",".join(fields)
        out_path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        assert main(["rank-agreement", str(out_path), "--top", "2"]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: row a of {out_path}, column p_fisher: {bad} is not a probability\n"
        )

    def test_byte_order_mark_gives_the_same_report(self, batch_file, tmp_path, capsys):
        bom_file = tmp_path / "bom.csv"
        bom_file.write_bytes(b"\xef\xbb\xbf" + batch_file.read_bytes())
        assert main(["rank-agreement", str(batch_file)]) == EXIT_OK
        plain = capsys.readouterr()
        assert main(["rank-agreement", str(bom_file)]) == EXIT_OK
        assert capsys.readouterr() == plain

    def test_output_without_evaluated_rows_exits_two(self, tmp_path, capsys):
        # no rows is nothing to compare, not perfect agreement
        in_path = tmp_path / "in.csv"
        in_path.write_text("id,n,mx,ma,mxa\nc,100,50,50,25\n", encoding="utf-8")
        out_path = tmp_path / "rejected.csv"
        assert main(["batch", str(in_path), "--out", str(out_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["rank-agreement", str(out_path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no evaluated rows to rank\n"


class TestBench:
    def test_reports_sizes_and_verdicts(self, capsys):
        assert main(["bench", "--sizes", "2000,20000", "--reps", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "exact terms for the n=1000000 benchmark shape: 200001" in out
        assert "bounds J-independent within 2x: yes" in out
        assert "exact time grows with J: yes" in out

    def test_single_size_skips_the_verdicts(self, capsys):
        assert main(["bench", "--sizes", "2000", "--reps", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "J-independent" not in out

    def test_zero_reps_is_a_quiet_no_op(self, capsys):
        assert main(["bench", "--reps", "0"]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_malformed_sizes_exit_two(self, capsys):
        assert main(["bench", "--sizes", "a,b"]) == EXIT_DATA
        assert "comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes,n,reason",
        [
            ("2000,16", 16, "leverage numerator 0 is not positive"),
            ("1", 1, "margins must satisfy"),
            ("2000,2000000000000000", 2000000000000000, "counts too large"),
        ],
        ids=["no-dependency", "degenerate", "out-of-range"],
    )
    def test_a_size_without_a_benchmark_table_is_named_before_any_timing(
        self, capsys, monkeypatch, sizes, n, reason
    ):
        timed = []
        monkeypatch.setattr(bench, "_calibrated", timed.append)
        assert main(["bench", "--sizes", sizes, "--reps", "1"]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --sizes: no benchmark table at n={n}: {reason}")
        assert timed == []

    def test_a_repeated_size_exits_two_before_any_timing(self, capsys, monkeypatch):
        timed = []
        monkeypatch.setattr(bench, "_calibrated", timed.append)
        assert main(["bench", "--sizes", "2000,2000", "--reps", "1"]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --sizes: n=2000 is given more than once\n"
        assert timed == []

    def test_two_sizes_with_one_j_exit_two_before_any_timing(self, capsys, monkeypatch):
        timed = []
        monkeypatch.setattr(bench, "_calibrated", timed.append)
        assert main(["bench", "--sizes", "2000,2001", "--reps", "1"]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --sizes: n=2000 and n=2001 both give J=400\n"
        assert timed == []


class TestTopLevel:
    def test_version(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == f"fisherbounds {__version__}"

    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_closed_stdout_pipe_exits_zero_quietly(self, monkeypatch, capsys):
        # a pipe whose reader has gone, as under `| head`; line buffering
        # makes the first printed line raise BrokenPipeError on write
        read_end, write_end = os.pipe()
        os.close(read_end)
        closed = os.fdopen(write_end, "w", buffering=1)
        monkeypatch.setattr(sys, "stdout", closed)
        try:
            assert main(["eval", "1000", "200", "250", "60"]) == EXIT_OK
            assert capsys.readouterr().err == ""
            # stdout now leads to the null device, so a later flush succeeds
            print("more", file=closed)
        finally:
            closed.close()

    def test_module_execution(self):
        # the child finds the package where this process did, installed or not
        src = os.path.dirname(os.path.dirname(fisherbounds.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "fisherbounds", "--version"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"fisherbounds {__version__}"
