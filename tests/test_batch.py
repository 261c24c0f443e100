"""Batch pipeline: parsing, reject routing, ordering, text formatting."""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
import random
import re
import time
from decimal import Decimal

import pytest

from fisherbounds import (
    INPUT_HEADER,
    OUTPUT_HEADER,
    REJECT_HEADER,
    BatchRecord,
    InvalidK,
    PValue,
    Reject,
    build_table,
    exact_fisher_oracle,
    format_float,
    format_pvalue,
    read_table_csv,
    report,
    rows_from_batch_csv,
    run_batch,
    write_batch_csv,
)
from fisherbounds import batch
from fisherbounds.batch import (
    CHUNK_LINES,
    REASON_BAD_ROW,
    REASON_DEGENERATE,
    REASON_MARGIN,
    REASON_NONPOSITIVE,
    REASON_OUT_OF_RANGE,
)
from fisherbounds.cli import EXIT_DATA, EXIT_OK, main

from conftest import read_back


def _write(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestReadTableCsv:
    def test_parses_rows_in_order(self, tmp_path):
        path = _write(tmp_path, "id,n,mx,ma,mxa\na,1000,200,250,60\nb,10,4,7,3\n")
        assert list(read_table_csv(path)) == [
            ("a", ["1000", "200", "250", "60"]),
            ("b", ["10", "4", "7", "3"]),
        ]

    def test_header_is_mandatory(self, tmp_path):
        path = _write(tmp_path, "n,mx,ma,mxa\n1000,200,250,60\n")
        with pytest.raises(ValueError, match="expected header"):
            read_table_csv(path)

    def test_empty_file_fails_like_a_missing_header(self, tmp_path):
        with pytest.raises(ValueError, match="expected header"):
            read_table_csv(_write(tmp_path, ""))

    def test_header_case_and_spacing_are_forgiven(self, tmp_path):
        path = _write(tmp_path, "ID, N ,mx,MA,mxa\nr1,10,4,7,3\n")
        assert list(read_table_csv(path)) == [("r1", ["10", "4", "7", "3"])]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = _write(tmp_path, "id,n,mx,ma,mxa\n\na,10,4,7,3\n   \n\n")
        assert list(read_table_csv(path)) == [("a", ["10", "4", "7", "3"])]

    def test_missing_id_falls_back_to_line_number(self, tmp_path):
        path = _write(tmp_path, "id,n,mx,ma,mxa\n,10,4,7,3\n\nx,10,4,7,2\n")
        rows = list(read_table_csv(path))
        assert rows[0][0] == "line2"
        assert rows[1][0] == "x"


class TestRunBatch:
    def test_every_row_lands_in_exactly_one_stream(self):
        rows = [
            ("ok", ["1000", "200", "250", "60"]),
            ("words", ["1000", "x", "250", "60"]),
            ("short", ["1000", "200", "250"]),
            ("margin", ["10", "4", "7", "5"]),
            ("degenerate", ["10", "0", "7", "0"]),
            ("independent", ["100", "50", "50", "25"]),
        ]
        results = list(run_batch(rows))
        assert [r.row_id for r in results] == [rid for rid, _ in rows]
        kinds = [type(r) for r in results]
        assert kinds == [BatchRecord, Reject, Reject, Reject, Reject, Reject]
        reasons = [r.reason for r in results[1:]]
        assert reasons == [
            REASON_BAD_ROW,
            REASON_BAD_ROW,
            REASON_MARGIN,
            REASON_DEGENERATE,
            REASON_NONPOSITIVE,
        ]

    def test_nonpositive_reject_names_the_leverage_numerator(self):
        (result,) = run_batch([("r", ["100", "50", "50", "20"])])
        assert isinstance(result, Reject)
        assert result.detail == "leverage numerator -500 is not positive"

    def test_the_sign_is_rejected_before_the_range(self):
        # a table without positive dependency stays NONPOSITIVE_DEPENDENCY
        # at counts whose log-factorials would overflow
        n = 10**306
        fields = [str(n), str(n // 4), str(n // 4), str(n // 32)]
        (result,) = run_batch([("huge", fields)])
        assert result.reason == REASON_NONPOSITIVE
        assert result.detail == f"leverage numerator {-(n * n // 32)} is not positive"

    def test_negate_evaluates_the_complement_table(self):
        (rec,) = run_batch([("r", ["1000", "200", "250", "40"])], negate=True)
        assert isinstance(rec, BatchRecord)
        t = rec.report.table
        assert (t.n, t.mx, t.ma, t.mxa) == (1000, 200, 750, 160)

    def test_negate_can_reject_what_was_previously_fine(self):
        (result,) = run_batch([("r", ["1000", "200", "250", "60"])], negate=True)
        assert isinstance(result, Reject)
        assert result.reason == REASON_NONPOSITIVE

    def test_skipping_exact_drops_the_ranking_key(self, tmp_path):
        row = [("r", ["1000", "200", "250", "60"])]
        (with_exact,) = read_back(run_batch(row), tmp_path / "out.csv")
        assert "p_fisher" in with_exact.keys
        (without,) = run_batch(row, include_exact=False)
        assert without.report.p_fisher is None
        with pytest.raises(ValueError, match="without --no-exact"):
            read_back([without], tmp_path / "out.csv")

    def test_rank_keys_stay_finite_in_deep_tails(self, tmp_path):
        rows = run_batch([("r", ["5000", "2500", "2500", "2400"])])
        (row,) = read_back(rows, tmp_path / "out.csv")
        assert row.keys["p_fisher"] < -1000.0
        assert math.isfinite(row.keys["ub1"])

    def test_rank_key_for_a_vanished_chi2_tail(self, tmp_path):
        (rec,) = run_batch([("r", ["10000", "100", "100", "100"])])
        assert rec.report.chi2.p_one_sided == 0.0
        (row,) = read_back([rec], tmp_path / "out.csv")
        # printed from log_p, so the key stays finite and ordered
        log10_p = rec.report.chi2.log_p / math.log(10.0)
        assert row.keys["chi2_p"] == pytest.approx(log10_p, rel=1e-6)
        assert row.keys["chi2_p"] < -2000.0


class TestFormatting:
    def test_format_float_keeps_six_significant_digits(self):
        assert format_float(0.012345678) == "0.0123457"
        assert format_float(50.0) == "50"

    def test_small_but_representable_values_print_directly(self):
        pv = PValue(math.log(0.25), 1)
        assert format_pvalue(pv) == "0.25"

    def test_underflowed_values_are_synthesized_from_the_log(self):
        pv = PValue(-800.0, 1)
        assert pv.linear_value == 0.0
        text = format_pvalue(pv)
        mantissa, _, exponent = text.partition("e")
        assert int(exponent) == -348
        assert math.log(float(mantissa)) + int(exponent) * math.log(10.0) == (
            pytest.approx(pv.raw_log, rel=1e-6)
        )

    def test_mantissa_rollover_lands_on_the_next_decade(self):
        pv = PValue(-750.0 * math.log(10.0) - 1e-11, 1)
        assert format_pvalue(pv) == "1e-750"

    def test_zero_stays_zero(self):
        pv = PValue(-math.inf, 0)
        assert format_pvalue(pv) == "0"


class TestSubnormalPrinting:
    # p_F of each lies in the subnormal double range, 1e-323 to 1e-318
    PROBE = (
        (10_950, 4_703, 2_305, 1_794),
        (11_238, 991, 3_922, 896),
        (17_104, 4_280, 1_427, 1_010),
    )

    @pytest.mark.parametrize("counts", PROBE, ids=lambda c: str(c[0]))
    def test_six_digits_match_the_oracle(self, counts):
        t = build_table(*counts)
        exact = exact_fisher_oracle(t)
        expected = f"{Decimal(exact.numerator) / Decimal(exact.denominator):.6g}"
        assert format_pvalue(report(t).p_fisher) == expected


class TestCsvWriters:
    def test_output_header_and_line_endings(self):
        out = io.StringIO()
        count, _ = write_batch_csv(out, run_batch([("a", ["1000", "200", "250", "60"])]), None)
        text = out.getvalue()
        assert count == 1
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0] == ",".join(OUTPUT_HEADER)
        assert len(lines) == 2

    def test_row_contents_round_numbers(self):
        out = io.StringIO()
        write_batch_csv(out, run_batch([("a", ["1000", "200", "250", "60"])], k=3), None)
        row = dict(zip(OUTPUT_HEADER, out.getvalue().splitlines()[1].split(",")))
        assert row["id"] == "a"
        assert row["j"] == "140"
        assert row["lift"] == "1.2"
        assert row["leverage"] == "0.01"
        assert row["k"] == "3"
        # 0.0428803 is the rational oracle's value printed to six digits
        assert row["p_fisher"] == "0.0428803"
        assert row["min_expected"] == "50"
        assert row["clamped"] == "0"

    def test_error_ceiling_prints_from_the_log(self):
        out = io.StringIO()
        write_batch_csv(out, run_batch([("d", ["5000", "2500", "2500", "2400"])]), None)
        row = dict(zip(OUTPUT_HEADER, out.getvalue().splitlines()[1].split(",")))
        assert row["err_bound"] == "1.39671e-1147"

    def test_error_ceiling_without_a_tail_prints_zero(self):
        out = io.StringIO()
        write_batch_csv(out, run_batch([("z", ["1000", "200", "250", "60"])], k=141), None)
        row = dict(zip(OUTPUT_HEADER, out.getvalue().splitlines()[1].split(",")))
        assert row["err_bound"] == "0"
        assert row["ubk"] == row["p_fisher"]

    def test_clamped_column_flags_any_clamped_bound(self):
        out = io.StringIO()
        write_batch_csv(out, run_batch([("c", ["1000", "500", "500", "251"])]), None)
        row = dict(zip(OUTPUT_HEADER, out.getvalue().splitlines()[1].split(",")))
        assert row["ub1"] == "1"
        assert row["clamped"] == "1"

    def test_missing_exact_column_is_empty(self):
        out = io.StringIO()
        write_batch_csv(
            out, run_batch([("a", ["1000", "200", "250", "60"])], include_exact=False), None
        )
        row = dict(zip(OUTPUT_HEADER, out.getvalue().splitlines()[1].split(",")))
        assert row["p_fisher"] == ""
        assert row["ub1"] != ""

    def test_rejects_writer_mirrors_the_reject_stream(self):
        results = run_batch(
            [
                ("good", ["1000", "200", "250", "60"]),
                ("bad", ["10", "4", "7", "9"]),
            ]
        )
        out, rejects = io.StringIO(), io.StringIO()
        written, by_reason = write_batch_csv(out, results, rejects)
        lines = rejects.getvalue().splitlines()
        assert (written, by_reason) == (1, {REASON_MARGIN: 1})
        assert lines[0] == ",".join(REJECT_HEADER)
        assert lines[1].startswith("bad,MARGIN_VIOLATION,")
        assert len(lines) == 2

    def test_input_header_constant_matches_the_reader(self, tmp_path):
        path = tmp_path / "roundtrip.csv"
        path.write_text(",".join(INPUT_HEADER) + "\nz,10,4,7,3\n", encoding="utf-8")
        assert list(read_table_csv(str(path))) == [("z", ["10", "4", "7", "3"])]


class TestLargeTables:
    def test_rows_beyond_twenty_million_evaluate_in_one_run(self, tmp_path):
        path = _write(
            tmp_path,
            "id,n,mx,ma,mxa\n"
            "weak,20000001,5000000,4000000,1001000\n"
            "strong,20000001,5000000,4000000,1500000\n"
            "ordinary,1000,200,250,60\n",
        )
        out = tmp_path / "out.csv"
        start = time.perf_counter()
        assert main(["batch", path, "--out", str(out)]) == EXIT_OK
        elapsed = time.perf_counter() - start
        rows = rows_from_batch_csv(str(out))
        assert [r.row_id for r in rows] == ["weak", "strong", "ordinary"]
        for r in rows:
            keys = r.keys
            assert keys["p_fisher"] <= keys["ubk"] <= keys["ub2"] <= keys["ub1"]
        # the full sums would take 5.5 million terms
        assert elapsed < 1.0

    def test_oversized_rows_do_not_abort_the_command(self, tmp_path):
        path = _write(
            tmp_path,
            "id,n,mx,ma,mxa\n"
            "ordinary,1000,200,250,60\n"
            f"e306,{10**306},{10**305},{10**305},{10**305 // 2}\n"
            f"e400,{10**400},{10**399},{10**399},{10**399 // 2}\n",
        )
        out = tmp_path / "out.csv"
        rejects = tmp_path / "rejects.csv"
        assert main(["batch", path, "--out", str(out), "--rejects", str(rejects)]) == EXIT_OK
        assert [r.row_id for r in rows_from_batch_csv(str(out))] == ["ordinary"]
        detail = "counts too large for double-precision arithmetic"
        lines = rejects.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == [
            f"e306,{REASON_OUT_OF_RANGE},{detail}",
            f"e400,{REASON_OUT_OF_RANGE},{detail}",
        ]

    # a = d = k, b = k - 1, c = k + 1: a d - b c = 1, so ub1's multiplier
    # a d / (a d - b c) is 1e320 while every count fits a double
    _NEAR_INDEPENDENT = (4 * 10**160, 2 * 10**160 - 1, 2 * 10**160 + 1, 10**160)
    # the same shape at n = 4e40: p_F is near 0.5, and the certified sum
    # would need about 1e20 terms
    _NEAR_INDEPENDENT_4E40 = (4 * 10**40, 2 * 10**40 - 1, 2 * 10**40 + 1, 10**40)

    @pytest.mark.parametrize("mode", [[], ["--no-exact"]])
    def test_unrepresentable_ub1_is_a_reject_before_any_sum(self, tmp_path, mode):
        counts = ",".join(map(str, self._NEAR_INDEPENDENT))
        counts_4e40 = ",".join(map(str, self._NEAR_INDEPENDENT_4E40))
        path = _write(
            tmp_path,
            f"id,n,mx,ma,mxa\nbig,{counts}\nhuge,{counts_4e40}\nafter,1000,200,250,60\n",
        )
        out = tmp_path / "out.csv"
        rejects = tmp_path / "rejects.csv"
        start = time.perf_counter()
        args = ["batch", path, "--out", str(out), "--rejects", str(rejects), *mode]
        assert main(args) == EXIT_OK
        assert time.perf_counter() - start < 1.0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["after"]
        detail = "counts too large for double-precision arithmetic"
        assert rejects.read_text(encoding="utf-8").splitlines()[1:] == [
            f"big,{REASON_OUT_OF_RANGE},{detail}",
            f"huge,{REASON_OUT_OF_RANGE},{detail}",
        ]

    def test_unrepresentable_ub1_fails_eval_with_the_reject_detail(self, capsys):
        assert main(["eval", *map(str, self._NEAR_INDEPENDENT)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: counts too large for double-precision arithmetic\n"


class TestSinglePass:
    def test_writer_takes_one_result_at_a_time(self):
        out, rejects = io.StringIO(), io.StringIO()
        rows = [
            ("a", ["1000", "200", "250", "60"]),
            ("bad", ["10", "4", "7", "9"]),
            ("b", ["1000", "200", "250", "63"]),
        ]

        def results():
            previous = None
            for item in run_batch(rows):
                if previous is not None:
                    seen = out.getvalue() + rejects.getvalue()
                    assert f"\n{previous}," in seen, "the writer read ahead"
                previous = item.row_id
                yield item

        written, by_reason = write_batch_csv(out, results(), rejects)
        assert (written, by_reason) == (2, {REASON_MARGIN: 1})

    def test_k_is_checked_before_any_row_is_read(self):
        def rows():
            raise AssertionError("a row was read")
            yield

        with pytest.raises(InvalidK):
            run_batch(rows(), k=0)

    @pytest.mark.parametrize(
        "text, args",
        [
            (None, []),
            ("n,mx,ma,mxa\n10,4,7,3\n", []),
            ("id,n,mx,ma,mxa\nx,10,4,7,9\ny,10,0,7,0\n", ["--k", "0"]),
        ],
        ids=["missing-input", "foreign-header", "k-zero"],
    )
    def test_refused_runs_leave_no_output_files(self, tmp_path, capsys, text, args):
        path = tmp_path / "in.csv"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        out, rejects = tmp_path / "out.csv", tmp_path / "rejects.csv"
        code = main(["batch", str(path), "--out", str(out), "--rejects", str(rejects), *args])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
        assert not rejects.exists()


class TestMalformedLines:
    def _run(self, tmp_path, data: bytes):
        path = tmp_path / "in.csv"
        path.write_bytes(b"id,n,mx,ma,mxa\n" + data + b"ok,1000,200,250,60\n")
        out, rejects = tmp_path / "out.csv", tmp_path / "rejects.csv"
        assert main(["batch", str(path), "--out", str(out), "--rejects", str(rejects)]) == EXIT_OK
        evaluated = [r.row_id for r in rows_from_batch_csv(str(out))]
        return evaluated, rejects.read_text(encoding="utf-8").splitlines()[1:]

    def test_field_over_the_csv_size_limit_rejects_only_its_line(self, tmp_path):
        long_field = b"9" * 200_000
        evaluated, rejected = self._run(tmp_path, b"huge,1000," + long_field + b",250,60\n")
        assert evaluated == ["ok"]
        assert rejected == [f"line2,{REASON_BAD_ROW},expected four integer counts"]

    def test_byte_that_is_not_utf8_rejects_only_its_line(self, tmp_path):
        evaluated, rejected = self._run(tmp_path, b"latin,1000,2\xff0,250,60\n")
        assert evaluated == ["ok"]
        assert rejected == [f"latin,{REASON_BAD_ROW},expected four integer counts"]

    def test_unbalanced_quote_rejects_only_its_line(self, tmp_path):
        evaluated, rejected = self._run(
            tmp_path,
            b'a,1000,200,250,60\nb,"1000,200,250,60\nc,1000,200,250,63\nd,10,4,7,3\n',
        )
        assert evaluated == ["a", "c", "d", "ok"]
        assert rejected == [f"line3,{REASON_BAD_ROW},expected four integer counts"]


class TestBatchInvariant:
    """Every line after the header yields one output row or one reject, in
    input order, and the run exits 0, on seeded random byte streams of
    valid rows, stray quotes, bytes that are not UTF-8, fields over the
    csv size limit, huge counts, NUL bytes and blank lines."""

    @staticmethod
    def _line(rng: random.Random, i: int) -> bytes:
        if rng.random() < 0.15:  # every field empty or whitespace
            return rng.choice([b"", b"   ", b",,,,", b" ,\t, ,"])
        n = rng.randint(5, 3000)
        mx, ma = rng.randint(1, n - 1), rng.randint(1, n - 1)
        mxa = rng.randint(max(0, mx + ma - n), min(mx, ma))
        fields = [str(c).encode() for c in (n, mx, ma, mxa)]
        if rng.random() < 0.1:
            e = rng.choice([306, 400, 4400])  # 4400 digits exceed int()'s limit
            fields = [b"1" + b"0" * e, b"1" + b"0" * (e - 1), b"1" + b"0" * (e - 1), b"5" + b"0" * (e - 2)]
        if rng.random() < 0.1:
            fields[rng.randrange(4)] = b"9" * rng.randint(131_000, 140_000)
        if rng.random() < 0.1:
            del fields[rng.randrange(4)]
        tail = bytearray(b",".join(fields))
        for noise, share in ((b'"', 0.25), (b"\x00", 0.1), (None, 0.15)):
            while rng.random() < share:
                if noise is None:
                    noise = bytes(rng.randint(0x80, 0xFF) for _ in range(rng.randint(1, 3)))
                pos = rng.randint(0, len(tail))
                tail[pos:pos] = noise
        return f"r{i},".encode() + bytes(tail)

    @pytest.mark.parametrize("seed", range(20))
    def test_every_line_lands_in_exactly_one_stream_in_order(self, tmp_path, seed):
        rng = random.Random(seed)
        path = tmp_path / "in.csv"
        path.write_bytes(
            b"id,n,mx,ma,mxa\n"
            + b"".join(
                self._line(rng, i) + rng.choice([b"\n", b"\r\n", b"\r"]) for i in range(30)
            )
        )
        out, rejects = tmp_path / "out.csv", tmp_path / "rejects.csv"
        assert main(["batch", str(path), "--out", str(out), "--rejects", str(rejects)]) == EXIT_OK

        # split lines as the reader does; a row keeps its id, or gets its
        # line number when the csv module cannot split it
        with open(path, newline="", encoding="utf-8", errors="replace") as fh:
            lines = list(fh)[1:]
        expected = [
            {line.split(",", 1)[0], f"line{line_no}"}
            for line_no, line in enumerate(lines, 2)
            if line.strip(" \t\r\n,")
        ]
        streams = []
        for written in (out, rejects):
            with open(written, newline="", encoding="utf-8") as fh:
                streams.append([row[0] for row in csv.reader(fh)][1:])
        evaluated, rejected = streams
        for ids in expected:
            if evaluated and evaluated[0] in ids:
                evaluated.pop(0)
            else:
                assert rejected and rejected[0] in ids, (ids, evaluated[:1], rejected[:1])
                rejected.pop(0)
        assert evaluated == rejected == []


class TestChunkBoundaries:
    """The batch command reads CHUNK_LINES lines at a time and, past one
    chunk, evaluates the chunks in worker processes; no byte of its
    output, rejects or summary shows where one chunk ends."""

    # around each boundary: an id-less row, an unbalanced quote, blank
    # lines, and every reject reason
    SPECIAL = (
        ",1000,200,250,60",
        'q,"1000,200,250,60',
        "",
        " , ,\t, ,",
        "bad,1000,200,x,60",
        "margin,10,4,7,5",
        "degenerate,10,0,7,0",
        "negative,1000,200,250,40",
        f"huge,{2**50 + 1},200,250,100",
    )

    @classmethod
    def _corpus(cls, rng: random.Random) -> list[str]:
        """Three chunks and seven lines of data: valid tables, and the
        special lines shuffled over the four lines either side of each
        chunk boundary."""
        lines = []
        for i in range(3 * CHUNK_LINES + 7):
            n = rng.randint(5, 2000)
            mx, ma = rng.randint(1, n - 1), rng.randint(1, n - 1)
            mxa = rng.randint(max(0, mx + ma - n), min(mx, ma))
            lines.append(f"r{i},{n},{mx},{ma},{mxa}")
        for boundary in (CHUNK_LINES, 2 * CHUNK_LINES, 3 * CHUNK_LINES):
            around = list(cls.SPECIAL)
            rng.shuffle(around)
            lines[boundary - 4:boundary + 5] = around
        return lines

    @staticmethod
    def _command(path, tmp_path, flags, with_rejects, cpus, monkeypatch, capsys):
        monkeypatch.setattr(batch, "_usable_cpus", lambda: cpus)
        pooled = []
        in_order = batch._in_order
        monkeypatch.setattr(
            batch, "_in_order", lambda *args: pooled.append(1) or in_order(*args)
        )
        out, rejects = tmp_path / f"out{cpus}.csv", tmp_path / f"rejects{cpus}.csv"
        argv = ["batch", str(path), "--out", str(out), *flags]
        if with_rejects:
            argv += ["--rejects", str(rejects)]
        assert main(argv) == EXIT_OK
        assert bool(pooled) == (cpus > 1)
        assert multiprocessing.active_children() == []
        texts = [out.read_text(encoding="utf-8")]
        texts.append(rejects.read_text(encoding="utf-8") if with_rejects else None)
        return texts, capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, with_rejects",
        [([], True), (["--no-exact"], False), (["--negate"], True)],
        ids=["exact-rejects", "no-exact-summary", "negate-rejects"],
    )
    def test_pooled_run_matches_the_in_process_paths(
        self, flags, with_rejects, tmp_path, monkeypatch, capsys
    ):
        lines = self._corpus(random.Random(99))
        path = tmp_path / "in.csv"
        path.write_text("id,n,mx,ma,mxa\n" + "\n".join(lines) + "\n", encoding="utf-8")

        pooled, pooled_err = self._command(path, tmp_path, flags, with_rejects, 2, monkeypatch, capsys)
        serial, serial_err = self._command(path, tmp_path, flags, with_rejects, 1, monkeypatch, capsys)
        assert pooled == serial
        assert pooled_err == serial_err
        assert ("rejected" in pooled_err) != with_rejects

        # the library path reads and writes row by row, with no chunks
        out, rejects = io.StringIO(), io.StringIO() if with_rejects else None
        results = run_batch(
            read_table_csv(str(path)), negate="--negate" in flags, include_exact="--no-exact" not in flags
        )
        write_batch_csv(out, results, rejects)
        assert pooled == [out.getvalue(), rejects and rejects.getvalue()]

        # a line<N> id names a line that had no id, or (a reject, so only
        # with --rejects) one the csv module could not split, by its true
        # line number
        text = "".join(t for t in pooled if t)
        named = {int(m) for m in re.findall(r"^line(\d+),", text, re.MULTILINE)}
        expected = {
            line_no
            for line_no, line in enumerate(lines, 2)
            if line.startswith(",") or (with_rejects and '"' in line)
        }
        assert named == expected
        assert len(named) == (6 if with_rejects else 3)
