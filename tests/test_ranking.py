"""Rank agreement: key recovery, orderings, pairwise statistics."""

from __future__ import annotations

import io
import math

import pytest

from fisherbounds import (
    MEASURES,
    OUTPUT_HEADER,
    RankedRow,
    rank_agreement,
    ranking,
    rows_from_batch_csv,
    run_batch,
    write_batch_csv,
)
from fisherbounds.ranking import _log10_key, _spearman

from conftest import random_positive_tables, read_back


def _rows(*pairs):
    return [RankedRow(row_id, {"m": key}) for row_id, key in pairs]


class TestLog10Key:
    def test_plain_decimal(self):
        assert _log10_key("0.05") == pytest.approx(math.log10(0.05))

    def test_synthesized_exponent_form(self):
        assert _log10_key("3.68403e-348") == pytest.approx(
            math.log10(3.68403) - 348
        )

    def test_zero_maps_to_negative_infinity(self):
        assert _log10_key("0") == -math.inf

    def test_deep_tails_keep_their_order(self):
        assert _log10_key("9.9e-321") < _log10_key("1e-320") < _log10_key("1.1e-320")

    def test_empty_field_is_an_error(self):
        with pytest.raises(ValueError, match="missing value"):
            _log10_key("  ")


class TestRanking:
    def test_most_significant_first(self):
        rows = _rows(("a", -3.0), ("b", -9.0), ("c", -5.0))
        assert ranking(rows, "m") == ["b", "c", "a"]

    def test_ties_break_on_row_id(self):
        rows = _rows(("z", -2.0), ("a", -2.0), ("k", -2.0))
        assert ranking(rows, "m") == ["a", "k", "z"]

    def test_missing_measure_is_an_error(self):
        with pytest.raises(ValueError, match="not present in every row"):
            ranking(_rows(("a", -1.0)), "other")


class TestSpearman:
    def test_identical_orders(self):
        assert _spearman(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_reversed_orders(self):
        assert _spearman(["a", "b", "c", "d"], ["d", "c", "b", "a"]) == -1.0

    def test_single_row_defaults_to_one(self):
        assert _spearman(["a"], ["a"]) == 1.0


class TestRankAgreement:
    def test_pairs_cover_all_measure_combinations(self):
        rows = [
            RankedRow("a", {"x": -1.0, "y": -1.0, "z": -3.0}),
            RankedRow("b", {"x": -2.0, "y": -2.0, "z": -1.0}),
            RankedRow("c", {"x": -3.0, "y": -3.0, "z": -2.0}),
        ]
        rep = rank_agreement(rows, 2, measures=("x", "y", "z"))
        assert rep.row_count == 3
        assert rep.top_k == 2
        assert len(rep.pairs) == 3
        assert rep.pair("x", "y").top_overlap == 1.0
        assert rep.pair("x", "y").spearman == 1.0
        assert rep.pair("z", "x").top_overlap == 0.5

    def test_pair_lookup_is_order_free(self):
        rows = [RankedRow("a", {"x": -1.0, "y": -1.0})]
        rep = rank_agreement(rows, 1, measures=("x", "y"))
        assert rep.pair("y", "x") is rep.pair("x", "y")
        with pytest.raises(KeyError):
            rep.pair("x", "w")

    def test_top_k_is_capped_by_the_row_count(self):
        rows = [
            RankedRow("a", {"x": -1.0, "y": -3.0}),
            RankedRow("b", {"x": -2.0, "y": -2.0}),
            RankedRow("c", {"x": -3.0, "y": -1.0}),
        ]
        rep = rank_agreement(rows, 100, measures=("x", "y"))
        assert rep.pair("x", "y").top_overlap == 1.0

    def test_nonpositive_top_k_is_an_error(self):
        with pytest.raises(ValueError, match="top_k must be positive"):
            rank_agreement([], 0)


@pytest.fixture(scope="module")
def records():
    tables = random_positive_tables(80, 400, seed=9)
    rows = [
        (f"r{i}", [str(t.n), str(t.mx), str(t.ma), str(t.mxa)])
        for i, t in enumerate(tables)
    ]
    return list(run_batch(rows))


def _log_keys(rec) -> dict[str, float]:
    """Natural-log ordering keys straight from a report."""
    r = rec.report
    chi = r.chi2.p_one_sided
    return {
        "p_fisher": r.p_fisher.raw_log,
        "ub1": r.ub1.raw_log,
        "ub2": r.ub2.raw_log,
        "ubk": r.ub_k.raw_log,
        "chi2_p": math.log(chi) if chi > 0.0 else -math.inf,
    }


@pytest.fixture(scope="module")
def batch_rows(records, tmp_path_factory):
    return read_back(records, tmp_path_factory.mktemp("ranking") / "batch.csv")


class TestOnEvaluatedTables:
    def test_bounds_preserve_the_exact_top_twenty(self, batch_rows):
        rep = rank_agreement(batch_rows, 20)
        for bound in ("ub1", "ub2", "ubk"):
            pair = rep.pair("p_fisher", bound)
            assert pair.top_overlap == 1.0
            assert pair.spearman > 0.995

    def test_normal_tail_agrees_less_than_the_bounds_do(self, batch_rows):
        rep = rank_agreement(batch_rows, 20)
        chi = rep.pair("p_fisher", "chi2_p")
        assert chi.top_overlap <= 0.9
        for bound in ("ub1", "ub2", "ubk"):
            assert chi.spearman < rep.pair("p_fisher", bound).spearman

    def test_csv_round_trip_preserves_keys_and_order(self, records, tmp_path):
        # written probabilities are clamped at 1, so only rows whose
        # bounds stay below 1 round-trip losslessly
        strict = [rec for rec in records if rec.report.ub1.raw_log < 0.0]
        assert len(strict) >= 40
        from_csv = read_back(strict, tmp_path / "batch.csv")
        direct = [RankedRow(rec.row_id, _log_keys(rec)) for rec in strict]
        assert [r.row_id for r in from_csv] == [r.row_id for r in direct]
        ln10 = math.log(10.0)
        for a, b in zip(from_csv, direct):
            for m in MEASURES:
                if math.isinf(b.keys[m]):
                    assert math.isinf(a.keys[m])
                else:
                    assert a.keys[m] == pytest.approx(b.keys[m] / ln10, abs=1e-5)
        for m in MEASURES:
            assert ranking(from_csv, m) == ranking(direct, m)

    def test_clamped_rows_collapse_to_the_top_of_the_csv_scale(self, records):
        clamped = [rec for rec in records if rec.report.ub1.clamped]
        assert clamped
        out = io.StringIO()
        write_batch_csv(out, clamped, None)
        line = out.getvalue().splitlines()[1]
        row = dict(zip(OUTPUT_HEADER, line.split(",")))
        assert row["ub1"] == "1"
        assert clamped[0].report.ub1.raw_log > 0.0


class TestRowsFromBatchCsv:
    def test_blank_lines_are_skipped(self, records, tmp_path):
        out = io.StringIO()
        write_batch_csv(out, records[:3], None)
        header, *lines = out.getvalue().splitlines(keepends=True)
        plain = tmp_path / "plain.csv"
        plain.write_text(out.getvalue(), encoding="utf-8")
        spaced = tmp_path / "spaced.csv"
        spaced.write_text(header + "\n" + "\n\n".join(lines) + "\n", encoding="utf-8")
        assert rows_from_batch_csv(str(spaced)) == rows_from_batch_csv(str(plain))

    def test_rejects_a_foreign_header(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("id,value\na,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a batch output file"):
            rows_from_batch_csv(str(path))

    def test_rejects_output_generated_without_exact_values(self, tmp_path):
        out = io.StringIO()
        write_batch_csv(
            out,
            run_batch([("a", ["1000", "200", "250", "60"])], include_exact=False),
            None,
        )
        path = tmp_path / "noexact.csv"
        path.write_text(out.getvalue(), encoding="utf-8")
        with pytest.raises(ValueError, match="regenerate it without --no-exact"):
            rows_from_batch_csv(str(path))
