"""Overlap sweeps: validation, point evaluation, CSV shape."""

from __future__ import annotations

import io

import pytest

from fisherbounds import (
    InvalidK,
    MarginViolation,
    NegativeDependency,
    SweepSpec,
    make_term_engine,
    report,
    run_sweep,
    sweep_header,
    ub_k,
    write_sweep_csv,
)


def _leq(a, b) -> bool:
    return a.linear_value <= b.linear_value * (1.0 + 1e-12)


class TestSweepSpec:
    def test_empty_range_is_rejected(self):
        with pytest.raises(ValueError, match="empty sweep"):
            SweepSpec(1000, 200, 250, 70, 60)

    @pytest.mark.parametrize("bad", [2, 1, 0, -3, True, 2.5, "3"])
    def test_extra_orders_below_three_are_rejected(self, bad):
        with pytest.raises(InvalidK, match="orders 1 and 2 are always included"):
            SweepSpec(1000, 200, 250, 55, 60, ks=(bad,))

    @pytest.mark.parametrize("ks", [(3, 5), (3, 5, 8), ()])
    def test_anything_but_one_order_is_refused(self, ks):
        with pytest.raises(InvalidK, match="exactly one extra bound order"):
            SweepSpec(1000, 200, 250, 55, 60, ks=ks)

    def test_endpoints_are_validated_as_tables(self):
        with pytest.raises(MarginViolation):
            SweepSpec(1000, 200, 250, 55, 201)

    def test_low_endpoint_must_show_positive_dependency(self):
        with pytest.raises(NegativeDependency, match="smallest admissible mxa is 51"):
            SweepSpec(1000, 200, 250, 50, 60)

    def test_first_admissible_overlap_is_accepted(self):
        spec = SweepSpec(1000, 200, 250, 51, 51)
        assert [r.table.mxa for r in run_sweep(spec)] == [51]

    def test_tables_walk_the_overlap_range(self):
        spec = SweepSpec(1000, 200, 250, 55, 60)
        tables = [r.table for r in run_sweep(spec)]
        assert [t.mxa for t in tables] == [55, 56, 57, 58, 59, 60]
        assert all((t.n, t.mx, t.ma) == (1000, 200, 250) for t in tables)


class TestRunSweep:
    def test_point_anchors(self):
        points = run_sweep(SweepSpec(1000, 200, 250, 55, 65, ks=(3,)))
        by_mxa = {p.table.mxa: p for p in points}
        assert by_mxa[55].terms == 146
        assert by_mxa[60].terms == 141
        assert by_mxa[65].terms == 136
        assert by_mxa[55].lift == 1.1
        assert by_mxa[60].lift == 1.2
        assert by_mxa[65].lift == 1.3

    def test_each_point_keeps_the_bound_ordering(self):
        points = run_sweep(SweepSpec(1000, 200, 250, 51, 120, ks=(3,)))
        for p in points:
            assert _leq(p.p_fisher, p.ub_k)
            assert _leq(p.ub_k, p.ub2)
            assert _leq(p.ub2, p.ub1)

    def test_gaps_close_as_the_overlap_grows(self):
        points = run_sweep(SweepSpec(1000, 200, 250, 51, 120, ks=(3,)))
        gap2 = [p.ub2.linear_value - p.p_fisher.linear_value for p in points]
        gap3 = [p.ub_k.linear_value - p.p_fisher.linear_value for p in points]
        for gaps in (gap2, gap3):
            assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        gap1 = [p.ub1.linear_value - p.p_fisher.linear_value for p in points]
        assert gap1[-1] < 1e-30 < gap1[0]

    def test_high_order_collapses_onto_the_exact_value(self):
        points = run_sweep(SweepSpec(100, 20, 30, 10, 15, ks=(200,)))
        for p in points:
            assert p.ub_k.raw_log == p.p_fisher.raw_log

    def test_exact_column_is_optional(self):
        points = run_sweep(SweepSpec(1000, 200, 250, 55, 56, include_exact=False))
        assert all(p.p_fisher is None for p in points)
        assert all(p.ub1.linear_value > 0 for p in points)

    def test_requested_orders_are_all_present(self):
        (point,) = run_sweep(SweepSpec(1000, 200, 250, 60, 60, ks=(8,)))
        assert point.k_used == 8
        assert point.ub_k == ub_k(make_term_engine(point.table), 8)

    def test_points_match_report_and_ub_k(self):
        spec = SweepSpec(1000, 200, 250, 58, 60, ks=(7,))
        for p in run_sweep(spec):
            assert p == report(p.table, k=7)
            assert p.ub_k == ub_k(make_term_engine(p.table), 7)


class TestWriteSweepCsv:
    def test_header_tracks_the_requested_orders(self):
        spec = SweepSpec(1000, 200, 250, 60, 60, ks=(5,))
        assert sweep_header(spec) == (
            "mxa", "j", "terms", "lift", "leverage", "odds",
            "p_fisher", "ub1", "ub2", "ub5",
        )

    def test_rows_mirror_the_points(self):
        spec = SweepSpec(1000, 200, 250, 60, 62, ks=(3,))
        points = run_sweep(spec)
        out = io.StringIO()
        write_sweep_csv(out, spec, points)
        text = out.getvalue()
        assert "\r" not in text
        lines = text.splitlines()
        assert len(lines) == 4
        first = dict(zip(sweep_header(spec), lines[1].split(",")))
        assert first["mxa"] == "60"
        assert first["j"] == "140"
        assert first["terms"] == "141"
        assert first["lift"] == "1.2"
        assert first["leverage"] == "0.01"
        assert first["p_fisher"] == "0.0428803"
        assert first["ub1"] == f"{points[0].ub1.linear_value:.6g}"
        assert first["ub3"] == f"{points[0].ub_k.linear_value:.6g}"

    def test_underflowed_values_print_from_the_log(self):
        spec = SweepSpec(5000, 2500, 2500, 2395, 2400)
        out = io.StringIO()
        write_sweep_csv(out, spec, run_sweep(spec))
        header, *rows = out.getvalue().splitlines()
        for line in rows:
            row = dict(zip(header.split(","), line.split(",")))
            for column in ("p_fisher", "ub1", "ub2", "ub3"):
                assert int(row[column].partition("e")[2]) < -1000, row
        # the same digits as eval 5000 2500 2500 2400 prints
        assert dict(zip(header.split(","), rows[-1].split(",")))["p_fisher"] == (
            "5.04951e-1142"
        )

    def test_missing_exact_column_is_empty(self):
        spec = SweepSpec(1000, 200, 250, 60, 60, include_exact=False)
        out = io.StringIO()
        write_sweep_csv(out, spec, run_sweep(spec))
        row = out.getvalue().splitlines()[1].split(",")
        assert row[sweep_header(spec).index("p_fisher")] == ""
