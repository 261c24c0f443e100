"""Reference grid: shape, per-cell checking, the annotation rule."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from fisherbounds import (
    ROWS,
    STATUS_ANNOTATED,
    STATUS_FAIL,
    STATUS_PASS,
    build_table,
    exact_fisher,
    make_term_engine,
    check_rows,
)
from fisherbounds import reftables
from fisherbounds.reftables import ANNOTATIONS, REF_COLUMNS, plain_tolerance


class TestGrid:
    def test_dimensions(self):
        assert len(ROWS) == 18
        assert len({row.key for row in ROWS}) == 18
        sizes = Counter(row.n for row in ROWS)
        assert sizes == {1000: 9, 10000: 9}
        cases = Counter(row.case for row in ROWS)
        assert cases == {1: 6, 2: 6, 3: 6}

    def test_every_row_records_all_columns(self):
        for row in ROWS:
            assert tuple(row.recorded) == REF_COLUMNS

    def test_rows_for_case_partitions_the_grid(self):
        split = [{ch.row.key for ch in check_rows(case=c)} for c in (1, 2, 3)]
        assert [len(s) for s in split] == [6, 6, 6]
        assert set().union(*split) == {row.key for row in ROWS}

    def test_rows_are_valid_positive_dependency_tables(self):
        for row in ROWS:
            t = build_table(*row.key)
            assert t.delta_counts > 0


class TestCheckRows:
    def test_whole_grid_status_census(self):
        checks = check_rows()
        assert len(checks) == 90
        census = Counter(ch.status for ch in checks)
        assert census == {STATUS_PASS: 83, STATUS_ANNOTATED: 7}

    def test_annotated_cells_are_exactly_the_known_artifacts(self):
        flagged = {
            (*ch.row.key, ch.column)
            for ch in check_rows()
            if ch.status == STATUS_ANNOTATED
        }
        assert flagged == set(ANNOTATIONS)

    def test_case_filter(self):
        checks = check_rows(case=1)
        assert len(checks) == 30
        assert all(ch.row.case == 1 for ch in checks)

    def test_tolerance_override_replaces_plain_checks(self):
        census = Counter(ch.status for ch in check_rows(tolerance=0.5))
        assert census == {STATUS_PASS: 90}

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0])
    def test_tolerance_that_is_not_finite_and_non_negative_is_refused(self, tolerance):
        # nan and -1 would fail 83 cells, inf would pass all 90
        with pytest.raises(ValueError, match="finite number >= 0"):
            check_rows(tolerance=tolerance)

    def test_annotations_survive_a_crushing_tolerance(self):
        census = Counter(ch.status for ch in check_rows(tolerance=1e-12))
        assert census == {STATUS_FAIL: 83, STATUS_ANNOTATED: 7}

    def test_note_texts(self):
        for ch in check_rows(tolerance=1e-12):
            if ch.status == STATUS_FAIL:
                assert " > " in ch.note
            else:
                assert ch.note
        assert all(ch.note == "" for ch in check_rows() if ch.status == STATUS_PASS)

    def test_a_note_claim_matches_the_computation(self):
        # the annotation text carries the computed reading it excuses
        t = build_table(1000, 500, 500, 269)
        value = exact_fisher(make_term_engine(t)).linear_value
        assert value == pytest.approx(0.00961715, abs=5e-9)


class TestAnnotationRule:
    def test_each_annotation_accepts_its_corrected_reading_alone(self, monkeypatch):
        # the computed value misses the recorded reading and passes the
        # corrected one; with the plain checks crushed, the corrected
        # reading itself passes and values one print unit (twice the
        # plain tolerance) away from it fail
        checks = {(*ch.row.key, ch.column): ch for ch in check_rows()}
        for key, annotation in ANNOTATIONS.items():
            ch, column = checks[key], key[-1]
            assert abs(ch.computed - ch.recorded) > plain_tolerance(column, ch.recorded)
            assert abs(ch.computed - annotation.corrected) <= plain_tolerance(
                column, annotation.corrected
            )
            assert ch.status == STATUS_ANNOTATED

        computed_columns = reftables._computed_columns
        for units in (0, -1, 1):
            def shifted(row, units=units):
                columns = computed_columns(row)
                for column in REF_COLUMNS:
                    annotation = ANNOTATIONS.get((*row.key, column))
                    if annotation is not None:
                        unit = 2 * plain_tolerance(column, annotation.corrected)
                        columns[column] = annotation.corrected + units * unit
                return columns

            monkeypatch.setattr(reftables, "_computed_columns", shifted)
            for ch in check_rows(tolerance=1e-12):
                if (*ch.row.key, ch.column) not in ANNOTATIONS:
                    continue
                if units == 0:
                    assert ch.status == STATUS_ANNOTATED
                elif abs(ch.computed - ch.recorded) <= 1e-12:
                    # a last digit off by one: the shift lands on the record
                    assert ch.status == STATUS_PASS
                else:
                    assert ch.status == STATUS_FAIL


class TestTolerances:
    def test_normal_tail_column_is_coarser(self):
        assert plain_tolerance("chi2_p", 0.00050) == 1e-3

    @pytest.mark.parametrize(
        "recorded,expected",
        [(0.0569, 5e-5), (0.01, 5e-5), (0.00096, 5e-6)],
    )
    def test_tail_columns_scale_with_the_recorded_magnitude(self, recorded, expected):
        assert plain_tolerance("ub1", recorded) == expected
