"""Reference grid: shape, per-cell checking, annotation rules."""

from __future__ import annotations

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
from fisherbounds.reftables import (
    ANNOTATIONS,
    KIND_LAST_DIGIT,
    KIND_MISPRINT,
    KIND_PRINT_PRECISION,
    KIND_PRINT_TRUNCATION,
    REF_COLUMNS,
    Annotation,
    plain_tolerance,
)


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


class TestAnnotationRules:
    def test_truncation_window_is_half_open(self):
        ann = Annotation(KIND_PRINT_TRUNCATION, None, "")
        assert ann.accepts(0.05595, 0.0559, "p_fisher")
        assert ann.accepts(0.0559, 0.0559, "p_fisher")
        assert not ann.accepts(0.05589, 0.0559, "p_fisher")
        assert not ann.accepts(0.0561, 0.0559, "p_fisher")

    def test_last_digit_allows_exactly_one_step(self):
        ann = Annotation(KIND_LAST_DIGIT, None, "")
        assert ann.accepts(0.0011749, 0.00118, "ub1")
        assert not ann.accepts(0.0011649, 0.00118, "ub1")

    def test_misprint_checks_against_the_corrected_reading(self):
        ann = Annotation(KIND_MISPRINT, 0.0088, "")
        assert ann.accepts(0.00879, 0.088, "chi2_p")
        assert not ann.accepts(0.0101, 0.088, "chi2_p")

    def test_print_precision_widens_to_four_decimals(self):
        ann = Annotation(KIND_PRINT_PRECISION, None, "")
        assert ann.accepts(0.00961715, 0.0096, "p_fisher")
        assert not ann.accepts(0.0097, 0.0096, "p_fisher")

    def test_unknown_kind_is_an_error(self):
        with pytest.raises(ValueError, match="unknown annotation kind"):
            Annotation("SMUDGE", None, "").accepts(0.1, 0.1, "ub1")


class TestTolerances:
    def test_normal_tail_column_is_coarser(self):
        assert plain_tolerance("chi2_p", 0.00050) == 1e-3

    @pytest.mark.parametrize(
        "recorded,expected",
        [(0.0569, 5e-5), (0.01, 5e-5), (0.00096, 5e-6)],
    )
    def test_tail_columns_scale_with_the_recorded_magnitude(self, recorded, expected):
        assert plain_tolerance("ub1", recorded) == expected
