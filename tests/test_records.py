"""The per-row records: immutable, without a per-instance __dict__, and
returned equal by pickle and copy."""

from __future__ import annotations

import copy
import pickle

import pytest

from fisherbounds import (
    ApproxReport,
    BatchRecord,
    ContingencyTable,
    PValue,
    Reject,
    build_table,
    derive_stats,
    guarantees,
    make_term_engine,
    report,
    run_batch,
)

TABLE = build_table(1000, 200, 250, 60)
REPORT = report(TABLE, k=3)
ACCEPTED, REJECTED = run_batch([("a", ["1000", "200", "250", "60"]), ("b", ["10", "4", "7", "9"])])
RECORDS = {
    "ContingencyTable": TABLE,
    "DerivedStats": derive_stats(TABLE),
    "GuaranteeFlags": guarantees(derive_stats(TABLE)),
    "TermEngine": make_term_engine(TABLE),
    "PValue": REPORT.p_fisher,
    "Chi2Result": REPORT.chi2,
    "ApproxReport": REPORT,
    "BatchRecord": ACCEPTED,
    "Reject": REJECTED,
}
ROUTES = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _fields(record) -> tuple[str, ...]:
    return ContingencyTable.__slots__ if isinstance(record, ContingencyTable) else record._fields


def test_every_record_is_covered():
    assert sorted(type(record).__name__ for record in RECORDS.values()) == sorted(RECORDS)
    assert isinstance(ACCEPTED, BatchRecord) and isinstance(REJECTED, Reject)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", RECORDS)
def test_round_trip_returns_an_equal_record(name, route):
    record = RECORDS[name]
    again = ROUTES[route](record)
    assert type(again) is type(record)
    assert again == record
    assert hash(again) == hash(record)
    # a table comes back with all nine values, the five derived cells included
    assert [getattr(again, f) for f in _fields(record)] == [getattr(record, f) for f in _fields(record)]


@pytest.mark.parametrize("name", RECORDS)
def test_every_field_refuses_assignment_and_deletion(name):
    record = RECORDS[name]
    before = [getattr(record, f) for f in _fields(record)]
    for field in _fields(record):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert not hasattr(record, "__dict__")
    assert [getattr(record, f) for f in _fields(record)] == before


def test_named_tuple_records_behave_as_tuples_of_their_fields():
    raw_log, terms = REPORT.ub1
    assert REPORT.ub1 == (raw_log, terms) == PValue(raw_log, terms)
    assert PValue(-2.0, 1) < PValue(-1.0, 1)
    assert tuple(REPORT)[:4] == (TABLE, REPORT.lift, REPORT.leverage, REPORT.odds_ratio)
    assert len(REPORT) == len(ApproxReport._fields) == 14


def test_table_is_not_a_tuple_but_hashes_like_its_four_counts():
    moved = ContingencyTable(1000, 200, 250, 61)
    assert TABLE != moved and TABLE != (1000, 200, 250, 60)
    assert hash(TABLE) == hash((1000, 200, 250, 60))
