"""The per-row records: immutable, without a per-instance __dict__,
returned equal by pickle and copy, and well formed where the hot path
builds them with tuple's own constructor."""

from __future__ import annotations

import copy
import pickle

import pytest

from fisherbounds import (
    ApproxReport,
    BatchRecord,
    Chi2Result,
    ContingencyTable,
    PValue,
    Reject,
    TermEngine,
    build_table,
    derive_stats,
    guarantees,
    make_term_engine,
    report,
    run_batch,
)

from conftest import CORPUS_SEED, iter_exhaustive, random_positive_tables

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


# report, make_term_engine and run_batch build their records with tuple's
# own constructor, which checks neither the count nor the class of what it
# is given; so every record they return is checked against the class call
HOT_PATH_TABLES = (
    list(iter_exhaustive(max_n=12, positive_only=True))
    + random_positive_tables(500, 20000, seed=CORPUS_SEED)
    + [build_table(n, n // 2, n // 2, n // 4 + 1) for n in (10**4, 10**5, 10**6)]
)
HOT_PATH_KS = (1, 2, 3, 7)


def _check_record(record, cls) -> None:
    assert type(record) is cls
    assert len(record) == len(cls._fields)
    assert record == cls(*record)


def _check_report(rep: ApproxReport, include_exact: bool) -> None:
    _check_record(rep, ApproxReport)
    pvalues = [rep.ub1, rep.ub2, rep.ub_k]
    if include_exact:
        pvalues.append(rep.p_fisher)
    else:
        assert rep.p_fisher is None
    for pv in pvalues:
        _check_record(pv, PValue)
        assert type(pv.raw_log) is float and type(pv.terms_evaluated) is int
    _check_record(rep.chi2, Chi2Result)


def test_hot_path_corpus_spans_short_and_full_exact_sums():
    # J = 0 tables, and tables whose certified sum stops early or adds every term
    assert len(HOT_PATH_TABLES) > 1000
    assert min(t.j for t in HOT_PATH_TABLES) == 0 and max(t.j for t in HOT_PATH_TABLES) > 10**5
    reports = [report(t, k=1) for t in HOT_PATH_TABLES]
    assert any(r.p_fisher.terms_evaluated < r.terms for r in reports)
    assert any(r.p_fisher.terms_evaluated == r.terms > 1 for r in reports)


def test_term_engines_are_well_formed():
    for t in HOT_PATH_TABLES:
        engine = make_term_engine(t)
        _check_record(engine, TermEngine)
        assert engine.table is t


@pytest.mark.parametrize("include_exact", [True, False])
@pytest.mark.parametrize("k", HOT_PATH_KS)
def test_reports_are_well_formed(k, include_exact):
    for t in HOT_PATH_TABLES:
        rep = report(t, k=k, include_exact=include_exact)
        _check_report(rep, include_exact)
        assert rep.table is t and rep.k_used == k


@pytest.mark.parametrize("include_exact", [True, False])
@pytest.mark.parametrize("k", HOT_PATH_KS)
def test_batch_records_are_well_formed(k, include_exact):
    rows = [(f"r{i}", [str(t.n), str(t.mx), str(t.ma), str(t.mxa)]) for i, t in enumerate(HOT_PATH_TABLES)]
    results = list(run_batch(rows, k=k, include_exact=include_exact))
    assert len(results) == len(rows)
    for (row_id, _), rec in zip(rows, results):
        _check_record(rec, BatchRecord)
        assert rec.row_id == row_id
        _check_report(rec.report, include_exact)
