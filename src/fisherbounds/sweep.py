"""Overlap sweeps: fixed margins, a range of overlap counts.

A sweep walks mxa over [mxa_lo, mxa_hi] with n, mx, ma held fixed and
evaluates report at each point, so values print as in batch.  This is
the shape of a convergence study: as the overlap count grows past
independence, every bound closes onto the exact value from above.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterator

from .batch import format_float, format_pvalue
from .bounds import _require_extra_k, report, ub_k
from .contingency import ContingencyTable, _smallest_admissible, build_table
from .errors import NegativeDependency
from .exact import PValue, make_term_engine

__all__ = ["SweepSpec", "SweepPoint", "run_sweep", "sweep_header", "write_sweep_csv"]


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """A validated sweep request.

    ks lists the extra bound orders to evaluate alongside ub1 and ub2;
    each must be at least 3 because orders 1 and 2 already have their
    own columns.  include_exact=False drops the exact column for speed.
    """

    n: int
    mx: int
    ma: int
    mxa_lo: int
    mxa_hi: int
    ks: tuple[int, ...] = (3,)
    include_exact: bool = True

    def __post_init__(self) -> None:
        if self.mxa_lo > self.mxa_hi:
            raise ValueError(
                f"empty sweep: mxa_lo={self.mxa_lo} exceeds mxa_hi={self.mxa_hi}"
            )
        for k in self.ks:
            _require_extra_k(k)
        lo = build_table(self.n, self.mx, self.ma, self.mxa_lo)
        build_table(self.n, self.mx, self.ma, self.mxa_hi)
        if not lo.positive_dependency:
            raise NegativeDependency(
                f"mxa={self.mxa_lo} gives no positive dependency for"
                f" n={self.n}, mx={self.mx}, ma={self.ma}; {_smallest_admissible(lo)}"
            )

    def tables(self) -> Iterator[ContingencyTable]:
        for mxa in range(self.mxa_lo, self.mxa_hi + 1):
            yield build_table(self.n, self.mx, self.ma, mxa)


@dataclass(frozen=True, slots=True)
class SweepPoint:
    table: ContingencyTable
    lift: float
    leverage: float
    odds_ratio: float
    terms: int
    p_fisher: PValue | None
    ub1: PValue
    ub2: PValue
    ub_ks: dict[int, PValue]


def run_sweep(spec: SweepSpec) -> list[SweepPoint]:
    """One report per overlap at the first order in ks, plus ub_k for the rest."""
    ks = spec.ks
    points = []
    for t in spec.tables():
        rep = report(t, k=ks[0] if ks else 1, include_exact=spec.include_exact)
        ub_ks = dict.fromkeys(ks[:1], rep.ub_k)
        if len(ks) > 1:
            engine = make_term_engine(t)
            ub_ks.update((k, ub_k(engine, k)) for k in ks[1:])
        s = rep.stats
        points.append(
            SweepPoint(
                table=t,
                lift=s.lift,
                leverage=s.leverage,
                odds_ratio=s.odds_ratio,
                terms=t.j + 1,
                p_fisher=rep.p_fisher,
                ub1=rep.ub1,
                ub2=rep.ub2,
                ub_ks=ub_ks,
            )
        )
    return points


def sweep_header(spec: SweepSpec) -> tuple[str, ...]:
    return (
        "mxa", "j", "terms", "lift", "leverage", "odds",
        "p_fisher", "ub1", "ub2", *(f"ub{k}" for k in spec.ks),
    )


def write_sweep_csv(out: IO[str], spec: SweepSpec, points: list[SweepPoint]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(sweep_header(spec))
    for p in points:
        writer.writerow(
            [
                str(p.table.mxa),
                str(p.table.j),
                str(p.terms),
                format_float(p.lift),
                format_float(p.leverage),
                format_float(p.odds_ratio),
                format_pvalue(p.p_fisher) if p.p_fisher is not None else "",
                format_pvalue(p.ub1),
                format_pvalue(p.ub2),
                *(format_pvalue(p.ub_ks[k]) for k in spec.ks),
            ]
        )
