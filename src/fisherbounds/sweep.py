"""Overlap sweeps: fixed margins, a range of overlap counts.

A sweep walks mxa over [mxa_lo, mxa_hi] with n, mx, ma held fixed and
evaluates report at each point, so values print as in batch.  The
command writes each report as it is made, in constant memory.  This is
the shape of a convergence study: as the overlap count grows past
independence, every bound closes onto the exact value from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .batch import format_pvalue
from .bounds import ApproxReport, _require_extra_k, report
from .contingency import _smallest_admissible, build_table
from .errors import NegativeDependency
from .exact import make_term_engine

__all__ = ["SweepSpec", "run_sweep", "sweep_header", "write_sweep_csv"]


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """A validated sweep request.

    k is the one extra bound order to evaluate alongside ub1 and ub2;
    it must be at least 3 because orders 1 and 2 already have their
    own columns.  include_exact=False drops the exact column for
    speed.
    """

    n: int
    mx: int
    ma: int
    mxa_lo: int
    mxa_hi: int
    k: int = 3
    include_exact: bool = True

    def __post_init__(self) -> None:
        if self.mxa_lo > self.mxa_hi:
            raise ValueError(
                f"empty sweep: mxa_lo={self.mxa_lo} exceeds mxa_hi={self.mxa_hi}"
            )
        _require_extra_k(self.k)
        lo = build_table(self.n, self.mx, self.ma, self.mxa_lo)
        build_table(self.n, self.mx, self.ma, self.mxa_hi)
        # every overlap above lo has the same n and a larger leverage, so
        # the engine that accepts lo accepts every point before output starts
        try:
            make_term_engine(lo)
        except NegativeDependency:
            raise NegativeDependency(
                f"mxa={self.mxa_lo} gives no positive dependency for n={self.n}, mx={self.mx},"
                f" ma={self.ma}; smallest admissible mxa is {_smallest_admissible(lo)}"
            ) from None


def _reports(spec: SweepSpec) -> Iterator[ApproxReport]:
    """One report per overlap at order spec.k, made as it is consumed."""
    for mxa in range(spec.mxa_lo, spec.mxa_hi + 1):
        yield report(build_table(spec.n, spec.mx, spec.ma, mxa), k=spec.k, include_exact=spec.include_exact)


def run_sweep(spec: SweepSpec) -> list[ApproxReport]:
    """One report per overlap at order spec.k, in overlap order."""
    return list(_reports(spec))


def sweep_header(spec: SweepSpec) -> tuple[str, ...]:
    return (
        "mxa", "j", "terms", "lift", "leverage", "odds",
        "p_fisher", "ub1", "ub2", f"ub{spec.k}",
    )


# an output line, as batch writes its rows: no field holds a character
# that csv.writer would quote
_ROW = "%d,%d,%d,%.6g,%.6g,%.6g,%s,%s,%s,%s\n"


def write_sweep_csv(out: IO[str], spec: SweepSpec, reports: Iterable[ApproxReport]) -> None:
    """Write the header, then each report as it arrives."""
    out.write(",".join(sweep_header(spec)) + "\n")
    for r in reports:
        out.write(_ROW % (
            r.table.mxa, r.table.j, r.terms, r.lift, r.leverage, r.odds_ratio,
            "" if r.p_fisher is None else format_pvalue(r.p_fisher),
            format_pvalue(r.ub1), format_pvalue(r.ub2), format_pvalue(r.ub_k),
        ))
