"""Validated 2x2 contingency tables and the quantities derived from them.

A table records how often an antecedent X and a consequent A hold among
n rows.  Four counts pin it down completely: n, m(X), m(A) and m(XA);
the remaining cells follow by subtraction and stay non-negative for any
valid input.  Everything downstream (the exact tail sum, the upper
bounds, the chi-square baseline) consumes these tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DegenerateMargin, MarginViolation

__all__ = [
    "ContingencyTable",
    "DerivedStats",
    "build_table",
    "derive_stats",
    "negate_consequent",
]


@dataclass(frozen=True, slots=True)
class ContingencyTable:
    """Counts of a 2x2 table: n rows, margins mx and ma, joint count mxa.

    The remaining cells are computed once at construction:

        mxna  = m(X, not A)      = mx - mxa
        mnxa  = m(not X, A)      = ma - mxa
        mnxna = m(not X, not A)  = n - mx - ma + mxa

    and so are delta_counts = n*mxa - mx*ma, the leverage scaled by n**2,
    and j = min(mxna, mnxa), the number of tables more extreme than this
    one.  delta_counts is an exact integer whose sign classifies the
    dependency, so every sign decision in the package compares it
    against 0 rather than a rounded float; it also equals
    mxa*mnxna - mxna*mnxa.  Equality, hashing and repr use the four
    counts alone.

    Margins must be non-degenerate (0 < mx < n, 0 < ma < n) and mxa must
    lie inside the Frechet bounds max(0, mx + ma - n) <= mxa <= min(mx, ma).
    Construction validates all of this; instances are immutable and safe
    to share across threads.
    """

    n: int
    mx: int
    ma: int
    mxa: int
    mxna: int = field(init=False, repr=False, compare=False)
    mnxa: int = field(init=False, repr=False, compare=False)
    mnxna: int = field(init=False, repr=False, compare=False)
    delta_counts: int = field(init=False, repr=False, compare=False)
    j: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, mx, ma, mxa = self.n, self.mx, self.ma, self.mxa
        if not (0 < mx < n and 0 < ma < n):
            raise DegenerateMargin(
                f"margins must satisfy 0 < mx < n and 0 < ma < n, "
                f"got n={n}, mx={mx}, ma={ma}"
            )
        lo = mx + ma - n
        if lo < 0:
            lo = 0
        hi = mx if mx < ma else ma
        if not lo <= mxa <= hi:
            raise MarginViolation(
                f"mxa={mxa} outside [{lo}, {hi}] for n={n}, mx={mx}, ma={ma}"
            )
        mnxa = ma - mxa
        store = object.__setattr__
        store(self, "mxna", mx - mxa)
        store(self, "mnxa", mnxa)
        store(self, "mnxna", n - mx - mnxa)
        store(self, "delta_counts", n * mxa - mx * ma)
        store(self, "j", hi - mxa)

    @property
    def positive_dependency(self) -> bool:
        """Exact integer sign test of the leverage; every bound and the
        exact tail need it, and make_term_engine refuses a table without it."""
        return self.delta_counts > 0


@dataclass(frozen=True, slots=True)
class DerivedStats:
    """Dependency measures of a table.

    lift is P(XA) / (P(X) P(A)) and leverage is P(XA) - P(X) P(A); a lift
    above 1 (leverage above 0) marks a positive dependency.  odds_ratio
    is +inf when an off-diagonal cell is empty.  The counts, the cells
    and J stay on table.
    """

    table: ContingencyTable
    lift: float
    leverage: float
    odds_ratio: float


def build_table(n: int, mx: int, ma: int, mxa: int) -> ContingencyTable:
    """Validate four counts and return the table they define."""
    for name, value in (("n", n), ("mx", mx), ("ma", ma), ("mxa", mxa)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return ContingencyTable(n, mx, ma, mxa)


def derive_stats(t: ContingencyTable) -> DerivedStats:
    """Compute the dependency measures of a table.

    Ratios are taken as single float divisions of exact integer
    products, so each value carries one rounding step.
    """
    n, mxa = t.n, t.mxa
    off_diagonal = t.mxna * t.mnxa
    odds = (mxa * t.mnxna) / off_diagonal if off_diagonal else math.inf
    return DerivedStats(t, (n * mxa) / (t.mx * t.ma), t.delta_counts / (n * n), odds)


def _smallest_admissible(t: ContingencyTable) -> str:
    """Hint for a table without positive dependency: n*mxa > mx*ma, in integers."""
    return f"smallest admissible mxa is {t.mx * t.ma // t.n + 1}"


def negate_consequent(t: ContingencyTable) -> ContingencyTable:
    """Table of the rule X -> not A, keeping n and mx fixed.

    Applying it twice returns the original table, and the leverage flips
    sign exactly, so negative dependencies map to positive ones.
    Non-degenerate margins survive the complement, so this cannot raise.
    """
    return ContingencyTable(t.n, t.mx, t.n - t.ma, t.mx - t.mxa)
