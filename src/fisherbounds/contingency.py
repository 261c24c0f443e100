"""Validated 2x2 contingency tables and the quantities derived from them.

A table records how often an antecedent X and a consequent A hold among
n rows.  Four counts pin it down completely: n, m(X), m(A) and m(XA);
the remaining cells follow by subtraction and stay non-negative for any
valid input.  Everything downstream (the exact tail sum, the upper
bounds, the chi-square baseline) consumes these tables.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateMargin, MarginViolation

__all__ = [
    "ContingencyTable",
    "DerivedStats",
    "build_table",
    "derive_stats",
    "negate_consequent",
]


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
    to share across threads, and pickle and copy rebuild them through
    the constructor.
    """

    __slots__ = ("n", "mx", "ma", "mxa", "mxna", "mnxa", "mnxna", "delta_counts", "j")
    __match_args__ = ("n", "mx", "ma", "mxa")

    def __init__(self, n: int, mx: int, ma: int, mxa: int) -> None:
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
        set_n, set_mx, set_ma, set_mxa, set_mxna, set_mnxa, set_mnxna, set_delta, set_j = _SETTERS
        set_n(self, n)
        set_mx(self, mx)
        set_ma(self, ma)
        set_mxa(self, mxa)
        set_mxna(self, mx - mxa)
        set_mnxa(self, mnxa)
        set_mnxna(self, n - mx - mnxa)
        set_delta(self, n * mxa - mx * ma)
        set_j(self, hi - mxa)

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError  # loaded on this error path only

        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return ContingencyTable, (self.n, self.mx, self.ma, self.mxa)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.mx, self.ma, self.mxa) == (other.n, other.mx, other.ma, other.mxa)

    def __hash__(self) -> int:
        return hash((self.n, self.mx, self.ma, self.mxa))

    def __repr__(self) -> str:
        return f"ContingencyTable(n={self.n!r}, mx={self.mx!r}, ma={self.ma!r}, mxa={self.mxa!r})"

    @property
    def positive_dependency(self) -> bool:
        """Exact integer sign test of the leverage; every bound and the
        exact tail need it, and make_term_engine refuses a table without it."""
        return self.delta_counts > 0


# the slots' own stores, the one way into a table past its refusing __setattr__
_SETTERS = tuple(getattr(ContingencyTable, name).__set__ for name in ContingencyTable.__slots__)


class DerivedStats(NamedTuple):
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
    if not (type(n) is int and type(mx) is int and type(ma) is int and type(mxa) is int):
        for name, value in (("n", n), ("mx", mx), ("ma", ma), ("mxa", mxa)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return ContingencyTable(n, mx, ma, mxa)


def derive_stats(t: ContingencyTable) -> DerivedStats:
    """Compute the dependency measures of a table.

    Ratios are taken as single float divisions of exact integer
    products, so each value carries one rounding step.
    """
    return DerivedStats(t, *_measures(t))


def _measures(t: ContingencyTable) -> tuple[float, float, float]:
    """lift, leverage and odds_ratio: the one formula of derive_stats and report."""
    n, mxa = t.n, t.mxa
    off_diagonal = t.mxna * t.mnxa
    odds = (mxa * t.mnxna) / off_diagonal if off_diagonal else math.inf
    return (n * mxa) / (t.mx * t.ma), t.delta_counts / (n * n), odds


def _smallest_admissible(t: ContingencyTable) -> int:
    """The smallest mxa with positive dependency at t's margins: n*mxa > mx*ma, in integers."""
    return t.mx * t.ma // t.n + 1


def negate_consequent(t: ContingencyTable) -> ContingencyTable:
    """Table of the rule X -> not A, keeping n and mx fixed.

    Applying it twice returns the original table, and the leverage flips
    sign exactly, so negative dependencies map to positive ones.
    Non-degenerate margins survive the complement, so this cannot raise.
    """
    return ContingencyTable(t.n, t.mx, t.n - t.ma, t.mx - t.mxa)
