"""Exception types shared across the package."""

__all__ = [
    "MarginViolation",
    "DegenerateMargin",
    "OutOfRange",
    "CapacityExceeded",
    "NegativeDependency",
    "InvalidK",
]


class MarginViolation(ValueError):
    """Cell counts break the 2x2 margin constraints."""


class DegenerateMargin(ValueError):
    """A margin equals 0 or n; every quantity here divides by such margins."""


class OutOfRange(ValueError):
    """n above 2^50, the supported range; make_term_engine raises it."""


class CapacityExceeded(ValueError):
    """A request went past a fixed size budget, exact.ORACLE_CAP."""


class NegativeDependency(ValueError):
    """The table shows no positive dependency, so the tail machinery does
    not apply; make_term_engine raises it, and negating the consequent
    tests the opposite direction."""


class InvalidK(ValueError):
    """The exact-term count k must be a positive integer."""
