"""Rank-agreement analysis between the exact tail and its surrogates.

The question answered here: if rules are ordered by a constant-time
bound instead of the exact tail probability, does the ranking change?
Orderings are computed in log space so rows whose linear values
underflow still rank correctly, and ties break on the row id so every
ranking is a deterministic permutation.
"""

from __future__ import annotations

import math
import statistics
from itertools import combinations
from typing import NamedTuple, Sequence

from .batch import OUTPUT_HEADER, _parse_lines, _read_chunks

__all__ = [
    "MEASURES",
    "RankedRow",
    "rows_from_batch_csv",
    "ranking",
    "PairAgreement",
    "AgreementReport",
    "rank_agreement",
]

MEASURES = ("p_fisher", "ub1", "ub2", "ubk", "chi2_p")


class RankedRow(NamedTuple):
    """A row id plus one monotone ordering key per measure."""

    row_id: str
    keys: dict[str, float]


def _log10_key(field: str) -> float:
    """Ordering key recovered from a formatted probability.

    Values too small for doubles are serialized as mantissa/exponent
    text; splitting on the exponent marker keeps their order instead of
    collapsing them to zero through float parsing.  A value outside
    [0, 1], nan included, is not a probability and is refused.
    """
    text = field.strip()
    if not text:
        raise ValueError("missing value")
    mantissa, sep, exponent = text.partition("e")
    m, shift = (float(mantissa), int(exponent)) if sep else (float(text), 0)
    key = math.log10(m) + shift if m > 0.0 else -math.inf
    if not (m >= 0.0 and key <= 0.0):
        raise ValueError(f"{text} is not a probability")
    return key


def rows_from_batch_csv(path: str) -> list[RankedRow]:
    """Ranked rows read back from a batch output file by batch's reader.

    A file whose header is not OUTPUT_HEADER is an error naming it.  A
    row that is not a full batch output row (a truncated file, a stray
    quote) is an error naming the row and the file, and so is a value
    that is not a number, which also names its column.  Rankings key on
    the row id, so an id that appears twice is an error too.
    """
    try:
        chunks = _read_chunks(path, OUTPUT_HEADER)
    except ValueError:
        raise ValueError(f"not a batch output file: {path}") from None
    rows = (row for first, lines in chunks for row in _parse_lines(first, lines))
    ranked = []
    seen = set()
    for row_id, fields in rows:
        if len(fields) != len(OUTPUT_HEADER) - 1:
            raise ValueError(f"row {row_id} of {path} is not a full batch output row")
        if row_id in seen:
            raise ValueError(f"row id {row_id} appears twice in {path}")
        seen.add(row_id)
        row = dict(zip(OUTPUT_HEADER[1:], fields))
        if not row["p_fisher"]:
            raise ValueError("input lacks exact values; regenerate it without --no-exact")
        keys = {}
        for m in MEASURES:
            try:
                keys[m] = _log10_key(row[m])
            except ValueError as exc:
                raise ValueError(f"row {row_id} of {path}, column {m}: {exc}") from None
        ranked.append(RankedRow(row_id, keys))
    return ranked


def ranking(rows: Sequence[RankedRow], measure: str) -> list[str]:
    """Row ids from most to least significant under one measure."""
    try:
        keyed = sorted((r.keys[measure], r.row_id) for r in rows)
    except KeyError:
        raise ValueError(f"measure {measure!r} not present in every row") from None
    return [row_id for _, row_id in keyed]


class PairAgreement(NamedTuple):
    measure_a: str
    measure_b: str
    top_overlap: float
    spearman: float


class AgreementReport(NamedTuple):
    top_k: int
    row_count: int
    pairs: tuple[PairAgreement, ...]

    def pair(self, a: str, b: str) -> PairAgreement:
        wanted = frozenset((a, b))
        for p in self.pairs:
            if frozenset((p.measure_a, p.measure_b)) == wanted:
                return p
        raise KeyError(f"no pair {a!r}/{b!r}")


def _spearman(order_a: Sequence[str], order_b: Sequence[str]) -> float:
    if len(order_a) < 2:
        return 1.0
    position = {row_id: i for i, row_id in enumerate(order_a)}
    ranks_a = list(range(len(order_a)))
    ranks_b = [position[row_id] for row_id in order_b]
    return statistics.correlation(ranks_a, ranks_b)


def rank_agreement(rows: Sequence[RankedRow], top_k: int) -> AgreementReport:
    """Pairwise top-k overlap and rank correlation across the MEASURES,
    one pair for each two of them, in MEASURES order.

    No rows means nothing to compare, which is an error rather than
    perfect agreement.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be positive, got {top_k}")
    if not rows:
        raise ValueError("no evaluated rows to rank")
    orders = {m: ranking(rows, m) for m in MEASURES}
    effective = min(top_k, len(rows))
    pairs = []
    for a, b in combinations(MEASURES, 2):
        top = set(orders[a][:effective]) & set(orders[b][:effective])
        overlap = len(top) / effective
        pairs.append(PairAgreement(a, b, overlap, _spearman(orders[a], orders[b])))
    return AgreementReport(top_k, len(rows), tuple(pairs))
