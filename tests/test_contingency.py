"""Table validation, derived cells, statistics, and negation."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import pytest

from fisherbounds import (
    ContingencyTable,
    DegenerateMargin,
    MarginViolation,
    build_table,
    derive_stats,
    negate_consequent,
)

from conftest import iter_exhaustive


class TestBuildTable:
    def test_accepts_frechet_boundary_values(self):
        build_table(10, 4, 7, 1)
        build_table(10, 4, 7, 4)

    def test_rejects_overlap_above_margins(self):
        with pytest.raises(MarginViolation):
            build_table(10, 4, 7, 5)

    def test_rejects_overlap_below_frechet_floor(self):
        with pytest.raises(MarginViolation):
            build_table(10, 6, 7, 2)

    @pytest.mark.parametrize("mx,ma", [(0, 5), (10, 5), (5, 0), (5, 10)])
    def test_rejects_degenerate_margins(self, mx, ma):
        with pytest.raises(DegenerateMargin):
            build_table(10, mx, ma, min(mx, ma, 5))

    def test_rejects_negative_overlap(self):
        with pytest.raises(MarginViolation):
            build_table(10, 4, 4, -1)

    @pytest.mark.parametrize(
        "args",
        [
            (10.0, 4, 7, 2),
            (10, True, 7, 2),
            (10, 4, "7", 2),
        ],
    )
    def test_rejects_non_integer_counts(self, args):
        with pytest.raises(TypeError):
            build_table(*args)

    def test_table_is_immutable(self):
        t = build_table(10, 4, 7, 2)
        with pytest.raises(AttributeError):
            t.mxa = 3


class TestStoredCells:
    """The derived cells are computed at construction and stored beside
    the four counts, which alone decide equality, hashing and repr."""

    def test_equals_and_hashes_like_a_fresh_table(self):
        t = build_table(1000, 200, 250, 60)
        fresh = build_table(1000, 200, 250, 60)
        assert t == fresh
        assert hash(t) == hash(fresh)
        assert t != build_table(1000, 200, 250, 61)

    def test_repr_shows_the_four_counts(self):
        assert repr(build_table(10, 4, 7, 2)) == "ContingencyTable(n=10, mx=4, ma=7, mxa=2)"

    def test_replace_recomputes_every_cell(self, monkeypatch):
        t = build_table(1000, 200, 250, 60)
        rebuild, counts = t.__reduce__()
        assert (rebuild, counts) == (ContingencyTable, (1000, 200, 250, 60))
        moved = rebuild(*counts[:3], 70)
        assert (moved.mxna, moved.mnxa, moved.mnxna) == (130, 180, 620)
        assert moved.delta_counts == 1000 * 70 - 200 * 250
        assert moved.j == 130
        # pickle and copy go through the constructor, so every cell is
        # recomputed from the four counts rather than copied
        built = []
        init = ContingencyTable.__init__
        monkeypatch.setattr(
            ContingencyTable, "__init__", lambda self, *a: (built.append(a), init(self, *a))[1]
        )
        for route in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            built.clear()
            again = route(t)
            assert built == [(1000, 200, 250, 60)]
            assert again is not t
            assert [getattr(again, name) for name in ContingencyTable.__slots__] == [
                getattr(t, name) for name in ContingencyTable.__slots__
            ]

    def test_stored_cell_cannot_be_assigned(self):
        t = build_table(10, 4, 7, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.mnxna = 0
        assert t.mnxna == 1


class TestDerivedCells:
    def test_cells_partition_n_exhaustively(self):
        for t in iter_exhaustive(max_n=20):
            cells = (t.mxa, t.mxna, t.mnxa, t.mnxna)
            assert all(c >= 0 for c in cells)
            assert sum(cells) == t.n
            assert t.mxa + t.mxna == t.mx
            assert t.mxa + t.mnxa == t.ma

    def test_delta_counts_equals_cross_product_difference(self):
        for t in iter_exhaustive(max_n=20):
            assert t.delta_counts == t.n * t.mxa - t.mx * t.ma
            assert t.delta_counts == t.mxa * t.mnxna - t.mxna * t.mnxa

    def test_j_is_smaller_off_diagonal(self):
        for t in iter_exhaustive(max_n=15):
            assert t.j == min(t.mxna, t.mnxa)

    def test_leverage_equals_probability_cross_product(self):
        # delta = P(XA) P(not-X not-A) - P(X not-A) P(not-X A), exactly
        for t in iter_exhaustive(max_n=15):
            lhs = Fraction(t.delta_counts, t.n * t.n)
            rhs = Fraction(t.mxa, t.n) * Fraction(t.mnxna, t.n) - Fraction(
                t.mxna, t.n
            ) * Fraction(t.mnxa, t.n)
            assert lhs == rhs


class TestDerivedStats:
    def test_known_round_numbers(self):
        s = derive_stats(build_table(1000, 200, 250, 60))
        assert s.lift == 1.2
        assert s.leverage == 0.01
        assert s.table.j == 140

    def test_lift_leverage_consistency(self):
        # delta = x a (gamma - 1)
        for t in iter_exhaustive(max_n=25, positive_only=True):
            s = derive_stats(t)
            expected = (t.mx / t.n) * (t.ma / t.n) * (s.lift - 1.0)
            assert s.leverage == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_odds_ratio_matches_cell_ratio(self):
        t = build_table(1000, 500, 500, 275)
        s = derive_stats(t)
        assert s.odds_ratio == pytest.approx(
            (275 * 275) / (225 * 225), rel=1e-15
        )

    def test_odds_ratio_infinite_when_off_diagonal_empty(self):
        s = derive_stats(build_table(10, 5, 5, 5))
        assert math.isinf(s.odds_ratio)
        assert s.table.j == 0

    def test_positive_dependency_flag_matches_delta_sign(self):
        for t in iter_exhaustive(max_n=12):
            assert t.positive_dependency == (t.delta_counts > 0)
            assert t.positive_dependency == (derive_stats(t).leverage > 0)


class TestNegation:
    def test_negation_maps_counts(self):
        t = negate_consequent(build_table(1000, 200, 250, 40))
        assert (t.n, t.mx, t.ma, t.mxa) == (1000, 200, 750, 160)

    def test_negation_is_an_involution(self):
        for t in iter_exhaustive(max_n=15):
            back = negate_consequent(negate_consequent(t))
            assert back == t

    def test_negation_flips_dependency_sign(self):
        for t in iter_exhaustive(max_n=15):
            flipped = negate_consequent(t)
            assert flipped.delta_counts == -t.delta_counts

    def test_negation_preserves_validity(self):
        for t in iter_exhaustive(max_n=12):
            flipped = negate_consequent(t)
            assert isinstance(flipped, ContingencyTable)
            assert 0 < flipped.ma < flipped.n
