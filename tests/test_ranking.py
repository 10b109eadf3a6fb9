"""Expected-utility aggregation and rank assignment."""

import math

import numpy as np
import pytest

from utilrank.errors import DimensionMismatch
from utilrank.model import WeightVector
from utilrank.ranking import (
    expected_utility,
    rank,
    rank_alternatives,
    round_half_away_from_zero,
)

ICW_FULL = (0.535260112665091, 0.46473988733490906)  # unrounded use-case weights


class TestRounding:
    @pytest.mark.parametrize(
        "value,decimals,expected",
        [
            (0.125, 2, 0.13),   # banker's rounding would give 0.12
            (-0.125, 2, -0.13),
            (0.535, 2, 0.54),
            (0.4647, 2, 0.46),
            (2.5, 0, 3.0),
            (9.94, 2, 9.94),
            (1.0, 28, 1.0),     # past the default 28-digit decimal context
            (0.465, 400, 0.465),
            (1e300, 2, 1e300),
        ],
    )
    def test_half_away_from_zero(self, value, decimals, expected):
        assert round_half_away_from_zero(value, decimals) == expected


class TestExpectedUtility:
    def test_use_case_rounded_weights(self, use_case_moments):
        ranking = rank_alternatives(use_case_moments, WeightVector(ICW_FULL), rounding=2)
        exps = ranking.expectations
        assert exps[0] == pytest.approx(9.94, abs=1e-12)  # 0.54*15 + 0.46*4
        assert exps[1] == pytest.approx(8.92, abs=1e-12)  # 0.54*8 + 0.46*10

    def test_single_attribute_projection(self, use_case_moments):
        assert expected_utility(use_case_moments, (1.0, 0.0)) == (15.0, 8.0)

    def test_full_precision_dot_oracle(self, use_case_moments):
        exps = expected_utility(use_case_moments, ICW_FULL)
        for i in range(2):
            oracle = sum(
                ICW_FULL[r] * use_case_moments.means[i, r] for r in range(2)
            )
            assert exps[i] == pytest.approx(oracle, rel=1e-14)
        assert exps[0] == pytest.approx(9.888, abs=2e-3)
        assert exps[1] == pytest.approx(8.931, abs=2e-3)

    def test_dimension_mismatch(self, use_case_moments):
        with pytest.raises(DimensionMismatch):
            expected_utility(use_case_moments, (0.2, 0.3, 0.5))


class TestRank:
    def test_descending(self):
        ranks, ties = rank((9.94, 8.92), ("AI1", "AI2"))
        assert ranks == (1, 2) and ties == ()

    def test_reversed(self):
        ranks, ties = rank((4.77, 9.86), ("AI1", "AI2"))
        assert ranks == (2, 1) and ties == ()

    def test_exact_tie(self):
        ranks, ties = rank((5.0, 5.0), ("B", "A"))
        assert ranks == (1, 1)
        assert ties == (("A", "B"),)  # reported by identifier ascending

    def test_tie_skips_next_rank(self):
        ranks, ties = rank((5.0, 5.0, 4.0), ("a", "b", "c"))
        assert ranks == (1, 1, 3)
        assert ties == (("a", "b"),)

    def test_near_tie_within_tolerance(self):
        ranks, ties = rank((5.0, 5.0 + 5e-10), ("a", "b"))
        assert ranks == (1, 1) and ties == (("a", "b"),)

    def test_difference_beyond_tolerance(self):
        ranks, ties = rank((5.0, 5.0 + 1e-8), ("a", "b"))
        assert ranks == (2, 1) and ties == ()

    def test_tolerance_is_relative_at_large_scale(self):
        # At 1e12 one ulp is about 1.2e-4, far past an absolute 1e-9; the
        # tolerance there is 1e-9 * 1e12 = 1000.
        ranks, ties = rank((1e12, math.nextafter(1e12, math.inf)), ("a", "b"))
        assert ranks == (1, 1) and ties == (("a", "b"),)
        ranks, ties = rank((1e12, 1e12 + 1.0), ("a", "b"))
        assert ranks == (1, 1) and ties == (("a", "b"),)
        ranks, ties = rank((1e12, 1e12 + 2000.0), ("a", "b"))
        assert ranks == (2, 1) and ties == ()

    def test_tolerance_is_absolute_up_to_scale_one(self):
        for low in (0.0, 0.5, -1.0 - 1e-9):
            ranks, _ = rank((low, low + 9e-10), ("a", "b"))
            assert ranks == (1, 1)
            ranks, _ = rank((low, low + 2e-9), ("a", "b"))
            assert ranks == (2, 1)
        ranks, _ = rank((-1e6, -1e6 + 5e-4), ("a", "b"))  # negative scales are relative too
        assert ranks == (1, 1)

    def test_rank_consistency_two_alternatives(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            e = tuple(float(x) for x in rng.uniform(0, 10, 2))
            ranks, _ = rank(e, ("a", "b"))
            assert (ranks[0] == 1) == (e[0] >= e[1] - 1e-9)

    def test_single_alternative(self):
        ranks, ties = rank((3.2,), ("only",))
        assert ranks == (1,) and ties == ()


class TestRankAlternatives:
    def test_report_recomputation_invariant(self, use_case_moments):
        report = rank_alternatives(use_case_moments, WeightVector(ICW_FULL), rounding=2)
        assert report.weights_used == (0.54, 0.46)
        for i in range(2):
            dot = math.fsum(
                report.weights_used[r] * float(use_case_moments.means[i, r]) for r in range(2)
            )
            assert report.expectations[i] == pytest.approx(dot, abs=1e-12)

    def test_no_rounding_uses_raw_weights(self, use_case_moments):
        report = rank_alternatives(use_case_moments, WeightVector(ICW_FULL))
        assert report.weights_used == ICW_FULL

    def test_argmax_invariant_under_positive_scaling(self, use_case_moments):
        rng = np.random.default_rng(13)
        for _ in range(200):
            weights = rng.uniform(0.01, 1.0, 2)
            c = float(rng.uniform(0.01, 100.0))
            base = expected_utility(use_case_moments, tuple(weights))
            scaled = expected_utility(use_case_moments, tuple(weights * c))
            assert rank(base, ("a", "b"))[0] == rank(scaled, ("a", "b"))[0]
