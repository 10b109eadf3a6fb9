"""Moment computation against independent two-pass oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from utilrank.errors import ScoreOutOfRange
from utilrank.moments import compute_moments
from utilrank.reproduce import USE_CASE_SPEC
from utilrank.scenario import generate_samples

from conftest import build_sample_set, naive_mean_variance, pair_moments, scalar_mean_and_variance


class TestKnownValues:
    def test_four_point_pair(self):
        # oracle: mean 2.5, squared deviations 2.25+0.25+0.25+2.25 = 5, /3
        ss = build_sample_set({("A", "X"): [1.0, 2.0, 3.0, 4.0]})
        mm = compute_moments(ss)
        oracle_mean, oracle_var = naive_mean_variance([1.0, 2.0, 3.0, 4.0])
        assert mm.means[0, 0] == oracle_mean == 2.5
        assert mm.variances[0, 0] == pytest.approx(oracle_var, rel=1e-15)
        assert mm.variances[0, 0] == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_constant_pair(self):
        ss = build_sample_set({("A", "X"): [3.0] * 5})
        mm = compute_moments(ss)
        assert mm.means[0, 0] == 3.0
        assert mm.variances[0, 0] == 0.0
        assert mm.counts[0, 0] == 5

    def test_sum_past_float_range(self):
        # 1e308 + 1e308 overflows, but the mean and variance are representable.
        assert pair_moments([1e308, 1e308]) == (1e308, 0.0)
        assert pair_moments([-1e308] * 3) == (-1e308, 0.0)

    def test_squares_are_correctly_rounded(self):
        # glibc's pow(d, 2) rounds one of these two squares the wrong way
        assert pair_moments([0.544743, 0.719915])[1] == 0.015342614792
        rng = np.random.default_rng(5)
        for _ in range(200):
            values = rng.normal(0.5, 0.2, int(rng.integers(2, 30))).tolist()
            mean, variance = pair_moments(values)
            exact_squares = [float(Fraction(v - mean) ** 2) for v in values]
            assert variance == math.fsum(exact_squares) / (len(values) - 1)

    def test_use_case_targets(self):
        mm = compute_moments(generate_samples(USE_CASE_SPEC))
        np.testing.assert_allclose(mm.means, [[15.0, 4.0], [8.0, 10.0]], atol=1e-9)
        np.testing.assert_allclose(
            mm.variances, [[7.0, 1.0], [2.5, 4.0]], rtol=1e-9
        )
        assert np.all(mm.counts == 300)


class TestOracleEquivalence:
    def test_random_pairs_match_two_pass_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 51))
            values = list(rng.normal(rng.uniform(-100, 100), rng.uniform(0.01, 50), n))
            got_mean, got_var = pair_moments(values)
            ref_mean, ref_var = naive_mean_variance(values)
            assert got_mean == pytest.approx(ref_mean, rel=1e-12)
            assert got_var == pytest.approx(ref_var, rel=1e-12)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            values = list(rng.normal(0, 3, n))
            a = float(rng.uniform(-5, 5)) or 1.0
            b = float(rng.uniform(-10, 10))
            mean, var = pair_moments(values)
            mean_t, var_t = pair_moments([a * v + b for v in values])
            assert mean_t == pytest.approx(a * mean + b, abs=1e-12 * max(1, abs(a * mean + b)))
            assert var_t == pytest.approx(a * a * var, rel=1e-10)


class TestNumericalStability:
    def test_catastrophic_cancellation(self):
        # huge offset, tiny spread: a one-pass sum-of-squares would go negative
        base = 1e8
        values = [base + d for d in (0.0, 0.001, 0.002, 0.001, 0.0)]
        mean, var = pair_moments(values)
        assert var >= 0.0
        ref_mean, ref_var = naive_mean_variance(values)
        assert var == pytest.approx(ref_var, rel=1e-9)
        assert mean == pytest.approx(ref_mean, rel=1e-15)

    def test_variance_never_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            offset = float(rng.uniform(1e6, 1e12))
            n = int(rng.integers(2, 20))
            values = [offset + float(rng.uniform(0, 1e-4)) for _ in range(n)]
            _, var = pair_moments(values)
            assert var >= 0.0

    def test_situation_permutation_bit_exact(self):
        from conftest import sample_set_from_rows

        rng = np.random.default_rng(9)
        values = list(rng.normal(5, 1, 30))
        samples = [("A", "X", f"s{i:03d}", v) for i, v in enumerate(values)]
        shuffled = list(samples)
        rng.shuffle(shuffled)
        mm1 = compute_moments(sample_set_from_rows(samples))
        mm2 = compute_moments(sample_set_from_rows(shuffled))
        assert mm1.means[0, 0] == mm2.means[0, 0]
        assert mm1.variances[0, 0] == mm2.variances[0, 0]


class TestBatchedMatchesPairs:
    """compute_moments gives every pair the bits the scalar reference gives it."""

    @staticmethod
    def _check(pair_values):
        sample_set = build_sample_set(pair_values)
        try:
            expected = [scalar_mean_and_variance(v) for v in pair_values.values()]
        except OverflowError:
            with pytest.raises(ScoreOutOfRange, match="overflow the float range"):
                compute_moments(sample_set)
            return False
        mm = compute_moments(sample_set)
        # build_sample_set keeps each pair's values in order; its pairs sort by name
        order = np.argsort([f"{alt}\0{attr}" for alt, attr in pair_values])
        assert mm.means.ravel().tobytes() == np.array([m for m, _ in expected])[order].tobytes()
        assert mm.variances.ravel().tobytes() == np.array([v for _, v in expected])[order].tobytes()
        return True

    def test_random_ragged_sets(self):
        rng = np.random.default_rng(17)
        fitted = 0
        for _ in range(60):
            m, r = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            scale = float(rng.choice([1.0, 1.0, 1e-160, 1e150, 1e153, 1e154]))
            pairs = {}
            for i in range(m):
                for j in range(r):
                    n = int(rng.choice([2, 2, 3, int(rng.integers(2, 40)), 3000]))
                    pairs[(f"A{i}", f"x{j}")] = (rng.normal(0.3, 1.0, n) * scale).tolist()
            fitted += self._check(pairs)
        assert 30 < fitted < 60  # most sets fit; some squares pass the float range

    def test_sum_overflows_but_mean_fits(self):
        assert self._check({("A", "x"): [1e308] * 3, ("A", "y"): [0.25, 0.5, 2.0],
                            ("B", "x"): [-1.5e308, -1.5e308], ("B", "y"): [1.0, 3.0]})
