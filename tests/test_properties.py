"""Randomized invariant checks across the weighting and ranking stack."""

import math

import numpy as np
import pytest

from utilrank.model import (
    EngineConfig,
    IgdNegativePolicy,
    MomentMatrices,
    PriorProfile,
    RelativeVarianceProfile,
)
from utilrank.ranking import expected_utility, rank
from utilrank.weighting import entropy, icw, igd, igdw, ighw, kld, relative_variance

from conftest import random_profile

MIN_SHIFT = EngineConfig(igd_negative_policy=IgdNegativePolicy.MIN_SHIFT)


def _random_moments(rng, m=None, r=None):
    m = m or int(rng.integers(2, 7))
    r = r or int(rng.integers(2, 6))
    variances = rng.uniform(0.01, 20.0, size=(m, r))
    means = rng.uniform(-10, 20, size=(m, r))
    counts = np.full((m, r), 5, dtype=int)
    alts = tuple(f"alt{i}" for i in range(m))
    attrs = tuple(f"attr{j}" for j in range(r))
    return MomentMatrices(means, variances, counts, alts, attrs)


def _profile_of(matrix):
    m, r = matrix.shape
    return RelativeVarianceProfile(
        matrix, tuple(f"alt{i}" for i in range(m)), tuple(f"attr{j}" for j in range(r))
    )


class TestColumnStochasticity:
    def test_relative_variance_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            profile = relative_variance(_random_moments(rng))
            np.testing.assert_allclose(profile.matrix.sum(axis=0), 1.0, atol=1e-9)
            assert np.all(profile.matrix >= 0) and np.all(profile.matrix <= 1)


class TestScaleInvariance:
    def test_scaling_one_attribute_leaves_everything(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            mm = _random_moments(rng)
            r = int(rng.integers(0, mm.num_attributes))
            c = float(rng.uniform(1e-3, 1e3))
            scaled_var = np.array(mm.variances)
            scaled_var[:, r] *= c
            mm_scaled = MomentMatrices(
                mm.means, scaled_var, mm.counts, mm.alternatives, mm.attributes
            )
            p1 = relative_variance(mm)
            p2 = relative_variance(mm_scaled)
            assert np.max(np.abs(p1.matrix - p2.matrix)) < 1e-10
            e1, e2 = entropy(p1), entropy(p2)
            assert max(abs(a - b) for a, b in zip(e1.values, e2.values)) < 1e-10
            w1, w2 = icw(e1), icw(e2)
            assert max(abs(a - b) for a, b in zip(w1.weights, w2.weights)) < 1e-10
            (g1, _), (g2, _) = igd(e1, MIN_SHIFT), igd(e2, MIN_SHIFT)
            d1, d2 = igdw(g1), igdw(g2)
            assert max(abs(a - b) for a, b in zip(d1.weights, d2.weights)) < 1e-10


class TestEntropyBounds:
    def test_within_zero_and_log_m(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            r = int(rng.integers(1, 6))
            ev = entropy(_profile_of(random_profile(rng, m, r)))
            for value in ev.values:
                assert 0.0 <= value <= math.log(m) + 1e-9

    def test_maximum_iff_uniform(self):
        rng = np.random.default_rng(4)
        for m in range(2, 7):
            uniform = np.full((m, 1), 1.0 / m)
            ev = entropy(_profile_of(uniform))
            assert ev.values[0] == pytest.approx(math.log(m), abs=1e-9)
            skewed = random_profile(rng, m, 1)
            if np.max(np.abs(skewed - 1.0 / m)) > 1e-3:
                # strictly below the maximum when visibly non-uniform
                assert entropy(_profile_of(skewed)).values[0] < math.log(m) - 1e-9

    def test_zero_iff_degenerate(self):
        for m in (2, 4):
            one_hot = np.zeros((m, 1))
            one_hot[0, 0] = 1.0
            assert entropy(_profile_of(one_hot)).values[0] == 0.0


class TestLogBaseInvariance:
    def test_icw_weights_base_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            profile = _profile_of(random_profile(rng, int(rng.integers(2, 7)), int(rng.integers(2, 6))))
            w_e = icw(entropy(profile, math.e)).weights
            w_2 = icw(entropy(profile, 2.0)).weights
            w_10 = icw(entropy(profile, 10.0)).weights
            for a, b, c in zip(w_e, w_2, w_10):
                assert abs(a - b) < 1e-12 and abs(a - c) < 1e-12

    def test_ighw_weights_base_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            m, r = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            profile = _profile_of(random_profile(rng, m, r))
            prior = PriorProfile(random_profile(rng, m, r), profile.alternatives, profile.attributes)
            w_by_base = [
                ighw(kld(profile, prior, EngineConfig(kld_log_base=base))).weights
                for base in (math.e, 2.0, 10.0)
            ]
            for weights in w_by_base[1:]:
                for a, b in zip(w_by_base[0], weights):
                    assert abs(a - b) < 1e-12

    def test_igdw_two_attributes_half_for_every_base(self):
        rng = np.random.default_rng(7)
        for base in (math.e, 2.0, 10.0):
            profile = _profile_of(random_profile(rng, 3, 2))
            weights = igdw(igd(entropy(profile, base), MIN_SHIFT)[0]).weights
            assert weights == (0.5, 0.5)


class TestKldProperties:
    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m, r = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            p = random_profile(rng, m, r)
            profile = _profile_of(p)
            # identical distributions: divergence exactly zero
            prior_same = PriorProfile(p, profile.alternatives, profile.attributes)
            for d in kld(profile, prior_same, EngineConfig()).values:
                assert abs(d) <= 1e-12
            # visibly different distributions: strictly positive
            q = random_profile(rng, m, r)
            if np.max(np.abs(p - q)) < 1e-3:
                continue
            prior_diff = PriorProfile(q, profile.alternatives, profile.attributes)
            for d, col_gap in zip(
                kld(profile, prior_diff, EngineConfig()).values,
                np.max(np.abs(p - q), axis=0),
            ):
                assert d >= -1e-12
                if col_gap > 1e-3:
                    assert d > 1e-12

    def test_monotone_along_simplex_two_alternatives(self):
        q = 0.3
        prior = PriorProfile(np.array([[q], [1 - q]]), ("a", "b"), ("x",))
        config = EngineConfig(kld_log_base=math.e)

        def divergence(t):
            return kld(_profile_of(np.array([[t], [1 - t]])), prior, config).values[0]

        upward = [divergence(t) for t in np.linspace(q, 0.99, 30)]
        assert all(a < b for a, b in zip(upward, upward[1:]))
        downward = [divergence(t) for t in np.linspace(q, 0.01, 30)]
        assert all(a < b for a, b in zip(downward, downward[1:]))


class TestAlternativePermutationInvariance:
    def test_row_permutation_leaves_scores(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            m, r = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            p = random_profile(rng, m, r)
            q = random_profile(rng, m, r)
            perm = rng.permutation(m)
            alts = tuple(f"alt{i}" for i in range(m))
            attrs = tuple(f"attr{j}" for j in range(r))
            prof1 = RelativeVarianceProfile(p, alts, attrs)
            prof2 = RelativeVarianceProfile(p[perm], tuple(alts[i] for i in perm), attrs)
            assert entropy(prof1).values == entropy(prof2).values
            prior1 = PriorProfile(q, alts, attrs)
            prior2 = PriorProfile(q[perm], tuple(alts[i] for i in perm), attrs)
            assert (
                kld(prof1, prior1, EngineConfig()).values
                == kld(prof2, prior2, EngineConfig()).values
            )
            assert icw(entropy(prof1)).weights == icw(entropy(prof2)).weights
            assert igd(entropy(prof1), MIN_SHIFT) == igd(entropy(prof2), MIN_SHIFT)


class TestWeightNormalization:
    def test_all_methods_sum_to_one(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            mm = _random_moments(rng)
            profile = relative_variance(mm)
            prior = PriorProfile(
                random_profile(rng, mm.num_alternatives, mm.num_attributes),
                mm.alternatives, mm.attributes,
            )
            ev = entropy(profile)
            for wv in (
                icw(ev),
                ighw(kld(profile, prior, EngineConfig())),
                igdw(igd(ev, MIN_SHIFT)[0]),
            ):
                assert abs(math.fsum(wv.weights) - 1.0) <= 1e-9
                assert all(w >= 0 for w in wv.weights)


class TestRankScalingInvariance:
    def test_rank_permutation_stable_under_positive_scaling(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            mm = _random_moments(rng)
            weights = rng.uniform(0.01, 1.0, mm.num_attributes)
            c = float(rng.uniform(1e-3, 1e3))
            base = rank(expected_utility(mm, tuple(weights)), mm.alternatives)
            scaled = rank(expected_utility(mm, tuple(weights * c)), mm.alternatives)
            assert base[0] == scaled[0]
