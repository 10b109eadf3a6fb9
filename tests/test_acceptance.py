"""Acceptance gate: every exit criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live). Criteria 1-6 start from the reference mean/variance matrix;
criterion 7 reruns everything end-to-end from raw generated samples.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from utilrank.errors import DegenerateAttribute, NegativeIgd, ZeroPriorSupport
from utilrank.model import (
    EngineConfig,
    IgdNegativePolicy,
    MomentMatrices,
    PriorProfile,
    RelativeVarianceProfile,
    ScoreVector,
    WeightMethod,
)
from utilrank.moments import mean_and_variance
from utilrank.ranking import expected_utility, rank, rank_alternatives
from utilrank.reproduce import reproduce_paper
from utilrank.weighting import entropy, icw, igd, igdw, ighw, kld, relative_variance

from conftest import (
    ALTERNATIVES,
    ATTRIBUTES,
    USE_CASE_PRIOR,
    naive_mean_variance,
    random_profile,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


@pytest.fixture
def reference_stages(use_case_moments):
    """Shared computation chain from the reference variance matrix."""
    profile = relative_variance(use_case_moments)
    entropies = entropy(profile, math.e)
    prior = PriorProfile(np.array(USE_CASE_PRIOR), ALTERNATIVES, ATTRIBUTES)
    return use_case_moments, profile, entropies, prior


def test_criterion_1_normalized_variances(reference_stages):
    with criterion(1, "normalized variances within 5e-5"):
        _, profile, _, _ = reference_stages
        np.testing.assert_allclose(profile.matrix[:, 0], [0.7368, 0.2632], atol=5e-5)
        np.testing.assert_allclose(profile.matrix[:, 1], [0.2, 0.8], atol=5e-5)


def test_criterion_2_entropies(reference_stages):
    with criterion(2, "entropies (base e) within 5e-4"):
        _, _, entropies, _ = reference_stages
        np.testing.assert_allclose(entropies.values, [0.5763, 0.5004], atol=5e-4)


def test_criterion_3_icw_weights_and_base_invariance(reference_stages):
    with criterion(3, "ICW weights within 5e-4, base-invariant to 1e-12"):
        _, profile, entropies, _ = reference_stages
        weights_e = icw(entropies).weights
        np.testing.assert_allclose(weights_e, [0.5353, 0.4647], atol=5e-4)
        weights_2 = icw(entropy(profile, 2.0)).weights
        for a, b in zip(weights_e, weights_2):
            assert abs(a - b) < 1e-12


def test_criterion_4_igh_and_ighw(reference_stages):
    with criterion(4, "IGH within 2e-4, IGHW within 5e-4"):
        _, profile, _, prior = reference_stages
        divergences = kld(profile, prior, EngineConfig(kld_log_base=10.0))
        np.testing.assert_allclose(divergences.values, [0.0014, 0.0193], atol=2e-4)
        weights = ighw(divergences).weights  # from unrounded divergences
        np.testing.assert_allclose(weights, [0.0694, 0.9306], atol=5e-4)


def test_criterion_5_igd_and_igdw(reference_stages):
    with criterion(5, "IGD within 5e-4, IGDW exactly (0.5, 0.5)"):
        _, _, entropies, _ = reference_stages
        gv, _ = igd(entropies)
        np.testing.assert_allclose(gv.values, [0.0767, 0.0767], atol=5e-4)
        assert igdw(gv).weights == (0.5, 0.5)


def test_criterion_6_expectations_and_rankings(reference_stages):
    with criterion(6, "rounded-weight expectations within 5e-3, rankings exact"):
        moments, profile, entropies, prior = reference_stages
        weight_vectors = {
            "ICW": icw(entropies),
            "IGHW": ighw(kld(profile, prior, EngineConfig(kld_log_base=10.0))),
            "IGDW": igdw(igd(entropies)[0]),
        }
        expected = {
            "ICW": ((9.94, 8.92), (1, 2)),
            "IGHW": ((4.77, 9.86), (2, 1)),
            "IGDW": ((9.5, 9.0), (1, 2)),
        }
        for name, (want_exps, want_ranks) in expected.items():
            ranking = rank_alternatives(moments, weight_vectors[name], rounding=2)
            np.testing.assert_allclose(ranking.expectations, want_exps, atol=5e-3)
            assert ranking.ranks == want_ranks


def test_criterion_7_end_to_end_from_raw_samples(tmp_path):
    with criterion(7, "reproduce-paper from 1200 raw samples, byte-identical reruns"):
        report = reproduce_paper(tmp_path / "run1")  # raises on any mismatch
        # weights were computed from the generated samples, not from the
        # published moments: the moment matrices came out of compute_moments
        assert int(report.moments.counts.sum()) == 1200
        np.testing.assert_allclose(
            report.weights[WeightMethod.ICW].weights, [0.5353, 0.4647], atol=5e-4
        )
        np.testing.assert_allclose(
            report.weights[WeightMethod.IGHW].weights, [0.0694, 0.9306], atol=5e-4
        )
        assert report.weights[WeightMethod.IGDW].weights == (0.5, 0.5)
        assert report.rankings[WeightMethod.ICW].ranks == (1, 2)
        assert report.rankings[WeightMethod.IGHW].ranks == (2, 1)
        assert report.rankings[WeightMethod.IGDW].ranks == (1, 2)

        reproduce_paper(tmp_path / "run2")
        names1 = sorted(p.name for p in (tmp_path / "run1").iterdir())
        names2 = sorted(p.name for p in (tmp_path / "run2").iterdir())
        assert names1 == names2
        for name in names1:
            assert (tmp_path / "run1" / name).read_bytes() == (
                tmp_path / "run2" / name
            ).read_bytes()


def test_criterion_8_property_suites():
    with criterion(8, "six property suites, 200+ randomized cases each"):
        min_shift = EngineConfig(igd_negative_policy=IgdNegativePolicy.MIN_SHIFT)

        def random_moments(rng):
            m, r = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            return MomentMatrices(
                rng.uniform(-10, 20, (m, r)),
                rng.uniform(0.01, 20.0, (m, r)),
                np.full((m, r), 4, dtype=int),
                tuple(f"alt{i}" for i in range(m)),
                tuple(f"attr{j}" for j in range(r)),
            )

        # (a) weight vectors sum to 1 within 1e-9
        rng = np.random.default_rng(81)
        for _ in range(200):
            mm = random_moments(rng)
            profile = relative_variance(mm)
            ev = entropy(profile)
            prior = PriorProfile(
                random_profile(rng, mm.num_alternatives, mm.num_attributes),
                mm.alternatives, mm.attributes,
            )
            for wv in (icw(ev), ighw(kld(profile, prior, EngineConfig())),
                       igdw(igd(ev, min_shift)[0])):
                assert abs(math.fsum(wv.weights) - 1.0) <= 1e-9

        # (b) KLD >= -1e-12 with equality iff p = q
        rng = np.random.default_rng(82)
        for _ in range(200):
            m, r = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            p = random_profile(rng, m, r)
            alts = tuple(f"a{i}" for i in range(m))
            attrs = tuple(f"x{j}" for j in range(r))
            profile = RelativeVarianceProfile(p, alts, attrs)
            same = kld(profile, PriorProfile(p, alts, attrs), EngineConfig())
            assert all(abs(d) <= 1e-12 for d in same.values)
            q = random_profile(rng, m, r)
            diff = kld(profile, PriorProfile(q, alts, attrs), EngineConfig())
            for d, gap in zip(diff.values, np.max(np.abs(p - q), axis=0)):
                assert d >= -1e-12
                if gap > 1e-3:
                    assert d > 1e-12

        # (c) entropy within [0, log M]
        rng = np.random.default_rng(83)
        for _ in range(200):
            m, r = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            profile = RelativeVarianceProfile(
                random_profile(rng, m, r),
                tuple(f"a{i}" for i in range(m)), tuple(f"x{j}" for j in range(r)),
            )
            for e in entropy(profile).values:
                assert 0.0 <= e <= math.log(m) + 1e-9

        # (d) scale invariance of weights under per-attribute variance scaling
        rng = np.random.default_rng(84)
        for _ in range(200):
            mm = random_moments(rng)
            j = int(rng.integers(0, mm.num_attributes))
            scaled = np.array(mm.variances)
            scaled[:, j] *= float(rng.uniform(1e-3, 1e3))
            mm2 = MomentMatrices(mm.means, scaled, mm.counts, mm.alternatives, mm.attributes)
            w1 = icw(entropy(relative_variance(mm))).weights
            w2 = icw(entropy(relative_variance(mm2))).weights
            assert max(abs(a - b) for a, b in zip(w1, w2)) < 1e-10

        # (e) moment oracle equivalence vs two-pass brute force
        rng = np.random.default_rng(85)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            values = list(rng.normal(rng.uniform(-50, 50), rng.uniform(0.01, 10), n))
            got = mean_and_variance(values)
            ref = naive_mean_variance(values)
            assert got[0] == pytest.approx(ref[0], rel=1e-12)
            assert got[1] == pytest.approx(ref[1], rel=1e-12)

        # (f) argmax/rank invariance under positive weight scaling
        rng = np.random.default_rng(86)
        for _ in range(200):
            mm = random_moments(rng)
            weights = tuple(rng.uniform(0.01, 1.0, mm.num_attributes))
            c = float(rng.uniform(1e-3, 1e3))
            r1, _ = rank(expected_utility(mm, weights), mm.alternatives)
            r2, _ = rank(expected_utility(mm, tuple(w * c for w in weights)), mm.alternatives)
            assert r1 == r2


def test_criterion_9_negative_controls(use_case_moments):
    with criterion(9, "negative controls raise in strict mode"):
        degenerate = MomentMatrices(
            use_case_moments.means,
            [[0.0, 1.0], [0.0, 4.0]],  # zero-variance first attribute
            use_case_moments.counts,
            ALTERNATIVES, ATTRIBUTES,
        )
        with pytest.raises(DegenerateAttribute):
            relative_variance(degenerate)

        profile = relative_variance(use_case_moments)
        zero_support = PriorProfile(
            np.array([[1.0, 0.1], [0.0, 0.9]]), ALTERNATIVES, ATTRIBUTES
        )
        with pytest.raises(ZeroPriorSupport):
            kld(profile, zero_support, EngineConfig())

        near_degenerate = ScoreVector((0.05, 0.6, 0.5), ("a", "b", "c"), math.e)
        with pytest.raises(NegativeIgd):
            igd(near_degenerate)
