"""The three weighting methods against published figures and hand oracles."""

import math

import numpy as np
import pytest

from utilrank.errors import (
    AllZeroDivergence,
    AllZeroEntropy,
    DegenerateAttribute,
    DegenerateAttributeWarning,
    DimensionMismatch,
    NegativeIgd,
    ScoreOutOfRange,
    ZeroPriorSupport,
)
from utilrank.model import (
    DegenerateVariancePolicy,
    EngineConfig,
    IgdNegativePolicy,
    MomentMatrices,
    PriorProfile,
    RelativeVarianceProfile,
    validate_prior,
)
from utilrank.pipeline import run_pipeline
from utilrank.report import report_to_dict
from utilrank.reproduce import USE_CASE_SPEC
from utilrank.scenario import generate_samples
from utilrank.weighting import (
    entropy,
    icw,
    igd,
    igdw,
    ighw,
    kld,
    relative_variance,
)

from conftest import (
    ALTERNATIVES,
    ATTRIBUTES,
    USE_CASE_PRIOR,
    USE_CASE_VARIANCES,
    random_profile,
    scalar_entropy,
    scalar_kld,
)


def _moments(variances, alternatives=None, attributes=None):
    variances = np.asarray(variances, dtype=float)
    m, r = variances.shape
    alternatives = alternatives or tuple(f"alt{i}" for i in range(m))
    attributes = attributes or tuple(f"attr{j}" for j in range(r))
    return MomentMatrices(
        np.zeros((m, r)), variances, np.full((m, r), 2, dtype=int), alternatives, attributes
    )


def _profile(matrix, alternatives=None, attributes=None):
    matrix = np.asarray(matrix, dtype=float)
    m, r = matrix.shape
    return RelativeVarianceProfile(
        matrix,
        alternatives or tuple(f"alt{i}" for i in range(m)),
        attributes or tuple(f"attr{j}" for j in range(r)),
    )


@pytest.fixture
def use_case_profile():
    mm = _moments(USE_CASE_VARIANCES, ALTERNATIVES, ATTRIBUTES)
    return relative_variance(mm, EngineConfig())


class TestRelativeVariance:
    def test_use_case_columns(self, use_case_profile):
        p = use_case_profile.matrix
        np.testing.assert_allclose(p[:, 0], [0.7368, 0.2632], atol=5e-5)
        assert p[0, 1] == 0.2 and p[1, 1] == 0.8

    def test_equal_variances(self):
        profile = relative_variance(_moments([[3.7], [3.7]]))
        np.testing.assert_array_equal(profile.matrix, [[0.5], [0.5]])

    def test_columns_sum_to_one(self, use_case_profile):
        np.testing.assert_allclose(use_case_profile.matrix.sum(axis=0), 1.0, atol=1e-9)

    def test_degenerate_error_policy(self):
        with pytest.raises(DegenerateAttribute):
            relative_variance(_moments([[0.0, 1.0], [0.0, 2.0]]))

    def test_degenerate_uniform_policy(self):
        config = EngineConfig(degenerate_variance_policy=DegenerateVariancePolicy.UNIFORM)
        with pytest.warns(DegenerateAttributeWarning):
            profile = relative_variance(_moments([[0.0, 1.0], [0.0, 2.0]]), config)
        np.testing.assert_array_equal(profile.matrix[:, 0], [0.5, 0.5])
        assert profile.degenerate_attributes == ("attr0",)

    def test_infinite_total_is_a_range_error(self):
        with pytest.raises(ScoreOutOfRange, match="variance total of attribute 'attr0' overflows"):
            relative_variance(_moments([[1.0, 1.0], [math.inf, 2.0]]))


class TestEntropy:
    def test_use_case_values(self, use_case_profile):
        ev = entropy(use_case_profile, math.e)
        assert ev[0] == pytest.approx(0.5763, abs=5e-4)
        assert ev[1] == pytest.approx(0.5004, abs=5e-4)

    def test_term_by_term_oracle(self, use_case_profile):
        ev = entropy(use_case_profile, math.e)
        for r in range(2):
            expected = 0.0
            for i in range(2):
                p = float(use_case_profile.matrix[i, r])
                expected += -p * math.log(p)
            assert ev[r] == pytest.approx(expected, rel=1e-14)

    def test_degenerate_column_is_zero(self):
        ev = entropy(_profile([[1.0], [0.0]]), math.e)
        assert ev[0] == 0.0

    def test_uniform_base_two_is_one(self):
        ev = entropy(_profile([[0.5], [0.5]]), 2.0)
        assert ev[0] == 1.0

    def test_out_of_bound_is_range_error(self):
        # Columns that are not distributions can push entropy past log M.
        with pytest.raises(ScoreOutOfRange, match="escapes"):
            entropy(_profile([[0.3], [0.3], [0.3], [0.3]]), math.e)


class TestIcw:
    def test_use_case(self, use_case_profile):
        weights = icw(entropy(use_case_profile, math.e))
        assert weights.weights[0] == pytest.approx(0.5353, abs=5e-4)
        assert weights.weights[1] == pytest.approx(0.4647, abs=5e-4)

    def test_equal_entropies_uniform(self):
        ev = (0.42, 0.42, 0.42)
        np.testing.assert_allclose(icw(ev).weights, [1 / 3] * 3, atol=1e-15)

    def test_three_attribute_normalization_oracle(self):
        values = (0.6931, 0.0, 0.6931)
        weights = icw(values).weights
        total = values[0] + values[1] + values[2]
        assert weights == tuple(v / total for v in values)
        np.testing.assert_allclose(weights, [0.5, 0.0, 0.5], atol=1e-15)

    def test_all_zero_entropy(self):
        with pytest.raises(AllZeroEntropy):
            icw((0.0, 0.0))

    def test_raw_scores_are_entropies(self):
        # Each method's reported raw scores are the scores it normalized.
        sample_set = generate_samples(USE_CASE_SPEC)
        report = run_pipeline(sample_set, validate_prior(USE_CASE_PRIOR, sample_set))
        doc = report_to_dict(report)
        for method, key in (("ICW", "entropies"), ("IGHW", "divergences"), ("IGDW", "igd")):
            assert doc["weights"][method]["raw_scores"] == doc[key]["values"]
        assert report.entropies == entropy(report.relative_variance, math.e)


class TestKld:
    @pytest.fixture
    def use_case_prior(self):
        return PriorProfile(np.array(USE_CASE_PRIOR), ALTERNATIVES, ATTRIBUTES)

    def test_use_case_base10(self, use_case_profile, use_case_prior):
        dv = kld(use_case_profile, use_case_prior, EngineConfig(kld_log_base=10.0))
        assert dv[0] == pytest.approx(0.0014, abs=2e-4)
        assert dv[1] == pytest.approx(0.0193, abs=2e-4)

    def test_identical_distributions(self):
        matrix = np.array([[0.3, 0.6], [0.7, 0.4]])
        profile = _profile(matrix)
        prior = PriorProfile(matrix, profile.alternatives, profile.attributes)
        dv = kld(profile, prior, EngineConfig())
        assert all(abs(d) <= 1e-12 for d in dv)

    def test_term_by_term_oracle_nats(self):
        profile = _profile([[0.6], [0.4]])
        prior = PriorProfile(np.array([[0.5], [0.5]]), profile.alternatives, profile.attributes)
        dv = kld(profile, prior, EngineConfig(kld_log_base=math.e))
        expected = 0.6 * math.log(1.2) + 0.4 * math.log(0.8)  # ~0.020136
        assert dv[0] == pytest.approx(expected, rel=1e-14)

    def test_zero_prior_support(self, use_case_profile):
        prior = PriorProfile(np.array([[1.0, 0.1], [0.0, 0.9]]), ALTERNATIVES, ATTRIBUTES)
        with pytest.raises(ZeroPriorSupport) as exc_info:
            kld(use_case_profile, prior, EngineConfig())
        assert exc_info.value.attribute_id == "force_protection"

    def test_smoothing_unblocks_zero_support(self, use_case_profile):
        prior = PriorProfile(np.array([[1.0, 0.1], [0.0, 0.9]]), ALTERNATIVES, ATTRIBUTES)
        eps = 1e-3
        config = EngineConfig(prior_smoothing_epsilon=eps, kld_log_base=math.e)
        dv = kld(use_case_profile, prior, config)
        # oracle recomputes with the smoothed prior (q + eps) / (1 + M * eps)
        p = use_case_profile.matrix
        for r in range(2):
            expected = sum(
                float(p[i, r]) * math.log(float(p[i, r]) / ((prior.matrix[i, r] + eps) / (1 + 2 * eps)))
                for i in range(2)
            )
            assert dv[r] == pytest.approx(expected, rel=1e-12)

    def test_zero_data_skips_zero_prior(self):
        # 0 * log(0 / 0) is taken as 0: a cell with no data mass needs no prior support.
        profile = _profile([[0.0], [1.0]])
        prior = PriorProfile(np.array([[0.0], [1.0]]), profile.alternatives, profile.attributes)
        assert kld(profile, prior, EngineConfig()) == (0.0,)

    def test_dimension_mismatch(self, use_case_profile):
        prior = PriorProfile(np.array([[1.0], [0.0]]), ALTERNATIVES, ("only",))
        with pytest.raises(DimensionMismatch):
            kld(use_case_profile, prior, EngineConfig())


def _zeroed(rng, matrix, share):
    """``matrix`` with about ``share`` of its cells set to 0, each column kept a distribution."""
    matrix = np.where(rng.uniform(size=matrix.shape) < share, 0.0, matrix)
    matrix[0, matrix.sum(axis=0) == 0.0] = 1.0
    return matrix / matrix.sum(axis=0)


class TestScalarOracles:
    """The array-built terms give the bits of one Python term per cell."""

    BASES = (math.e, 2.0, 10.0, 1.5)

    @pytest.mark.parametrize("seed", range(8))
    def test_entropy_bits(self, seed):
        rng = np.random.default_rng(seed)
        m, r = (int(n) for n in rng.integers(1, 40, size=2))
        profile = _profile(_zeroed(rng, random_profile(rng, m, r), share=0.3 * (seed % 3)))
        for base in self.BASES:
            assert entropy(profile, base) == scalar_entropy(profile, base)

    @pytest.mark.parametrize("seed", range(8))
    def test_kld_bits(self, seed):
        rng = np.random.default_rng(100 + seed)
        m, r = (int(n) for n in rng.integers(1, 40, size=2))
        profile = _profile(_zeroed(rng, random_profile(rng, m, r), share=0.3))
        # zero prior only where the data is zero too, so every prior is supported
        prior_matrix = np.where(profile.matrix > 0.0, random_profile(rng, m, r), 0.0)
        prior_matrix[0, prior_matrix.sum(axis=0) == 0.0] = 1.0
        prior = PriorProfile(prior_matrix / prior_matrix.sum(axis=0),
                             profile.alternatives, profile.attributes)
        for base in self.BASES:
            for eps in (0.0, 1e-3, 0.25):
                config = EngineConfig(kld_log_base=base, prior_smoothing_epsilon=eps)
                assert kld(profile, prior, config) == scalar_kld(profile, prior, config)

    @pytest.mark.parametrize("seed", range(8))
    def test_zero_prior_support_names_the_oracles_cell(self, seed):
        rng = np.random.default_rng(200 + seed)
        m, r = (int(n) for n in rng.integers(2, 30, size=2))
        profile = _profile(_zeroed(rng, random_profile(rng, m, r), share=0.3))
        prior = PriorProfile(_zeroed(rng, random_profile(rng, m, r), share=0.3),
                             profile.alternatives, profile.attributes)
        with pytest.raises(ZeroPriorSupport) as want:
            scalar_kld(profile, prior)
        with pytest.raises(ZeroPriorSupport) as got:
            kld(profile, prior)
        assert (got.value.alternative_id, got.value.attribute_id) == (
            want.value.alternative_id, want.value.attribute_id)
        # smoothing gives every cell support
        config = EngineConfig(prior_smoothing_epsilon=1e-6)
        assert kld(profile, prior, config) == scalar_kld(profile, prior, config)

    def test_nan_cell(self):
        profile = _profile([[math.nan, 0.5], [1.0, 0.5]])
        prior = PriorProfile(np.array([[0.5, 0.5], [0.5, 0.5]]), profile.alternatives,
                             profile.attributes)
        got, want = kld(profile, prior), scalar_kld(profile, prior)
        assert math.isnan(got[0]) and math.isnan(want[0]) and got[1:] == want[1:]
        with pytest.raises(ZeroPriorSupport) as exc_info:
            kld(profile, PriorProfile(np.array([[0.0, 0.5], [1.0, 0.5]]),
                                      profile.alternatives, profile.attributes))
        assert exc_info.value.alternative_id == "alt0"


class TestIghw:
    def test_use_case(self, use_case_profile):
        prior = PriorProfile(np.array(USE_CASE_PRIOR), ALTERNATIVES, ATTRIBUTES)
        weights = ighw(kld(use_case_profile, prior, EngineConfig()))
        assert weights.weights[0] == pytest.approx(0.0694, abs=5e-4)
        assert weights.weights[1] == pytest.approx(0.9306, abs=5e-4)

    def test_symmetric(self):
        dv = (0.37, 0.37)
        assert ighw(dv).weights == (0.5, 0.5)

    def test_three_attribute_normalization_oracle(self):
        dv = (0.01, 0.02, 0.07)
        np.testing.assert_allclose(ighw(dv).weights, [0.1, 0.2, 0.7], rtol=1e-12)

    def test_all_zero_divergence(self):
        with pytest.raises(AllZeroDivergence):
            ighw((0.0, 0.0))

    def test_negative_noise_is_clamped(self):
        assert ighw((0.5, -1e-18)).weights == (1.0, 0.0)

    def test_negative_weight_is_range_error(self):
        with pytest.raises(ScoreOutOfRange, match="negative beyond rounding noise"):
            ighw((1.0, -0.5))


MIN_SHIFT = EngineConfig(igd_negative_policy=IgdNegativePolicy.MIN_SHIFT)


class TestIgd:
    def test_use_case(self, use_case_profile):
        gv, resolution = igd(entropy(use_case_profile, math.e))
        assert resolution == "raw"
        assert gv[0] == pytest.approx(0.0767, abs=5e-4)
        assert gv[1] == pytest.approx(0.0767, abs=5e-4)

    def test_two_attribute_identity(self):
        # IGD(1) = IGD(2) = a + b - 1 whenever R = 2
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b = (float(x) for x in rng.uniform(0.55, 1.0, 2))
            gv, _ = igd((a, b))
            for value in gv:
                assert value == pytest.approx(a + b - 1.0, abs=5e-16)

    def test_three_attribute_strict_negative(self):
        # sum of entropies 1.4986 < R - 1 = 2, so the vector is negative
        ev = (1.0986, 0.2, 0.2)
        with pytest.raises(NegativeIgd):
            igd(ev, EngineConfig(igd_negative_policy=IgdNegativePolicy.ERROR))

    def test_three_attribute_min_shift(self):
        # term-by-term oracle: every entry is 1.4986 - 2 = -0.5014, so the
        # resolved vector is uniform
        ev = (1.0986, 0.2, 0.2)
        oracle = tuple(
            ev[r] - sum(1.0 - ev[j] for j in range(3) if j != r)
            for r in range(3)
        )
        assert all(g == pytest.approx(-0.5014, abs=1e-12) for g in oracle)
        gv, resolution = igd(ev, MIN_SHIFT)
        assert resolution == "min_shifted"
        assert gv == (1 / 3, 1 / 3, 1 / 3)

    def test_single_attribute_rejected(self):
        with pytest.raises(DimensionMismatch):
            igd((0.9,))


class TestIgdw:
    def test_use_case_exact_half(self, use_case_profile):
        gv, _ = igd(entropy(use_case_profile, math.e))
        assert igdw(gv).weights == (0.5, 0.5)

    def test_any_two_attribute_input_is_half(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a, b = (float(x) for x in rng.uniform(0.51, 1.0, 2))
            gv, _ = igd((a, b))
            assert igdw(gv).weights == (0.5, 0.5)

    def test_normalization_oracle(self):
        # each difference over their total (the paper's normalization) is
        # 1/R to rounding; the weights are exactly 1/R
        rng = np.random.default_rng(29)
        for _ in range(100):
            r = int(rng.integers(2, 9))
            values = tuple(float(x) for x in rng.uniform((r - 1) / r + 0.01, 2.0, r))
            gv, _ = igd(values)
            oracle = [g / math.fsum(gv) for g in gv]
            weights = igdw(gv).weights
            np.testing.assert_allclose(weights, oracle, rtol=1e-12)
            assert weights == (1 / r,) * r

    def test_zero_sum(self):
        # entropies summing to exactly R - 1 give an all-zero difference
        # vector: nothing to normalize, so it is treated like a negative one
        ev = (0.5, 0.5)
        with pytest.raises(NegativeIgd):
            igd(ev)
        gv, resolution = igd(ev, MIN_SHIFT)
        assert resolution == "min_shifted"
        assert igdw(gv).weights == (0.5, 0.5)
