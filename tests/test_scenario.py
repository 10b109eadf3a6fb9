"""Deterministic scenario generation: moment fidelity and reproducibility."""

import math

import numpy as np
import pytest

import utilrank.scenario as scenario_module
from utilrank.errors import InvalidSpec
from utilrank.io_files import samples_to_csv
from utilrank.moments import compute_moments, mean_and_variance
from utilrank.prng import Xoshiro256pp, normal_ppf, substream
from utilrank.reproduce import USE_CASE_SPEC
from utilrank.scenario import MomentMode, PairSpec, ScenarioSpec, generate_samples


def _spec(pairs, seed=1, mode=MomentMode.EXACT):
    return ScenarioSpec(tuple(pairs), seed, mode)


class TestExactMode:
    def test_use_case_moment_fidelity(self):
        mm = compute_moments(generate_samples(USE_CASE_SPEC))
        np.testing.assert_allclose(mm.means, [[15.0, 4.0], [8.0, 10.0]], atol=1e-9)
        np.testing.assert_allclose(mm.variances, [[7.0, 1.0], [2.5, 4.0]], rtol=1e-9)

    def test_random_targets_hit(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            mean = float(rng.uniform(-50, 50))
            variance = float(rng.uniform(0.01, 30))
            count = int(rng.integers(2, 200))
            spec = _spec([PairSpec("A", "x", mean, variance, count)], seed=trial)
            mm = compute_moments(generate_samples(spec))
            assert mm.means[0, 0] == pytest.approx(mean, abs=1e-9)
            assert mm.variances[0, 0] == pytest.approx(variance, rel=1e-9)

    def test_zero_variance_emits_copies(self):
        spec = _spec([PairSpec("A", "x", 4.2, 0.0, 5)])
        ss = generate_samples(spec)
        assert ss.utilities.tolist() == [4.2] * 5

    def test_constant_raw_draw_redraws(self, monkeypatch):
        real_substream = substream
        calls = []

        def fake_substream(seed, index, attempt=0):
            calls.append(attempt)
            if attempt == 0:
                class Constant:
                    def next_normal(self):
                        return 0.5
                return Constant()
            return real_substream(seed, index, attempt)

        monkeypatch.setattr(scenario_module, "substream", fake_substream)
        spec = _spec([PairSpec("A", "x", 1.0, 2.0, 10)])
        mm = compute_moments(generate_samples(spec))
        assert max(calls) == 1  # first attempt was constant, second succeeded
        assert mm.variances[0, 0] == pytest.approx(2.0, rel=1e-9)


class TestDeterminism:
    def test_identical_specs_identical_bytes(self):
        first = samples_to_csv(generate_samples(USE_CASE_SPEC))
        second = samples_to_csv(generate_samples(USE_CASE_SPEC))
        assert first == second

    def test_seed_changes_draws(self):
        base = _spec([PairSpec("A", "x", 0.0, 1.0, 50)], seed=1, mode=MomentMode.STOCHASTIC)
        other = _spec([PairSpec("A", "x", 0.0, 1.0, 50)], seed=2, mode=MomentMode.STOCHASTIC)
        assert generate_samples(base) != generate_samples(other)

    def test_substream_independence(self):
        pairs = [
            PairSpec("A", "x", 1.0, 1.0, 20),
            PairSpec("B", "x", 2.0, 2.0, 20),
            PairSpec("C", "x", 3.0, 3.0, 20),
        ]
        changed = [
            PairSpec("A", "x", 1.0, 1.0, 20),
            PairSpec("B", "x", -9.0, 0.25, 50),  # different parameters
            PairSpec("C", "x", 3.0, 3.0, 20),
        ]
        base = generate_samples(_spec(pairs, seed=5, mode=MomentMode.STOCHASTIC))
        modified = generate_samples(_spec(changed, seed=5, mode=MomentMode.STOCHASTIC))

        def pair_values(ss, alt):
            return ss.utilities[ss.alternative_codes == ss.alternatives.index(alt)].tolist()

        assert pair_values(base, "A") == pair_values(modified, "A")
        assert pair_values(base, "C") == pair_values(modified, "C")
        assert pair_values(base, "B") != pair_values(modified, "B")


class TestStochasticMode:
    def test_mean_within_three_sigma_for_most_seeds(self):
        # Monte Carlo oracle: sample mean of n draws from normal(15, 7)
        # lands within 3*sqrt(7/n) of 15 for at least 99 of 100 seeds.
        n = 10000
        bound = 3 * math.sqrt(7 / n)
        hits = 0
        for seed in range(100):
            spec = _spec([PairSpec("A", "x", 15.0, 7.0, n)], seed=seed,
                         mode=MomentMode.STOCHASTIC)
            values = generate_samples(spec).utilities.tolist()
            mean, _ = mean_and_variance(values)
            if abs(mean - 15.0) <= bound:
                hits += 1
        assert hits >= 99

    def test_variance_scales(self):
        spec = _spec([PairSpec("A", "x", 0.0, 9.0, 5000)], seed=3, mode=MomentMode.STOCHASTIC)
        _, variance = mean_and_variance(generate_samples(spec).utilities.tolist())
        assert variance == pytest.approx(9.0, rel=0.1)


class TestSpecValidation:
    def test_rejects_small_count(self):
        with pytest.raises(InvalidSpec):
            _spec([PairSpec("A", "x", 0.0, 1.0, 1)])

    def test_rejects_negative_variance(self):
        with pytest.raises(InvalidSpec):
            _spec([PairSpec("A", "x", 0.0, -1.0, 5)])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(InvalidSpec):
            _spec([PairSpec("A", "x", 0.0, 1.0, 5), PairSpec("A", "x", 1.0, 1.0, 5)])

    def test_rejects_empty(self):
        with pytest.raises(InvalidSpec):
            _spec([])

    def test_rejects_bad_seed(self):
        with pytest.raises(InvalidSpec):
            ScenarioSpec((PairSpec("A", "x", 0.0, 1.0, 5),), -1)


class TestPrng:
    def test_ppf_center_and_tails(self):
        assert normal_ppf(0.5) == 0.0
        assert normal_ppf(0.975) == pytest.approx(1.959963985, abs=1e-6)
        assert normal_ppf(0.0001) == pytest.approx(-3.719016485, abs=1e-6)

    def test_ppf_antisymmetric(self):
        for p in (1e-6, 0.01, 0.1, 0.3, 0.49):
            assert normal_ppf(p) == pytest.approx(-normal_ppf(1 - p), abs=1e-9)

    def test_ppf_monotonic(self):
        grid = [i / 1000 for i in range(1, 1000)]
        values = [normal_ppf(p) for p in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_ppf_rejects_boundaries(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_ppf(p)

    def test_stream_reproducible(self):
        a = Xoshiro256pp(123)
        b = Xoshiro256pp(123)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_units_in_open_interval(self):
        stream = Xoshiro256pp(9)
        for _ in range(1000):
            u = stream.next_unit()
            assert 0.0 < u < 1.0

    def test_substreams_differ(self):
        s0 = substream(7, 0)
        s1 = substream(7, 1)
        assert [s0.next_u64() for _ in range(4)] != [s1.next_u64() for _ in range(4)]
