"""Deterministic scenario generation: moment fidelity and reproducibility."""

import math
import warnings

import numpy as np
import pytest

import utilrank.scenario as scenario_module
from utilrank.errors import InvalidSpec, NonFiniteUtility
from utilrank.moments import compute_moments
from utilrank.prng import _jump, _jump_table, _piece_length, lane_units, normal_ppf, substream
from utilrank.reproduce import USE_CASE_SPEC
from utilrank.scenario import MomentMode, PairSpec, ScenarioSpec, generate_samples

from conftest import samples_to_csv, scalar_mean_and_variance

# ---------------------------------------------------------------------------
# Scalar reference generator: one Python-int xoshiro256++ stream at a time
# and a per-value inverse normal CDF. The lane generator must match it bit
# for bit.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z):
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK64


class ScalarXoshiro256pp:
    """xoshiro256++ seeded by SplitMix64, stepped with Python integers."""

    def __init__(self, seed):
        sm = seed & _MASK64
        self._s = []
        for _ in range(4):
            sm = (sm + _GOLDEN) & _MASK64
            self._s.append(_mix64(sm))
        if not any(self._s):
            self._s[0] = _GOLDEN

    def next_u64(self):
        s0, s1, s2, s3 = self._s
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def next_unit(self):
        return ((self.next_u64() >> 11) + 0.5) * (2.0 ** -53)


_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def scalar_normal_ppf(p):
    """Acklam's inverse normal CDF of one float."""
    a, b, c, d = _A, _B, _C, _D
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    if p > 1.0 - 0.02425:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                 / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    q = p - 0.5
    s = q * q
    return ((((((a[0] * s + a[1]) * s + a[2]) * s + a[3]) * s + a[4]) * s + a[5]) * q
            / (((((b[0] * s + b[1]) * s + b[2]) * s + b[3]) * s + b[4]) * s + 1.0))


def scalar_pair_values(seed, index, pair, mode):
    """One pair's utilities, drawn and rescaled one float at a time."""
    if mode is MomentMode.EXACT and pair.target_variance == 0.0:
        return [pair.target_mean] * pair.sample_count
    attempt = 0
    while True:
        stream = ScalarXoshiro256pp(substream(seed, index, attempt))
        draws = [scalar_normal_ppf(stream.next_unit()) for _ in range(pair.sample_count)]
        if mode is MomentMode.STOCHASTIC:
            sd = math.sqrt(pair.target_variance)
            return [pair.target_mean + sd * z for z in draws]
        raw_mean, raw_var = scalar_mean_and_variance(draws)
        if raw_var > 0.0:
            scale = math.sqrt(pair.target_variance / raw_var)
            return [pair.target_mean + (z - raw_mean) * scale for z in draws]
        attempt += 1


def _scalar_units(seeds, counts):
    """Each stream's first uniforms, stepped one at a time, lane after lane."""
    units = []
    for seed, n in zip(seeds, counts):
        stream = ScalarXoshiro256pp(seed)
        units.extend(stream.next_unit() for _ in range(n))
    return units


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


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
        # Pair A's first draw is constant (every uniform 0.5, every normal
        # 0.0); only A's lane is redrawn, from attempt 1, and B keeps its draw.
        spec = _spec([PairSpec("A", "x", 1.0, 2.0, 10), PairSpec("B", "x", 3.0, 0.5, 6)])
        constant_seed = substream(spec.seed, 0, 0)
        calls = []

        def fake_lane_units(seeds, counts):
            calls.append(list(seeds))
            units = lane_units(seeds, counts)
            if seeds[0] == constant_seed:
                units[:counts[0]] = 0.5
            return units

        monkeypatch.setattr(scenario_module, "lane_units", fake_lane_units)
        ss = generate_samples(spec)
        assert calls == [[constant_seed, substream(spec.seed, 1, 0)],
                         [substream(spec.seed, 0, 1)]]
        mm = compute_moments(ss)
        assert mm.variances[0, 0] == pytest.approx(2.0, rel=1e-9)
        stream = ScalarXoshiro256pp(substream(spec.seed, 0, 1))
        draws = [scalar_normal_ppf(stream.next_unit()) for _ in range(10)]
        raw_mean, raw_var = scalar_mean_and_variance(draws)
        scale = math.sqrt(2.0 / raw_var)
        assert ss.utilities[:10].tolist() == [1.0 + (z - raw_mean) * scale for z in draws]
        assert ss.utilities[10:].tolist() == scalar_pair_values(
            spec.seed, 1, spec.pairs[1], MomentMode.EXACT)


    def test_infinite_scale_gives_nan_without_numpy_warnings(self, monkeypatch):
        # Normals -a, 0, a: the middle deviation is exactly 0 and the scale
        # sqrt(1e308 / a**2) is inf, so a utility is 0 * inf = nan, as with
        # Python floats: a NonFiniteUtility, not a RuntimeWarning.
        monkeypatch.setattr(scenario_module, "lane_units",
                            lambda seeds, counts: np.array([0.25, 0.5, 0.75]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteUtility):
                generate_samples(_spec([PairSpec("A", "x", 0.0, 1e308, 3)]))


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
            mean, _ = scalar_mean_and_variance(values)
            if abs(mean - 15.0) <= bound:
                hits += 1
        assert hits >= 99

    def test_variance_scales(self):
        spec = _spec([PairSpec("A", "x", 0.0, 9.0, 5000)], seed=3, mode=MomentMode.STOCHASTIC)
        _, variance = scalar_mean_and_variance(generate_samples(spec).utilities.tolist())
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
        z = normal_ppf([0.5, 0.975, 0.0001])
        assert z[0] == 0.0
        assert z[1] == pytest.approx(1.959963985, abs=1e-6)
        assert z[2] == pytest.approx(-3.719016485, abs=1e-6)

    def test_ppf_antisymmetric(self):
        p = np.array([1e-6, 0.01, 0.1, 0.3, 0.49])
        np.testing.assert_allclose(normal_ppf(p), -normal_ppf(1 - p), rtol=0, atol=1e-9)

    def test_ppf_monotonic(self):
        values = normal_ppf(np.arange(1, 1000) / 1000)
        assert np.all(np.diff(values) > 0)

    def test_ppf_rejects_boundaries(self):
        for p in (0.0, 1.0, -0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                normal_ppf([0.5, p])

    def test_stream_reproducible(self):
        assert _bits(lane_units([123], [10])).tolist() == _bits(lane_units([123], [10])).tolist()

    def test_units_in_open_interval(self):
        units = lane_units([9], [1000])
        assert np.all((units > 0.0) & (units < 1.0))

    def test_substreams_differ(self):
        units = lane_units([substream(7, 0), substream(7, 1)], [4, 4])
        assert units[:4].tolist() != units[4:].tolist()

    def test_lanes_are_independent(self):
        seeds, counts = [11, 12, 13], [5, 0, 3]
        together = lane_units(seeds, counts)
        alone = np.concatenate([lane_units([s], [n]) for s, n in zip(seeds, counts)])
        assert _bits(together).tolist() == _bits(alone).tolist()


class TestScalarOracle:
    """The lane generator against the scalar reference, bit for bit."""

    def test_units_and_normals_match(self):
        rng = np.random.default_rng(6)
        counts = [int(n) for n in rng.integers(500, 1501, size=200)] + [1, 1000, 2]
        seeds = [substream(99, k) for k in range(len(counts))]
        expected = _scalar_units(seeds, counts)
        units = lane_units(seeds, counts)
        assert _bits(units).tolist() == _bits(expected).tolist()
        assert units.min() < 0.02425 and units.max() > 1.0 - 0.02425  # both tail branches
        normals = normal_ppf(units)
        assert _bits(normals).tolist() == _bits([scalar_normal_ppf(u) for u in expected]).tolist()

    @pytest.mark.parametrize("mode", list(MomentMode))
    def test_generate_samples_matches(self, mode):
        pairs = [PairSpec(f"A{i}", f"k{j}", 0.1 * i - 0.2 * j, 0.0 if (i, j) == (1, 1) else 0.5 + i,
                          2 + 97 * i + 31 * j) for i in range(4) for j in range(3)]
        spec = _spec(pairs, seed=2 ** 64 - 1, mode=mode)
        expected = []
        for index, pair in enumerate(pairs):  # already in canonical order
            expected.extend(scalar_pair_values(spec.seed, index, pair, mode))
        actual = generate_samples(spec).utilities
        assert _bits(actual).tolist() == _bits(expected).tolist()


class TestJumpAhead:
    """Lanes cut into jump-ahead pieces against the scalar reference, bit for bit."""

    @pytest.mark.parametrize("length", [1, 2, 17, 64, 316])
    def test_jump_equals_stepping(self, length):
        rng = np.random.default_rng(length)
        table = _jump_table(length)
        states = rng.integers(0, 2 ** 64, size=(6, 4), dtype=np.uint64)
        states[0] = [1, 0, 0, 0]
        states[1] = [0, 0, 0, 1 << 63]
        jumped = _jump(table, states)
        for state, expected in zip(states.tolist(), jumped.tolist()):
            stream = ScalarXoshiro256pp(0)
            stream._s = state
            for _ in range(length):
                stream.next_u64()
            assert stream._s == expected

    def test_counts_around_the_piece_length(self):
        length = 20
        counts = [length * length, length - 1, length, length + 1, 2 * length + 1]
        assert _piece_length(np.array(counts)) == length
        seeds = [substream(31, k) for k in range(len(counts))]
        assert _bits(lane_units(seeds, counts)).tolist() == _bits(_scalar_units(seeds, counts)).tolist()

    def test_single_draws_and_empty_lanes(self):
        counts = [0, 1, 900, 0, 1, 31, 0]
        seeds = [substream(5, k) for k in range(len(counts))]
        assert _bits(lane_units(seeds, counts)).tolist() == _bits(_scalar_units(seeds, counts)).tolist()
        assert lane_units(seeds[:1], [0]).size == 0

    def test_one_long_lane(self):
        seeds, counts = [substream(2025, 0)], [100_001]
        assert _piece_length(np.array(counts)) == 316
        assert _bits(lane_units(seeds, counts)).tolist() == _bits(_scalar_units(seeds, counts)).tolist()

    def test_jump_table_is_built_once_per_length(self, monkeypatch):
        import utilrank.prng as prng

        _jump_table.cache_clear()
        steps = []
        real = prng._steps
        monkeypatch.setattr(prng, "_steps", lambda state, live: steps.append(len(live)) or real(state, live))
        counts = [300, 300, 300, 300]  # the reproduce-paper shape: pieces of 17 draws
        seeds = [substream(11, k) for k in range(len(counts))]
        expected = _bits(_scalar_units(seeds, counts)).tolist()
        assert _bits(lane_units(seeds, counts)).tolist() == expected
        assert steps == [17, 17]  # the table's 17 steps, then the pieces'
        steps.clear()
        assert _bits(lane_units(seeds, counts)).tolist() == expected
        assert steps == [17]  # the pieces only: the table is kept
        assert not _jump_table(17).flags.writeable

    def test_each_piece_length_is_built_once_per_spec(self, monkeypatch):
        import utilrank.prng as prng

        # Groups of 11 pairs (GROUP_SAMPLES is 16,384), whose longest pairs
        # take pieces of 38, 37, 38 and 37 draws in turn.
        counts = [1444 if (k // 11) % 2 == 0 else 1369 for k in range(44)]
        spec = ScenarioSpec(tuple(PairSpec(f"A{k:02d}", "x", 0.5, 0.01, count) for k, count in enumerate(counts)),
                            seed=3)
        lengths = []
        monkeypatch.setattr(prng, "_jump_table", lambda length: lengths.append(length) or _jump_table(length))
        _jump_table.cache_clear()
        generate_samples(spec)
        assert lengths == [38, 37, 38, 37]
        assert _jump_table.cache_info().misses == 2
