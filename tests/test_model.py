"""Validation of sample sets and prior profiles."""

import numpy as np
import pytest

from utilrank.errors import (
    ColumnNotNormalized,
    DimensionMismatch,
    DuplicateTriple,
    EmptyInput,
    InsufficientSamples,
    InvalidIdentifier,
    NegativeEntry,
    NonFiniteUtility,
    ScoreOutOfRange,
    UtilityRangeWarning,
)
from utilrank.io_files import digest_sample_set
from utilrank.model import (
    EngineConfig,
    MomentMatrices,
    WeightVector,
    validate_prior,
    validate_sample_set,
)

from conftest import (
    USE_CASE_PRIOR,
    build_sample_set,
    grid_sample_set,
    sample_rows,
    sample_set_from_rows,
)


def _grid_samples(alts, attrs, situations):
    return [
        (alt, attr, f"s{k:04d}", 0.1 + 0.001 * k)
        for alt in alts
        for attr in attrs
        for k in range(1, situations + 1)
    ]


class TestValidateSampleSet:
    def test_use_case_shape(self):
        # 1200 samples: 2 alternatives x 2 attributes x 300 situations
        samples = _grid_samples(["AI1", "AI2"], ["fp", "prop"], 300)
        ss = sample_set_from_rows(samples)
        assert len(ss) == 1200
        assert ss.alternatives == ("AI1", "AI2")
        assert ss.attributes == ("fp", "prop")
        assert ss.num_alternatives == 2 and ss.num_attributes == 2

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            sample_set_from_rows([])

    def test_duplicate_triple(self):
        samples = [
            ("A", "X", "1", 0.5),
            ("A", "X", "1", 0.6),
        ]
        with pytest.raises(DuplicateTriple):
            sample_set_from_rows(samples)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples) as exc_info:
            build_sample_set({("A", "X"): [0.1]})
        assert exc_info.value.count == 1

    def test_missing_cross_pair(self):
        # B has attribute X samples only; (A, Y) exists so (B, Y) must too
        samples = (
            [("A", "X", f"s{k}", 0.1) for k in range(3)]
            + [("A", "Y", f"s{k}", 0.2) for k in range(3)]
            + [("B", "X", f"s{k}", 0.3) for k in range(3)]
        )
        with pytest.raises(InsufficientSamples) as exc_info:
            sample_set_from_rows(samples)
        assert exc_info.value.count == 0

    def test_ragged_counts_accepted(self):
        ss = build_sample_set(
            {("A", "X"): [0.1, 0.2, 0.3], ("A", "Y"): [0.4, 0.5]}
        )
        assert len(ss) == 5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_utility(self, bad):
        with pytest.raises(NonFiniteUtility):
            build_sample_set({("A", "X"): [0.1, bad]})

    def test_empty_identifier(self):
        with pytest.raises(InvalidIdentifier):
            sample_set_from_rows([("", "X", "1", 0.1), ("", "X", "2", 0.2)])

    def test_insertion_order_irrelevant(self):
        samples = _grid_samples(["A", "B"], ["X", "Y"], 5)
        rng = np.random.default_rng(11)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        assert sample_set_from_rows(samples) == sample_set_from_rows(shuffled)

    def test_sorted_columns_validate_as_a_shuffled_copy(self):
        # Sorted columns skip the sort; a shuffled copy, and one whose only
        # disorder is within a pair or across one pair's edge, take it.
        canonical = sample_set_from_rows(_grid_samples(["A", "B", "C"], ["X", "Y"], 40))
        names = (canonical.alternatives, canonical.attributes, canonical.situations)
        codes = (canonical.alternative_codes, canonical.attribute_codes, canonical.situation_codes)
        shuffle = np.random.default_rng(3).permutation(len(canonical))
        within = np.arange(len(canonical))
        within[[5, 6]] = [6, 5]
        across = np.arange(len(canonical))
        across[[39, 40]] = [40, 39]
        for order in (np.arange(len(canonical)), shuffle, within, across):
            utilities = canonical.utilities[order]  # a writable array of the caller's
            validated = validate_sample_set(*zip(names, (column[order] for column in codes)), utilities)
            assert validated == canonical
            assert utilities.flags.writeable and not np.shares_memory(validated.utilities, utilities)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_sorted_duplicate_names_its_triple(self, shuffled):
        rows = sorted(_grid_samples(["A", "B"], ["X", "Y"], 4) + [("B", "X", "s0003", 0.9)])
        if shuffled:
            np.random.default_rng(5).shuffle(rows)
        with pytest.raises(DuplicateTriple) as exc_info:
            sample_set_from_rows(rows)
        error = exc_info.value
        assert (error.alternative_id, error.attribute_id, error.situation_id) == ("B", "X", "s0003")

    def test_idempotent(self):
        first = sample_set_from_rows(_grid_samples(["A", "B"], ["X"], 4))
        assert sample_rows(first) == sorted(_grid_samples(["A", "B"], ["X"], 4))
        second = validate_sample_set(
            (first.alternatives, first.alternative_codes),
            (first.attributes, first.attribute_codes),
            (first.situations, first.situation_codes),
            first.utilities,
        )
        assert first == second

    def test_trailing_nul_names_stay_distinct(self):
        ss = build_sample_set({("a", "X"): [0.1, 0.2], ("a\x00", "X"): [0.3, 0.4]})
        assert ss.alternatives == ("a", "a\x00")
        assert ss.counts.tolist() == [[2], [2]]

    def test_situations_sort_as_text(self):
        # s100000 sorts before s10001, whatever order the codes arrive in
        situations = [f"s{k}" for k in (99999, 100000, 10001)]
        ss = sample_set_from_rows(("A", "X", name, 0.5) for name in situations)
        assert ss.situations == ("s100000", "s10001", "s99999")
        assert ss.situation_codes.tolist() == [0, 1, 2]

    def test_repeated_table_names_merge(self):
        ss = validate_sample_set(
            (["A", "A"], [0, 1]), (["X"], [0, 0]), (["s2", "s1"], [0, 1]), [0.2, 0.1]
        )
        assert ss.alternatives == ("A",) and ss.situations == ("s1", "s2")
        assert ss.utilities.tolist() == [0.1, 0.2]

    def test_unused_table_names_are_dropped(self):
        # An unused alternative would be a cross pair with 0 samples, an
        # unused "" an empty identifier; neither is carried by any sample.
        ss = validate_sample_set(
            (["B", "A", ""], [1, 1]), (["Z", "X"], [1, 1]), (["s9", "s2", "s1"], [2, 1]),
            [0.2, 0.1],
        )
        assert (ss.alternatives, ss.attributes, ss.situations) == (("A",), ("X",), ("s1", "s2"))
        plain = validate_sample_set((["A"], [0, 0]), (["X"], [0, 0]), (["s1", "s2"], [0, 1]),
                                    [0.2, 0.1])
        assert ss == plain and hash(ss) == hash(plain)
        assert digest_sample_set(ss) == digest_sample_set(plain)

    @pytest.mark.parametrize("codes", [[0, 2], [-1, 0], [0]])
    def test_codes_must_index_their_table(self, codes):
        with pytest.raises(DimensionMismatch):
            validate_sample_set((["A", "B"], codes), (["X"], [0, 0]), (["1", "2"], [0, 1]),
                                [0.1, 0.2])

    def test_columns_are_read_only(self):
        ss = build_sample_set({("A", "X"): [0.1, 0.2]})
        with pytest.raises(ValueError):
            ss.utilities[0] = 9.0

    def test_equality_compares_every_column(self):
        base = {("A", "X"): [0.1, 0.2]}
        ss = build_sample_set(base)
        assert ss == build_sample_set(base) and len(ss) == 2
        assert hash(ss) == hash(build_sample_set(base))
        assert ss != build_sample_set({("A", "X"): [0.1, 0.3]})
        assert ss != build_sample_set({("B", "X"): [0.1, 0.2]})
        assert ss != sample_set_from_rows([("A", "X", "s1", 0.1), ("A", "X", "s3", 0.2)])

    def test_out_of_range_warns(self):
        with pytest.warns(UtilityRangeWarning):
            build_sample_set({("A", "X"): [15.0, 16.0]})

    def test_in_range_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", UtilityRangeWarning)
            build_sample_set({("A", "X"): [0.0, 1.0, 0.5]})


class TestValidatePrior:
    @pytest.fixture
    def sample_set(self):
        return grid_sample_set(
            ("AI1", "AI2"), ("force_protection", "proportionality"), lambda i, j: [0.1, 0.2, 0.3]
        )

    def test_use_case_prior(self, sample_set):
        prior = validate_prior(USE_CASE_PRIOR, sample_set)
        np.testing.assert_array_equal(prior.matrix, USE_CASE_PRIOR)
        assert prior.alternatives == sample_set.alternatives
        assert prior.attributes == sample_set.attributes

    def test_column_not_normalized(self, sample_set):
        with pytest.raises(ColumnNotNormalized) as exc_info:
            validate_prior([[0.7, 0.1], [0.2, 0.9]], sample_set)
        assert exc_info.value.attribute_id == "force_protection"
        assert exc_info.value.total == pytest.approx(0.9)

    def test_uniform_prior(self, sample_set):
        prior = validate_prior([[0.5, 0.5], [0.5, 0.5]], sample_set)
        assert float(prior.matrix.sum()) == pytest.approx(2.0)

    def test_negative_entry(self, sample_set):
        with pytest.raises(NegativeEntry):
            validate_prior([[1.2, 0.1], [-0.2, 0.9]], sample_set)

    def test_dimension_mismatch(self, sample_set):
        with pytest.raises(DimensionMismatch):
            validate_prior([[0.5, 0.3, 0.2]], sample_set)


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.kld_log_base == 10.0
        assert config.prior_smoothing_epsilon == 0.0
        assert config.report_weight_rounding is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"entropy_log_base": 1.0},
            {"kld_log_base": 0.5},
            {"prior_smoothing_epsilon": 1.0},
            {"prior_smoothing_epsilon": -0.1},
            {"report_weight_rounding": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)


class TestMomentMatrices:
    def test_shapes_must_agree(self):
        with pytest.raises(DimensionMismatch):
            MomentMatrices(np.zeros((1, 2)), np.zeros((1, 3)), np.full((1, 2), 2), ("a",), ("x", "y"))

    def test_negative_variance(self):
        variances = np.array([[0.1, -1e-300]])
        with pytest.raises(ValueError, match="non-negative"):
            MomentMatrices(np.zeros((1, 2)), variances, np.full((1, 2), 2), ("a",), ("x", "y"))


class TestWeightVector:
    @pytest.mark.parametrize("weights", [(0.5, 0.4), (1.5, -0.5)], ids=["sum-not-one", "negative"])
    def test_rejects(self, weights):
        with pytest.raises(ScoreOutOfRange):
            WeightVector(weights)
