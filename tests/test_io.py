"""File formats: parsing, validation errors, round trips, byte stability."""

import json
import math

import numpy as np
import pytest

from utilrank.errors import (
    ColumnNotNormalized,
    EmptyInput,
    InvalidSpec,
    NonFiniteUtility,
    ParseError,
)
from utilrank.io_files import (
    config_to_dict,
    digest_sample_set,
    parse_config,
    parse_log_base,
    read_config,
    read_prior,
    read_samples,
    read_scenario_spec,
    samples_to_csv,
    write_config,
    write_prior,
    write_samples,
    write_scenario_spec,
)
from utilrank.model import EngineConfig, IgdNegativePolicy, validate_prior
from utilrank.reproduce import USE_CASE_SPEC
from utilrank.scenario import generate_samples

from conftest import USE_CASE_PRIOR, grid_sample_set, sample_rows, sample_set_from_rows


@pytest.fixture(scope="module")
def use_case_samples():
    return generate_samples(USE_CASE_SPEC)


class TestSamplesFile:
    def test_round_trip(self, use_case_samples, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples(use_case_samples, path)
        assert read_samples(path) == use_case_samples

    def test_well_formed_1200_rows(self, use_case_samples, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples(use_case_samples, path)
        ss = read_samples(path)
        assert len(ss) == 1200
        assert ss.num_alternatives == 2 and ss.num_attributes == 2

    def test_header_only_is_empty_input(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("alternative,attribute,situation,utility\n")
        with pytest.raises(EmptyInput):
            read_samples(path)

    def test_nan_utility_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "alternative,attribute,situation,utility\n"
            "A,x,s1,0.5\n"
            "A,x,s2,NaN\n"
        )
        with pytest.raises(NonFiniteUtility) as exc_info:
            read_samples(path)
        assert exc_info.value.line == 3

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alt,attr,sit,util\nA,x,s1,0.5\n")
        with pytest.raises(ParseError) as exc_info:
            read_samples(path)
        assert exc_info.value.line == 1

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alternative,attribute,situation,utility\nA,x,0.5\n")
        with pytest.raises(ParseError) as exc_info:
            read_samples(path)
        assert exc_info.value.line == 2

    def test_non_numeric_utility(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alternative,attribute,situation,utility\nA,x,s1,high\n")
        with pytest.raises(ParseError):
            read_samples(path)

    def test_canonical_csv_uses_lf(self, use_case_samples):
        text = samples_to_csv(use_case_samples)
        assert "\r" not in text
        assert text.startswith("alternative,attribute,situation,utility\n")

    def test_digest_ignores_input_ordering(self, use_case_samples):
        rng = np.random.default_rng(2)
        shuffled = sample_rows(use_case_samples)
        rng.shuffle(shuffled)
        assert digest_sample_set(sample_set_from_rows(shuffled)) == digest_sample_set(
            use_case_samples
        )


class TestPriorFile:
    @pytest.fixture
    def sample_set(self):
        return grid_sample_set(
            ("AI1", "AI2"), ("force_protection", "proportionality"), lambda i, j: [0.1, 0.2]
        )

    def test_use_case_round_trip(self, sample_set, tmp_path):
        prior = validate_prior(USE_CASE_PRIOR, sample_set)
        path = tmp_path / "prior.csv"
        write_prior(prior, path)
        loaded = read_prior(path, sample_set)
        np.testing.assert_array_equal(loaded.matrix, prior.matrix)
        # columns as published: fp = (0.7, 0.3), prop = (0.1, 0.9)
        np.testing.assert_array_equal(loaded.matrix[:, 0], [0.7, 0.3])
        np.testing.assert_array_equal(loaded.matrix[:, 1], [0.1, 0.9])

    def test_carriage_return_names_round_trip(self, tmp_path):
        sample_set = grid_sample_set(("a\rb", "c"), ("x\r", "y"), lambda i, j: [0.1, 0.2])
        prior = validate_prior(USE_CASE_PRIOR, sample_set)
        path = tmp_path / "prior.csv"
        write_prior(prior, path)
        np.testing.assert_array_equal(read_prior(path, sample_set).matrix, prior.matrix)

    def test_missing_cell(self, sample_set, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text(
            "attribute,alternative,probability\n"
            "force_protection,AI1,0.7\n"
            "force_protection,AI2,0.3\n"
            "proportionality,AI1,1.0\n"
        )
        with pytest.raises(ParseError) as exc_info:
            read_prior(path, sample_set)
        assert "missing cell" in str(exc_info.value)

    def test_missing_cell_names_the_files_last_line(self, sample_set, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text("attribute,alternative,probability\nforce_protection,AI1,0.7\n\n\n")
        with pytest.raises(ParseError) as exc_info:
            read_prior(path, sample_set)
        assert str(exc_info.value) == "line 4: missing cell (proportionality, AI1)"

    def test_column_sum_violation(self, sample_set, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text(
            "attribute,alternative,probability\n"
            "force_protection,AI1,0.69\n"
            "force_protection,AI2,0.3\n"
            "proportionality,AI1,0.1\n"
            "proportionality,AI2,0.9\n"
        )
        with pytest.raises(ColumnNotNormalized):
            read_prior(path, sample_set)

    def test_unknown_identifier(self, sample_set, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text("attribute,alternative,probability\nbogus,AI1,1.0\n")
        with pytest.raises(ParseError):
            read_prior(path, sample_set)

    def test_duplicate_cell(self, sample_set, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text(
            "attribute,alternative,probability\n"
            "force_protection,AI1,0.7\n"
            "force_protection,AI1,0.7\n"
        )
        with pytest.raises(ParseError):
            read_prior(path, sample_set)


class TestScenarioSpecFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        write_scenario_spec(USE_CASE_SPEC, path)
        assert read_scenario_spec(path) == USE_CASE_SPEC

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{not json")
        with pytest.raises(InvalidSpec):
            read_scenario_spec(path)

    def test_rejects_unknown_schema_version(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"schema_version": 99, "seed": 1, "pairs": []}))
        with pytest.raises(InvalidSpec):
            read_scenario_spec(path)

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"schema_version": 1, "pairs": [{"alternative": "A"}]}))
        with pytest.raises(InvalidSpec):
            read_scenario_spec(path)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        config = EngineConfig(
            entropy_log_base=2.0,
            kld_log_base=math.e,
            prior_smoothing_epsilon=0.001,
            igd_negative_policy=IgdNegativePolicy.MIN_SHIFT,
            report_weight_rounding=2,
        )
        path = tmp_path / "config.json"
        write_config(config, path)
        assert parse_config(read_config(path)) == config

    def test_e_base_serialization(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(EngineConfig(), path)
        doc = json.loads(path.read_text())
        assert doc["entropy_log_base"] == "e"
        assert parse_config(read_config(path)).entropy_log_base == math.e

    @pytest.mark.parametrize("raw,expected", [("e", math.e), ("10", 10.0), (2, 2.0)])
    def test_parse_log_base(self, raw, expected):
        assert parse_log_base(raw) == expected

    def test_parse_log_base_rejects_garbage(self):
        with pytest.raises(InvalidSpec):
            parse_log_base("loge")

    def test_config_dict_stable(self):
        assert config_to_dict(EngineConfig()) == config_to_dict(EngineConfig())
