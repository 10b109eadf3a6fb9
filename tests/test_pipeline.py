"""End-to-end pipeline behavior and report emission."""

import json
import math
import sys

import numpy as np
import pytest

from utilrank.errors import DegenerateAttributeWarning, PriorRequired
from utilrank.model import (
    DegenerateVariancePolicy,
    EngineConfig,
    IgdNegativePolicy,
    WeightMethod,
    validate_prior,
)
from utilrank.pipeline import resolve_methods, run_pipeline
from utilrank.report import emit_report, report_to_dict
from utilrank.reproduce import REFERENCE_CONFIG, USE_CASE_SPEC
from utilrank.scenario import generate_samples

from conftest import (
    USE_CASE_PRIOR,
    build_sample_set,
    grid_sample_set,
    sample_rows,
    sample_set_from_rows,
)


@pytest.fixture(scope="module")
def use_case_samples():
    return generate_samples(USE_CASE_SPEC)


@pytest.fixture(scope="module")
def use_case_report(use_case_samples):
    prior = validate_prior(USE_CASE_PRIOR, use_case_samples)
    return run_pipeline(
        use_case_samples, prior=prior, config=REFERENCE_CONFIG,
        methods=("icw", "ighw", "igdw"),
    )


class TestUseCasePipeline:
    def test_summary_table_weights(self, use_case_report):
        # published summary: 0.54/0.46, 0.07/0.93, 0.50/0.50 at 2 decimals
        display = {
            m: tuple(round(w, 2) for w in wv.weights)
            for m, wv in use_case_report.weights.items()
        }
        assert display[WeightMethod.ICW] == (0.54, 0.46)
        assert display[WeightMethod.IGHW] == (0.07, 0.93)
        assert display[WeightMethod.IGDW] == (0.5, 0.5)

    def test_summary_table_rankings(self, use_case_report):
        assert use_case_report.rankings[WeightMethod.ICW].ranks == (1, 2)
        assert use_case_report.rankings[WeightMethod.IGHW].ranks == (2, 1)
        assert use_case_report.rankings[WeightMethod.IGDW].ranks == (1, 2)

    def test_summary_table_expectations(self, use_case_report):
        exps = {m: rr.expectations for m, rr in use_case_report.rankings.items()}
        np.testing.assert_allclose(exps[WeightMethod.ICW], (9.94, 8.92), atol=5e-3)
        np.testing.assert_allclose(exps[WeightMethod.IGHW], (4.77, 9.86), atol=5e-3)
        np.testing.assert_allclose(exps[WeightMethod.IGDW], (9.5, 9.0), atol=5e-3)

    def test_provenance_digests(self, use_case_report, use_case_samples):
        from utilrank.io_files import digest_prior, digest_sample_set

        assert use_case_report.provenance.samples_sha256 == digest_sample_set(use_case_samples)
        prior = validate_prior(USE_CASE_PRIOR, use_case_samples)
        assert use_case_report.provenance.prior_sha256 == digest_prior(prior)


class TestPreconditions:
    def test_ighw_without_prior(self, use_case_samples):
        with pytest.raises(PriorRequired):
            run_pipeline(use_case_samples, methods=("ighw",))

    def test_default_methods_without_prior(self):
        assert resolve_methods(None, have_prior=False) == (
            WeightMethod.ICW, WeightMethod.IGDW,
        )

    def test_default_methods_with_prior(self):
        assert resolve_methods(None, have_prior=True) == (
            WeightMethod.ICW, WeightMethod.IGHW, WeightMethod.IGDW,
        )

    def test_method_strings_normalized(self):
        assert resolve_methods(("icw", "ICW", "igdw"), True) == (
            WeightMethod.ICW, WeightMethod.IGDW,
        )


class TestThreeByThreeHandOracle:
    def test_icw_report_matches_stepwise_oracle(self):
        # spreadsheet-style oracle: every formula step recomputed with
        # plain loops from the computed variance matrix
        rng = np.random.default_rng(101)
        ss = grid_sample_set(
            ("a1", "a2", "a3"),
            ("x", "y", "z"),
            lambda i, j: list(rng.normal(i + 1, 0.5 + 0.3 * i + 0.2 * j, 25)),
        )
        report = run_pipeline(ss, methods=("icw",))
        variances = report.moments.variances
        means = report.moments.means

        p = [[variances[i][j] / sum(variances[k][j] for k in range(3)) for j in range(3)]
             for i in range(3)]
        entropies = [
            sum(-p[i][j] * math.log(p[i][j]) for i in range(3) if p[i][j] > 0)
            for j in range(3)
        ]
        weights = [e / sum(entropies) for e in entropies]
        expectations = [
            sum(weights[j] * means[i][j] for j in range(3)) for i in range(3)
        ]

        got = report.weights[WeightMethod.ICW]
        np.testing.assert_allclose(got.weights, weights, rtol=1e-12)
        np.testing.assert_allclose(
            report.rankings[WeightMethod.ICW].expectations, expectations, rtol=1e-12
        )
        want_first = max(range(3), key=lambda i: expectations[i])
        assert report.rankings[WeightMethod.ICW].ranks[want_first] == 1


class TestPartialFailures:
    def test_ighw_failure_recorded_others_run(self, use_case_samples):
        # prior equal to the data-driven probabilities: divergence is zero
        base = run_pipeline(use_case_samples, methods=("icw",))
        prior = validate_prior(base.relative_variance.matrix, use_case_samples)
        report = run_pipeline(use_case_samples, prior=prior)
        assert WeightMethod.IGHW in report.failures
        assert report.failures[WeightMethod.IGHW].type == "AllZeroDivergence"
        assert WeightMethod.ICW in report.weights
        assert WeightMethod.IGDW in report.weights

    def test_entropy_failure_recorded_ighw_runs(self, use_case_samples, monkeypatch):
        # An entropy outside [0, log M] fails ICW and IGDW, never IGHW.
        import utilrank.weighting as weighting_module

        real_sums = weighting_module.segment_sums

        def entropy_sums_read_minus_one(values, bounds):
            sums = real_sums(values, bounds)
            if sys._getframe(1).f_code is weighting_module.entropy.__code__:
                sums[:] = -1.0
            return sums

        monkeypatch.setattr(weighting_module, "segment_sums", entropy_sums_read_minus_one)
        prior = validate_prior(USE_CASE_PRIOR, use_case_samples)
        report = run_pipeline(use_case_samples, prior=prior)
        assert set(report.failures) == {WeightMethod.ICW, WeightMethod.IGDW}
        for method in report.failures:
            assert str(report.failures[method]).startswith("ScoreOutOfRange: entropy -1.0 ")
        assert set(report.weights) == set(report.rankings) == {WeightMethod.IGHW}

    def test_degenerate_data_fails_all_methods(self):
        ss = build_sample_set(
            {("A", "x"): [1.0, 1.0, 1.0], ("B", "x"): [2.0, 2.0, 2.0]}
        )
        report = run_pipeline(ss, methods=("icw", "igdw"))
        assert set(report.failures) == {WeightMethod.ICW, WeightMethod.IGDW}
        assert report.weights == {}
        assert report.moments.means[0, 0] == 1.0  # moments still present

    def test_empty_methods_moments_only(self, use_case_samples):
        report = run_pipeline(use_case_samples, methods=())
        assert report.weights == {} and report.rankings == {}
        assert report.relative_variance is None and report.entropies is None
        np.testing.assert_allclose(report.moments.means, [[15, 4], [8, 10]], atol=1e-9)


class TestReportEmission:
    def test_json_full_precision_round_trip(self, use_case_report):
        doc = json.loads(emit_report(use_case_report, "json"))
        icw_weights = doc["weights"]["ICW"]["weights"]
        assert tuple(icw_weights) == use_case_report.weights[WeightMethod.ICW].weights
        assert doc["moments"]["means"] == [[15.0, 4.0], [8.0, 10.0]]
        assert doc["provenance"]["samples_sha256"] == use_case_report.provenance.samples_sha256

    def test_display_views_rounded(self, use_case_report):
        doc = report_to_dict(use_case_report)
        assert doc["display"]["weights"]["ICW"] == [0.5353, 0.4647]
        assert doc["display"]["expectations"]["IGHW"] == [4.77, 9.86]
        # the matrix is in relative_variance.matrix; display keeps R- and M-long views only
        assert sorted(doc["display"]) == ["divergences", "entropies", "expectations", "igd", "weights"]
        assert doc["schema_version"] == 2

    def test_warnings_as_data(self, use_case_report):
        assert report_to_dict(use_case_report)["warnings"] == [{
            "type": "UtilityRangeWarning",
            "message": "1200 of 1200 utilities fall outside [0, 1]",
            "fields": {"out_of_range": 1200, "samples": 1200},
        }]
        ss = build_sample_set({("A", "x"): [0.5, 0.5], ("B", "x"): [0.2, 0.2],
                               ("A", "y"): [0.1, 0.3], ("B", "y"): [0.4, 0.9]})
        config = EngineConfig(degenerate_variance_policy=DegenerateVariancePolicy.UNIFORM)
        with pytest.warns(DegenerateAttributeWarning) as caught:
            report = run_pipeline(ss, config=config, methods=("icw",))
        assert report_to_dict(report)["warnings"] == [{
            "type": "DegenerateAttributeWarning",
            "message": str(caught[0].message),
            "fields": {"attributes": ["x"]},
        }]

    def test_failures_as_data(self, use_case_samples):
        prior = validate_prior([[1.0, 0.1], [0.0, 0.9]], use_case_samples)
        config = EngineConfig(igd_negative_policy=IgdNegativePolicy.ERROR)
        four = grid_sample_set(("A", "B"), ("a1", "a2", "a3", "a4"),
                               lambda i, j: [0.1 * (i + j), 0.1 * (i + j) + 0.01 * (i + 1)])
        failures = {
            **report_to_dict(run_pipeline(use_case_samples, prior=prior, methods=("ighw",)))["failures"],
            **report_to_dict(run_pipeline(four, config=config, methods=("igdw",)))["failures"],
        }
        assert failures["IGHW"]["type"] == "ZeroPriorSupport"
        assert failures["IGHW"]["fields"] == {"alternative_id": "AI2", "attribute_id": "force_protection"}
        assert failures["IGDW"]["type"] == "NegativeIgd"
        values = failures["IGDW"]["fields"]["values"]
        assert len(values) == 4 and all(v < 0 for v in values)
        assert failures["IGDW"]["message"] == f"negative information-gain difference {values!r}" \
            "; use the min_shift policy to resolve signs"

    def test_emit_twice_identical(self, use_case_report, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(use_case_report, "json", a)
        emit_report(use_case_report, "json", b)
        assert a.read_bytes() == b.read_bytes()
        ta, tb = tmp_path / "a.txt", tmp_path / "b.txt"
        emit_report(use_case_report, "text", ta)
        emit_report(use_case_report, "text", tb)
        assert ta.read_bytes() == tb.read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_file_holds_the_returned_text(self, use_case_report, tmp_path, fmt):
        path = tmp_path / f"report.{fmt}"
        assert emit_report(use_case_report, fmt, path) is None
        assert path.read_bytes() == emit_report(use_case_report, fmt).encode("utf-8")

    @pytest.mark.parametrize("base, label", [
        (math.e, "e"), (2.0, "2"), (10.0, "10"),
        (1.00001, "1.00001"),  # not "1": a logarithm's base is never 1
        (2.718281828, "2.718281828"),  # not "2.7183", which reads as e
    ])
    def test_text_names_the_entropy_base_exactly(self, use_case_samples, base, label):
        config = EngineConfig(entropy_log_base=base)
        text = emit_report(run_pipeline(use_case_samples, config=config, methods=("icw",)), "text")
        assert f"Table A2. Normalized variance and its logarithm (base {label})\n" in text

    def test_unknown_format_rejected(self, use_case_report):
        with pytest.raises(ValueError):
            emit_report(use_case_report, "yaml")

    def test_text_contains_six_tables(self, use_case_report):
        text = emit_report(use_case_report, "text")
        for table in ("Table A1", "Table A2", "Table A3", "Table A4", "Table A5", "Table A6"):
            assert table in text

    def test_text_omits_missing_stages(self, use_case_samples):
        text = emit_report(run_pipeline(use_case_samples, methods=("icw",)), "text")
        assert "Table A4" not in text and "Table A5" not in text


class TestInputOrderInvariance:
    def test_byte_identical_reports_across_insertion_order(self, use_case_samples):
        rng = np.random.default_rng(77)
        shuffled = sample_rows(use_case_samples)
        rng.shuffle(shuffled)
        ss2 = sample_set_from_rows(shuffled)
        r1 = run_pipeline(use_case_samples, config=REFERENCE_CONFIG, methods=("icw", "igdw"))
        r2 = run_pipeline(ss2, config=REFERENCE_CONFIG, methods=("icw", "igdw"))
        assert emit_report(r1, "json") == emit_report(r2, "json")
        assert emit_report(r1, "text") == emit_report(r2, "text")
