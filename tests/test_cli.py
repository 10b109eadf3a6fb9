"""Command-line surface: verbs, exit codes, determinism."""

import json

import pytest

import utilrank.reproduce as reproduce_module
from utilrank.cli import main
from utilrank.io_files import write_prior, write_samples, write_scenario_spec
from utilrank.model import validate_prior
from utilrank.reproduce import USE_CASE_SPEC
from utilrank.scenario import generate_samples

from conftest import USE_CASE_PRIOR


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    sample_set = generate_samples(USE_CASE_SPEC)
    write_scenario_spec(USE_CASE_SPEC, root / "scenario.json")
    write_samples(sample_set, root / "samples.csv")
    write_prior(validate_prior(USE_CASE_PRIOR, sample_set), root / "prior.csv")
    return root


class TestSimulate:
    def test_writes_deterministic_csv(self, workdir, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--spec", str(workdir / "scenario.json"), "--out", str(out1)]) == 0
        assert main(["simulate", "--spec", str(workdir / "scenario.json"), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() == (workdir / "samples.csv").read_bytes()

    def test_seed_override_changes_output(self, workdir, tmp_path):
        out = tmp_path / "seeded.csv"
        assert main(["simulate", "--spec", str(workdir / "scenario.json"),
                     "--seed", "7", "--out", str(out)]) == 0
        assert out.read_bytes() != (workdir / "samples.csv").read_bytes()

    def test_missing_spec_file_is_io_error(self, tmp_path):
        assert main(["simulate", "--spec", str(tmp_path / "nope.json")]) == 4


class TestRank:
    def test_full_run_json(self, workdir, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "rank", "--samples", str(workdir / "samples.csv"),
            "--prior", str(workdir / "prior.csv"),
            "--methods", "icw,ighw,igdw",
            "--entropy-base", "e", "--kld-base", "10", "--round-weights", "2",
            "--out", str(out), "--format", "json",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rankings"]["ICW"]["ranks"] == [1, 2]
        assert doc["rankings"]["IGHW"]["ranks"] == [2, 1]
        assert doc["rankings"]["IGDW"]["ranks"] == [1, 2]

    def test_text_format(self, workdir, tmp_path):
        out = tmp_path / "report.txt"
        code = main([
            "rank", "--samples", str(workdir / "samples.csv"),
            "--prior", str(workdir / "prior.csv"), "--round-weights", "2",
            "--out", str(out), "--format", "text",
        ])
        assert code == 0
        assert "Table A6" in out.read_text()

    def test_identical_invocations_byte_identical(self, workdir, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["rank", "--samples", str(workdir / "samples.csv"),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_ighw_without_prior_is_validation_error(self, workdir, capsys):
        code = main(["rank", "--samples", str(workdir / "samples.csv"),
                     "--methods", "ighw"])
        assert code == 2
        assert "prior" in capsys.readouterr().err.lower()

    def test_malformed_samples_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("alternative,attribute,situation,utility\nA,x,s1,oops\n")
        assert main(["rank", "--samples", str(bad)]) == 2

    def test_missing_samples_file_is_io_error(self, tmp_path):
        assert main(["rank", "--samples", str(tmp_path / "missing.csv")]) == 4


class TestBadInput:
    @pytest.mark.parametrize(
        "flags,config",
        [
            (["--entropy-base", "0.5"], None),
            (["--round-weights", "-1"], None),
            (["--methods", "foo"], None),
            ([], {"schema_version": 1, "prior_smoothing_epsilon": "abc"}),
        ],
        ids=["entropy-base", "round-weights", "methods", "config-epsilon"],
    )
    def test_exits_two_with_one_line(self, workdir, tmp_path, capsys, flags, config):
        argv = ["rank", "--samples", str(workdir / "samples.csv"), *flags]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestWeights:
    def test_weights_omits_rankings(self, workdir, tmp_path):
        out = tmp_path / "weights.json"
        code = main(["weights", "--samples", str(workdir / "samples.csv"),
                     "--prior", str(workdir / "prior.csv"), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rankings"] == {}
        assert set(doc["weights"]) == {"ICW", "IGHW", "IGDW"}

    def test_method_subset(self, workdir, tmp_path):
        out = tmp_path / "icw.json"
        code = main(["weights", "--samples", str(workdir / "samples.csv"),
                     "--methods", "icw", "--out", str(out)])
        assert code == 0
        assert set(json.loads(out.read_text())["weights"]) == {"ICW"}

    def test_flags_override_config_file(self, workdir, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "schema_version": 1, "kld_log_base": "e", "report_weight_rounding": 4,
        }))
        out = tmp_path / "report.json"
        code = main(["weights", "--samples", str(workdir / "samples.csv"),
                     "--prior", str(workdir / "prior.csv"),
                     "--config", str(config_path), "--kld-base", "10",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["kld_log_base"] == 10.0   # flag beats config file
        assert doc["config"]["report_weight_rounding"] == 4  # file beats default


class TestReproducePaper:
    def test_reproduces_and_exits_zero(self, tmp_path):
        out = tmp_path / "repro"
        assert main(["reproduce-paper", "--out", str(out)]) == 0
        for name in ("samples.csv", "prior.csv", "scenario.json", "config.json",
                     "report.json", "tables.txt"):
            assert (out / name).exists()

    def test_two_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["reproduce-paper", "--out", str(out1)]) == 0
        assert main(["reproduce-paper", "--out", str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_tables_show_reference_figures(self, tmp_path):
        out = tmp_path / "repro"
        assert main(["reproduce-paper", "--out", str(out)]) == 0
        text = (out / "tables.txt").read_text()
        for figure in ("0.7368", "0.2632", "0.5763", "0.5004", "0.5353", "0.4647",
                       "0.0014", "0.0193", "0.0694", "0.9306", "0.0767",
                       "9.94", "8.92", "4.77", "9.86", "9.5"):
            assert figure in text, f"missing {figure} in tables.txt"

    def test_tampered_expectation_exits_three(self, tmp_path, monkeypatch, capsys):
        import copy

        tampered = copy.deepcopy(reproduce_module.REFERENCE_VALUES)
        tampered["A6"]["expectations"]["ICW"]["AI1"] = 9.99  # negative control
        monkeypatch.setattr(reproduce_module, "REFERENCE_VALUES", tampered)
        code = main(["reproduce-paper", "--out", str(tmp_path / "bad")])
        assert code == 3
        assert "mismatch" in capsys.readouterr().err.lower()
