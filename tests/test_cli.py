"""Command-line surface: verbs, exit codes, determinism."""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import utilrank
import utilrank.cli as cli
import utilrank.reproduce as reproduce_module
from utilrank.cli import main
from utilrank.errors import UtilityRangeWarning, UtilrankError
from utilrank.io_files import read_scenario_spec, write_prior, write_samples, write_scenario_spec
from utilrank.model import validate_prior
from utilrank.reproduce import USE_CASE_SPEC, reproduce_paper
from utilrank.scenario import generate_samples

from conftest import USE_CASE_PRIOR

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy before 2.0
    from numpy.core._exceptions import _ArrayMemoryError

HEADER = "alternative,attribute,situation,utility\n"
PAIR = {"alternative": "A", "attribute": "x", "mean": 0.5, "variance": 0.01, "count": 3}
SPEC = {"schema_version": 1, "seed": 1, "pairs": [PAIR]}


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

    def test_carriage_return_in_identifier_round_trips(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "pairs": [
            {**PAIR, "alternative": alt, "attribute": attr}
            for alt in ("a\rb", "c") for attr in ("x", "y\r")
        ]}))
        samples, out = tmp_path / "samples.csv", tmp_path / "report.json"
        assert main(["simulate", "--spec", str(spec), "--out", str(samples)]) == 0
        assert main(["rank", "--samples", str(samples), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["alternatives"] == ["a\rb", "c"] and doc["attributes"] == ["x", "y\r"]


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

    def test_variance_total_overflow_fails_every_method(self, tmp_path):
        # Each variance of x is 9.8e307; their total passes the largest float.
        path, out = tmp_path / "samples.csv", tmp_path / "report.json"
        path.write_text(HEADER + "A,x,s1,1.4e154\nA,x,s2,0\nB,x,s1,-1.4e154\nB,x,s2,0\n"
                        "A,y,s1,0\nA,y,s2,1\nB,y,s1,0\nB,y,s2,0.5\n")
        assert main(["rank", "--samples", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["failures"] == dict.fromkeys(["ICW", "IGDW"], {
            "type": "ScoreOutOfRange", "message": "variance total of attribute 'x' overflows",
            "fields": {},
        })
        assert doc["weights"] == {} and doc["rankings"] == {}

    def test_expected_utility_overflow_fails_that_method_only(self, tmp_path):
        # Every utility is 1e308, so every variance is 0 and each column is
        # uniform. Rounded to 0 decimals, IGDW's (0.5, 0.5) becomes (1.0, 1.0)
        # and each expected utility passes the float range; IGHW's (0.0, 1.0)
        # keeps 1e308.
        samples, prior = tmp_path / "samples.csv", tmp_path / "prior.csv"
        config, out = tmp_path / "config.json", tmp_path / "report.json"
        samples.write_text(HEADER + "".join(f"{alt},{attr},s{s},1e308\n"
                                            for alt in "AB" for attr in "xy" for s in (1, 2)))
        prior.write_text("attribute,alternative,probability\nx,A,0.5\nx,B,0.5\ny,A,0.1\ny,B,0.9\n")
        config.write_text(json.dumps({"schema_version": 1, "degenerate_variance_policy": "uniform"}))
        assert main(["rank", "--samples", str(samples), "--prior", str(prior), "--config", str(config),
                     "--round-weights", "0", "--methods", "igdw,ighw", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["failures"] == {"IGDW": {
            "type": "ScoreOutOfRange", "message": "expected utility of alternative 'A' overflows",
            "fields": {},
        }}
        assert list(doc["weights"]) == list(doc["rankings"]) == ["IGHW"]
        assert doc["rankings"]["IGHW"]["expectations"] == [1e308, 1e308]

    def test_rounding_past_decimal_context_precision(self, workdir, tmp_path):
        out = tmp_path / "report.json"
        assert main(["rank", "--samples", str(workdir / "samples.csv"),
                     "--round-weights", "400", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["report_weight_rounding"] == 400


class TestBadInput:
    @pytest.mark.parametrize(
        "flags,config",
        [
            (["--entropy-base", "0.5"], None),
            (["--round-weights", "-1"], None),
            (["--methods", "foo"], None),
            ([], {"schema_version": 1, "prior_smoothing_epsilon": "abc"}),
            ([], {"schema_version": 1, "report_weight_rounding": 2.7}),
            ([], {"schema_version": 1, "report_weight_rounding": True}),
            ([], {"schema_version": 1, "report_weight_rounding": "3"}),
            (["--entropy-base", "2"], {"schema_version": 1, "entropy_log_base": "abc"}),
            (["--entropy-base", "inf"], None),
            ([], {"schema_version": 1, "kld_log_base": "inf"}),
            ([], {"schema_version": 1, "prior_smoothing_epsilon": False}),
            ([], {"schema_version": 1, "prior_smoothing_epsilon": "0.1"}),
            ([], {"schema_version": 1, "kld_logbase": 2}),
            ([], {"schema_version": True}),
            ([], {"schema_version": 1.0}),
            ([], [{"schema_version": 1}]),
        ],
        ids=["entropy-base", "round-weights", "methods", "config-epsilon",
             "config-rounding-float", "config-rounding-bool", "config-rounding-string",
             "config-base-overridden", "entropy-base-inf", "config-kld-base-inf",
             "config-epsilon-bool", "config-epsilon-string", "config-unknown-key",
             "config-version-bool", "config-version-float", "config-not-object"],
    )
    def test_exits_two_with_one_line(self, workdir, tmp_path, capsys, flags, config):
        argv = ["rank", "--samples", str(workdir / "samples.csv"), *flags]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 2
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "log,message",
        [
            (HEADER + "A" * 200_000 + ",x,s1,0.5\n", "line 2: field larger than field limit"),
            (HEADER.encode() + b"A,x,s1,0.5\nA,x,s2,0.\xff\n", "line 3: byte 0xff is not UTF-8"),
            (HEADER + "AI1,x,s1,1e308\nAI1,x,s2,1.7e308\nAI2,x,s1,0\nAI2,x,s2,1\n",
             "moments of (AI1, x) overflow"),
            ("", "line 1: file is empty; expected a header row"),
            (HEADER + 'A,x,s1,0.5\n"' + "B" * 200_000 + '",x,s2,0.5\n',
             f"line 3: field larger than field limit ({csv.field_size_limit()})"),
            ("alternative,attribute,situation," + "u" * 200_000 + "\nA,x,s1,0.5\n",
             "error: line 1: field larger than field limit (131072)\n"),
            (b"alternative,attribute,situation,utilit\xff\nA,x,s1,0.5\n",
             "error: line 1: byte 0xff is not UTF-8 text\n"),
        ],
        ids=["field-too-long", "not-utf8", "moment-overflow", "empty", "quoted-field-too-long",
             "header-field-too-long", "header-not-utf8"],
    )
    def test_bad_sample_log(self, tmp_path, capsys, log, message):
        path = tmp_path / "samples.csv"
        path.write_bytes(log if isinstance(log, bytes) else log.encode())
        assert main(["rank", "--samples", str(path)]) == 2
        assert message in _assert_one_error_line(capsys)

    def test_prior_column_total_past_float_range(self, workdir, tmp_path, capsys):
        prior = tmp_path / "prior.csv"
        prior.write_text("attribute,alternative,probability\nforce_protection,AI1,1e308\n"
                         "force_protection,AI2,1e308\nproportionality,AI1,0.1\nproportionality,AI2,0.9\n")
        assert main(["rank", "--samples", str(workdir / "samples.csv"), "--prior", str(prior)]) == 2
        assert _assert_one_error_line(capsys) == (
            "error: column for attribute 'force_protection' sums to inf, not 1\n")

    @pytest.mark.parametrize("name", ["a\nb", "a\x0cb", "a\rb"], ids=["lf", "form-feed", "cr"])
    def test_a_name_that_is_not_printable_stays_on_one_line(self, tmp_path, capsys, name):
        path = tmp_path / "samples.csv"
        path.write_bytes((HEADER + f'"{name}",x,s1,0.5\n"{name}",x,s1,0.6\n').encode())
        assert main(["rank", "--samples", str(path)]) == 2
        assert _assert_one_error_line(capsys) == f"error: duplicate sample for ({name!r}, x, s1)\n"

    @pytest.mark.parametrize(
        "spec",
        [
            {**SPEC, "pairs": [{**PAIR, "count": 2.9}]},
            {**SPEC, "seed": 1.9},
            {**SPEC, "seed": True},
            {**SPEC, "family": "uniform"},
            b'{"schema_version": 1, "seed": 1, "pairs": [], "\xff": 0}',
            {**SPEC, "pairs": [{**PAIR, "mean": True}]},
            {**SPEC, "pairs": [{**PAIR, "variance": False}]},
            {**SPEC, "pairs": [{**PAIR, "alternative": None}]},
            {**SPEC, "pairs": [{**PAIR, "attribute": 3}]},
            {**SPEC, "pairs": [{**PAIR, "alternative": ["x"]}]},
            {**SPEC, "moment-mode": "stochastic"},
            {**SPEC, "pairs": [{**PAIR, "sd": 0.1}]},
            {**SPEC, "schema_version": True},
            {**SPEC, "schema_version": 1.0},
            {**SPEC, "pairs": ["A"]},
            {**SPEC, "pairs": [{**PAIR, "count": 10 ** 20}]},
            [SPEC],
            {**SPEC, "pairs": [{**PAIR, "alternative": ""}]},
            {**SPEC, "pairs": [{**PAIR, "mean": math.nan}]},
            json.dumps({**SPEC, "pairs": [{**PAIR, "mean": 0.5}]}).replace("0.5", "1e999").encode(),
        ],
        ids=["count-float", "seed-float", "seed-bool", "family", "not-utf8", "mean-bool",
             "variance-bool", "alternative-null", "attribute-int", "alternative-list",
             "unknown-key", "unknown-pair-key", "version-bool", "version-float",
             "pair-not-object", "count-past-int64", "not-object", "alternative-empty",
             "mean-nan", "mean-overflow"],
    )
    def test_bad_scenario_spec(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
        assert main(["simulate", "--spec", str(path)]) == 2
        _assert_one_error_line(capsys)


def _assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


# What a fuzzed input gets: bytes that part fields, rows and quotes, bytes
# that are not UTF-8 text, and numbers that are not finite.
FUZZ_BYTES = [b",", b'"', b"\r", b"\n", b"\0", b"\xff", b"nan", b"1e999"]


def _fuzzed(rng: random.Random, data: bytes) -> bytes:
    """``data`` with one to three edits: a few bytes deleted, one of FUZZ_BYTES put in, or a span copied."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            data = data[:at] + data[at + rng.randint(1, 4):]
        elif edit == 1:
            data = data[:at] + rng.choice(FUZZ_BYTES) + data[at:]
        else:
            start = rng.randrange(len(data) + 1)
            data = data[:at] + data[start:start + rng.randint(1, 80)] + data[at:]
    return data


class TestFuzzedInputs:
    """Seeded mutations of the reference inputs: every run ends in an exit code and at most one error line."""

    ROUNDS = 400

    def test_every_failure_is_one_line(self, tmp_path, capsys):
        base = tmp_path / "base"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UtilityRangeWarning)
            reproduce_paper(base)
        names = ["samples.csv", "prior.csv", "config.json", "scenario.json"]
        inputs = {name: (base / name).read_bytes() for name in names}
        rng = random.Random(16)
        codes = []
        for case in range(self.ROUNDS):
            mutated = rng.choice(names)
            for name in names:
                (tmp_path / name).write_bytes(_fuzzed(rng, inputs[name]) if name == mutated else inputs[name])
            if mutated == "scenario.json":
                spec = tmp_path / mutated
                if _samples_asked(spec) > 100_000:
                    continue  # a spec that long takes seconds to draw and write, too long for a fuzz case
                argv = ["simulate", "--spec", str(spec), "--out", str(tmp_path / "out.csv")]
            else:
                argv = ["rank", "--samples", str(tmp_path / "samples.csv"),
                        "--prior", str(tmp_path / "prior.csv"), "--config", str(tmp_path / "config.json"),
                        "--out", str(tmp_path / "out.json")]
            capsys.readouterr()
            try:
                code = main(argv)
            except Exception as exc:  # name the case, so it can be run again
                pytest.fail(f"case {case}: {mutated} raised {exc!r}")
            lines = capsys.readouterr().err.split("\n")
            errors = [line for line in lines[:-1] if not line.startswith("warning: ")]
            assert code in (0, 2, 3, 4) and lines[-1] == "", (case, mutated, code, lines)
            assert len(errors) == (code != 0) and all(map(str.isprintable, lines)), (case, mutated, lines)
            codes.append(code)
        assert {0, 2} <= set(codes), codes  # both the run and the error paths are reached


class TestOutOfMemory:
    """An input that asks for more memory than there is exits 4 with one line, as an I/O failure does."""

    @pytest.mark.parametrize("error", [
        _ArrayMemoryError((10 ** 11,), np.dtype(np.float64)),
        MemoryError(),
    ], ids=["numpy", "plain"])
    def test_exits_four_with_one_line(self, workdir, tmp_path, capsys, monkeypatch, error):
        def out_of_memory(spec):
            raise error

        monkeypatch.setattr(cli, "sample_blocks", out_of_memory)
        out = tmp_path / "out.csv"
        assert main(["simulate", "--spec", str(workdir / "scenario.json"), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert str(error) in err and not out.exists()


def _samples_asked(spec: Path) -> int:
    """The samples a scenario spec asks for; 0 for one that does not read."""
    try:
        return sum(pair.sample_count for pair in read_scenario_spec(spec).pairs)
    except (UtilrankError, OSError):
        return 0


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


# Each verb that writes a document, its input files named as in ``workdir``.
DOCUMENT_VERBS = {
    "simulate": ["simulate", "--spec", "scenario.json"],
    "rank-json": ["rank", "--samples", "samples.csv", "--prior", "prior.csv", "--format", "json"],
    "rank-text": ["rank", "--samples", "samples.csv", "--prior", "prior.csv", "--format", "text"],
    "weights": ["weights", "--samples", "samples.csv", "--prior", "prior.csv"],
}


def _in(workdir, argv):
    return [str(workdir / arg) if arg.endswith((".csv", ".json")) else arg for arg in argv]


class TestStdout:
    """Without ``--out``, stdout gets the bytes ``--out`` writes, on every platform."""

    @pytest.mark.parametrize("verb", DOCUMENT_VERBS)
    def test_stdout_bytes_equal_out_bytes(self, workdir, tmp_path, monkeypatch, verb):
        argv = _in(workdir, DOCUMENT_VERBS[verb])
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        # Text-mode stdout as Windows opens it: each "\n" written as text becomes "\r\n".
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\r\n")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        stdout.flush()
        assert stdout.buffer.getvalue() == out.read_bytes()

    def test_stdout_of_a_fresh_interpreter(self, workdir, tmp_path):
        argv = _in(workdir, DOCUMENT_VERBS["rank-json"])
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        src = str(Path(utilrank.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "utilrank.cli", *argv],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0
        assert done.stdout == out.read_bytes()


class TestReproducePaper:
    def test_reproduces_and_exits_zero(self, tmp_path):
        out = tmp_path / "repro"
        assert main(["reproduce-paper", "--out", str(out)]) == 0
        for name in ("samples.csv", "prior.csv", "scenario.json", "config.json",
                     "report.json", "tables.txt"):
            assert (out / name).exists()

    def test_warning_is_one_stderr_line(self, tmp_path):
        # A fresh interpreter, so that the test run's warning filters do not apply.
        src = str(Path(utilrank.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys; from utilrank.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run([sys.executable, "-c", code, "reproduce-paper", "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert done.stderr == "warning: 1200 of 1200 utilities fall outside [0, 1]\n"

    def test_only_utilrank_warnings_are_reformatted(self, tmp_path, monkeypatch, capsys):
        def warn_both(out):
            warnings.warn("utilities off scale", UtilityRangeWarning)
            warnings.warn("overflow", RuntimeWarning)

        monkeypatch.setattr(cli, "reproduce_paper", warn_both)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["reproduce-paper", "--out", str(tmp_path)]) == 0
        assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, "overflow")]
        assert capsys.readouterr().err == "warning: utilities off scale\n"

    def test_an_empty_out_writes_nothing_and_exits_four(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # "" is no directory, not the current one
        assert main(["reproduce-paper", "--out", ""]) == 4
        assert capsys.readouterr() == ("", "i/o error: [Errno 2] No such file or directory: ''\n")
        assert os.listdir(tmp_path) == []

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
        target = ("A6", "rankings.ICW.expectations", "AI1")
        tampered = tuple(  # negative control: 9.94 -> 9.99
            (*row[:3], 9.99, row[4]) if row[:3] == target else row
            for row in reproduce_module.REFERENCE_VALUES
        )
        assert tampered != reproduce_module.REFERENCE_VALUES
        monkeypatch.setattr(reproduce_module, "REFERENCE_VALUES", tampered)
        code = main(["reproduce-paper", "--out", str(tmp_path / "bad")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("reproduction mismatch: table A6, "
                              "cell rankings.ICW.expectations AI1: expected 9.99, got ")
        assert err.count("\n") == 1

    def test_a_departing_run_leaves_every_file(self, tmp_path, monkeypatch, capsys):
        rows = reproduce_module.REFERENCE_VALUES
        monkeypatch.setattr(reproduce_module, "REFERENCE_VALUES", tuple(
            (*row[:3], 9.99, row[4]) if row[:3] == ("A6", "rankings.ICW.expectations", "AI1") else row
            for row in rows
        ))
        good, bad = tmp_path / "good", tmp_path / "bad"
        assert main(["reproduce-paper", "--out", str(bad)]) == 3
        assert capsys.readouterr().err.count("\n") == 1
        monkeypatch.setattr(reproduce_module, "REFERENCE_VALUES", rows)
        assert main(["reproduce-paper", "--out", str(good)]) == 0
        names = ["config.json", "prior.csv", "report.json", "samples.csv", "scenario.json", "tables.txt"]
        assert sorted(p.name for p in bad.iterdir()) == names
        for name in names:  # the values read are those a passing run writes
            assert (bad / name).read_bytes() == (good / name).read_bytes()

    def test_one_verdict_line_per_table(self, tmp_path, monkeypatch, capsys):
        assert main(["reproduce-paper", "--out", str(tmp_path / "good")]) == 0
        verdicts = ["table A1: PASS (8 figures)", "table A2: PASS (4 figures)",
                    "table A3: PASS (4 figures)", "table A4: PASS (4 figures)",
                    "table A5: PASS (4 figures)", "table A6: PASS (12 figures)"]
        assert capsys.readouterr().out == "\n".join(
            [*verdicts, f"reference use case reproduced in {tmp_path / 'good'}", ""])

        rows = reproduce_module.REFERENCE_VALUES
        monkeypatch.setattr(reproduce_module, "REFERENCE_VALUES", tuple(
            (*row[:3], row[3] + 1, row[4]) if row[0] in ("A2", "A4") else row for row in rows
        ))
        assert main(["reproduce-paper", "--out", str(tmp_path / "bad")]) == 3
        captured = capsys.readouterr()
        verdicts[1] = "table A2: FAIL (4 of 4 figures depart)"
        verdicts[3] = "table A4: FAIL (4 of 4 figures depart)"
        assert captured.out == "\n".join([*verdicts, ""])
        assert captured.err.startswith("reproduction mismatch: table A2, ")
        assert captured.err.endswith(" (and 7 more)\n") and captured.err.count("\n") == 1
