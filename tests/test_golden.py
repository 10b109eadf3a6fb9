"""Golden byte pins: full sha256 digests of CLI outputs.

A refactor may change how a value is computed, never the bytes a user
gets. Each pin below was taken from a known-good build; a changed digest
means changed output, which must be a deliberate, documented decision.
"""

import hashlib
import json
import math
import random
import warnings

import pytest

from utilrank.cli import main
from utilrank.errors import DegenerateAttributeWarning, NonFiniteUtility, ParseError
from utilrank.io_files import (
    read_samples,
    write_prior,
    write_samples,
    write_scenario_spec,
)
from utilrank.model import validate_prior
from utilrank.reproduce import USE_CASE_PRIOR, USE_CASE_SPEC
from utilrank.scenario import MomentMode, PairSpec, ScenarioSpec, generate_samples

from conftest import grid_sample_set, prior_to_csv, samples_to_csv

HEADER = "alternative,attribute,situation,utility\n"

REPRODUCE_PAPER_SHA256 = {
    "samples.csv": "f6d15dedf14c310eecf5bbbd0100600b99248f8d58f9521dd393d49eb0638d66",
    "report.json": "6935b4e1d1ff763a609c219b368eb20ed19efd2079bd21c51384be38d4df7bc1",
    "tables.txt": "45d334aa3df7a6f61b484fde734e5a7b84b8786f7abd9bc86ec29522c29ad1ea",
    "scenario.json": "6d34aa859f959cfd9bb2c892bd4b07b3c0d0ba8f21fe49945de5d3212b205c47",
    "prior.csv": "501a6dd99b1a83712ea50b3fcffea5e9d7bc4d11b245f182aeb26ad0c7515697",
    "config.json": "f365ba0db503313e30a029bc7b895df161388655f6d8493ad798632452d5e43c",
}

# Two alternatives, four attributes: the entropy total is at most 4 ln 2,
# below R - 1 = 3, so every information-gain difference is negative.
NEGATIVE_IGD_SPEC = ScenarioSpec(
    pairs=tuple(
        PairSpec(alt, attr, mean, variance, 6)
        for alt, attr, mean, variance in (
            ("A", "a1", 0.2, 0.01), ("A", "a2", 0.5, 0.04),
            ("A", "a3", 0.7, 0.02), ("A", "a4", 0.4, 0.03),
            ("B", "a1", 0.6, 0.03), ("B", "a2", 0.3, 0.01),
            ("B", "a3", 0.5, 0.05), ("B", "a4", 0.8, 0.02),
        )
    ),
    seed=11,
    moment_mode=MomentMode.EXACT,
)

# Attribute "flat" has zero variance for both alternatives.
DEGENERATE_SPEC = ScenarioSpec(
    pairs=(
        PairSpec("A", "flat", 0.5, 0.0, 4),
        PairSpec("A", "spread", 0.3, 1.0, 4),
        PairSpec("B", "flat", 0.5, 0.0, 4),
        PairSpec("B", "spread", 0.9, 1.2, 4),
    ),
    seed=5,
    moment_mode=MomentMode.EXACT,
)

CASES = {
    "negative_igd_min_shift": (NEGATIVE_IGD_SPEC, {"igd_negative_policy": "min_shift"}),
    "negative_igd_error": (NEGATIVE_IGD_SPEC, {"igd_negative_policy": "error"}),
    "degenerate_uniform": (
        DEGENERATE_SPEC, {"degenerate_variance_policy": "uniform", "report_weight_rounding": 2},
    ),
}

REPORT_SHA256 = {
    ("negative_igd_min_shift", "json"):
        "8679221fc64ed5c4019342547c15281052a94d918b0f7cfed456bffc126f83ad",
    ("negative_igd_min_shift", "text"):
        "357aa4903dfb3cae2cdeef4973e08fc3856fb56dad0b1802154bcb6d6c77976b",
    ("negative_igd_error", "json"):
        "8c08d70944b74fda364fc3e0c091b7f08cb7967fcfac9907a5b26e6a6a37f13a",
    ("negative_igd_error", "text"):
        "39b4263f8edfbc613214014b3368d085da80cea6a42e236c2e4f074da7667aa5",
    ("degenerate_uniform", "json"):
        "feef27c64cecfc93e26b1678b9e73c78643dee733dca5920c34d6376da8328b2",
    ("degenerate_uniform", "text"):
        "52c2cd030d43b84bcea14caf77b1bc8343bec5e3f50e9a5bba8b35fac66a090a",
}

# 20 alternatives x 10 attributes, 900-1099 samples per pair (200,000 in
# all), and one zero-variance pair: the generator and CSV paths at scale.
LARGE_SPEC = ScenarioSpec(
    pairs=tuple(
        PairSpec(
            f"A{i:02d}", f"k{j}", 0.3 + 0.02 * i + 0.01 * j,
            0.0 if (i, j) == (3, 4) else 0.001 * (1 + (i + j) % 5),
            900 + (37 * i + 11 * j) % 200,
        )
        for i in range(20)
        for j in range(10)
    ),
    seed=2025,
)
# This pin, LARGE_REPORT_SHA256 and WIDE_PRIOR_REPORT_SHA256 depend on squared
# deviations being correctly rounded IEEE products, in exact-mode rescaling and
# in variances alike; the C library's pow would move some of their bits.
LARGE_SAMPLES_SHA256 = "d1da3e078a32b4dbbf4df6ef5bceee1cddd277ea9c5079eebb6fe7f0127d8a38"
LARGE_REPORT_SHA256 = "6247592e03308059c446a3aa916d7950a7ad1cb8be45df364e8f12130799b4c8"

def _wide_prior_spec(seed: int, alternatives: int, attributes: int) -> ScenarioSpec:
    """Exact-mode spec, two samples per pair, means and variances from ``seed``."""
    rng = random.Random(seed)
    return ScenarioSpec(
        pairs=tuple(
            PairSpec(f"A{i:03d}", f"k{j:02d}", rng.uniform(0.2, 0.8), rng.uniform(0.0004, 0.01), 2)
            for i in range(alternatives)
            for j in range(attributes)
        ),
        seed=rng.getrandbits(64),
    )


def _wide_prior_matrix(seed: int, alternatives: int, attributes: int) -> list[list[float]]:
    """Positive prior entries, each column normalized to sum to 1 (rows alternatives)."""
    rng = random.Random(seed ^ 0x5EED)
    columns = []
    for _ in range(attributes):
        raw = [rng.uniform(0.05, 1.0) for _ in range(alternatives)]
        total = math.fsum(raw)
        columns.append([v / total for v in raw])
    return [[columns[j][i] for j in range(attributes)] for i in range(alternatives)]


# 300 alternatives x 12 attributes x 2 situations with a 3600-cell prior:
# the prior, KL-divergence (IGHW) and report paths at scale, all three methods.
WIDE_PRIOR_SHAPE = (300, 12)
WIDE_PRIOR_SEED = 17
WIDE_PRIOR_REPORT_SHA256 = "285a3f1000a3a80950cc85a57c7214b3f89562fbcc9338d7d2e891ec4f7f6d21"

# The `weights` verb (no rankings) on the reference use case's samples and
# prior: every method's raw scores and tables A2-A5, without table A6.
WEIGHTS_SHA256 = {
    "json": "2544c0f402b05634bc4c6a6370876e4328bc4ee79f0a67b562a18e221a8544ab",
    "text": "acef38c4962df28c76a413bd8aa70563a454e09634487a0f91da5557c11e927b",
}

# Each relative-variance column equals its prior column, so every divergence
# is zero (IGHW fails after KLD ran); two base-2 entropies of 0.469 sum below
# R - 1 = 1 (IGDW fails), and ICW's expectations tie. Non-default log bases
# and weight rounding, given as flags.
BASES_LOG = (
    HEADER
    + "A,x,s1,0\nA,x,s2,1\nB,x,s1,0\nB,x,s2,3\n"
    + "A,y,s1,0\nA,y,s2,3\nB,y,s1,0\nB,y,s2,1\n"
)
BASES_PRIOR = (
    "attribute,alternative,probability\n"
    "x,A,0.1\nx,B,0.9\ny,A,0.9\ny,B,0.1\n"
)
BASES_FLAGS = ["--entropy-base", "2", "--kld-base", "e", "--round-weights", "3"]
BASES_SHA256 = {
    "json": "6ae2f177036fd3d88b24437951ff711447ff94f398045abacb3ec2fcb1c3de8f",
    "text": "3639bd83d30358145c083e2f7bafebf22aebaf5e7dd89f4b5ddcd772d2b23482",
}

STOCHASTIC_SPEC = ScenarioSpec(USE_CASE_SPEC.pairs, seed=7, moment_mode=MomentMode.STOCHASTIC)
STOCHASTIC_SAMPLES_SHA256 = "591333d068cbf1628af8a193234ebc4484e9ae22a9325bbb3ea583e2d1403290"

# Identifiers that csv.writer must quote (a comma, a quote, a line break)
# or that are not ASCII, rows out of order, and utilities whose canonical
# text differs from the input text (1e3 -> 1000.0, 1e16 -> 1e+16).
QUOTED_LOG = (
    "alternative,attribute,situation,utility\n"
    '"q""x",naïve,s10,1e3\n'
    '"a,b",naïve,s9,0.1\n'
    '"a,b",x y,"line\nbreak",-0.0\n'
    '"q""x",x y,s9,2.5e-20\n'
    '"a,b",naïve,s10,0.30000000000000004\n'
    "Ωmega,naïve,s9,7\n"
    '"q""x",naïve,"s""9",-1.5\n'
    '"a,b",x y,s9,1e16\n'
    "Ωmega,x y,s9,0.5\n"
    '"q""x",x y,s10,0.75\n'
    "Ωmega,naïve,s10,8\n"
    "Ωmega,x y,s10,0.25\n"
)
QUOTED_CSV_SHA256 = "d75bca258c2fdc0a02b07979c1cb6dff45504c80d3c33c97fe352d9070aaed39"

# One pair of 100001 samples: situation s100000 sorts before s10001, so
# the canonical row order is not the draw order.
WIDE_COUNT_SPEC = ScenarioSpec((PairSpec("A", "x", 0.5, 0.01, 100001),), seed=3)
WIDE_COUNT_SAMPLES_SHA256 = "68e1610102bf0a42a1ea090a7b1765188be80a83cb8163cdebe14705af43105c"

# A prior whose names csv.writer must quote (a comma, a quote, a line
# break) or that are not ASCII; rows are attribute-major.
QUOTED_PRIOR_NAMES = (("a,b", 'q"x', "é"), ("line\nbreak", "plain"))
QUOTED_PRIOR_MATRIX = [[0.1, 1 / 3], [0.2, 1 / 3], [0.7, 1 / 3]]
QUOTED_PRIOR_SHA256 = "ff49897aba8121db1f03b1cdf9b5403723be3ecdc3674892d17a2caf716c7ec3"

# Each bad row is on line 5, after blank lines; the message is pinned whole.
BAD_LOGS = {
    "bad-number": (HEADER + "A,x,s1,0.5\n\n\nA,x,s2,high\n",
                   ParseError, "line 5: utility 'high' is not a number"),
    "field-count": (HEADER + "\nA,x,s1,0.5\n\nA,x\n",
                    ParseError, "line 5: expected 4 fields, got 2"),
    "non-finite": (HEADER + "\n\nA,x,s1,0.5\nA,x,s2,nan\n",
                   NonFiniteUtility, "non-finite utility for (A, x, s2) (line 5)"),
    "field-too-long": (HEADER + "A,x,s1,0.5\n\n\n" + "A" * 200_000 + ",x,s2,0.5\n",
                       ParseError, "line 5: field larger than field limit (131072)"),
    "not-utf8": (HEADER.encode() + b"A,x,s1,0.5\n\n\nA,x,s2,\xff\n",
                 ParseError, "line 5: byte 0xff is not UTF-8 text"),
    "after-quoted-break": (HEADER + '"two\nlines",x,s1,0.5\n\nA,x,s1,high\n',
                           ParseError, "line 5: utility 'high' is not a number"),
    "number-before-field-count": (HEADER + "A,x,s1,0.5\n\n\nA,x,s2,high\n\nA,x\n",
                                  ParseError, "line 5: utility 'high' is not a number"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_reproduce_paper_bytes(tmp_path):
    assert main(["reproduce-paper", "--out", str(tmp_path)]) == 0
    assert {p.name: _sha256(p) for p in tmp_path.iterdir()} == REPRODUCE_PAPER_SHA256


@pytest.mark.parametrize("case,fmt", sorted(REPORT_SHA256))
def test_rank_report_bytes(case, fmt, tmp_path):
    spec, overrides = CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateAttributeWarning)
        write_samples(generate_samples(spec), tmp_path / "samples.csv")
        (tmp_path / "config.json").write_text(json.dumps({"schema_version": 1, **overrides}))
        out = tmp_path / f"report.{fmt}"
        code = main(["rank", "--samples", str(tmp_path / "samples.csv"),
                     "--config", str(tmp_path / "config.json"),
                     "--format", fmt, "--out", str(out)])
    assert code == 0
    assert _sha256(out) == REPORT_SHA256[(case, fmt)]


def _simulate(spec, directory):
    write_scenario_spec(spec, directory / "scenario.json")
    out = directory / "samples.csv"
    assert main(["simulate", "--spec", str(directory / "scenario.json"), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def large_samples(tmp_path_factory):
    return _simulate(LARGE_SPEC, tmp_path_factory.mktemp("large"))


def test_large_simulate_bytes(large_samples):
    assert sum(p.sample_count for p in LARGE_SPEC.pairs) == 200_000
    assert _sha256(large_samples) == LARGE_SAMPLES_SHA256


def test_large_rank_report_bytes(large_samples, tmp_path):
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateAttributeWarning)
        code = main(["rank", "--samples", str(large_samples),
                     "--format", "json", "--out", str(out)])
    assert code == 0
    assert _sha256(out) == LARGE_REPORT_SHA256


def test_wide_prior_rank_report_bytes(tmp_path):
    sample_set = generate_samples(_wide_prior_spec(WIDE_PRIOR_SEED, *WIDE_PRIOR_SHAPE))
    prior = validate_prior(_wide_prior_matrix(WIDE_PRIOR_SEED, *WIDE_PRIOR_SHAPE), sample_set)
    write_samples(sample_set, tmp_path / "samples.csv")
    write_prior(prior, tmp_path / "prior.csv")
    out = tmp_path / "report.json"
    code = main(["rank", "--samples", str(tmp_path / "samples.csv"),
                 "--prior", str(tmp_path / "prior.csv"),
                 "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(report["rankings"]) == ["ICW", "IGDW", "IGHW"] and report["failures"] == {}
    assert _sha256(out) == WIDE_PRIOR_REPORT_SHA256


@pytest.mark.parametrize("fmt", sorted(WEIGHTS_SHA256))
def test_weights_verb_bytes(fmt, tmp_path):
    sample_set = generate_samples(USE_CASE_SPEC)
    write_samples(sample_set, tmp_path / "samples.csv")
    write_prior(validate_prior(USE_CASE_PRIOR, sample_set), tmp_path / "prior.csv")
    out = tmp_path / f"weights.{fmt}"
    code = main(["weights", "--samples", str(tmp_path / "samples.csv"),
                 "--prior", str(tmp_path / "prior.csv"),
                 "--format", fmt, "--out", str(out)])
    assert code == 0
    assert _sha256(out) == WEIGHTS_SHA256[fmt]


@pytest.mark.parametrize("fmt", sorted(BASES_SHA256))
def test_non_default_bases_rank_bytes(fmt, tmp_path):
    (tmp_path / "samples.csv").write_text(BASES_LOG, encoding="utf-8")
    (tmp_path / "prior.csv").write_text(BASES_PRIOR, encoding="utf-8")
    out = tmp_path / f"report.{fmt}"
    code = main(["rank", "--samples", str(tmp_path / "samples.csv"),
                 "--prior", str(tmp_path / "prior.csv"), *BASES_FLAGS,
                 "--format", fmt, "--out", str(out)])
    assert code == 0
    if fmt == "json":
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert sorted(doc["failures"]) == ["IGDW", "IGHW"] and doc["divergences"] is not None
        assert doc["rankings"]["ICW"]["ties"] == [["A", "B"]]
    assert _sha256(out) == BASES_SHA256[fmt]


def test_stochastic_simulate_bytes(tmp_path):
    assert _sha256(_simulate(STOCHASTIC_SPEC, tmp_path)) == STOCHASTIC_SAMPLES_SHA256


@pytest.fixture
def quoted_samples(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text(QUOTED_LOG, encoding="utf-8")
    return read_samples(path)


def test_quoted_identifiers_csv_bytes(quoted_samples):
    text = samples_to_csv(quoted_samples)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == QUOTED_CSV_SHA256


def test_quoted_identifiers_round_trip(quoted_samples, tmp_path):
    path = tmp_path / "written.csv"
    write_samples(quoted_samples, path)
    assert path.read_text(encoding="utf-8") == samples_to_csv(quoted_samples)
    assert read_samples(path) == quoted_samples


def test_quoted_prior_csv_bytes():
    sample_set = grid_sample_set(
        *QUOTED_PRIOR_NAMES, lambda i, j: [0.1 * (i + 1), 0.1 * (i + 1) + 0.05 * (j + 1)]
    )
    text = prior_to_csv(validate_prior(QUOTED_PRIOR_MATRIX, sample_set))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == QUOTED_PRIOR_SHA256


def test_wide_count_simulate_bytes(tmp_path):
    assert _sha256(_simulate(WIDE_COUNT_SPEC, tmp_path)) == WIDE_COUNT_SAMPLES_SHA256


@pytest.mark.parametrize("case", sorted(BAD_LOGS))
def test_bad_row_line_number(case, tmp_path):
    text, error, message = BAD_LOGS[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(error) as exc_info:
        read_samples(path)
    assert exc_info.value.line == 5
    assert str(exc_info.value) == message
