"""Golden byte pins: full sha256 digests of CLI outputs.

A refactor may change how a value is computed, never the bytes a user
gets. Each pin below was taken from a known-good build; a changed digest
means changed output, which must be a deliberate, documented decision.
"""

import hashlib
import json
import warnings

import pytest

from utilrank.cli import main
from utilrank.errors import DegenerateAttributeWarning
from utilrank.io_files import write_samples
from utilrank.scenario import MomentMode, PairSpec, ScenarioSpec, generate_samples

REPRODUCE_PAPER_SHA256 = {
    "samples.csv": "f6d15dedf14c310eecf5bbbd0100600b99248f8d58f9521dd393d49eb0638d66",
    "report.json": "499c49819520fee59122d1b9a293d41dd60652d8266b5b9a56b945ea7920ef55",
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
        "0c4abb30970adacba2a3fb79e5860b57a9a10447b51861ee8ba6c3b64e4b99a2",
    ("negative_igd_min_shift", "text"):
        "357aa4903dfb3cae2cdeef4973e08fc3856fb56dad0b1802154bcb6d6c77976b",
    ("negative_igd_error", "json"):
        "4ba0efe66652e48abaaa8e0ac95e1daafd415453f61be4fc4e6d1b4b8c20b12d",
    ("negative_igd_error", "text"):
        "39b4263f8edfbc613214014b3368d085da80cea6a42e236c2e4f074da7667aa5",
    ("degenerate_uniform", "json"):
        "19083d749d36f3e8899f04f295ca52bec22fb1bda015f32400c9f23a37155693",
    ("degenerate_uniform", "text"):
        "52c2cd030d43b84bcea14caf77b1bc8343bec5e3f50e9a5bba8b35fac66a090a",
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
