"""Self-test of the benchmark's output checker.

Genuine outputs of small workloads must pass; a report with one changed
digit, a sample log with one dropped row, a wrong pinned file and a JSON
report that ranks with another method's weights must each fail, and must
be counted as failed ops by the run's judge.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from utilrank.cli import main as cli_main  # noqa: E402

SMALL = {"simulate-ragged": (4, 3, (5, 9)), "rank-wide": (9, 6, 2)}


@pytest.fixture(scope="module", params=["reference", "simulate-ragged", "rank-wide"])
def genuine(request, tmp_path_factory):
    """(manifest, output path) of one op run on a small instance of a workload."""
    workload = request.param
    manifest = workloads.build(workload, 7, tmp_path_factory.mktemp(workload),
                               shape=SMALL.get(workload))
    assert cli_main(manifest["argv"]) == 0
    return manifest, Path(manifest["output"])


def failed_fraction(manifest: dict, output: Path, ops: int = 3) -> float:
    """ops_failed_frac of a run whose every op produced ``output``."""
    records = [{"status": "ok", "digest": "d"} for _ in range(ops)]
    failed, _, _ = run.judge(manifest, records, {"d": str(output)})
    return failed / ops


def corrupt(manifest: dict, output: Path, tmp_path: Path) -> Path:
    """A copy of ``output`` with the corruption its workload's test names."""
    bad = tmp_path / output.name
    if output.is_dir():  # reproduce-paper: one pinned file altered
        shutil.copytree(output, bad)
        prior = bad / "prior.csv"
        prior.write_text(prior.read_text().replace("0.7", "0.70000001", 1))
    elif manifest["workload"] == "simulate-ragged":  # one row dropped
        lines = output.read_text().splitlines(keepends=True)
        bad.write_text("".join(lines[:5] + lines[6:]))
    else:  # one digit of the first mean changed
        text = output.read_text()
        anchor = '"means": ['
        at = text.index(anchor) + len(anchor)
        digit = re.compile(r"\d").search(text, at).start()
        bad.write_text(text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:])
    return bad


def test_genuine_output_passes(genuine):
    manifest, output = genuine
    assert check.check_output(manifest, output) == ([], 0)
    assert failed_fraction(manifest, output) == 0.0


def test_corrupted_output_fails_every_op(genuine, tmp_path):
    manifest, output = genuine
    bad = corrupt(manifest, output, tmp_path)
    problems, _ = check.check_output(manifest, bad)
    assert problems
    assert failed_fraction(manifest, bad) == 1.0


def test_op_differing_from_the_first_fails(genuine, tmp_path):
    manifest, output = genuine
    records = [{"status": "ok", "digest": "good"}, {"status": "ok", "digest": "bad"},
               {"status": "exit 2", "digest": None}]
    kept = {"good": str(output), "bad": str(corrupt(manifest, output, tmp_path))}
    failed, _, problems = run.judge(manifest, records, kept)
    assert failed == 2
    assert "op 1: output bytes differ from op 0's" in problems


@pytest.mark.parametrize("genuine", ["rank-wide"], indirect=True)
def test_ranking_with_another_methods_weights_fails(genuine, tmp_path):
    """ICW and IGHW rankings swapped: each stays consistent with its own
    ``weights_used``, so only the verified weights can tell."""
    manifest, output = genuine
    doc = json.loads(output.read_bytes())
    rankings = doc["rankings"]
    rankings["ICW"], rankings["IGHW"] = rankings["IGHW"], rankings["ICW"]
    bad = tmp_path / output.name
    bad.write_text(json.dumps(doc))
    problems, _ = check.check_output(manifest, bad)
    assert "ICW ranking used other weights than the report's" in problems
    assert "ICW expectations are not the weighted means" in problems
    assert failed_fraction(manifest, bad) == 1.0
