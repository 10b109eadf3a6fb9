"""Output checker for the benchmark's ops. Shares no code with utilrank.

Each ``check_*`` function takes an op's output and the workload's inputs
and returns a list of problems (empty when the output is right) plus the
number of weighting methods the output reports as failed. It recomputes
what it can with plain ``csv``, ``math.fsum`` and numpy:

- ``simulate``: per-pair counts, and exact-mode mean and variance
  against the spec, to 1e-9 relative.
- ``rank`` (JSON): the samples and prior digests against the input file
  bytes, moments against the spec targets, ICW and IGHW recomputed from
  the report's variance matrix and the prior, IGDW exactly 1/R, and
  expectations and ranks against each other.
- ``reproduce-paper``: the full sha256 of every input file it writes.
  ``report.json`` is not pinned, because its bytes are meant to change
  with the report schema; only its digest and failures are checked.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
TIE_TOL = 1e-9

REFERENCE_PINS = {
    "samples.csv": "f6d15dedf14c310eecf5bbbd0100600b99248f8d58f9521dd393d49eb0638d66",
    "scenario.json": "6d34aa859f959cfd9bb2c892bd4b07b3c0d0ba8f21fe49945de5d3212b205c47",
    "prior.csv": "501a6dd99b1a83712ea50b3fcffea5e9d7bc4d11b245f182aeb26ad0c7515697",
    "config.json": "f365ba0db503313e30a029bc7b895df161388655f6d8493ad798632452d5e43c",
}
REFERENCE_FILES = ("config.json", "prior.csv", "report.json", "samples.csv",
                   "scenario.json", "tables.txt")
METHODS = ("ICW", "IGHW", "IGDW")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= REL_TOL * max(abs(expected), 1e-300)


class Spec:
    """Targets of a scenario spec, as matrices over sorted identifiers."""

    def __init__(self, doc: dict):
        self.alternatives = sorted({p["alternative"] for p in doc["pairs"]})
        self.attributes = sorted({p["attribute"] for p in doc["pairs"]})
        shape = (len(self.alternatives), len(self.attributes))
        self.means, self.variances = np.zeros(shape), np.zeros(shape)
        self.counts = np.zeros(shape, dtype=np.int64)
        alt = {a: i for i, a in enumerate(self.alternatives)}
        attr = {a: j for j, a in enumerate(self.attributes)}
        for p in doc["pairs"]:
            i, j = alt[p["alternative"]], attr[p["attribute"]]
            self.means[i, j], self.variances[i, j] = p["mean"], p["variance"]
            self.counts[i, j] = p["count"]


def read_prior(data: bytes, spec: Spec) -> np.ndarray:
    """Prior matrix, rows alternatives, columns attributes."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    alt = {a: i for i, a in enumerate(spec.alternatives)}
    attr = {a: j for j, a in enumerate(spec.attributes)}
    q = np.full((len(alt), len(attr)), np.nan)
    for attribute, alternative, probability in rows[1:]:
        q[alt[alternative], attr[attribute]] = float(probability)
    return q


def expected_weights(variances: np.ndarray, prior: np.ndarray) -> dict:
    """ICW (from entropy) and IGHW (from IGH against the prior) of a
    variance matrix."""
    p = variances / variances.sum(axis=0)
    entropy = -(p * np.log(p)).sum(axis=0)
    igh = (p * np.log(p / prior)).sum(axis=0)
    return {"ICW": entropy / entropy.sum(), "IGHW": igh / igh.sum()}


def ranks_problems(method: str, expectations, ranks) -> list[str]:
    """Ranks must be competition ranks ordered by expectation: an
    alternative ahead by more than ``TIE_TOL`` ranks strictly better."""
    e, k = np.asarray(expectations, dtype=float), np.asarray(ranks)
    problems = []
    if not np.array_equal(k, 1 + (k[None, :] < k[:, None]).sum(axis=1)):
        problems.append(f"{method}: ranks are not competition ranks")
    ahead = e[:, None] > e[None, :] + TIE_TOL
    if np.any(ahead & ~(k[:, None] < k[None, :])):
        problems.append(f"{method}: a higher expectation does not rank better")
    return problems


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def check_simulate(output: bytes, spec_doc: dict) -> tuple[list[str], int]:
    spec = Spec(spec_doc)
    rows = list(csv.reader(io.StringIO(output.decode("utf-8"))))
    if rows[0] != ["alternative", "attribute", "situation", "utility"]:
        return [f"header {rows[0]!r}"], 0
    groups: dict[tuple[str, str], list[float]] = {}
    situations: dict[tuple[str, str], list[str]] = {}
    for alternative, attribute, situation, utility in rows[1:]:
        groups.setdefault((alternative, attribute), []).append(float(utility))
        situations.setdefault((alternative, attribute), []).append(situation)
    problems = []
    if list(groups) != sorted(groups):
        problems.append("rows are not grouped in sorted pair order")
    for i, alt in enumerate(spec.alternatives):
        for j, attr in enumerate(spec.attributes):
            values = groups.get((alt, attr), [])
            n = len(values)
            if n != spec.counts[i, j]:
                problems.append(f"({alt}, {attr}): {n} samples, spec says {spec.counts[i, j]}")
                continue
            if situations[(alt, attr)] != [f"s{s:05d}" for s in range(1, n + 1)]:
                problems.append(f"({alt}, {attr}): situation ids out of sequence")
            mean = math.fsum(values) / n
            variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
            if not close(mean, spec.means[i, j]):
                problems.append(f"({alt}, {attr}): mean {mean!r} != {spec.means[i, j]!r}")
            if not close(variance, spec.variances[i, j]):
                problems.append(f"({alt}, {attr}): variance {variance!r} != "
                                f"{spec.variances[i, j]!r}")
    if len(groups) != spec.counts.size:
        problems.append(f"{len(groups)} pairs, spec has {spec.counts.size}")
    return problems, 0


# ---------------------------------------------------------------------------
# rank, JSON report
# ---------------------------------------------------------------------------

def check_rank_json(output: bytes, spec_doc: dict, samples: bytes, prior: bytes
                    ) -> tuple[list[str], int]:
    spec = Spec(spec_doc)
    doc = json.loads(output)
    problems = []
    failures = doc["failures"]
    problems += [f"{m} failed: {msg}" for m, msg in failures.items()]
    if doc["provenance"]["samples_sha256"] != sha256(samples):
        problems.append("provenance.samples_sha256 is not the sha256 of the sample log")
    if doc["provenance"]["prior_sha256"] != sha256(prior):
        problems.append("provenance.prior_sha256 is not the sha256 of the prior table")
    if doc["alternatives"] != spec.alternatives or doc["attributes"] != spec.attributes:
        return problems + ["alternatives or attributes differ from the spec"], len(failures)

    means = np.array(doc["moments"]["means"])
    variances = np.array(doc["moments"]["variances"])
    if not np.array_equal(np.array(doc["moments"]["counts"]), spec.counts):
        problems.append("moment counts differ from the spec")
    for name, got, want in (("mean", means, spec.means), ("variance", variances, spec.variances)):
        bad = ~(np.abs(got - want) <= REL_TOL * np.abs(want))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            problems.append(f"{name} ({spec.alternatives[i]}, {spec.attributes[j]}) "
                            f"{got[i, j]!r} != {want[i, j]!r}")

    want = expected_weights(variances, read_prior(prior, spec))
    r = len(spec.attributes)
    want["IGDW"] = np.full(r, 1.0 / r)
    for method in METHODS:
        if method not in doc["weights"] or method not in doc["rankings"]:
            problems.append(f"{method} missing from the report")
            continue
        weights = doc["weights"][method]["weights"]
        if method == "IGDW":
            if not all(w == 1.0 / r for w in weights):
                problems.append(f"IGDW weights are not exactly 1/{r}")
        elif not np.allclose(weights, want[method], rtol=REL_TOL, atol=1e-15):
            problems.append(f"{method} weights differ from the recomputed ones")
        ranking = doc["rankings"][method]
        if ranking["weights_used"] != weights:
            problems.append(f"{method} ranking used other weights than the report's")
        # expectations from the recomputed weights, not the report's own
        expectations = np.array(ranking["expectations"])
        recomputed = np.array([math.fsum(want[method] * row) for row in means])
        if not np.allclose(expectations, recomputed, rtol=REL_TOL, atol=0):
            problems.append(f"{method} expectations are not the weighted means")
        problems += ranks_problems(method, expectations, ranking["ranks"])
    return problems, len(failures)


# ---------------------------------------------------------------------------
# reproduce-paper
# ---------------------------------------------------------------------------

def check_reference(out_dir: Path) -> tuple[list[str], int]:
    names = sorted(p.name for p in out_dir.iterdir())
    if names != sorted(REFERENCE_FILES):
        return [f"wrote {names}, expected {sorted(REFERENCE_FILES)}"], 0
    digests = {name: sha256((out_dir / name).read_bytes()) for name in REFERENCE_FILES}
    problems = [f"{name}: sha256 {digests[name]} != pinned {pin}"
                for name, pin in REFERENCE_PINS.items() if digests[name] != pin]
    report = json.loads((out_dir / "report.json").read_bytes())
    if report["provenance"]["samples_sha256"] != digests["samples.csv"]:
        problems.append("report.json provenance does not match samples.csv")
    problems += [f"{m} failed: {msg}" for m, msg in report["failures"].items()]
    return problems, len(report["failures"])


def check_output(manifest: dict, output: Path) -> tuple[list[str], int]:
    """Check one op's output against the workload's manifest."""
    workload = manifest["workload"]
    if workload == "reference":
        return check_reference(output)
    spec_doc = json.loads(Path(manifest["spec"]).read_bytes())
    if workload == "simulate-ragged":
        return check_simulate(output.read_bytes(), spec_doc)
    return check_rank_json(output.read_bytes(), spec_doc, Path(manifest["samples"]).read_bytes(),
                           Path(manifest["prior"]).read_bytes())
