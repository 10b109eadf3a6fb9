"""The three benchmark workloads: their inputs and the CLI call of one op.

Inputs are drawn from the workload seed with :mod:`random` and written
through utilrank's public API, outside any timed op. Every workload runs
in exact moment mode, so the checker can compare moments with the spec
targets, and every value is drawn so that no weighting method fails.

Run as a script to build one workload's inputs into a directory:

    python3 perfbench/workloads.py --workload rank-wide --seed 3 --dir WORK --src src

It writes the inputs plus ``manifest.json``, which tells the worker what
to call and the checker what to expect.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

WORKLOADS = ("reference", "simulate-ragged", "rank-wide")

# Shapes: (alternatives, attributes, per-pair sample count or (low, high)).
SHAPES = {
    "simulate-ragged": (20, 10, (500, 1500)),
    "rank-wide": (1000, 50, 2),
}

REFERENCE_SAMPLES = 1200  # 4 pairs x 300, fixed by reproduce-paper


def draw_spec(seed: int, alternatives: int, attributes: int, count) -> dict:
    """A scenario spec document (schema 1) drawn from ``seed``.

    Means and variances are drawn per pair; ``count`` is a fixed per-pair
    sample count or a ``(low, high)`` range to draw ragged counts from.
    """
    rng = random.Random(seed)
    alts = [f"A{i:04d}" for i in range(alternatives)]
    attrs = [f"k{j:02d}" for j in range(attributes)]
    pairs = []
    for alt in alts:
        for attr in attrs:
            n = rng.randint(*count) if isinstance(count, tuple) else count
            pairs.append({
                "alternative": alt,
                "attribute": attr,
                "mean": rng.uniform(0.2, 0.8),
                "variance": rng.uniform(0.0004, 0.01),
                "count": n,
            })
    return {
        "schema_version": 1,
        "seed": rng.getrandbits(64),
        "moment_mode": "exact",
        "family": "normal",
        "pairs": pairs,
    }


def draw_prior(seed: int, alternatives: int, attributes: int) -> list[list[float]]:
    """Prior matrix (rows alternatives, columns attributes) with positive
    entries; each column sums to 1 well within the 1e-9 the reader allows."""
    rng = random.Random(seed ^ 0x5EED)
    columns = []
    for _ in range(attributes):
        raw = [rng.uniform(0.05, 1.0) for _ in range(alternatives)]
        total = math.fsum(raw)
        columns.append([v / total for v in raw])
    return [[columns[j][i] for j in range(attributes)] for i in range(alternatives)]


def build(workload: str, seed: int, work: Path, shape=None) -> dict:
    """Write one workload's inputs into ``work`` and return its manifest.

    ``shape`` overrides the workload's (alternatives, attributes, count);
    the checker's self-test uses it to build small inputs.
    """
    # Imported here: run.py imports this module and must not load utilrank.
    from utilrank.io_files import read_scenario_spec, write_prior, write_samples
    from utilrank.model import validate_prior
    from utilrank.scenario import generate_samples

    work.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed}
    if workload == "reference":
        out = work / "out"
        manifest.update(argv=["reproduce-paper", "--out", str(out)], output=str(out),
                        samples_per_op=REFERENCE_SAMPLES, methods_per_op=3)
        return _save(work, manifest)

    alternatives, attributes, count = shape or SHAPES[workload]
    spec_doc = draw_spec(seed, alternatives, attributes, count)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec_doc, indent=2) + "\n", encoding="utf-8")
    manifest.update(spec=str(spec_path),
                    samples_per_op=sum(p["count"] for p in spec_doc["pairs"]))

    if workload == "simulate-ragged":
        out = work / "out.csv"
        manifest.update(argv=["simulate", "--spec", str(spec_path), "--out", str(out)],
                        output=str(out), methods_per_op=0)
        return _save(work, manifest)

    sample_set = generate_samples(read_scenario_spec(spec_path))
    samples_path, prior_path = work / "samples.csv", work / "prior.csv"
    write_samples(sample_set, samples_path)
    write_prior(validate_prior(draw_prior(seed, alternatives, attributes), sample_set), prior_path)
    out = work / "report.json"
    manifest.update(
        argv=["rank", "--samples", str(samples_path), "--prior", str(prior_path),
              "--format", "json", "--out", str(out)],
        output=str(out), samples=str(samples_path), prior=str(prior_path), methods_per_op=3,
    )
    return _save(work, manifest)


def _save(work: Path, manifest: dict) -> dict:
    (work / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    build(args.workload, args.seed, Path(args.dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
