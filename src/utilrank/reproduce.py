"""Self-contained reproduction of the bundled reference use case.

Generates the canonical two-alternative, two-attribute dataset (1200
samples, exact moment matching, fixed seed), runs the full pipeline under
the reference profile (entropy base e, divergence base 10, weights
rounded to 2 decimals for the expectation table), verifies every derived
value against its published reference figure at a pinned tolerance, and
writes the inputs, report, and tables to an output directory. Two runs
produce byte-identical directories.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ReproductionMismatch
from .io_files import (
    digest_prior,  # not called here: perfbench/tracing.py traces the name utilrank.reproduce.digest_prior
    digest_sample_set,  # kept as digest_prior is
    write_config,
    write_prior,
    write_samples,
    write_scenario_spec,
)
from .model import EngineConfig, WeightMethod, validate_prior
from .pipeline import run_pipeline
from .report import Provenance, Report, emit_report, report_to_dict
from .scenario import MomentMode, PairSpec, ScenarioSpec, generate_samples

PathLike = Union[str, Path]

USE_CASE_SEED = 42

USE_CASE_SPEC = ScenarioSpec(
    pairs=(
        PairSpec("AI1", "force_protection", 15.0, 7.0, 300),
        PairSpec("AI1", "proportionality", 4.0, 1.0, 300),
        PairSpec("AI2", "force_protection", 8.0, 2.5, 300),
        PairSpec("AI2", "proportionality", 10.0, 4.0, 300),
    ),
    seed=USE_CASE_SEED,
    moment_mode=MomentMode.EXACT,
)

# Rows follow alternatives (AI1, AI2), columns attributes
# (force_protection, proportionality).
USE_CASE_PRIOR = [
    [0.7, 0.1],
    [0.3, 0.9],
]

REFERENCE_CONFIG = EngineConfig(
    entropy_log_base=math.e,
    kld_log_base=10.0,
    report_weight_rounding=2,
)

# Published reference figures, one row each: (table, report.json field,
# cell, figure, tolerance). A cell is "alternative/attribute" in a matrix
# and one alternative or attribute name in a vector. Exact moment matching
# bounds a variance's error relative to its size; ranks and the
# closed-form IGDW weights are exact.
REFERENCE_VALUES: tuple[tuple[str, str, str, float, float], ...] = (
    ("A1", "moments.means", "AI1/force_protection", 15.0, 1e-9),
    ("A1", "moments.means", "AI1/proportionality", 4.0, 1e-9),
    ("A1", "moments.means", "AI2/force_protection", 8.0, 1e-9),
    ("A1", "moments.means", "AI2/proportionality", 10.0, 1e-9),
    ("A1", "moments.variances", "AI1/force_protection", 7.0, 7e-9),
    ("A1", "moments.variances", "AI1/proportionality", 1.0, 1e-9),
    ("A1", "moments.variances", "AI2/force_protection", 2.5, 2.5e-9),
    ("A1", "moments.variances", "AI2/proportionality", 4.0, 4e-9),
    ("A2", "relative_variance.matrix", "AI1/force_protection", 0.7368, 5e-5),
    ("A2", "relative_variance.matrix", "AI2/force_protection", 0.2632, 5e-5),
    ("A2", "relative_variance.matrix", "AI1/proportionality", 0.2, 5e-5),
    ("A2", "relative_variance.matrix", "AI2/proportionality", 0.8, 5e-5),
    ("A3", "entropies.values", "force_protection", 0.5763, 5e-4),
    ("A3", "entropies.values", "proportionality", 0.5004, 5e-4),
    ("A3", "weights.ICW.weights", "force_protection", 0.5353, 5e-4),
    ("A3", "weights.ICW.weights", "proportionality", 0.4647, 5e-4),
    ("A4", "divergences.values", "force_protection", 0.0014, 2e-4),
    ("A4", "divergences.values", "proportionality", 0.0193, 2e-4),
    ("A4", "weights.IGHW.weights", "force_protection", 0.0694, 5e-4),
    ("A4", "weights.IGHW.weights", "proportionality", 0.9306, 5e-4),
    ("A5", "igd.values", "force_protection", 0.0767, 5e-4),
    ("A5", "igd.values", "proportionality", 0.0767, 5e-4),
    ("A5", "weights.IGDW.weights", "force_protection", 0.5, 0),
    ("A5", "weights.IGDW.weights", "proportionality", 0.5, 0),
    ("A6", "rankings.ICW.expectations", "AI1", 9.94, 5e-3),
    ("A6", "rankings.ICW.expectations", "AI2", 8.92, 5e-3),
    ("A6", "rankings.IGHW.expectations", "AI1", 4.77, 5e-3),
    ("A6", "rankings.IGHW.expectations", "AI2", 9.86, 5e-3),
    ("A6", "rankings.IGDW.expectations", "AI1", 9.5, 5e-3),
    ("A6", "rankings.IGDW.expectations", "AI2", 9.0, 5e-3),
    ("A6", "rankings.ICW.ranks", "AI1", 1, 0),
    ("A6", "rankings.ICW.ranks", "AI2", 2, 0),
    ("A6", "rankings.IGHW.ranks", "AI1", 2, 0),
    ("A6", "rankings.IGHW.ranks", "AI2", 1, 0),
    ("A6", "rankings.IGDW.ranks", "AI1", 1, 0),
    ("A6", "rankings.IGDW.ranks", "AI2", 2, 0),
)


def verify_report(report: Report) -> None:
    """Verify a reference-profile report against the published figures.

    Each figure is checked against the value users read in the report's
    JSON document. Raises :class:`ReproductionMismatch` naming every
    departing value.
    """
    doc = report_to_dict(report)
    index = {
        name: k for names in (doc["alternatives"], doc["attributes"])
        for k, name in enumerate(names)
    }
    departures = []
    for table, field, cell, figure, tolerance in REFERENCE_VALUES:
        actual = doc
        for key in field.split("."):
            actual = actual[key]
        if isinstance(actual, np.ndarray):  # a matrix: its cell as a Python number
            actual = actual.tolist()
        for name in cell.split("/"):
            actual = actual[index[name]]
        if not abs(actual - figure) <= tolerance:
            departures.append((table, f"{field} {cell}", figure, actual))
    if departures:
        raise ReproductionMismatch(tuple(departures))


def table_verdicts(departures=()) -> list[str]:
    """One line per reference table: PASS, or FAIL with its count of departing figures."""
    figures = Counter(row[0] for row in REFERENCE_VALUES)
    failed = Counter(departure[0] for departure in departures)
    return [
        f"table {table}: FAIL ({failed[table]} of {count} figures depart)" if failed[table]
        else f"table {table}: PASS ({count} figures)"
        for table, count in figures.items()
    ]


def reproduce_paper(output_directory: PathLike) -> Report:
    """Regenerate the reference use case end-to-end and verify it.

    Writes samples.csv, prior.csv, scenario.json, config.json,
    report.json, and tables.txt into ``output_directory``. Every derived
    value is computed from the generated samples, never from hardcoded
    moments. Raises :class:`ReproductionMismatch` if any value departs
    from its reference figure, once every file is written.
    """
    os.makedirs(output_directory, exist_ok=True)  # on the path as given: "" is no directory
    out = Path(output_directory)

    sample_set = generate_samples(USE_CASE_SPEC)
    prior = validate_prior(USE_CASE_PRIOR, sample_set)

    write_scenario_spec(USE_CASE_SPEC, out / "scenario.json")
    provenance = Provenance(  # the writers' digests: each file is rendered once
        samples_sha256=write_samples(sample_set, out / "samples.csv"),
        prior_sha256=write_prior(prior, out / "prior.csv"),
    )
    write_config(REFERENCE_CONFIG, out / "config.json")

    report = run_pipeline(
        sample_set,
        prior=prior,
        config=REFERENCE_CONFIG,
        methods=(WeightMethod.ICW, WeightMethod.IGHW, WeightMethod.IGDW),
        provenance=provenance,
    )

    emit_report(report, "json", out / "report.json")
    emit_report(report, "text", out / "tables.txt")
    verify_report(report)  # after the emit: a departing run leaves its values to read
    return report
