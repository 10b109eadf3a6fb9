"""File formats: sample logs, prior tables, scenario specs, engine configs.

Sample logs are flat delimiter-separated rows (one per observation) so
simulation farms can append cheaply; specs, priors, and configs are small
structured JSON documents with a schema version field. Numbers serialize
with the shortest round-trip decimal representation, and all writers emit
LF line endings, so identical content yields identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Union

from .errors import InvalidSpec, NonFiniteUtility, ParseError
from .model import (
    DegenerateVariancePolicy,
    EngineConfig,
    IgdNegativePolicy,
    PriorProfile,
    SampleSet,
    UtilitySample,
    validate_prior,
    validate_sample_set,
)
from .scenario import Family, MomentMode, PairSpec, ScenarioSpec

SAMPLES_HEADER = ["alternative", "attribute", "situation", "utility"]
PRIOR_HEADER = ["attribute", "alternative", "probability"]
SCHEMA_VERSION = 1

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Sample logs
# ---------------------------------------------------------------------------

def samples_to_csv(sample_set: SampleSet) -> str:
    """Canonical CSV serialization of a sample set (sorted rows, LF)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SAMPLES_HEADER)
    for s in sample_set.samples:
        writer.writerow([s.alternative_id, s.attribute_id, s.situation_id, repr(s.utility)])
    return buf.getvalue()


def write_samples(sample_set: SampleSet, path: PathLike) -> None:
    Path(path).write_text(samples_to_csv(sample_set), encoding="utf-8")


def read_samples(path: PathLike) -> SampleSet:
    """Parse and validate a sample log.

    Expects the exact header ``alternative,attribute,situation,utility``;
    reports the offending line number on malformed rows.
    """
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise ParseError(1, "file is empty; expected a header row")
    if rows[0] != SAMPLES_HEADER:
        raise ParseError(1, f"expected header {','.join(SAMPLES_HEADER)!r}, got {','.join(rows[0])!r}")
    samples = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(line_no, f"expected 4 fields, got {len(row)}")
        alternative, attribute, situation, raw_utility = row
        try:
            utility = float(raw_utility)
        except ValueError:
            raise ParseError(line_no, f"utility {raw_utility!r} is not a number") from None
        if not math.isfinite(utility):
            raise NonFiniteUtility(alternative, attribute, situation, line=line_no)
        samples.append(UtilitySample(alternative, attribute, situation, utility))
    return validate_sample_set(samples)


# ---------------------------------------------------------------------------
# Prior tables
# ---------------------------------------------------------------------------

def prior_to_csv(prior: PriorProfile) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PRIOR_HEADER)
    for r, attr in enumerate(prior.attributes):
        for i, alt in enumerate(prior.alternatives):
            writer.writerow([attr, alt, repr(float(prior.matrix[i, r]))])
    return buf.getvalue()


def write_prior(prior: PriorProfile, path: PathLike) -> None:
    Path(path).write_text(prior_to_csv(prior), encoding="utf-8")


def read_prior(path: PathLike, sample_set: SampleSet) -> PriorProfile:
    """Parse a prior table and validate it against the sample set.

    Every (attribute, alternative) cell must appear exactly once.
    """
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise ParseError(1, "file is empty; expected a header row")
    if rows[0] != PRIOR_HEADER:
        raise ParseError(1, f"expected header {','.join(PRIOR_HEADER)!r}, got {','.join(rows[0])!r}")

    alt_index = {a: i for i, a in enumerate(sample_set.alternatives)}
    attr_index = {a: j for j, a in enumerate(sample_set.attributes)}
    cells: dict[tuple[int, int], float] = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(line_no, f"expected 3 fields, got {len(row)}")
        attribute, alternative, raw_probability = row
        if attribute not in attr_index:
            raise ParseError(line_no, f"unknown attribute {attribute!r}")
        if alternative not in alt_index:
            raise ParseError(line_no, f"unknown alternative {alternative!r}")
        try:
            probability = float(raw_probability)
        except ValueError:
            raise ParseError(line_no, f"probability {raw_probability!r} is not a number") from None
        key = (alt_index[alternative], attr_index[attribute])
        if key in cells:
            raise ParseError(line_no, f"duplicate cell ({attribute}, {alternative})")
        cells[key] = probability

    matrix = []
    for i, alt in enumerate(sample_set.alternatives):
        row_values = []
        for j, attr in enumerate(sample_set.attributes):
            if (i, j) not in cells:
                raise ParseError(len(rows), f"missing cell ({attr}, {alt})")
            row_values.append(cells[(i, j)])
        matrix.append(row_values)
    return validate_prior(matrix, sample_set, source_label=str(Path(path).name))


# ---------------------------------------------------------------------------
# Scenario specs
# ---------------------------------------------------------------------------

def scenario_spec_to_dict(spec: ScenarioSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": spec.seed,
        "moment_mode": spec.moment_mode.value,
        "family": spec.family.value,
        "pairs": [
            {
                "alternative": p.alternative_id,
                "attribute": p.attribute_id,
                "mean": p.target_mean,
                "variance": p.target_variance,
                "count": p.sample_count,
            }
            for p in spec.pairs
        ],
    }


def write_scenario_spec(spec: ScenarioSpec, path: PathLike) -> None:
    Path(path).write_text(_dump_json(scenario_spec_to_dict(spec)), encoding="utf-8")


def read_scenario_spec(path: PathLike) -> ScenarioSpec:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"scenario spec is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidSpec("scenario spec must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InvalidSpec(f"unsupported schema_version {version!r}")
    try:
        pairs = tuple(
            PairSpec(
                alternative_id=str(p["alternative"]),
                attribute_id=str(p["attribute"]),
                target_mean=float(p["mean"]),
                target_variance=float(p["variance"]),
                sample_count=int(p["count"]),
            )
            for p in doc["pairs"]
        )
        seed = int(doc["seed"])
        moment_mode = MomentMode(doc.get("moment_mode", "exact"))
        family = Family(doc.get("family", "normal"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed scenario spec: {exc}") from None
    return ScenarioSpec(pairs=pairs, seed=seed, moment_mode=moment_mode, family=family)


# ---------------------------------------------------------------------------
# Engine configs
# ---------------------------------------------------------------------------

def parse_log_base(raw) -> float:
    """Accept 'e' or any real number greater than 1."""
    if isinstance(raw, str) and raw.strip().lower() == "e":
        return math.e
    try:
        base = float(raw)
    except (TypeError, ValueError):
        raise InvalidSpec(f"log base {raw!r} is not a number or 'e'") from None
    return base


def config_to_dict(config: EngineConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "entropy_log_base": "e" if config.entropy_log_base == math.e else config.entropy_log_base,
        "kld_log_base": "e" if config.kld_log_base == math.e else config.kld_log_base,
        "degenerate_variance_policy": config.degenerate_variance_policy.value,
        "prior_smoothing_epsilon": config.prior_smoothing_epsilon,
        "igd_negative_policy": config.igd_negative_policy.value,
        "report_weight_rounding": config.report_weight_rounding,
    }


def write_config(config: EngineConfig, path: PathLike) -> None:
    Path(path).write_text(_dump_json(config_to_dict(config)), encoding="utf-8")


def read_config(path: PathLike) -> dict:
    """Read a config document into keyword overrides for EngineConfig.

    Returns a plain dict so the CLI can layer flag overrides on top
    before constructing the final EngineConfig.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidSpec("config must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InvalidSpec(f"unsupported schema_version {version!r}")
    overrides = {}
    if "entropy_log_base" in doc:
        overrides["entropy_log_base"] = parse_log_base(doc["entropy_log_base"])
    if "kld_log_base" in doc:
        overrides["kld_log_base"] = parse_log_base(doc["kld_log_base"])
    try:
        if "degenerate_variance_policy" in doc:
            overrides["degenerate_variance_policy"] = DegenerateVariancePolicy(
                doc["degenerate_variance_policy"]
            )
        if "igd_negative_policy" in doc:
            overrides["igd_negative_policy"] = IgdNegativePolicy(doc["igd_negative_policy"])
        if "prior_smoothing_epsilon" in doc:
            overrides["prior_smoothing_epsilon"] = float(doc["prior_smoothing_epsilon"])
        if "report_weight_rounding" in doc:
            rounding = doc["report_weight_rounding"]
            overrides["report_weight_rounding"] = None if rounding is None else int(rounding)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed config: {exc}") from None
    return overrides


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_sample_set(sample_set: SampleSet) -> str:
    """Content digest of a sample set's canonical serialization.

    Computed over canonical bytes rather than raw input files so that
    logically-equal inputs (reordered rows, different formatting) carry
    the same provenance digest.
    """
    return sha256_of_text(samples_to_csv(sample_set))


def digest_prior(prior: PriorProfile) -> str:
    return sha256_of_text(prior_to_csv(prior))


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
