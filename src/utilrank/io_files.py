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
from types import SimpleNamespace
from typing import Iterator, Union

import numpy as np

from .errors import InvalidSpec, NonFiniteUtility, ParseError
from .model import (
    DegenerateVariancePolicy,
    EngineConfig,
    IdColumn,
    IgdNegativePolicy,
    PriorProfile,
    SampleSet,
    validate_prior,
    validate_sample_set,
)
from .scenario import Family, MomentMode, PairSpec, ScenarioSpec

SAMPLES_HEADER = ["alternative", "attribute", "situation", "utility"]
PRIOR_HEADER = ["attribute", "alternative", "probability"]
CHUNK_ROWS = 1 << 16  # sample rows rendered at once: bounds the text held in memory
SCHEMA_VERSION = 1

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Sample logs
# ---------------------------------------------------------------------------

def _csv_fields(names: tuple[str, ...]) -> list[str]:
    """Each name as csv.writer renders it inside a row."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerows([name, ""] for name in names)  # a lone empty field would be quoted
    return [line[:-2] for line in lines]


def _csv_chunks(sample_set: SampleSet) -> Iterator[str]:
    """Canonical CSV text in chunks: a ``csv.writer`` row per sample, utility as ``repr``."""
    yield ",".join(SAMPLES_HEADER) + "\n"
    attributes = _csv_fields(sample_set.attributes)
    prefixes = [f"{alt},{attr}," for alt in _csv_fields(sample_set.alternatives)
                for attr in attributes]
    situations = _csv_fields(sample_set.situations)
    pairs = sample_set.alternative_codes.astype(np.intp) * len(attributes)
    pairs += sample_set.attribute_codes
    for start in range(0, len(sample_set), CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        yield "".join([
            f"{prefixes[p]}{situations[s]},{u!r}\n" for p, s, u in zip(
                pairs[rows].tolist(),
                sample_set.situation_codes[rows].tolist(),
                sample_set.utilities[rows].tolist(),
            )
        ])


def samples_to_csv(sample_set: SampleSet) -> str:
    """Canonical CSV serialization of a sample set (sorted rows, LF)."""
    return "".join(_csv_chunks(sample_set))


def write_samples(sample_set: SampleSet, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.writelines(_csv_chunks(sample_set))


def _csv_rows(path: PathLike, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, row) of each row below the exact ``header``; blank rows are empty."""
    reader = csv.reader(io.StringIO(Path(path).read_text(encoding="utf-8")))
    first = next(reader, None)
    if first is None:
        raise ParseError(1, "file is empty; expected a header row")
    if first != header:
        raise ParseError(1, f"expected header {','.join(header)!r}, got {','.join(first)!r}")
    for line_no, row in enumerate(reader, start=2):
        if row and len(row) != len(header):
            raise ParseError(line_no, f"expected {len(header)} fields, got {len(row)}")
        yield line_no, row


def read_samples(path: PathLike) -> SampleSet:
    """Parse and validate a sample log.

    Expects the exact header ``alternative,attribute,situation,utility``;
    reports the offending line number on malformed rows.
    """
    names: tuple[list, list, list] = ([], [], [])
    utilities = []
    for line_no, row in _csv_rows(path, SAMPLES_HEADER):
        if not row:
            continue
        alternative, attribute, situation, raw_utility = row
        try:
            utility = float(raw_utility)
        except ValueError:
            raise ParseError(line_no, f"utility {raw_utility!r} is not a number") from None
        if not math.isfinite(utility):
            raise NonFiniteUtility(alternative, attribute, situation, line=line_no)
        names[0].append(alternative)
        names[1].append(attribute)
        names[2].append(situation)
        utilities.append(utility)
    return validate_sample_set(*map(_coded, names), utilities)


def _coded(column: list[str]) -> IdColumn:
    """A column of names as a table, in order of first appearance, and codes."""
    index = {name: code for code, name in enumerate(dict.fromkeys(column))}
    return list(index), np.fromiter(map(index.__getitem__, column), np.int32, len(column))


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
    alt_index = {a: i for i, a in enumerate(sample_set.alternatives)}
    attr_index = {a: j for j, a in enumerate(sample_set.attributes)}
    matrix = np.zeros((len(alt_index), len(attr_index)))
    seen = np.zeros(matrix.shape, dtype=bool)
    line_no = 1  # after the loop: the file's last line
    for line_no, row in _csv_rows(path, PRIOR_HEADER):
        if not row:
            continue
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
        if seen[key]:
            raise ParseError(line_no, f"duplicate cell ({attribute}, {alternative})")
        seen[key] = True
        matrix[key] = probability
    missing = np.argwhere(~seen)
    if missing.size:
        i, j = missing[0]
        alt, attr = sample_set.alternatives[i], sample_set.attributes[j]
        raise ParseError(line_no, f"missing cell ({attr}, {alt})")
    return validate_prior(matrix, sample_set)


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
    doc = _read_json_doc(path, "scenario spec")
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
    doc = _read_json_doc(path, "config")
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
            if rounding is not None and type(rounding) is not int:
                raise InvalidSpec(
                    f"report_weight_rounding must be an integer or null, got {rounding!r}"
                )
            overrides["report_weight_rounding"] = rounding
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed config: {exc}") from None
    return overrides


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def digest_sample_set(sample_set: SampleSet) -> str:
    """Content digest of a sample set's canonical serialization.

    Computed over canonical bytes rather than raw input files so that
    logically-equal inputs (reordered rows, different formatting) carry
    the same provenance digest.
    """
    hasher = hashlib.sha256()
    for chunk in _csv_chunks(sample_set):
        hasher.update(chunk.encode("utf-8"))
    return hasher.hexdigest()


def digest_prior(prior: PriorProfile) -> str:
    return hashlib.sha256(prior_to_csv(prior).encode("utf-8")).hexdigest()


def _read_json_doc(path: PathLike, what: str) -> dict:
    """A JSON object document of the supported schema version."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{what} must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InvalidSpec(f"unsupported schema_version {version!r}")
    return doc


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
