"""Deterministic synthetic sample generation from a scenario specification.

Each (alternative, attribute) pair gets its own PRNG substream keyed by
the pair's index in canonical ordering, so changing one pair's parameters
never disturbs another pair's draws. In ``exact`` mode the raw normal
draws are affinely rescaled so the sample mean and unbiased sample
variance hit the targets,

    y_s = mean_t + (x_s - mean(x)) * sqrt(var_t / var(x)),

which makes every downstream weight equal its closed-form value
regardless of the sampling distribution (the weighting math consumes
only first and second moments). ``stochastic`` mode keeps the raw draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidSpec
from .model import SampleSet, validate_sample_set
from .moments import mean_and_variance
from .prng import substream


class MomentMode(Enum):
    EXACT = "exact"
    STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class PairSpec:
    """Generation targets for one (alternative, attribute) pair."""

    alternative_id: str
    attribute_id: str
    target_mean: float
    target_variance: float
    sample_count: int


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, seedable generation plan."""

    pairs: tuple[PairSpec, ...]
    seed: int
    moment_mode: MomentMode = MomentMode.EXACT

    def __post_init__(self) -> None:
        if not self.pairs:
            raise InvalidSpec("scenario has no pairs")
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidSpec(f"seed {self.seed!r} is not a 64-bit unsigned integer")
        seen = set()
        for p in self.pairs:
            if not p.alternative_id or not p.attribute_id:
                raise InvalidSpec(f"empty identifier in pair {p!r}")
            key = (p.alternative_id, p.attribute_id)
            if key in seen:
                raise InvalidSpec(f"duplicate pair {key!r}")
            seen.add(key)
            if p.sample_count < 2:
                raise InvalidSpec(
                    f"pair {key!r} has sample_count {p.sample_count}; need at least 2"
                )
            if not math.isfinite(p.target_mean):
                raise InvalidSpec(f"pair {key!r} has non-finite target mean")
            if not (math.isfinite(p.target_variance) and p.target_variance >= 0):
                raise InvalidSpec(f"pair {key!r} has invalid target variance")


def _pair_values(spec: ScenarioSpec, index: int, pair: PairSpec) -> list[float]:
    if spec.moment_mode is MomentMode.EXACT and pair.target_variance == 0.0:
        return [pair.target_mean] * pair.sample_count

    attempt = 0
    while True:
        stream = substream(spec.seed, index, attempt)
        draws = [stream.next_normal() for _ in range(pair.sample_count)]
        if spec.moment_mode is MomentMode.STOCHASTIC:
            sd = math.sqrt(pair.target_variance)
            return [pair.target_mean + sd * z for z in draws]
        raw_mean, raw_var = mean_and_variance(draws)
        if raw_var > 0.0:
            scale = math.sqrt(pair.target_variance / raw_var)
            return [pair.target_mean + (z - raw_mean) * scale for z in draws]
        attempt += 1  # constant raw draw cannot be rescaled; next substream


def generate_samples(spec: ScenarioSpec) -> SampleSet:
    """Generate a validated sample set from a scenario specification.

    Identical specs (including the seed) produce byte-identical sample
    sets on every platform. Situation identifiers are zero-padded
    (s00001, s00002, ...), numbered in draw order within each pair.
    """
    ordered = sorted(spec.pairs, key=lambda p: (p.alternative_id, p.attribute_id))
    counts = [pair.sample_count for pair in ordered]
    utilities = np.concatenate(
        [_pair_values(spec, index, pair) for index, pair in enumerate(ordered)]
    )
    # Code k of both pair columns names pair k; situation code i is draw i.
    pair_codes = np.repeat(np.arange(len(ordered)), counts)
    situation_codes = np.arange(len(utilities)) - np.repeat(np.cumsum(counts) - counts, counts)
    return validate_sample_set(
        ([pair.alternative_id for pair in ordered], pair_codes),
        ([pair.attribute_id for pair in ordered], pair_codes),
        ([f"s{i + 1:05d}" for i in range(max(counts))], situation_codes),
        utilities,
    )
