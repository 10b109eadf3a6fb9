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

The substreams of all pairs are drawn together, one numpy lane per pair
(:func:`utilrank.prng.lane_units`), and rescaled pair by pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidSpec
from .model import SampleSet, validate_sample_set
from .moments import mean_and_variance
from .prng import lane_units, normal_ppf, substream


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
            if not 2 <= p.sample_count < 2 ** 63:
                raise InvalidSpec(
                    f"pair {key!r} has sample_count {p.sample_count}; need at least 2 and below 2**63"
                )
            if not math.isfinite(p.target_mean):
                raise InvalidSpec(f"pair {key!r} has non-finite target mean")
            if not (math.isfinite(p.target_variance) and p.target_variance >= 0):
                raise InvalidSpec(f"pair {key!r} has invalid target variance")


def generate_samples(spec: ScenarioSpec) -> SampleSet:
    """Generate a validated sample set from a scenario specification.

    Identical specs (including the seed) produce byte-identical sample
    sets on every platform. Situation identifiers are zero-padded
    (s00001, s00002, ...), numbered in draw order within each pair.
    """
    ordered = sorted(spec.pairs, key=lambda p: (p.alternative_id, p.attribute_id))
    counts = np.array([pair.sample_count for pair in ordered])
    starts = (np.cumsum(counts) - counts).tolist()
    exact = spec.moment_mode is MomentMode.EXACT
    # Exact-mode pairs with zero target variance keep these copies, undrawn.
    utilities = np.repeat([pair.target_mean for pair in ordered], counts)
    pending = [k for k, pair in enumerate(ordered) if not (exact and pair.target_variance == 0.0)]
    attempt = 0
    with np.errstate(invalid="ignore"):  # 0 * inf gives nan, as with Python floats
        while pending:
            seeds = [substream(spec.seed, k, attempt) for k in pending]
            z = normal_ppf(lane_units(seeds, counts[pending]))
            redraw, at = [], 0
            for k in pending:
                pair = ordered[k]
                draws = z[at:at + pair.sample_count]
                at += pair.sample_count
                if not exact:
                    values = pair.target_mean + math.sqrt(pair.target_variance) * draws
                else:
                    raw_mean, raw_var = mean_and_variance(draws.tolist())
                    if not raw_var > 0.0:  # a constant raw draw cannot be rescaled
                        redraw.append(k)
                        continue
                    scale = math.sqrt(pair.target_variance / raw_var)
                    values = pair.target_mean + (draws - raw_mean) * scale
                utilities[starts[k]:starts[k] + pair.sample_count] = values
            pending, attempt = redraw, attempt + 1  # a redraw takes the next substream
    # Code k of both pair columns names pair k; situation code i is draw i.
    pair_codes = np.repeat(np.arange(len(ordered)), counts)
    situation_codes = np.arange(len(utilities)) - np.repeat(starts, counts)
    return validate_sample_set(
        ([pair.alternative_id for pair in ordered], pair_codes),
        ([pair.attribute_id for pair in ordered], pair_codes),
        ([f"s{i + 1:05d}" for i in range(max(counts))], situation_codes),
        utilities,
    )
