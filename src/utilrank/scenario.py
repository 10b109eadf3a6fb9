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
(:func:`utilrank.prng.lane_units`), and rescaled together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidSpec
from .exactsum import segment_sums
from .model import SampleSet, validate_sample_set
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
    starts = np.cumsum(counts) - counts
    means = np.array([pair.target_mean for pair in ordered])
    variances = np.array([pair.target_variance for pair in ordered])
    exact = spec.moment_mode is MomentMode.EXACT
    # Exact-mode pairs with zero target variance keep these copies, undrawn.
    utilities = np.repeat(means, counts)
    pending = np.flatnonzero(~(exact & (variances == 0.0)))
    attempt = 0
    # A scale past the float range gives inf, and 0 * inf nan, as with Python floats.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while pending.size:
            seeds = [substream(spec.seed, k, attempt) for k in pending.tolist()]
            lane_counts = counts[pending]
            z = normal_ppf(lane_units(seeds, lane_counts))
            bounds = [0, *np.cumsum(lane_counts).tolist()]
            ratios, drawn = variances[pending], np.ones(len(pending), dtype=bool)
            if exact:
                z -= np.repeat(segment_sums(z, bounds) / lane_counts, lane_counts)
                raw_vars = segment_sums(z * z, bounds) / (lane_counts - 1)
                ratios, drawn = ratios / raw_vars, raw_vars > 0.0  # a constant raw draw cannot be rescaled
            z *= np.repeat(np.sqrt(ratios), lane_counts)
            z += np.repeat(means[pending], lane_counts)
            filled = np.isin(np.arange(len(ordered)), pending[drawn])  # lanes run in pair order
            utilities[np.repeat(filled, counts)] = z[np.repeat(drawn, lane_counts)]
            pending, attempt = pending[~drawn], attempt + 1  # a redraw takes the next substream
    # Code k of both pair columns names pair k; situation code i is draw i.
    pair_codes = np.repeat(np.arange(len(ordered)), counts)
    situation_codes = np.arange(len(utilities)) - np.repeat(starts, counts)
    return validate_sample_set(
        ([pair.alternative_id for pair in ordered], pair_codes),
        ([pair.attribute_id for pair in ordered], pair_codes),
        ([f"s{i + 1:05d}" for i in range(max(counts))], situation_codes),
        utilities,
    )
