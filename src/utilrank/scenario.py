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

Pairs are drawn in canonical order, a group of whole pairs at a time:
at most ``GROUP_SAMPLES`` samples, or one longer pair alone. The
substreams of a group's pairs are drawn together, one numpy lane per
pair (:func:`utilrank.prng.lane_units`), and rescaled together. A pair's
draws depend only on its own substream, so grouping changes no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import InvalidSpec
from .exactsum import segment_sums
from .model import SampleSet, check_counts, validate_sample_set
from .prng import lane_units, normal_ppf, substream

GROUP_SAMPLES = 1 << 14  # samples drawn at a time: bounds the memory held; a longer pair is drawn whole


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


def sample_blocks(spec: ScenarioSpec) -> tuple[tuple[list[str], list[str], list[str]],
                                               Iterator[tuple[np.ndarray, ...]]]:
    """A spec's samples in canonical order, a group of whole pairs at a time.

    Returns the name tables of the alternative, attribute and situation
    columns, and an iterator of blocks ``(alternative codes, attribute
    codes, situation codes, utilities)`` whose codes index those tables.
    Pair k in canonical order is name k of both pair tables; situation i
    of a pair is its draw i, named ``s00001``, ``s00002``, ..., and a pair
    of 100,000 draws or more comes in the names' sorted order
    (``s100000`` before ``s10001``). A spec whose pairs are not the full
    cross product of its alternatives and attributes raises
    :class:`InsufficientSamples` here, before any sample is drawn.
    """
    ordered = sorted(spec.pairs, key=lambda p: (p.alternative_id, p.attribute_id))
    alternatives = sorted({pair.alternative_id for pair in ordered})
    attributes = sorted({pair.attribute_id for pair in ordered})
    counts = np.zeros((len(alternatives), len(attributes)), dtype=np.int64)
    rows = {name: i for i, name in enumerate(alternatives)}
    columns = {name: j for j, name in enumerate(attributes)}
    for pair in ordered:
        counts[rows[pair.alternative_id], columns[pair.attribute_id]] = pair.sample_count
    check_counts(alternatives, attributes, counts)
    situations = [f"s{i + 1:05d}" for i in range(max(pair.sample_count for pair in ordered))]
    names = ([pair.alternative_id for pair in ordered], [pair.attribute_id for pair in ordered], situations)
    return names, _blocks(spec, ordered, situations)


def _blocks(spec: ScenarioSpec, ordered: list[PairSpec], situations: list[str]) -> Iterator[tuple[np.ndarray, ...]]:
    """The blocks of :func:`sample_blocks`: each group of ``ordered`` pairs drawn, then put in canonical order."""
    canonical = None  # every draw index, in its name's sorted order; made for the first pair that needs it
    start = 0
    while start < len(ordered):
        stop, size = start + 1, ordered[start].sample_count
        while stop < len(ordered) and size + ordered[stop].sample_count <= GROUP_SAMPLES:
            size += ordered[stop].sample_count
            stop += 1
        counts = np.array([pair.sample_count for pair in ordered[start:stop]])
        utilities = _draw(spec, ordered, start, counts)
        pair_codes = np.repeat(np.arange(start, stop), counts)
        situation_codes = np.arange(size) - np.repeat(np.cumsum(counts) - counts, counts)
        if stop - start == 1 and size >= 100_000:  # one pair: "s100000" sorts before "s10001"
            if canonical is None:
                canonical = np.array(sorted(range(len(situations)), key=situations.__getitem__))
            situation_codes = canonical[canonical < size]
            utilities = utilities[situation_codes]
        yield pair_codes, pair_codes, situation_codes, utilities
        start = stop


def _draw(spec: ScenarioSpec, ordered: list[PairSpec], first: int, counts: np.ndarray) -> np.ndarray:
    """The utilities of pairs ``first`` on of ``ordered``, ``counts[k]`` for pair ``first + k``, in draw order.

    Each pair keeps its own substream: pair k's is ``substream(seed, k,
    attempt)``, whatever group it is drawn in.
    """
    pairs = ordered[first:first + len(counts)]
    means = np.array([pair.target_mean for pair in pairs])
    variances = np.array([pair.target_variance for pair in pairs])
    exact = spec.moment_mode is MomentMode.EXACT
    # Exact-mode pairs with zero target variance keep these copies, undrawn.
    utilities = np.repeat(means, counts)
    pending = np.flatnonzero(~(exact & (variances == 0.0)))
    attempt = 0
    # A scale past the float range gives inf, and 0 * inf nan, as with Python floats.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while pending.size:
            seeds = [substream(spec.seed, first + k, attempt) for k in pending.tolist()]
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
            filled = np.isin(np.arange(len(pairs)), pending[drawn])  # lanes run in pair order
            utilities[np.repeat(filled, counts)] = z[np.repeat(drawn, lane_counts)]
            pending, attempt = pending[~drawn], attempt + 1  # a redraw takes the next substream
    return utilities


def generate_samples(spec: ScenarioSpec) -> SampleSet:
    """Generate a validated sample set from a scenario specification.

    Identical specs (including the seed) produce byte-identical sample
    sets on every platform: the set holds the blocks of
    :func:`sample_blocks`, validated as one.
    """
    names, blocks = sample_blocks(spec)
    columns = [np.concatenate(column) for column in zip(*blocks)]
    return validate_sample_set(*zip(names, columns), columns[-1])
