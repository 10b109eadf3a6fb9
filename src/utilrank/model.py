"""Core domain types and input validation.

One utility observation is a (alternative, attribute, situation) triple.
A validated :class:`SampleSet` fixes the canonical lexicographic ordering
of alternatives and attributes that every downstream matrix follows, so
the same input multiset always produces byte-identical reports.

All types are immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ColumnNotNormalized,
    DimensionMismatch,
    DuplicateTriple,
    EmptyInput,
    InsufficientSamples,
    InvalidIdentifier,
    NegativeEntry,
    NonFiniteUtility,
    UtilityRangeWarning,
)

#: Tolerance for per-attribute probability columns summing to one.
COLUMN_SUM_TOL = 1e-9


class WeightMethod(Enum):
    """The three supported weight-derivation methods."""

    ICW = "ICW"
    IGHW = "IGHW"
    IGDW = "IGDW"


class DegenerateVariancePolicy(Enum):
    ERROR = "error"
    UNIFORM = "uniform"


class IgdNegativePolicy(Enum):
    ERROR = "error"
    MIN_SHIFT = "min_shift"


@dataclass(frozen=True)
class EngineConfig:
    """Tunable knobs for the weighting engine.

    entropy_log_base and kld_log_base are independent because entropy and
    divergence are conventionally reported in different bases; both ICW
    and IGHW weights are invariant to the choice, so the bases affect only
    reported raw scores.
    """

    entropy_log_base: float = math.e
    kld_log_base: float = 10.0
    degenerate_variance_policy: DegenerateVariancePolicy = DegenerateVariancePolicy.ERROR
    prior_smoothing_epsilon: float = 0.0
    igd_negative_policy: IgdNegativePolicy = IgdNegativePolicy.ERROR
    report_weight_rounding: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.entropy_log_base > 1.0:
            raise ValueError(f"entropy_log_base must be > 1, got {self.entropy_log_base}")
        if not self.kld_log_base > 1.0:
            raise ValueError(f"kld_log_base must be > 1, got {self.kld_log_base}")
        if not 0.0 <= self.prior_smoothing_epsilon < 1.0:
            raise ValueError(
                f"prior_smoothing_epsilon must be in [0, 1), got {self.prior_smoothing_epsilon}"
            )
        if self.report_weight_rounding is not None and self.report_weight_rounding < 0:
            raise ValueError("report_weight_rounding must be None or a non-negative integer")


@dataclass(frozen=True)
class UtilitySample:
    """One utility observation for an (alternative, attribute, situation) triple."""

    alternative_id: str
    attribute_id: str
    situation_id: str
    utility: float


@dataclass(frozen=True)
class SampleSet:
    """A validated collection of utility samples.

    ``samples`` is sorted by (alternative, attribute, situation) so that
    per-pair groups are contiguous and situation-ordered; ``alternatives``
    and ``attributes`` are sorted lexicographically.
    """

    samples: tuple[UtilitySample, ...]
    alternatives: tuple[str, ...]
    attributes: tuple[str, ...]

    @property
    def num_alternatives(self) -> int:
        return len(self.alternatives)

    @property
    def num_attributes(self) -> int:
        return len(self.attributes)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MomentMatrices:
    """Per-pair sample means and unbiased sample variances.

    Rows follow ``alternatives``, columns follow ``attributes``. The mean
    matrix carries the decision information; the variance matrix carries
    the weighting information.
    """

    means: np.ndarray
    variances: np.ndarray
    counts: np.ndarray
    alternatives: tuple[str, ...]
    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        means = _frozen_array(self.means)
        variances = _frozen_array(self.variances)
        counts = _frozen_array(self.counts, dtype=int)
        if not (means.shape == variances.shape == counts.shape):
            raise DimensionMismatch(
                f"moment matrices disagree: {means.shape}, {variances.shape}, {counts.shape}"
            )
        if np.any(variances < 0):
            raise ValueError("variance entries must be non-negative")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "counts", counts)

    @property
    def num_alternatives(self) -> int:
        return self.means.shape[0]

    @property
    def num_attributes(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True, eq=False)
class RelativeVarianceProfile:
    """Per-attribute probability distributions over alternatives.

    Column r is the variance column for attribute r normalized by its sum;
    each column sums to 1. ``degenerate_attributes`` lists attributes that
    received the uniform fallback because their total variance was zero.
    """

    matrix: np.ndarray
    alternatives: tuple[str, ...]
    attributes: tuple[str, ...]
    degenerate_attributes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _frozen_array(self.matrix))


@dataclass(frozen=True, eq=False)
class PriorProfile:
    """Subjective per-attribute probability distributions over alternatives."""

    matrix: np.ndarray
    alternatives: tuple[str, ...]
    attributes: tuple[str, ...]
    source_label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _frozen_array(self.matrix))


@dataclass(frozen=True)
class ScoreVector:
    """Per-attribute scores: entropies, divergences or gain differences.

    ``log_base`` is the logarithm base the scores are expressed in, or
    None for scores that carry no base of their own.
    """

    values: tuple[float, ...]
    attributes: tuple[str, ...]
    log_base: Optional[float] = None


@dataclass(frozen=True)
class WeightVector:
    """Normalized per-attribute weights produced by one method."""

    method: WeightMethod
    weights: tuple[float, ...]
    raw_scores: tuple[float, ...]
    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        total = math.fsum(self.weights)
        if abs(total - 1.0) > COLUMN_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        if any(w < 0 for w in self.weights):
            raise ValueError(f"negative weight in {self.weights!r}")


def validate_sample_set(raw_samples: Iterable[UtilitySample]) -> SampleSet:
    """Validate raw samples and fix the canonical ordering.

    Checks identifiers, finiteness, triple uniqueness, and that every
    (alternative, attribute) cross pair carries at least two samples.
    Emits a :class:`UtilityRangeWarning` (not an error) when utilities
    leave [0, 1]; worked datasets routinely use wider utility scales.

    Idempotent: validating the samples of an already-valid set returns an
    identical SampleSet regardless of input order.
    """
    samples = list(raw_samples)
    if not samples:
        raise EmptyInput("no samples provided")

    for s in samples:
        if not s.alternative_id or not s.attribute_id or not s.situation_id:
            raise InvalidIdentifier(f"empty identifier in {s!r}")
        if not math.isfinite(s.utility):
            raise NonFiniteUtility(s.alternative_id, s.attribute_id, s.situation_id)

    ordered = sorted(
        samples, key=lambda s: (s.alternative_id, s.attribute_id, s.situation_id)
    )
    for prev, cur in zip(ordered, ordered[1:]):
        if (prev.alternative_id, prev.attribute_id, prev.situation_id) == (
            cur.alternative_id, cur.attribute_id, cur.situation_id
        ):
            raise DuplicateTriple(cur.alternative_id, cur.attribute_id, cur.situation_id)

    alternatives = tuple(sorted({s.alternative_id for s in ordered}))
    attributes = tuple(sorted({s.attribute_id for s in ordered}))

    counts: dict[tuple[str, str], int] = {}
    for s in ordered:
        key = (s.alternative_id, s.attribute_id)
        counts[key] = counts.get(key, 0) + 1
    for alt in alternatives:
        for attr in attributes:
            n = counts.get((alt, attr), 0)
            if n < 2:
                raise InsufficientSamples(alt, attr, n)

    out_of_range = sum(1 for s in ordered if not 0.0 <= s.utility <= 1.0)
    if out_of_range:
        warnings.warn(
            f"{out_of_range} of {len(ordered)} utilities fall outside [0, 1]",
            UtilityRangeWarning,
            stacklevel=2,
        )

    return SampleSet(tuple(ordered), alternatives, attributes)


def validate_prior(
    raw_matrix: Sequence[Sequence[float]] | np.ndarray,
    sample_set: SampleSet,
    source_label: str = "",
) -> PriorProfile:
    """Validate a subjective prior against a sample set's dimensions.

    Rows follow the sample set's alternatives, columns its attributes;
    each column must be a probability distribution (entries in [0, 1],
    summing to 1 within 1e-9).
    """
    matrix = np.asarray(raw_matrix, dtype=float)
    expected = (sample_set.num_alternatives, sample_set.num_attributes)
    if matrix.shape != expected:
        raise DimensionMismatch(
            f"prior has shape {matrix.shape}, sample set requires {expected}"
        )
    if np.any(matrix < 0):
        i, r = map(int, np.argwhere(matrix < 0)[0])
        raise NegativeEntry(
            f"negative prior probability {matrix[i, r]!r} at "
            f"({sample_set.alternatives[i]}, {sample_set.attributes[r]})"
        )
    for r, attr in enumerate(sample_set.attributes):
        total = math.fsum(float(v) for v in matrix[:, r])
        if not abs(total - 1.0) <= COLUMN_SUM_TOL:
            raise ColumnNotNormalized(attr, total)
    return PriorProfile(matrix, sample_set.alternatives, sample_set.attributes, source_label)
