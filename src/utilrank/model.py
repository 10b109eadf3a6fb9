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
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ColumnNotNormalized,
    DegenerateAttributeWarning,
    DimensionMismatch,
    DuplicateTriple,
    EmptyInput,
    InsufficientSamples,
    InvalidIdentifier,
    NegativeEntry,
    NonFiniteUtility,
    ScoreOutOfRange,
    UtilityRangeWarning,
    show_name,
)
from .exactsum import segment_sums

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
        for name in ("entropy_log_base", "kld_log_base"):
            if not 1.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 1, got {getattr(self, name)}")
        if not 0.0 <= self.prior_smoothing_epsilon < 1.0:
            raise ValueError(
                f"prior_smoothing_epsilon must be in [0, 1), got {self.prior_smoothing_epsilon}"
            )
        rounding = self.report_weight_rounding  # 2.7 or True is rejected, not truncated
        if rounding is not None and (type(rounding) is not int or rounding < 0):
            raise ValueError(f"report_weight_rounding must be None or an int >= 0, got {rounding!r}")


#: An identifier column: a name table and one code per sample indexing it.
IdColumn = tuple[Sequence[str], Sequence[int]]


@dataclass(frozen=True, eq=False)
class SampleSet:
    """A validated collection of utility samples, stored as columns.

    The ``*_codes`` columns index the sorted name tables, one entry per
    sample beside ``utilities``. Samples are sorted by (alternative,
    attribute, situation), so pair (i, j) owns one contiguous slice of
    ``counts[i, j]`` samples, the slices in row-major pair order.
    ``out_of_range`` counts the utilities outside [0, 1], as validation
    found them.
    """

    alternatives: tuple[str, ...]
    attributes: tuple[str, ...]
    situations: tuple[str, ...]
    alternative_codes: np.ndarray
    attribute_codes: np.ndarray
    situation_codes: np.ndarray
    utilities: np.ndarray
    counts: np.ndarray
    out_of_range: int = 0

    @property
    def num_alternatives(self) -> int:
        return len(self.alternatives)

    @property
    def num_attributes(self) -> int:
        return len(self.attributes)

    def __len__(self) -> int:
        return len(self.utilities)

    def range_warning(self) -> Optional[UtilityRangeWarning]:
        """The warning that utilities leave [0, 1], or None when none does."""
        return range_warning(self.out_of_range, len(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampleSet):
            return NotImplemented
        columns = ("alternative_codes", "attribute_codes", "situation_codes", "utilities")
        return (self.alternatives, self.attributes, self.situations) == (
            other.alternatives, other.attributes, other.situations
        ) and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in columns)

    def __hash__(self) -> int:
        return hash((self.alternatives, self.attributes, self.situations, len(self)))


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

    def degenerate_warning(self) -> Optional[DegenerateAttributeWarning]:
        """The warning that attributes got the uniform fallback, or None when none did."""
        if not self.degenerate_attributes:
            return None
        attributes = list(self.degenerate_attributes)
        return DegenerateAttributeWarning(
            f"degenerate attribute(s) {attributes} assigned the uniform distribution",
            attributes=attributes,
        )


@dataclass(frozen=True, eq=False)
class PriorProfile:
    """Subjective per-attribute probability distributions over alternatives."""

    matrix: np.ndarray
    alternatives: tuple[str, ...]
    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _frozen_array(self.matrix))


@dataclass(frozen=True)
class WeightVector:
    """Normalized per-attribute weights: non-negative and summing to one."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        total = math.fsum(self.weights)
        if abs(total - 1.0) > COLUMN_SUM_TOL:
            raise ScoreOutOfRange(f"weights sum to {total!r}, not 1")
        if any(w < 0 for w in self.weights):
            raise ScoreOutOfRange(f"negative weight in {self.weights!r}")


def validate_sample_set(
    alternatives: IdColumn,
    attributes: IdColumn,
    situations: IdColumn,
    utilities: Sequence[float],
) -> SampleSet:
    """Validate sample columns and fix the canonical ordering.

    A name table may be in any order, repeat names and hold names no
    sample carries; the set's tables keep only the carried names. Checks
    identifiers, finiteness, triple uniqueness, and that every
    (alternative, attribute) cross pair carries at least two samples.
    Emits a :class:`UtilityRangeWarning` (not an error) when utilities
    leave [0, 1]; worked datasets routinely use wider utility scales.
    Idempotent: re-validating a set's columns, in any sample order,
    returns an equal SampleSet.
    """
    utilities = np.asarray(utilities, dtype=np.float64)
    if not utilities.size:
        raise EmptyInput("no samples provided")

    tables, codes = [], []
    for kind, (names, column) in zip(
        ("alternative", "attribute", "situation"), (alternatives, attributes, situations)
    ):
        column = np.asarray(column)
        if column.shape != utilities.shape or column.min() < 0 or column.max() >= len(names):
            raise DimensionMismatch(f"{kind} codes do not index {len(names)} names per sample")
        # Only names some sample carries; sorted in Python, as NumPy string
        # arrays drop trailing NULs.
        used = np.flatnonzero(np.bincount(column, minlength=len(names))).tolist()
        table = tuple(sorted({names[k] for k in used}))
        if table[:1] == ("",):
            raise InvalidIdentifier(f"empty {kind} identifier")
        index = {name: k for k, name in enumerate(table)}
        tables.append(table)
        codes.append(np.array([index.get(name, -1) for name in names], dtype=np.int32)[column])

    out_of_range = check_utilities(tables, codes, utilities)
    alternatives, attributes, _ = tables
    pair = codes[0].astype(np.intp) * len(attributes) + codes[1]
    step = np.diff(pair)
    if ((step > 0) | ((step == 0) & (codes[2][1:] >= codes[2][:-1]))).all():
        # Generator output and canonical logs come sorted, and a stable
        # sort of sorted rows is the identity. The set keeps its own copy.
        utilities = utilities.copy()
    else:
        order = np.lexsort((codes[2], pair))
        codes = [column[order] for column in codes]
        pair, utilities = pair[order], utilities[order]
    same = np.logical_and.reduce([column[1:] == column[:-1] for column in codes])
    if same.any():
        k = int(np.argmax(same)) + 1
        raise DuplicateTriple(*(table[column[k]] for table, column in zip(tables, codes)))

    counts = np.bincount(pair, minlength=len(alternatives) * len(attributes))
    counts = counts.reshape(len(alternatives), len(attributes))
    check_counts(alternatives, attributes, counts)
    for column in (*codes, utilities, counts):
        column.setflags(write=False)
    sample_set = SampleSet(*tables, *codes, utilities, counts, out_of_range)
    if out_of_range:
        warnings.warn(sample_set.range_warning(), stacklevel=2)
    return sample_set


def check_utilities(tables: Sequence[Sequence[str]], codes: Sequence[np.ndarray],
                    utilities: np.ndarray) -> int:
    """The count of utilities outside [0, 1]; :class:`NonFiniteUtility` naming the first that is not finite.

    Sample i is named ``tables[k][codes[k][i]]`` in each column k.
    """
    non_finite = np.flatnonzero(~np.isfinite(utilities))
    if non_finite.size:
        k = non_finite[0]
        raise NonFiniteUtility(*(table[column[k]] for table, column in zip(tables, codes)))
    return int(np.count_nonzero((utilities < 0.0) | (utilities > 1.0)))


def check_counts(alternatives: Sequence[str], attributes: Sequence[str], counts: np.ndarray) -> None:
    """:class:`InsufficientSamples` for the first cross pair, in row-major order, with fewer than two samples."""
    short = np.argwhere(counts < 2)
    if short.size:
        i, j = short[0]
        raise InsufficientSamples(alternatives[i], attributes[j], int(counts[i, j]))


def range_warning(out_of_range: int, samples: int) -> Optional[UtilityRangeWarning]:
    """The warning that ``out_of_range`` of ``samples`` utilities leave [0, 1], or None when none does."""
    if not out_of_range:
        return None
    return UtilityRangeWarning(
        f"{out_of_range} of {samples} utilities fall outside [0, 1]",
        out_of_range=out_of_range, samples=samples,
    )


def validate_prior(
    raw_matrix: Sequence[Sequence[float]] | np.ndarray,
    sample_set: SampleSet,
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
            f"negative prior probability {float(matrix[i, r])!r} at "
            f"({show_name(sample_set.alternatives[i])}, {show_name(sample_set.attributes[r])})"
        )
    totals = segment_sums(matrix.T.ravel(), range(0, matrix.size + 1, expected[0]))
    for attr, total, column in zip(sample_set.attributes, totals.tolist(), matrix.T):
        if not abs(total - 1.0) <= COLUMN_SUM_TOL:
            if math.isnan(total) and not np.isnan(column).any():
                total = math.inf  # entries are >= 0, so a sum past the float range is +inf
            raise ColumnNotNormalized(attr, total)
    return PriorProfile(matrix, sample_set.alternatives, sample_set.attributes)
