"""Sample moments per (alternative, attribute) pair.

mean(m, r)     = sum_s u(m, r, s) / S
variance(m, r) = sum_s (u(m, r, s) - mean(m, r))^2 / (S - 1)

Summation order is canonicalized (samples arrive sorted by situation id)
and accumulated with exactly-rounded ``math.fsum``, so results are
bit-stable across platforms and input orderings, and variances can never
go negative even under catastrophic cancellation.
"""

from __future__ import annotations

from math import fsum, isfinite
from typing import Iterator, Sequence

import numpy as np

from .errors import ScoreOutOfRange, show_name
from .model import MomentMatrices, SampleSet


def mean_and_variance(values: Sequence[float]) -> tuple[float, float]:
    """Two-pass mean and unbiased sample variance of one pair's utilities.

    Squares are IEEE products, correctly rounded on every platform; ``d ** 2``
    calls the C library's ``pow``, which need not be. A sum or square past
    the largest float raises OverflowError, unless only the sum passes it.
    """
    n = len(values)
    try:
        mean = fsum(values) / n
    except OverflowError:  # the sum passes the largest float; the mean may not
        mean = 2 * (fsum(0.5 * v for v in values) / n)
    variance = fsum([(v - mean) * (v - mean) for v in values]) / (n - 1)
    if not isfinite(variance):  # a product does not raise on overflow, as pow does
        raise OverflowError("a squared deviation passes the float range")
    return mean, variance


def compute_moments(sample_set: SampleSet) -> MomentMatrices:
    """Compute the mean and variance matrices of a validated sample set.

    Rows follow ``sample_set.alternatives``, columns
    ``sample_set.attributes``; ``counts`` records each pair's sample count
    (counts may be ragged across pairs, but each is at least 2).

    Every pair gets the bits :func:`mean_and_variance` gives it. All pairs
    are reduced in one pass of C-level ``map`` calls, which hold one pair's
    slice at a time; only a pair whose sum or square passes the float range
    sends the set through :func:`mean_and_variance` pair by pair.
    """
    counts = sample_set.counts.ravel()
    bounds = [0, *np.cumsum(counts).tolist()]
    try:
        means = _fsums(sample_set.utilities.tolist(), bounds) / counts
        with np.errstate(over="ignore"):
            squares = sample_set.utilities - np.repeat(means, counts)
            squares *= squares
        if not np.isfinite(squares).all():
            raise OverflowError("a squared deviation passes the float range")
        variances = _fsums(squares.tolist(), bounds) / (counts - 1)
    except OverflowError:
        means, variances = map(np.array, zip(*_pair_moments(sample_set, bounds)))
    shape = sample_set.counts.shape
    return MomentMatrices(
        means.reshape(shape), variances.reshape(shape), sample_set.counts,
        sample_set.alternatives, sample_set.attributes,
    )


def _fsums(values: list[float], bounds: list[int]) -> np.ndarray:
    """``fsum(values[bounds[k]:bounds[k + 1]])`` for each k."""
    runs = map(values.__getitem__, map(slice, bounds, bounds[1:]))
    return np.fromiter(map(fsum, runs), np.float64, len(bounds) - 1)


def _pair_moments(sample_set: SampleSet, bounds: list[int]) -> Iterator[tuple[float, float]]:
    """Each pair's :func:`mean_and_variance`; a pair past the float range raises ScoreOutOfRange."""
    values = sample_set.utilities.tolist()
    for pair, (start, end) in enumerate(zip(bounds, bounds[1:])):
        try:
            yield mean_and_variance(values[start:end])
        except OverflowError:  # a sum or square past the largest float
            i, j = divmod(pair, sample_set.num_attributes)
            raise ScoreOutOfRange(
                f"moments of ({show_name(sample_set.alternatives[i])}, "
                f"{show_name(sample_set.attributes[j])}) "
                "overflow the float range"
            ) from None
