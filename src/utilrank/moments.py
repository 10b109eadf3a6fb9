"""Sample moments per (alternative, attribute) pair.

mean(m, r)     = sum_s u(m, r, s) / S
variance(m, r) = sum_s (u(m, r, s) - mean(m, r))^2 / (S - 1)

Summation order is canonicalized (samples arrive sorted by situation id)
and accumulated with exactly-rounded ``math.fsum``, so results are
bit-stable across platforms and input orderings, and variances can never
go negative even under catastrophic cancellation.
"""

from __future__ import annotations

from math import fsum
from typing import Sequence

import numpy as np

from .errors import ScoreOutOfRange
from .model import MomentMatrices, SampleSet


def mean_and_variance(values: Sequence[float]) -> tuple[float, float]:
    """Two-pass mean and unbiased sample variance of one pair's utilities."""
    n = len(values)
    try:
        mean = fsum(values) / n
    except OverflowError:  # the sum passes the largest float; the mean may not
        mean = 2 * (fsum(0.5 * v for v in values) / n)
    variance = fsum([(v - mean) ** 2 for v in values]) / (n - 1)
    return mean, variance


def compute_moments(sample_set: SampleSet) -> MomentMatrices:
    """Compute the mean and variance matrices of a validated sample set.

    Rows follow ``sample_set.alternatives``, columns
    ``sample_set.attributes``; ``counts`` records each pair's sample count
    (counts may be ragged across pairs, but each is at least 2).
    """
    values = sample_set.utilities.tolist()
    ends = np.cumsum(sample_set.counts.ravel()).tolist()
    moments = []
    for pair, (start, end) in enumerate(zip([0, *ends], ends)):
        try:
            moments.append(mean_and_variance(values[start:end]))
        except OverflowError:  # a sum or square past the largest float
            i, j = divmod(pair, sample_set.num_attributes)
            raise ScoreOutOfRange(
                f"moments of ({sample_set.alternatives[i]}, {sample_set.attributes[j]}) "
                "overflow the float range"
            ) from None
    means, variances = (np.reshape(m, sample_set.counts.shape) for m in zip(*moments))
    return MomentMatrices(
        means, variances, sample_set.counts, sample_set.alternatives, sample_set.attributes
    )
