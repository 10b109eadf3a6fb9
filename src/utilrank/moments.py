"""Sample moments per (alternative, attribute) pair.

mean(m, r)     = sum_s u(m, r, s) / S
variance(m, r) = sum_s (u(m, r, s) - mean(m, r))^2 / (S - 1)

Both sums are exactly rounded (:func:`utilrank.exactsum.segment_sums`),
so results are bit-stable across platforms and input orderings, and
variances can never go negative even under catastrophic cancellation.
Squares are IEEE products, correctly rounded on every platform; ``d ** 2``
calls the C library's ``pow``, which need not be.
"""

from __future__ import annotations

import numpy as np

from .errors import ScoreOutOfRange, show_name
from .exactsum import segment_sums
from .model import MomentMatrices, SampleSet


def compute_moments(sample_set: SampleSet) -> MomentMatrices:
    """Compute the mean and variance matrices of a validated sample set.

    Rows follow ``sample_set.alternatives``, columns
    ``sample_set.attributes``; ``counts`` records each pair's sample count
    (counts may be ragged across pairs, but each is at least 2).

    A pair whose sum passes the largest float takes the mean of its halves,
    ``2 * (sum(u / 2) / S)``, which fits whenever the mean does. A pair
    whose mean or variance still passes the float range raises
    :class:`ScoreOutOfRange`, the first such pair in row-major order.
    """
    counts = sample_set.counts.ravel()
    bounds = np.concatenate([[0], np.cumsum(counts)])
    utilities = sample_set.utilities
    means = segment_sums(utilities, bounds) / counts
    for k in np.flatnonzero(np.isnan(means)).tolist():
        means[k] = 2 * (segment_sums(0.5 * utilities[bounds[k]:bounds[k + 1]], [0, counts[k]])[0] / counts[k])
    squares = np.repeat(means, counts)
    with np.errstate(over="ignore"):
        np.subtract(utilities, squares, out=squares)
        squares *= squares
    variances = segment_sums(squares, bounds) / (counts - 1)
    overflow = np.flatnonzero(~np.isfinite(variances))
    if overflow.size:
        i, j = divmod(int(overflow[0]), sample_set.num_attributes)
        raise ScoreOutOfRange(
            f"moments of ({show_name(sample_set.alternatives[i])}, "
            f"{show_name(sample_set.attributes[j])}) "
            "overflow the float range"
        )
    shape = sample_set.counts.shape
    return MomentMatrices(
        means.reshape(shape), variances.reshape(shape), sample_set.counts,
        sample_set.alternatives, sample_set.attributes,
    )
