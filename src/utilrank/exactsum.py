"""Exactly rounded sums of contiguous runs of floats.

Every data-sized reduction in utilrank is a :func:`segment_sums` call, so
how a sum is computed, and what a sum past the float range gives, is
decided here alone. Each run's sum is its exact sum, rounded once, the
same on every platform and in every order of terms; it reads NaN only
when that exact sum is itself past the float range.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice, repeat
from math import fsum, isfinite, nan
from typing import Iterable, Sequence

import numpy as np

RUNS = 1 << 12  # run lengths made Python ints at a time: bounds the list held
_SCALE = 1 << 1074  # every finite float is an integer number of 2**-1074


def segment_sums(values: np.ndarray | Sequence[float], bounds: Sequence[int]) -> np.ndarray:
    """The exactly rounded sum of each run ``values[bounds[k]:bounds[k + 1]]``.

    A run whose exact sum is past the largest float reads NaN, and the
    runs after it are still summed: each caller names the first NaN run.
    Each run is ``fsum``'s of the values as ``memoryview`` hands them out,
    one Python float at a time, and run lengths become Python ints
    ``RUNS`` at a time, so no list as long as the values or the runs is
    made, however long a run is. ``fsum`` stops at a running sum past the
    largest float even when the exact sum fits (1e308 + 1e308 - 1e308):
    that run alone is summed again in integers (:func:`_exact_sum`).
    """
    bounds = np.asarray(bounds, dtype=np.intp)
    view = memoryview(np.ascontiguousarray(values, dtype=np.float64))
    steps = bounds[1:] - bounds[:-1]
    lengths = chain.from_iterable(steps[k:k + RUNS].tolist() for k in range(0, len(steps), RUNS))
    sums = array("d")  # raw doubles: no Python float is kept per run
    while True:
        # fsum stops inside a run that overflows: the next run starts afresh at its bound.
        terms = iter(view[bounds[len(sums)]:])
        try:
            sums.extend(map(fsum, map(islice, repeat(terms), lengths)))  # keeps the sums made before an overflow
            return np.frombuffer(sums, dtype=np.float64)
        except OverflowError:
            k = len(sums)
            sums.append(_exact_sum(view[bounds[k]:bounds[k + 1]]))


def _exact_sum(run: Iterable[float]) -> float:
    """The exact sum of ``run`` rounded once, NaN past the float range; a run ``fsum`` could not sum.

    Each finite term is an integer count of 2**-1074, so the sum is one
    Python int, and its division by 2**1074 is correctly rounded. Terms
    that are not finite give what ``fsum`` gives for them alone.
    """
    specials = [value for value in run if not isfinite(value)]
    if specials:
        return fsum(specials)
    total = 0
    for value in run:
        numerator, denominator = value.as_integer_ratio()
        total += numerator * (_SCALE // denominator)
    try:
        return total / _SCALE
    except OverflowError:
        return nan
