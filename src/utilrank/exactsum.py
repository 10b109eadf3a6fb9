"""Exactly rounded sums of contiguous runs of floats.

Every data-sized reduction in utilrank is a :func:`segment_sums` call, so
how a sum is computed, and what a sum past the float range gives, is
decided here alone. Each run's sum is ``math.fsum``'s: its exact sum,
rounded once, the same on every platform and in every order of terms.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice, repeat
from math import fsum, nan
from typing import Sequence

import numpy as np

RUNS = 1 << 12  # run lengths made Python ints at a time: bounds the list held


def segment_sums(values: np.ndarray | Sequence[float], bounds: Sequence[int]) -> np.ndarray:
    """The exactly rounded sum of each run ``values[bounds[k]:bounds[k + 1]]``.

    A run whose running sum passes the largest float reads NaN, and the
    runs after it are still summed: each caller names the first NaN run.
    Each run is ``fsum``'s of the values as ``memoryview`` hands them out,
    one Python float at a time, and run lengths become Python ints
    ``RUNS`` at a time, so no list as long as the values or the runs is
    made, however long a run is.
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
            sums.append(nan)
