"""Exactly rounded sums of contiguous runs of floats.

Every data-sized reduction in utilrank is a :func:`segment_sums` call, so
how a sum is computed, and what a sum past the float range gives, is
decided here alone. Each run's sum is ``math.fsum``'s: its exact sum,
rounded once, the same on every platform and in every order of terms.
"""

from __future__ import annotations

from array import array
from math import fsum, nan
from typing import Sequence

import numpy as np


def segment_sums(values: np.ndarray | Sequence[float], bounds: Sequence[int]) -> np.ndarray:
    """The exactly rounded sum of each run ``values[bounds[k]:bounds[k + 1]]``.

    A run whose running sum passes the largest float reads NaN, and the
    runs after it are still summed: each caller names the first NaN run.
    A numpy array becomes Python floats one run at a time.
    """
    slices = map(slice, bounds, bounds[1:])
    if isinstance(values, np.ndarray):
        runs = map(np.ndarray.tolist, map(values.__getitem__, slices))
    else:
        runs = map(values.__getitem__, slices)
    sums = array("d")  # raw doubles: no Python float is kept per run
    while True:
        try:
            sums.extend(map(fsum, runs))  # keeps the sums made before an overflow
            return np.frombuffer(sums, dtype=np.float64)
        except OverflowError:
            sums.append(nan)
