"""segment_sums against its oracle: ``math.fsum`` of each run on its own."""

import math
import random
from array import array

import numpy as np

from utilrank.exactsum import segment_sums

HUGE = 1.7e308  # two of these pass the largest float


def _oracle(values, bounds):
    """Each run's ``math.fsum``, NaN where it raises OverflowError."""
    sums = []
    for start, end in zip(bounds, bounds[1:]):
        try:
            sums.append(math.fsum(values[start:end]))
        except OverflowError:
            sums.append(math.nan)
    return np.array(sums)


def _run(rng: random.Random) -> list[float]:
    """One run of a random kind; every kind is sometimes one term long."""
    n = rng.choice([1, 1, 2, 3, rng.randint(1, 40)])
    kind = rng.randrange(6)
    if kind == 0:  # mixed scales
        return [rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-30, 30) for _ in range(n)]
    if kind == 1:  # near-cancelling: each term and its negation, plus a remainder
        terms = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-5, 300) for _ in range(n)]
        run = terms + [-t for t in terms] + [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 0)]
    elif kind == 2:  # half-way: the sum lands on or next to a tie between two floats
        big = rng.choice([1.0, 2.0, 3.0, 1e16, 2.0 ** 53]) * rng.choice([1.0, -1.0])
        half_ulp = math.ulp(big) / 2
        run = [big] + [half_ulp * rng.choice([1.0, -1.0])] * rng.randint(1, 3)
        run += [rng.choice([0.0, 5e-324, -5e-324, half_ulp * 2.0 ** -60]) for _ in range(n - 1)]
    elif kind == 3:  # subnormal terms
        return [rng.randint(-1000, 1000) * 5e-324 for _ in range(n)]
    elif kind == 4:  # passes the largest float on the way
        sign = rng.choice([1.0, -1.0])
        run = [sign * HUGE, sign * HUGE] + [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(0, 300)
                                            for _ in range(n - 1)]
    else:  # large terms that fit
        return [rng.uniform(-1.0, 1.0) * 1e307 for _ in range(n)]
    rng.shuffle(run)
    return run


def test_ragged_runs_match_fsum_run_by_run():
    rng = random.Random(2015)
    runs = [_run(rng) for _ in range(12_000)]
    values = [v for run in runs for v in run]
    bounds = [0]
    for run in runs:
        bounds.append(bounds[-1] + len(run))
    expected = _oracle(values, bounds)
    marked = np.isnan(expected)
    assert 1_000 < marked.sum() < 4_000  # some runs overflow, between runs that do not
    assert sum(len(run) == 1 for run in runs) > 2_000
    for given in (values, np.array(values), array("d", values)):
        got = segment_sums(given, bounds)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()


def test_a_marked_run_leaves_its_neighbours_alone():
    values = [HUGE, HUGE, 0.1, 0.2, -HUGE, -HUGE, 5e-324, HUGE, HUGE]
    bounds = [0, 2, 4, 6, 7, 9]
    got = segment_sums(values, bounds)
    assert np.isnan(got[[0, 2, 4]]).all()
    assert got[[1, 3]].tolist() == [math.fsum([0.1, 0.2]), 5e-324]


def test_empty_runs_and_no_runs():
    assert segment_sums([1.0, 2.0], [0, 0, 2, 2]).tolist() == [0.0, 3.0, 0.0]
    assert segment_sums(np.array([1.0]), range(0, 2, 1)).tolist() == [1.0]
    assert segment_sums([], [0]).shape == (0,)
