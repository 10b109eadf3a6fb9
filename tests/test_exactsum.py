"""segment_sums against its oracle: each run's exact rational sum, rounded once."""

import math
import random
from array import array
from fractions import Fraction

import numpy as np

from utilrank.exactsum import segment_sums

HUGE = 1.7e308  # two of these pass the largest float


def _oracle(values, bounds):
    """Each run's exact sum as a Fraction, rounded once; NaN where that sum is past the float range."""
    sums = []
    for start, end in zip(bounds, bounds[1:]):
        try:
            sums.append(float(sum(map(Fraction, values[start:end]), Fraction(0))))
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


def test_a_running_sum_past_the_range_is_summed_exactly():
    # fsum raises "intermediate overflow" on these runs, though each exact sum fits.
    values = [1e308, 1e308, -1e308, HUGE, HUGE, -HUGE, -HUGE, 0.5, 1e308, 1e308, 2.0 ** -1074, -1e308]
    bounds = [0, 3, 8, 12]
    expected = _oracle(values, bounds)
    assert expected.tolist() == [1e308, 0.5, 1e308]
    assert segment_sums(values, bounds).tobytes() == expected.tobytes()


def test_a_run_past_the_range_with_a_term_that_is_not_finite():
    # A term that is not finite gives what fsum gives for it, even after a running overflow.
    got = segment_sums([1e308, 1e308, math.inf, 1e308, 1e308, math.nan, 1.0], [0, 3, 6, 7])
    assert got[0] == math.inf and math.isnan(got[1]) and got[2] == 1.0


def test_an_expected_utility_that_fits_after_a_running_overflow():
    from utilrank.model import MomentMatrices
    from utilrank.ranking import expected_utility

    means = np.array([[1e308, 1e308, -1e308]])
    moments = MomentMatrices(means, np.ones_like(means), np.full(means.shape, 2), ("A",), ("x", "y", "z"))
    assert expected_utility(moments, (1.0, 1.0, 1.0)) == (1e308,)
