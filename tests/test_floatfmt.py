"""The shortest-digit kernel against ``repr``, the oracle, byte for byte."""

import math

import numpy as np
import pytest

from utilrank import floatfmt


def _rendered(values: np.ndarray) -> bytes:
    """Each value's text from :func:`floatfmt.render`, one per line."""
    text = np.empty((len(values), floatfmt.WIDTH + 1), dtype=np.uint8)
    keep = np.empty(text.shape, dtype=bool)
    lengths = floatfmt.render(values, text[:, :-1], keep[:, :-1])
    assert np.array_equal(lengths, np.count_nonzero(keep[:, :-1], axis=1))
    text[:, -1], keep[:, -1] = ord("\n"), True
    return np.compress(keep.ravel(), text.ravel()).tobytes()


def assert_matches_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    expected = ("\n".join(map(repr, values.tolist())) + "\n" * bool(len(values))).encode("ascii")
    actual = _rendered(values)
    if actual != expected:  # name the first value that differs
        for value, got in zip(values.tolist(), actual.decode("ascii").split("\n")):
            assert got == repr(value)
    assert actual == expected


def _both_signs(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def test_random_bit_patterns():
    bits = np.random.default_rng(2018).integers(0, 2 ** 64, size=1 << 20, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_matches_repr(values[np.isfinite(values)])  # both signs, every exponent


def test_every_power_of_two():
    assert_matches_repr(_both_signs(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_subnormal_and_range_ends():
    tiny = 5e-324
    assert_matches_repr(_both_signs([
        tiny, 1e-323, 4.94e-323, 2.2250738585072009e-308,  # smallest, two small, largest subnormal
        2.2250738585072014e-308, 1.7976931348623157e308,  # smallest normal, largest float
        *(tiny * np.arange(1, 2000)),  # the subnormals with the fewest digits
    ]))
    assert _rendered(np.array([5e-324, 4.94e-323])) == b"5e-324\n5e-323\n"


@pytest.mark.parametrize("edge", [1e-4, 1e16])
def test_both_sides_of_the_positional_range(edge):
    below, above = edge, edge
    around = [edge]
    for _ in range(50):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        around += [below, above]
    assert_matches_repr(_both_signs(around + [edge * 10 ** k for k in range(-3, 4)]))


def test_integers_around_two_to_the_53():
    near = np.arange(2 ** 53 - 2000, 2 ** 53 + 2000, dtype=np.int64)
    decades = np.array([10 ** k + d for k in range(14, 19) for d in range(-20, 21)], dtype=np.float64)
    assert_matches_repr(_both_signs(np.concatenate([near.astype(np.float64), decades])))


def test_seventeen_digit_values():
    rng = np.random.default_rng(17)
    values = rng.random(50_000) * 10.0 ** rng.integers(-30, 30, size=50_000)
    assert_matches_repr(_both_signs(np.concatenate([values, [0.1 + 0.2, 1 / 3, 2 / 3, math.pi]])))


def test_exact_decimal_midpoints():
    # Values whose exact decimal ends in a 5: each lies halfway between two
    # shorter decimals, the case that Schubfach settles by the even digit.
    rng = np.random.default_rng(5)
    halves = np.arange(2 ** 52 - 500, 2 ** 52 + 500) + 0.5
    binary = rng.integers(1, 2 ** 53, size=20_000) * np.ldexp(1.0, rng.integers(-60, -1, 20_000))
    fives = [(2 * x + 1) * 5 * 10 ** j for j in range(1, 12) for x in rng.integers(1, 2 ** 40, 20).tolist()]
    assert_matches_repr(_both_signs(np.concatenate([halves, binary, np.array(fives, dtype=np.float64),
                                                    [0.5, 1.5, 2.5, 0.125, 0.375, 1e23, 5e22]])))


def test_zeros_and_non_finite_values():
    values = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0])
    assert_matches_repr(values)
    assert _rendered(values) == b"0.0\n-0.0\nnan\nnan\ninf\n-inf\n1.0\n-1.0\n"


def test_empty_input_and_column_slices():
    assert _rendered(np.array([])) == b""
    values = np.array([0.25, -3e-7, 123456789.0])
    rows = np.zeros((3, floatfmt.WIDTH + 9), dtype=np.uint8)
    keep = np.zeros(rows.shape, dtype=bool)
    floatfmt.render(values, rows[:, 4:-5], keep[:, 4:-5])  # slices of wider rows
    assert rows[keep].tobytes() == b"0.25-3e-07123456789.0"
