"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from utilrank.model import MomentMatrices, validate_sample_set

ALTERNATIVES = ("AI1", "AI2")
ATTRIBUTES = ("force_protection", "proportionality")

# Reference use case: rows alternatives, columns attributes.
USE_CASE_MEANS = [[15.0, 4.0], [8.0, 10.0]]
USE_CASE_VARIANCES = [[7.0, 1.0], [2.5, 4.0]]
USE_CASE_PRIOR = [[0.7, 0.1], [0.3, 0.9]]


@pytest.fixture
def use_case_moments() -> MomentMatrices:
    return MomentMatrices(
        USE_CASE_MEANS,
        USE_CASE_VARIANCES,
        np.full((2, 2), 300, dtype=int),
        ALTERNATIVES,
        ATTRIBUTES,
    )


def naive_mean_variance(values):
    """Independent two-pass oracle: plain accumulation, no fsum."""
    n = len(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    acc = 0.0
    for v in values:
        acc += (v - mean) ** 2
    return mean, acc / (n - 1)


def sample_set_from_rows(rows):
    """Validate (alternative, attribute, situation, utility) rows as columns.

    Name tables list each identifier once, in order of first appearance.
    """
    rows = list(rows)
    columns = []
    for k in range(3):
        table = list(dict.fromkeys(row[k] for row in rows))
        index = {name: code for code, name in enumerate(table)}
        columns.append((table, [index[row[k]] for row in rows]))
    return validate_sample_set(*columns, [row[3] for row in rows])


def sample_rows(sample_set):
    """The (alternative, attribute, situation, utility) rows of a set, in order."""
    return list(zip(
        [sample_set.alternatives[c] for c in sample_set.alternative_codes],
        [sample_set.attributes[c] for c in sample_set.attribute_codes],
        [sample_set.situations[c] for c in sample_set.situation_codes],
        sample_set.utilities.tolist(),
    ))


def build_sample_set(pair_values: dict[tuple[str, str], list[float]]):
    """Assemble and validate a sample set from per-pair value lists."""
    return sample_set_from_rows(
        (alt, attr, f"s{i + 1:04d}", float(v))
        for (alt, attr), values in pair_values.items()
        for i, v in enumerate(values)
    )


def grid_sample_set(alternatives, attributes, per_pair_values):
    """Sample set over a full grid; per_pair_values(i, j) gives the list."""
    return build_sample_set(
        {
            (alt, attr): per_pair_values(i, j)
            for i, alt in enumerate(alternatives)
            for j, attr in enumerate(attributes)
        }
    )


def random_profile(rng, m, r):
    """Random column-stochastic matrix (each attribute column sums to 1)."""
    raw = rng.uniform(0.05, 1.0, size=(m, r))
    return raw / raw.sum(axis=0)
