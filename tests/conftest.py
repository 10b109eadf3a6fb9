"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import csv
import math
from array import array
from math import fsum, isfinite
from types import SimpleNamespace

import numpy as np
import pytest

from utilrank.errors import ZeroPriorSupport
from utilrank.exactsum import segment_sums
from utilrank.io_files import _csv_chunks, _prior_chunks
from utilrank.model import EngineConfig, MomentMatrices, validate_sample_set
from utilrank.moments import compute_moments

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


def scalar_mean_and_variance(values):
    """Scalar reference moments: two passes of ``math.fsum``, one pair at a time.

    Squares are IEEE products. A sum or square past the largest float
    raises OverflowError, unless only the sum passes it: then the mean is
    taken of the halves. ``compute_moments`` and the generator must give
    every pair these bits.
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


def pair_moments(values):
    """``compute_moments``' mean and variance of one pair holding ``values``."""
    mm = compute_moments(build_sample_set({("A", "x"): values}))
    return float(mm.means[0, 0]), float(mm.variances[0, 0])


def samples_to_csv(sample_set):
    """The canonical CSV text of a sample set, as ``write_samples`` writes it."""
    return b"".join(_csv_chunks(sample_set)).decode("utf-8")


def csv_writer_text(header, rows):
    """A table as ``csv.writer`` writes it, each row ending in LF, floats as ``repr``.

    The writers' oracle. Rows are written with the ``\\r\\n`` terminator,
    which makes csv quote a field holding a ``\\r``, and each row's is then
    replaced by LF.
    """
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([*row[:-1], repr(row[-1])] for row in rows)
    return "".join(line[:-2] + "\n" for line in lines)


def prior_to_csv(prior):
    """The canonical CSV text of a prior, as ``write_prior`` writes it."""
    return b"".join(_prior_chunks(prior)).decode("utf-8")


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


def scalar_entropy(profile, log_base=math.e):
    """Reference entropies: one ``-p * math.log(p)`` term per positive cell, column by column.

    ``weighting.entropy`` must give these bits, with its range check left out.
    """
    terms, bounds = array("d"), [0]
    for column in profile.matrix.T:
        terms.extend([-p * math.log(p) for p in column.tolist() if p > 0.0])
        bounds.append(len(terms))
    return tuple((segment_sums(terms, bounds) / math.log(log_base)).tolist())


def scalar_kld(profile, prior, config=None):
    """Reference divergences: one ``p * math.log(p / q)`` term per cell not at or below 0.

    Raises ``ZeroPriorSupport`` at the first such cell, attribute by
    attribute and alternatives in order, whose smoothed prior is not
    positive. ``weighting.kld`` must give these bits and that cell.
    """
    config = config or EngineConfig()
    m = len(profile.alternatives)
    eps = config.prior_smoothing_epsilon
    q = (prior.matrix + eps) / (1.0 + m * eps) if eps > 0.0 else prior.matrix
    terms, bounds = array("d"), [0]
    for attr, p_column, q_column in zip(profile.attributes, profile.matrix.T, q.T):
        for alt, p_ir, q_ir in zip(profile.alternatives, p_column.tolist(), q_column.tolist()):
            if p_ir <= 0.0:
                continue
            if q_ir <= 0.0:
                raise ZeroPriorSupport(alt, attr)
            terms.append(p_ir * math.log(p_ir / q_ir))
        bounds.append(len(terms))
    return tuple((segment_sums(terms, bounds) / math.log(config.kld_log_base)).tolist())
