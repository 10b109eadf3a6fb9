"""Attribute weight derivation from the variance matrix.

Three methods turn the per-pair variance matrix into normalized
per-attribute weights:

ICW   normalized Shannon entropy of each attribute's relative-variance
      column:  E(r) = sum_i -p(i,r) * log p(i,r),  ICW(r) = E(r) / sum_j E(j)
IGHW  Kullback-Leibler divergence of the data-driven column from a
      subjective prior column:  IGH(r) = sum_i p(i,r) * log(p(i,r) / q(i,r)),
      normalized the same way
IGDW  information-gain difference of each attribute against the summed
      complement-entropies of the others:
      IGD(r) = E(r) - sum_{j != r} (1 - E(j)); this equals
      sum_j E(j) - (R - 1) for every r, so IGDW is exactly 1/R

Column totals, entropies and divergences are exactly rounded sums, one
:func:`utilrank.exactsum.segment_sums` call for all columns, so they do
not depend on the order of alternatives; each ``log`` term is Python's.
``icw``, ``ighw`` and ``igd`` sum R bounded scores with ``math.fsum``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    AllZeroDivergence,
    AllZeroEntropy,
    DegenerateAttribute,
    DimensionMismatch,
    NegativeIgd,
    ScoreOutOfRange,
    ZeroPriorSupport,
)
from .exactsum import segment_sums
from .model import (
    DegenerateVariancePolicy,
    EngineConfig,
    IgdNegativePolicy,
    MomentMatrices,
    PriorProfile,
    RelativeVarianceProfile,
    WeightVector,
)

#: Weights this close to zero from below are floating-point noise; clamp.
_NEGATIVE_NOISE_TOL = 1e-12


def relative_variance(
    moments: MomentMatrices, config: EngineConfig | None = None
) -> RelativeVarianceProfile:
    """Normalize each variance column into a distribution over alternatives.

    p(m, r) = variance(m, r) / sum_i variance(i, r)

    An attribute whose column sums to zero carries no weighting
    information: with the ``error`` policy this raises
    :class:`DegenerateAttribute`; with ``uniform`` the column becomes
    1/M everywhere and a :class:`DegenerateAttributeWarning` is emitted.
    """
    config = config or EngineConfig()
    m = moments.num_alternatives
    totals = segment_sums(moments.variances.T.ravel(), range(0, moments.variances.size + 1, m))
    degenerate: list[str] = []
    for attr, total in zip(moments.attributes, totals.tolist()):
        if not math.isfinite(total):
            raise ScoreOutOfRange(f"variance total of attribute {attr!r} overflows")
        if total == 0.0:
            if config.degenerate_variance_policy is DegenerateVariancePolicy.ERROR:
                raise DegenerateAttribute(attr)
            degenerate.append(attr)
    zero = totals == 0.0
    matrix = np.where(zero, 1.0 / m, moments.variances / np.where(zero, 1.0, totals))
    profile = RelativeVarianceProfile(
        matrix, moments.alternatives, moments.attributes, tuple(degenerate)
    )
    if degenerate:
        warnings.warn(profile.degenerate_warning(), stacklevel=2)
    return profile


def entropy(profile: RelativeVarianceProfile, log_base: float = math.e) -> tuple[float, ...]:
    """Per-attribute Shannon entropy of the relative-variance columns.

    E(r) = sum_i -p(i, r) * log p(i, r), using the convention 0*log 0 = 0.
    Values lie in [0, log(M)] in the chosen base.
    """
    m = len(profile.alternatives)
    ln_base = math.log(log_base)
    bound = math.log(m) / ln_base + 1e-9
    columns = profile.matrix.T
    kept = columns > 0.0
    p = columns[kept]
    values = tuple((segment_sums(-p * _logs(p), _run_bounds(kept)) / ln_base).tolist())
    for attr, e in zip(profile.attributes, values):
        if not 0.0 <= e <= bound:
            raise ScoreOutOfRange(f"entropy {e!r} for attribute {attr!r} escapes [0, log M]")
    return values


def icw(entropies: tuple[float, ...]) -> WeightVector:
    """Information-contents weights: each entropy over the entropy total.

    Raises :class:`AllZeroEntropy` when every attribute is fully
    degenerate (all entropies zero).
    """
    total = math.fsum(entropies)
    if total <= 0.0:
        raise AllZeroEntropy("every attribute entropy is zero")
    return WeightVector(tuple(e / total for e in entropies))


def kld(
    profile: RelativeVarianceProfile,
    prior: PriorProfile,
    config: EngineConfig | None = None,
) -> tuple[float, ...]:
    """Per-attribute KL divergence of the data-driven columns from the prior.

    IGH(r) = sum_i p(i, r) * log(p(i, r) / q(i, r)) in config.kld_log_base.

    With ``prior_smoothing_epsilon`` > 0 the prior is first replaced by
    (q + eps) / (1 + M * eps) columnwise; smoothing never touches p, which
    comes from data. A zero prior entry under positive data probability
    with eps = 0 raises :class:`ZeroPriorSupport`.
    """
    config = config or EngineConfig()
    if profile.matrix.shape != prior.matrix.shape:
        raise DimensionMismatch(
            f"profile shape {profile.matrix.shape} != prior shape {prior.matrix.shape}"
        )
    m = len(profile.alternatives)
    eps = config.prior_smoothing_epsilon
    q = (prior.matrix + eps) / (1.0 + m * eps) if eps > 0.0 else prior.matrix
    columns, q_columns = profile.matrix.T, q.T
    kept = ~(columns <= 0.0)  # a NaN cell is kept, and its sum reads NaN
    unsupported = np.argwhere(kept & (q_columns <= 0.0))  # attribute by attribute
    if unsupported.size:
        r, i = unsupported[0]
        raise ZeroPriorSupport(profile.alternatives[i], profile.attributes[r])
    p = columns[kept]
    terms = p * _logs(p / q_columns[kept])
    ln_base = math.log(config.kld_log_base)
    return tuple((segment_sums(terms, _run_bounds(kept)) / ln_base).tolist())


def ighw(divergences: tuple[float, ...]) -> WeightVector:
    """Information-gain weights: each divergence over the divergence total.

    Raises :class:`AllZeroDivergence` when the data matches the prior for
    every attribute; the caller must fall back to another method or report.
    """
    total = math.fsum(divergences)
    if total <= 0.0:
        raise AllZeroDivergence("data-driven probabilities equal the prior everywhere")
    return WeightVector(tuple(_clamp_noise(d / total) for d in divergences))


def igd(
    entropies: tuple[float, ...], config: EngineConfig | None = None
) -> tuple[tuple[float, ...], str]:
    """Information-gain difference of each attribute against the others.

    IGD(r) = E(r) - sum_{j != r} (1 - E(j))

    Algebraically this equals sum_j E(j) - (R - 1) for every r, so the
    vector is constant across attributes and is positive only when the
    entropy total exceeds R - 1. Otherwise (an entry is negative, or every
    entry is zero) the ``error`` policy raises :class:`NegativeIgd` and
    ``min_shift`` resolves the vector to 1/R per attribute.

    Returns the differences and how their sign was resolved: ``"raw"`` or
    ``"min_shifted"``.
    """
    n = len(entropies)
    if n < 2:
        raise DimensionMismatch("information-gain difference needs at least 2 attributes")
    raw = tuple(
        e_r - math.fsum(1.0 - e_j for j, e_j in enumerate(entropies) if j != r)
        for r, e_r in enumerate(entropies)
    )
    if min(raw) >= 0.0 and max(raw) > 0.0:
        return raw, "raw"
    if (config or EngineConfig()).igd_negative_policy is IgdNegativePolicy.ERROR:
        raise NegativeIgd(raw)
    return (1.0 / n,) * n, "min_shifted"


def igdw(gains: tuple[float, ...]) -> WeightVector:
    """Information-gain-difference weights: exactly 1/R per attribute.

    Every resolved difference is the same positive number up to rounding,
    so normalizing them yields the uniform vector; it is written down, not
    divided out.
    """
    n = len(gains)
    return WeightVector((1.0 / n,) * n)


def _logs(values: np.ndarray) -> np.ndarray:
    """``math.log`` of each value, as libm gives it; ``np.log`` can differ by an ulp."""
    return np.fromiter(map(math.log, memoryview(values)), np.float64, values.size)


def _run_bounds(kept: np.ndarray) -> np.ndarray:
    """The bounds of each row's kept cells among ``kept``'s cells, taken in row-major order."""
    return np.concatenate(([0], np.cumsum(kept.sum(axis=1))))


def _clamp_noise(w: float) -> float:
    if w < 0.0:
        if w < -_NEGATIVE_NOISE_TOL:
            raise ScoreOutOfRange(f"weight {w!r} is negative beyond rounding noise")
        return 0.0
    return w
