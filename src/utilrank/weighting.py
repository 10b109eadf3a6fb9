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

All reductions use exactly-rounded ``math.fsum``, which makes entropy and
divergence invariant to the ordering of alternatives.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    AllZeroDivergence,
    AllZeroEntropy,
    DegenerateAttribute,
    DegenerateAttributeWarning,
    DimensionMismatch,
    NegativeIgd,
    ZeroPriorSupport,
)
from .model import (
    DegenerateVariancePolicy,
    EngineConfig,
    IgdNegativePolicy,
    MomentMatrices,
    PriorProfile,
    RelativeVarianceProfile,
    ScoreVector,
    WeightMethod,
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
    matrix = np.zeros_like(moments.variances)
    degenerate: list[str] = []
    for r, attr in enumerate(moments.attributes):
        column = [float(v) for v in moments.variances[:, r]]
        total = math.fsum(column)
        if total == 0.0:
            if config.degenerate_variance_policy is DegenerateVariancePolicy.ERROR:
                raise DegenerateAttribute(attr)
            matrix[:, r] = 1.0 / m
            degenerate.append(attr)
        else:
            matrix[:, r] = [v / total for v in column]
    if degenerate:
        warnings.warn(
            f"degenerate attribute(s) {degenerate} assigned the uniform distribution",
            DegenerateAttributeWarning,
            stacklevel=2,
        )
    return RelativeVarianceProfile(
        matrix, moments.alternatives, moments.attributes, tuple(degenerate)
    )


def entropy(profile: RelativeVarianceProfile, log_base: float = math.e) -> ScoreVector:
    """Per-attribute Shannon entropy of the relative-variance columns.

    E(r) = sum_i -p(i, r) * log p(i, r), using the convention 0*log 0 = 0.
    Values lie in [0, log(M)] in the chosen base.
    """
    m = len(profile.alternatives)
    ln_base = math.log(log_base)
    bound = math.log(m) / ln_base + 1e-9
    values = []
    for r in range(len(profile.attributes)):
        nats = fsum_entropy(profile.matrix[:, r])
        e = nats / ln_base
        if not 0.0 <= e <= bound:
            raise ValueError(
                f"entropy {e!r} for attribute {profile.attributes[r]!r} escapes [0, log M]"
            )
        values.append(e)
    return ScoreVector(tuple(values), profile.attributes, log_base)


def fsum_entropy(column: np.ndarray) -> float:
    """Entropy of one probability column in nats, exactly-rounded sum."""
    return math.fsum(-p * math.log(p) for p in (float(v) for v in column) if p > 0.0)


def icw(entropies: ScoreVector) -> WeightVector:
    """Information-contents weights: each entropy over the entropy total.

    Raises :class:`AllZeroEntropy` when every attribute is fully
    degenerate (all entropies zero).
    """
    total = math.fsum(entropies.values)
    if total <= 0.0:
        raise AllZeroEntropy("every attribute entropy is zero")
    weights = tuple(e / total for e in entropies.values)
    return WeightVector(WeightMethod.ICW, weights, entropies.values, entropies.attributes)


def kld(
    profile: RelativeVarianceProfile,
    prior: PriorProfile,
    config: EngineConfig | None = None,
) -> ScoreVector:
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
    ln_base = math.log(config.kld_log_base)
    values = []
    for r in range(len(profile.attributes)):
        terms = []
        for i in range(m):
            p_ir = float(profile.matrix[i, r])
            if p_ir <= 0.0:
                continue
            q_ir = float(q[i, r])
            if q_ir <= 0.0:
                raise ZeroPriorSupport(profile.alternatives[i], profile.attributes[r])
            terms.append(p_ir * math.log(p_ir / q_ir))
        values.append(math.fsum(terms) / ln_base)
    return ScoreVector(tuple(values), profile.attributes, config.kld_log_base)


def ighw(divergences: ScoreVector) -> WeightVector:
    """Information-gain weights: each divergence over the divergence total.

    Raises :class:`AllZeroDivergence` when the data matches the prior for
    every attribute; the caller must fall back to another method or report.
    """
    total = math.fsum(divergences.values)
    if total <= 0.0:
        raise AllZeroDivergence("data-driven probabilities equal the prior everywhere")
    weights = tuple(_clamp_noise(d / total) for d in divergences.values)
    return WeightVector(WeightMethod.IGHW, weights, divergences.values, divergences.attributes)


def igd(entropies: ScoreVector, config: EngineConfig | None = None) -> tuple[ScoreVector, str]:
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
    n = len(entropies.values)
    if n < 2:
        raise DimensionMismatch("information-gain difference needs at least 2 attributes")
    raw = tuple(
        e_r - math.fsum(1.0 - e_j for j, e_j in enumerate(entropies.values) if j != r)
        for r, e_r in enumerate(entropies.values)
    )
    if min(raw) >= 0.0 and max(raw) > 0.0:
        return ScoreVector(raw, entropies.attributes), "raw"
    if (config or EngineConfig()).igd_negative_policy is IgdNegativePolicy.ERROR:
        raise NegativeIgd(raw)
    return ScoreVector((1.0 / n,) * n, entropies.attributes), "min_shifted"


def igdw(gains: ScoreVector) -> WeightVector:
    """Information-gain-difference weights: exactly 1/R per attribute.

    Every resolved difference is the same positive number up to rounding,
    so normalizing them yields the uniform vector; it is written down, not
    divided out.
    """
    n = len(gains.values)
    return WeightVector(WeightMethod.IGDW, (1.0 / n,) * n, gains.values, gains.attributes)


def _clamp_noise(w: float) -> float:
    if w < 0.0:
        if w < -_NEGATIVE_NOISE_TOL:
            raise ValueError(f"weight {w!r} is negative beyond rounding noise")
        return 0.0
    return w
