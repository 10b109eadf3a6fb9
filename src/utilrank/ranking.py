"""Expected-utility aggregation and alternative ranking.

expectation(m) = sum_r w(r) * mean(m, r)

The alternative with the maximum expected utility ranks first. An
explicit rounding mode rounds each weight half-away-from-zero to a fixed
number of decimals before the dot product; published summary tables are
typically computed from such display-rounded weights, and the mode makes
that arithmetic reproducible instead of baking it in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, ScoreOutOfRange
from .exactsum import segment_sums
from .model import MomentMatrices, WeightVector

#: Expectations closer than this, relative to the larger magnitude (or to 1
#: when both lie within [-1, 1]), are reported as tied.
TIE_TOL = 1e-9


@dataclass(frozen=True)
class RankingReport:
    """Expected utilities and ranks for one weighting method.

    ``ranks[m]`` is alternative m's rank, 1 = best; tied alternatives
    share the smaller rank value and the next rank is skipped.
    ``weights_used`` are the effective (possibly rounded) weights, so
    ``expectations`` always equals their dot product with the means.
    Ties are reported, never silently broken.
    """

    expectations: tuple[float, ...]
    ranks: tuple[int, ...]
    weights_used: tuple[float, ...]
    ties: tuple[tuple[str, ...], ...]


def round_half_away_from_zero(value: float, decimals: int) -> float:
    """Round to ``decimals`` places with ties going away from zero.

    Built-in round() uses banker's rounding, which would turn 0.465 into
    0.46; summary-table arithmetic needs 0.47.
    """
    exact = Decimal(repr(value))
    if exact.as_tuple().exponent >= -decimals:
        return value  # already a multiple of the quantum
    # Fewer places than repr's: the result has at most repr's 17 digits
    # plus a carry, well inside the default 28-digit context.
    quantum = Decimal(1).scaleb(-decimals)
    return float(exact.quantize(quantum, rounding=ROUND_HALF_UP))


def expected_utility(
    moments: MomentMatrices,
    weights: Sequence[float],
) -> tuple[float, ...]:
    """Weighted expected utility of each alternative; :class:`ScoreOutOfRange` past the float range."""
    w = tuple(weights)
    if len(w) != moments.num_attributes:
        raise DimensionMismatch(
            f"{len(w)} weights for {moments.num_attributes} attributes"
        )
    with np.errstate(over="ignore"):
        products = moments.means * np.array(w, dtype=np.float64)
    expectations = tuple(segment_sums(products.ravel(), range(0, products.size + 1, len(w))).tolist())
    for alternative, expectation in zip(moments.alternatives, expectations):
        if not math.isfinite(expectation):
            raise ScoreOutOfRange(f"expected utility of alternative {alternative!r} overflows")
    return expectations


def rank(
    expectations: Sequence[float],
    alternatives: Sequence[str],
) -> tuple[tuple[int, ...], tuple[tuple[str, ...], ...]]:
    """Rank alternatives by descending expected utility.

    Returns (ranks, ties): ranks aligned with the input order, and tie
    groups listed by alternative identifier ascending. Two neighbouring
    expectations a >= b tie when a - b <= TIE_TOL * max(1, |a|, |b|):
    an absolute 1e-9 on scales up to 1, relative beyond, so utilities
    on large scales tie at the same number of significant digits. Ties
    chain: each expectation is compared with the next one down.
    """
    n = len(expectations)
    order = sorted(range(n), key=lambda i: (-expectations[i], alternatives[i]))

    groups: list[list[int]] = []
    for idx in order:
        if groups and _tied(expectations[groups[-1][-1]], expectations[idx]):
            groups[-1].append(idx)
        else:
            groups.append([idx])

    ranks = [0] * n
    ties: list[tuple[str, ...]] = []
    position = 1
    for group in groups:
        for idx in group:
            ranks[idx] = position
        if len(group) > 1:
            ties.append(tuple(sorted(alternatives[i] for i in group)))
        position += len(group)
    return tuple(ranks), tuple(ties)


def _tied(a: float, b: float) -> bool:
    return a - b <= TIE_TOL * max(1.0, abs(a), abs(b))


def rank_alternatives(
    moments: MomentMatrices,
    weights: WeightVector,
    rounding: Optional[int] = None,
) -> RankingReport:
    """Aggregate moments with one weight vector into a full ranking report."""
    effective = tuple(weights.weights)
    if rounding is not None:
        effective = tuple(round_half_away_from_zero(x, rounding) for x in effective)
    expectations = expected_utility(moments, effective)
    ranks, ties = rank(expectations, moments.alternatives)
    return RankingReport(
        expectations=expectations,
        ranks=ranks,
        weights_used=effective,
        ties=ties,
    )
