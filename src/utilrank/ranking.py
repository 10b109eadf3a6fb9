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

from .errors import DimensionMismatch
from .model import MomentMatrices, WeightVector

#: Expectations closer than this are reported as tied.
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
    rounding_applied: Optional[int]
    ties: tuple[tuple[str, ...], ...]


def round_half_away_from_zero(value: float, decimals: int) -> float:
    """Round to ``decimals`` places with ties going away from zero.

    Built-in round() uses banker's rounding, which would turn 0.465 into
    0.46; summary-table arithmetic needs 0.47.
    """
    quantum = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def expected_utility(
    moments: MomentMatrices,
    weights: Sequence[float],
) -> tuple[float, ...]:
    """Weighted expected utility of each alternative."""
    w = tuple(weights)
    if len(w) != moments.num_attributes:
        raise DimensionMismatch(
            f"{len(w)} weights for {moments.num_attributes} attributes"
        )
    return tuple(
        math.fsum(w[r] * float(moments.means[i, r]) for r in range(len(w)))
        for i in range(moments.num_alternatives)
    )


def rank(
    expectations: Sequence[float],
    alternatives: Sequence[str],
) -> tuple[tuple[int, ...], tuple[tuple[str, ...], ...]]:
    """Rank alternatives by descending expected utility.

    Returns (ranks, ties): ranks aligned with the input order, and tie
    groups (expectations within TIE_TOL of each other, chained) listed by
    alternative identifier ascending.
    """
    n = len(expectations)
    order = sorted(range(n), key=lambda i: (-expectations[i], alternatives[i]))

    groups: list[list[int]] = []
    for idx in order:
        if groups and expectations[groups[-1][-1]] - expectations[idx] <= TIE_TOL:
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
        rounding_applied=rounding,
        ties=ties,
    )
