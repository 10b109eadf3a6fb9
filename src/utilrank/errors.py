"""Error and warning types shared across the package.

Every failure raised by utilrank derives from :class:`UtilrankError`.
The CLI maps exception families to exit codes: input/validation problems
exit 2, reference-reproduction mismatches exit 3, I/O failures exit 4.
"""

from __future__ import annotations


class UtilrankError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

class EmptyInput(UtilrankError):
    """No samples were provided."""


class InvalidIdentifier(UtilrankError):
    """An alternative, attribute, or situation identifier is empty."""


class DuplicateTriple(UtilrankError):
    """Two samples share the same (alternative, attribute, situation) triple."""

    def __init__(self, alternative_id: str, attribute_id: str, situation_id: str):
        self.alternative_id = alternative_id
        self.attribute_id = attribute_id
        self.situation_id = situation_id
        super().__init__(
            f"duplicate sample for ({alternative_id}, {attribute_id}, {situation_id})"
        )


class InsufficientSamples(UtilrankError):
    """An (alternative, attribute) pair has fewer than 2 samples.

    The unbiased variance needs at least two observations per pair; a
    count of zero means the pair is missing from the input entirely.
    """

    def __init__(self, alternative_id: str, attribute_id: str, count: int):
        self.alternative_id = alternative_id
        self.attribute_id = attribute_id
        self.count = count
        super().__init__(
            f"pair ({alternative_id}, {attribute_id}) has {count} sample(s); need at least 2"
        )


class NonFiniteUtility(UtilrankError):
    """A utility value is NaN or infinite."""

    def __init__(self, alternative_id: str, attribute_id: str, situation_id: str,
                 line: int | None = None):
        self.alternative_id = alternative_id
        self.attribute_id = attribute_id
        self.situation_id = situation_id
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(
            f"non-finite utility for ({alternative_id}, {attribute_id}, "
            f"{situation_id}){where}"
        )


class ColumnNotNormalized(UtilrankError):
    """A per-attribute probability column does not sum to 1."""

    def __init__(self, attribute_id: str, total: float):
        self.attribute_id = attribute_id
        self.total = total
        super().__init__(f"column for attribute {attribute_id!r} sums to {total!r}, not 1")


class NegativeEntry(UtilrankError):
    """A probability matrix contains a negative entry."""


class DimensionMismatch(UtilrankError):
    """Matrix or vector dimensions do not agree."""


class ParseError(UtilrankError):
    """A data file could not be parsed."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class InvalidSpec(UtilrankError):
    """A scenario spec, engine config or option violates its invariants."""


class PriorRequired(UtilrankError):
    """IGHW was requested but no prior profile was supplied."""


# ---------------------------------------------------------------------------
# Weight derivation
# ---------------------------------------------------------------------------

class DegenerateAttribute(UtilrankError):
    """An attribute has zero variance across all alternatives."""

    def __init__(self, attribute_id: str):
        self.attribute_id = attribute_id
        super().__init__(
            f"attribute {attribute_id!r} has zero total variance; "
            "no weighting information"
        )


class AllZeroEntropy(UtilrankError):
    """Every attribute entropy is zero; ICW normalization is undefined."""


class ZeroPriorSupport(UtilrankError):
    """The prior assigns zero probability where the data does not."""

    def __init__(self, alternative_id: str, attribute_id: str):
        self.alternative_id = alternative_id
        self.attribute_id = attribute_id
        super().__init__(
            f"prior is zero at ({alternative_id}, {attribute_id}) where the "
            "data-driven probability is positive; set prior_smoothing_epsilon > 0 "
            "or fix the prior"
        )


class AllZeroDivergence(UtilrankError):
    """Every attribute divergence is zero (data matches the prior exactly)."""


class NegativeIgd(UtilrankError):
    """The information-gain-difference vector is not positive (strict mode)."""

    def __init__(self, values: tuple[float, ...]):
        self.values = values
        super().__init__(
            f"negative information-gain difference {values!r}; use the "
            "min_shift policy to resolve signs"
        )


# ---------------------------------------------------------------------------
# Reproduction harness
# ---------------------------------------------------------------------------

class ReproductionMismatch(UtilrankError):
    """A reproduced value departs from its published reference figure."""

    def __init__(self, table: str, cell: str, expected: float, actual: float):
        self.table = table
        self.cell = cell
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"table {table}, cell {cell}: expected {expected!r}, got {actual!r}"
        )


# ---------------------------------------------------------------------------
# Warnings
# ---------------------------------------------------------------------------

class UtilityRangeWarning(UserWarning):
    """Utilities fall outside the nominal [0, 1] range."""


class DegenerateAttributeWarning(UserWarning):
    """A degenerate attribute was assigned the uniform fallback distribution."""
