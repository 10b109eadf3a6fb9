"""Error and warning types shared across the package.

Every failure that bad input or data causes derives from
:class:`UtilrankError`, every warning utilrank emits from
:class:`UtilrankWarning`. A caller that passes a bad argument straight
to a constructor or kernel gets a :class:`ValueError` instead:
``EngineConfig`` (a log base, smoothing epsilon or rounding out of
range), ``MomentMatrices`` (a negative variance), ``prng.normal_ppf`` (a
probability outside (0, 1)) and ``emit_report`` (an unknown format).
The file readers and the CLI turn bad settings into ``InvalidSpec``.
The CLI maps exception families to exit codes: input/validation problems
exit 2, reference-reproduction mismatches exit 3, I/O failures exit 4.
A report records a method's failure and each warning as a
:class:`Diagnostic`. Errors and warnings are built the same way: a
message and keyword fields, which become the diagnostic's attributes
and its ``fields``.
"""

from __future__ import annotations

import copyreg
from dataclasses import dataclass


class UtilrankError(Exception):
    """Base class for all errors raised by this package.

    Keyword arguments become the error's attributes, the ``fields`` of
    its :class:`Diagnostic`.
    """

    def __init__(self, message: str = "", **fields):
        super().__init__(message)
        self.__dict__.update(fields)

    def __reduce__(self):
        """Pickle as the class, the message and the fields, rebuilt without the subclass's ``__init__``."""
        return copyreg.__newobj__, (type(self), *self.args), vars(self)


def show_name(name: str) -> str:
    """A name as a message shows it: as it is if printable, else as its ``repr``.

    A line break or other control character in a name then cannot split
    or garble the one-line error the CLI prints.
    """
    return name if name.isprintable() else repr(name)


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
        super().__init__(
            f"duplicate sample for ({show_name(alternative_id)}, {show_name(attribute_id)}, "
            f"{show_name(situation_id)})",
            alternative_id=alternative_id, attribute_id=attribute_id, situation_id=situation_id,
        )


class InsufficientSamples(UtilrankError):
    """An (alternative, attribute) pair has fewer than 2 samples.

    The unbiased variance needs at least two observations per pair; a
    count of zero means the pair is missing from the input entirely.
    """

    def __init__(self, alternative_id: str, attribute_id: str, count: int):
        super().__init__(
            f"pair ({show_name(alternative_id)}, {show_name(attribute_id)}) has {count} "
            "sample(s); need at least 2",
            alternative_id=alternative_id, attribute_id=attribute_id, count=count,
        )


class NonFiniteUtility(UtilrankError):
    """A utility value is NaN or infinite."""

    def __init__(self, alternative_id: str, attribute_id: str, situation_id: str,
                 line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(
            f"non-finite utility for ({show_name(alternative_id)}, {show_name(attribute_id)}, "
            f"{show_name(situation_id)}){where}",
            alternative_id=alternative_id, attribute_id=attribute_id, situation_id=situation_id,
            line=line,
        )


class ColumnNotNormalized(UtilrankError):
    """A per-attribute probability column does not sum to 1."""

    def __init__(self, attribute_id: str, total: float):
        super().__init__(f"column for attribute {attribute_id!r} sums to {total!r}, not 1",
                         attribute_id=attribute_id, total=total)


class NegativeEntry(UtilrankError):
    """A probability matrix contains a negative entry."""


class DimensionMismatch(UtilrankError):
    """Matrix or vector dimensions do not agree."""


class ParseError(UtilrankError):
    """A data file could not be parsed."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}", line=line, reason=reason)


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
        super().__init__(
            f"attribute {attribute_id!r} has zero total variance; no weighting information",
            attribute_id=attribute_id,
        )


class AllZeroEntropy(UtilrankError):
    """Every attribute entropy is zero; ICW normalization is undefined."""


class ZeroPriorSupport(UtilrankError):
    """The prior assigns zero probability where the data does not."""

    def __init__(self, alternative_id: str, attribute_id: str):
        super().__init__(
            f"prior is zero at ({show_name(alternative_id)}, {show_name(attribute_id)}) where the "
            "data-driven probability is positive; set prior_smoothing_epsilon > 0 "
            "or fix the prior",
            alternative_id=alternative_id, attribute_id=attribute_id,
        )


class AllZeroDivergence(UtilrankError):
    """Every attribute divergence is zero (data matches the prior exactly)."""


class ScoreOutOfRange(UtilrankError):
    """A derived score or weight escapes its mathematical range."""


class NegativeIgd(UtilrankError):
    """The information-gain-difference vector is not positive (strict mode)."""

    def __init__(self, values: tuple[float, ...]):
        super().__init__(
            f"negative information-gain difference {values!r}; use the "
            "min_shift policy to resolve signs",
            values=values,
        )


# ---------------------------------------------------------------------------
# Reproduction harness
# ---------------------------------------------------------------------------

class ReproductionMismatch(UtilrankError):
    """Reproduced values depart from their published reference figures.

    ``departures`` holds every departing figure as a (table, cell,
    expected, actual) tuple, in reference order; ``table``, ``cell``,
    ``expected`` and ``actual`` are the first one's.
    """

    def __init__(self, departures: tuple[tuple[str, str, float, float], ...]):
        table, cell, expected, actual = departures[0]
        more = f" (and {len(departures) - 1} more)" if len(departures) > 1 else ""
        super().__init__(
            f"table {table}, cell {cell}: expected {expected!r}, got {actual!r}{more}",
            departures=departures, table=table, cell=cell, expected=expected, actual=actual,
        )


# ---------------------------------------------------------------------------
# Warnings
# ---------------------------------------------------------------------------

class UtilrankWarning(UserWarning):
    """Base class for the warnings this package emits.

    Keyword arguments become the warning's attributes, the ``fields`` of
    its :class:`Diagnostic`.
    """

    def __init__(self, message: str, **fields):
        super().__init__(message)
        self.__dict__.update(fields)


class UtilityRangeWarning(UtilrankWarning):
    """Utilities fall outside the nominal [0, 1] range."""


class DegenerateAttributeWarning(UtilrankWarning):
    """A degenerate attribute was assigned the uniform fallback distribution."""


# ---------------------------------------------------------------------------
# Diagnostics as data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagnostic:
    """A failure or warning as a report records it.

    ``type`` is the exception or warning class name, ``message`` its text
    and ``fields`` the keywords it was built with, such as
    ``ZeroPriorSupport.alternative_id`` or ``NegativeIgd.values``.
    """

    type: str
    message: str
    fields: dict

    @classmethod
    def of(cls, raised: Exception) -> "Diagnostic":
        return cls(type(raised).__name__, str(raised), dict(vars(raised)))

    def __str__(self) -> str:
        return f"{self.type}: {self.message}"
