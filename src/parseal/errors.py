"""Exception types shared across the package.

Every error raised on purpose derives from :class:`ParsealError`, so callers
(and the CLI) can distinguish data/feasibility problems from genuine bugs.
"""

from __future__ import annotations


class ParsealError(Exception):
    """Base class for all errors raised by this package.

    ``stage`` is filled in by the pipeline driver so that a CLI user can see
    which step rejected the input (dictionary, screening, selection, ...).
    """

    stage: str | None = None


class NonFinite(ParsealError):
    """A NaN or infinity showed up where only finite reals are allowed."""

    def __init__(self, message: str, row: int | None = None, col: str | int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class EmptyMatrix(ParsealError):
    """A matrix with zero rows or zero columns was passed to a solver."""


class RankDeficient(ParsealError):
    """The design matrix does not have full column rank."""

    def __init__(self, rank: int, message: str | None = None):
        super().__init__(message or f"design matrix is rank deficient (detected rank {rank})")
        self.rank = rank


class InsufficientData(ParsealError):
    """Too few observations for the requested fit."""


class ZeroVariance(ParsealError):
    """A column (or the response) is constant, so the statistic is undefined."""


class LengthMismatch(ParsealError):
    """Two vectors that must be paired row-by-row have different lengths."""


class PerfectCollinearity(ParsealError):
    """An auxiliary regression fit its target (numerically) exactly."""


class InvalidDf(ParsealError):
    """Degrees of freedom must be a positive integer."""


class DomainViolation(ParsealError):
    """A transformation was evaluated outside its admissible domain."""

    def __init__(self, message: str, row: int | None = None, factor=None):
        super().__init__(message)
        self.row = row
        self.factor = factor


class DictionaryTooLarge(ParsealError):
    """The requested dictionary would exceed the configured term budget."""

    def __init__(self, count: int, budget: int):
        super().__init__(
            f"dictionary would contain {count} terms, exceeding the budget of {budget}; "
            "reduce alpha or the mixture order"
        )
        self.count = count
        self.budget = budget


class AllColumnsDropped(ParsealError):
    """Screening removed every candidate column."""

    def __init__(self, max_abs_corr: float, message: str | None = None):
        super().__init__(
            message
            or f"importance screening dropped every column "
            f"(largest observed |correlation| with the response was {max_abs_corr:.6g})"
        )
        self.max_abs_corr = max_abs_corr


class BudgetExceeded(ParsealError):
    """Exhaustive search would need more candidate fits than the budget allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"exhaustive search requires {required} candidate fits but the budget is {budget}; "
            "switch to greedy_forward search or lower max_subset_size"
        )
        self.required = required
        self.budget = budget


class NoFeasibleSubset(ParsealError):
    """No candidate subset passed the rank and VIF feasibility checks."""


class ParseError(ParsealError):
    """A CSV cell or row could not be parsed."""

    def __init__(self, message: str, row: int | None = None, col: str | int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class MissingResponse(ParsealError):
    """The named response column is absent from the CSV header."""


class DuplicateHeader(ParsealError):
    """Two CSV header fields carry the same name."""
