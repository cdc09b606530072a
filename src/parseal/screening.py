"""Two-stage dictionary screening: importance, then pairwise redundancy.

Stage one keeps columns whose absolute correlation with the response clears
the importance limit delta (absolute, or relative to the best column).  Stage
two sweeps the survivors in decreasing order of that correlation and keeps a
candidate only if its absolute correlation with every already-kept column
stays at or below the independence limit varsigma, so a weaker near-duplicate
always loses to the stronger column that made it redundant.

Both filters emit subsequences of their input dictionary, as views that form
no rows: kept columns stay in dictionary order and every drop is recorded in
the report.  Each filter forms and centers its input's rows once, a block at
a time, and makes one ``pearson_correlation`` call per correlation, so the
importance filter never holds more than a block of the dictionary's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .errors import AllColumnsDropped, ZeroVariance
from .stats import center, center_rows, pearson_correlation


@dataclass(frozen=True)
class ImportanceRule:
    """Importance limit: ``absolute`` uses the value as-is, ``relative``
    multiplies it by the largest observed |correlation|."""

    mode: str = "relative"
    value: float = 0.5

    def __post_init__(self):
        if self.mode not in ("absolute", "relative"):
            raise ValueError(f"mode must be 'absolute' or 'relative', got {self.mode!r}")
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"importance value must lie in [0, 1], got {self.value}")


@dataclass(frozen=True)
class UnimportantDrop:
    term: object
    abs_corr: float
    reason: str = "below_threshold"


@dataclass(frozen=True)
class RedundantDrop:
    term: object
    winner: object
    abs_corr: float


@dataclass(frozen=True)
class ImportanceResult:
    dictionary: Dictionary
    dropped: tuple
    delta_effective: float
    max_abs_corr: float


@dataclass(frozen=True)
class RedundancyResult:
    dictionary: Dictionary
    dropped: tuple


@dataclass(frozen=True)
class ScreeningReport:
    """Combined record of both stages for one pipeline run."""

    kept: tuple
    dropped_unimportant: tuple
    dropped_redundant: tuple
    delta_effective: float
    max_abs_corr: float
    varsigma: float


def _centered_columns(z: Dictionary):
    """A CenteredColumn of every column of ``z``, in order, centered a block at a time."""
    for _, block in z.blocks():
        yield from center_rows(block)


def _abs_corr(column, yc):
    """|corr(column, y)|; None marks an undefined or non-finite correlation."""
    try:
        r = pearson_correlation(column, yc)
    except ZeroVariance:
        return None
    return abs(r) if math.isfinite(r) else None


def importance_filter(z: Dictionary, y: np.ndarray, rule: ImportanceRule) -> ImportanceResult:
    """Keep columns whose |corr(z_j, y)| clears the importance limit.

    Column order is preserved.  Columns with undefined correlation (constant
    data that slipped through, or a scale that overflows) are dropped with a
    logged reason rather than killing the run.

    Raises
    ------
    AllColumnsDropped
        If nothing survives; carries the largest observed |correlation|.
    ZeroVariance
        If the response itself is constant.
    """
    if len(z) == 0:
        raise AllColumnsDropped(0.0)
    y = np.asarray(y, dtype=np.float64)
    if float(np.std(y)) == 0.0:
        raise ZeroVariance("response is constant; correlations are undefined")
    yc = center(y, "response")
    corrs = [_abs_corr(column, yc) for column in _centered_columns(z)]
    finite = [c for c in corrs if c is not None]
    max_abs = max(finite) if finite else 0.0
    threshold = rule.value if rule.mode == "absolute" else rule.value * max_abs

    kept_idx = []
    dropped = []
    for i, c in enumerate(corrs):
        if c is None:
            dropped.append(UnimportantDrop(z.terms[i], float("nan"), "non_finite_correlation"))
        elif c >= threshold:
            kept_idx.append(i)
        else:
            dropped.append(UnimportantDrop(z.terms[i], c))
    if not kept_idx:
        raise AllColumnsDropped(max_abs)
    return ImportanceResult(
        dictionary=z.subset(kept_idx),
        dropped=tuple(dropped),
        delta_effective=threshold,
        max_abs_corr=max_abs,
    )


def redundancy_filter(z1: Dictionary, y: np.ndarray, varsigma: float) -> RedundancyResult:
    """Greedy pairwise-redundancy sweep at independence limit ``varsigma``.

    Candidates are ranked by |corr(z_j, y)| descending (ties on the canonical
    key, ascending) and kept iff their |corr| with every already-kept column
    is <= varsigma; a pair whose correlation is undefined (NaN) eliminates
    nothing.  Each drop records the kept column that eliminated it.  The
    returned dictionary lists survivors in their original order.
    """
    if not (0.0 < varsigma < 1.0):
        raise ValueError(f"varsigma must lie in (0, 1), got {varsigma}")
    if len(z1) == 0:
        raise AllColumnsDropped(0.0)
    y = np.asarray(y, dtype=np.float64)
    yc = center(y, "response")
    centered = list(_centered_columns(z1))
    corrs = [_abs_corr(column, yc) for column in centered]
    keys = z1.keys()
    order = sorted(
        range(len(z1)),
        key=lambda i: (-(corrs[i] if corrs[i] is not None else -1.0), keys[i]),
    )

    kept = []  # indices in sweep order
    dropped = []
    for i in order:
        eliminated_by = None
        pairwise = 0.0
        for j in kept:
            r = abs(pearson_correlation(centered[i], centered[j]))
            if r > varsigma:
                eliminated_by = j
                pairwise = r
                break
        if eliminated_by is None:
            kept.append(i)
        else:
            dropped.append(RedundantDrop(z1.terms[i], z1.terms[eliminated_by], pairwise))
    return RedundancyResult(dictionary=z1.subset(sorted(kept)), dropped=tuple(dropped))


def screen(z: Dictionary, y: np.ndarray, rule: ImportanceRule, varsigma: float):
    """Run both stages and assemble the combined report."""
    importance = importance_filter(z, y, rule)
    redundancy = redundancy_filter(importance.dictionary, y, varsigma)
    report = ScreeningReport(
        kept=redundancy.dictionary.terms,
        dropped_unimportant=importance.dropped,
        dropped_redundant=redundancy.dropped,
        delta_effective=importance.delta_effective,
        max_abs_corr=importance.max_abs_corr,
        varsigma=varsigma,
    )
    return redundancy.dictionary, report
