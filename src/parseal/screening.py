"""Two-stage dictionary screening: importance, then pairwise redundancy.

Stage one keeps columns whose absolute correlation with the response clears
the importance limit delta (absolute, or relative to the best column).  Stage
two sweeps the survivors in decreasing order of that correlation and keeps a
candidate only if its absolute correlation with every already-kept column
stays at or below the independence limit varsigma, so a weaker near-duplicate
always loses to the stronger column that made it redundant.

Both filters emit subsequences of their input dictionary, as views that form
no rows: kept columns stay in dictionary order and every drop is recorded in
the report as ``Records``, one list per field, with each term as its
canonical key, so no ``TermExpr`` is made to log a drop.  Each
|corr(z_j, y)| comes from the centered row's norm and response product, the
dot products ``pearson_correlation`` would take, with no call per
correlation.  A built dictionary carries them and the row means from the
builder's one pass over its rows, so importance forms no row; a dictionary
made from a matrix, or another response, takes them in that same pass.  The
redundancy sweep forms candidates a block at a time, in sweep order, centers
them with those means and holds only the kept rows.  One stacked product
scores a block against every kept row; ``pearson_correlation`` decides only
the pairs it cannot certify below varsigma by its rounding bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import _HUGE, _TINY, Dictionary
from .errors import AllColumnsDropped, LengthMismatch, ZeroVariance
from .gram import _U, _gamma, _row_pass
from .stats import CenteredColumn, center, pearson_correlation


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
        object.__setattr__(self, "value", float(self.value))


class Records:
    """Flat records kept as one list per field, with no dict per record.

    It reads, and compares equal, as the list of dicts it stands for;
    ``pipeline.json_text`` writes it from its columns.
    """

    def __init__(self, names, *columns):
        self.names = names
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return (dict(zip(self.names, values)) for values in zip(*self.columns))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [dict(zip(self.names, values)) for values in zip(*(c[i] for c in self.columns))]
        return dict(zip(self.names, [column[i] for column in self.columns]))

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, Records) else other)

    def __repr__(self) -> str:
        return f"Records({self.names!r}, {len(self)} rows)"


def _reasons(corrs: np.ndarray) -> list:
    """The reason of each importance drop with these |corr| values."""
    reasons = ["below_threshold"] * len(corrs)
    for i in np.flatnonzero(np.isnan(corrs)).tolist():
        reasons[i] = "non_finite_correlation"
    return reasons


@dataclass(frozen=True)
class ImportanceResult:
    """The kept view, and the drops as (term, abs_corr, reason) records;
    an undefined |corr| is None, with reason ``non_finite_correlation``."""

    dictionary: Dictionary
    dropped: Records
    delta_effective: float
    max_abs_corr: float
    correlations: int  # one per term
    referee_calls: int  # pearson_correlation calls


@dataclass(frozen=True)
class RedundancyResult:
    """The kept view, and the drops as (term, winner, abs_corr) records."""

    dictionary: Dictionary
    dropped: Records
    correlations: int  # one per survivor, and each pair up to its eliminator
    referee_calls: int


@dataclass(frozen=True)
class ScreeningReport:
    """Combined record of both stages for one pipeline run."""

    kept: tuple
    dropped_unimportant: Records
    dropped_redundant: Records
    delta_effective: float
    max_abs_corr: float
    varsigma: float
    correlations: int  # both stages; not in the JSON report
    referee_calls: int


# The sweep certifies that a pair eliminates nothing when its |corr| from the
# block's stacked product lies below varsigma - band.  The referee divides a
# ddot of the same two rows by the same norm product S.  A length-n inner
# product errs by at most gamma(n) ||a|| ||b|| in any summation order (Higham,
# ASNA 2nd ed., eq. 3.5), and each computed norm by gamma(n) / 2 + u relative,
# so the quotients differ by at most 2 gamma(n) (1 + gamma(n + 4)); the
# divides, the clip and varsigma - band add 4 u, and 4 u more cover underflow.
# Rows with a norm outside [_TINY, _HUGE], whose dots may over- or underflow,
# always go to the referee.


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _abs_corrs(z: Dictionary, y: np.ndarray):
    """``z.row_statistics(y)``'s means and norms, and each row's |corr| with ``y``,
    with the referee's bits.  NaN marks a correlation the referee leaves
    undefined (a norm product outside (0, inf)); a NaN quotient clips to -1,
    as ``min(1, max(-1, nan))`` does.
    """
    y = np.asarray(y, dtype=np.float64)
    yc = center(y, "response")
    if z.n != yc.values.shape[0]:
        raise LengthMismatch(f"vectors have lengths {z.n} and {yc.values.shape[0]}")
    means, norms, products = z.row_statistics(y)
    scale = norms * yc.norm
    r = products / scale
    r = np.abs(np.where(np.isnan(r), -1.0, np.clip(r, -1.0, 1.0)))
    r[~((scale > 0.0) & (scale < math.inf))] = math.nan
    return means, norms, r


@np.errstate(invalid="ignore")  # NaN marks an undefined |corr|
def importance_filter(z: Dictionary, y: np.ndarray, rule: ImportanceRule) -> ImportanceResult:
    """Keep columns whose |corr(z_j, y)| clears the importance limit.

    Column order is preserved.  Columns with undefined correlation (constant
    data that slipped through, or a scale that overflows) are dropped with a
    logged reason rather than killing the run.

    Raises
    ------
    AllColumnsDropped
        If nothing is given or nothing survives; carries the largest |corr| seen.
    ZeroVariance
        If the response itself is constant.
    """
    if len(z) == 0:
        raise AllColumnsDropped(0.0, "importance screening was given no column")
    y = np.asarray(y, dtype=np.float64)
    if float(np.std(y)) == 0.0:
        raise ZeroVariance("response is constant; correlations are undefined")
    _, _, corrs = _abs_corrs(z, y)
    max_abs = float(corrs[~np.isnan(corrs)].max(initial=0.0))
    threshold = rule.value if rule.mode == "absolute" else rule.value * max_abs

    kept = corrs >= threshold
    if not kept.any():
        raise AllColumnsDropped(max_abs)
    cut = corrs[~kept]
    dropped = Records(
        ("term", "abs_corr", "reason"),
        z.subset(np.flatnonzero(~kept)).keys(),
        np.where(np.isnan(cut), None, cut).tolist(),
        _reasons(cut),
    )
    return ImportanceResult(
        dictionary=z.subset(np.flatnonzero(kept)),
        dropped=dropped,
        delta_effective=threshold,
        max_abs_corr=max_abs,
        correlations=len(z),
        referee_calls=0,
    )


def redundancy_filter(z1: Dictionary, y: np.ndarray, varsigma: float) -> RedundancyResult:
    """Greedy pairwise-redundancy sweep at independence limit ``varsigma``.

    Candidates are ranked by |corr(z_j, y)| descending (ties on the canonical
    key, ascending) and kept iff their |corr| with every already-kept column
    is <= varsigma; a pair whose correlation is undefined (NaN) eliminates
    nothing.  Each drop records the kept column that eliminated it, with the
    exact |corr| of ``pearson_correlation``.  The returned dictionary lists
    survivors in their original order.

    Raises
    ------
    ZeroVariance
        If the response itself is constant.
    """
    if not (0.0 < varsigma < 1.0):
        raise ValueError(f"varsigma must lie in (0, 1), got {varsigma}")
    if len(z1) == 0:
        raise AllColumnsDropped(0.0, "redundancy screening was given no column")
    if float(np.std(y)) == 0.0:
        raise ZeroVariance("response is constant; correlations are undefined")
    means, norms, corrs = _abs_corrs(z1, y)
    rank = np.nan_to_num(corrs, nan=-1.0).tolist()
    keys = z1.keys()
    order = np.array(sorted(range(len(z1)), key=lambda i: (-rank[i], keys[i])))

    limit = varsigma - (2.0 * _gamma(z1.n) * (1.0 + _gamma(z1.n + 4)) + 8.0 * _U)
    # A NaN norm sends every pair with its row to the referee.
    fast_norms = np.where((norms >= _TINY) & (norms <= _HUGE), norms, math.nan)
    norms = norms.tolist()
    kept = []  # indices in sweep order
    kept_rows = np.empty((0, z1.n))  # their rows, then a block's; no view outlives a line
    losers, winners, drop_corrs = [], [], []
    correlations = len(z1)
    referee_calls = 0
    with _row_pass():
        for index, block in z1.subset(order).blocks():
            swept = order[index].tolist()
            t = len(kept)
            # The block's rows, centered with center's bits, go after the kept ones.
            kept_rows.resize((t + len(block), z1.n), refcheck=False)
            np.subtract(block, means[swept][:, None], out=kept_rows[t:])
            # |corr| of each candidate with every kept row and every row of its
            # block, from one stacked matrix-vector product; ROADMAP item 4 says why no GEMM.
            scores = np.abs(kept_rows[t:, None] @ kept_rows.T)[:, 0]
            scores /= fast_norms[swept][:, None] * fast_norms[kept + swept]
            # Uncertified pairs: a candidate's with earlier rows, in order, and in-block.
            rows, positions = np.nonzero(~(scores[:, :t] < limit))
            ends = np.searchsorted(rows, np.arange(len(block) + 1)).tolist()
            positions = positions.tolist()
            near = (~(scores[:, t:] < limit)).tolist()
            here = []  # the block's rows kept so far
            for j, i in enumerate(swept):
                suspects = positions[ends[j]:ends[j + 1]]
                suspects += [t + q for q, h in enumerate(here) if near[j][h]]
                for position in suspects:
                    referee_calls += 1
                    try:
                        r = abs(pearson_correlation(
                            CenteredColumn(kept_rows[t + j], norms[i]),
                            CenteredColumn(kept_rows[position], norms[kept[position]]),
                        ))
                    except ZeroVariance:  # undefined: eliminates nothing
                        continue
                    if r > varsigma:
                        correlations += position + 1
                        losers.append(keys[i])
                        winners.append(keys[kept[position]])
                        drop_corrs.append(r)
                        break
                else:
                    correlations += len(kept)
                    kept_rows[len(kept)] = kept_rows[t + j]  # no later candidate's row
                    kept.append(i)
                    here.append(j)
    return RedundancyResult(
        dictionary=z1.subset(sorted(kept)),
        dropped=Records(("term", "winner", "abs_corr"), losers, winners, drop_corrs),
        correlations=correlations,
        referee_calls=referee_calls,
    )


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
        correlations=importance.correlations + redundancy.correlations,
        referee_calls=importance.referee_calls + redundancy.referee_calls,
    )
    return redundancy.dictionary, report
