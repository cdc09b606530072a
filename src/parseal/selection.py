"""Best-subset model selection under a hard VIF cap.

The exhaustive search scores every subset of the screened dictionary up to
``max_subset_size`` columns, skipping any candidate whose design is rank
deficient or whose largest VIF reaches the cap (infeasibility is a value, not
an error).  The objective is the adjusted R^2 of the least-squares fit with
intercept; ties break toward the smaller subset and then the
lexicographically smaller tuple of canonical term keys, which makes the
result independent of term order.

Scoring route.  Adjusted R^2 and every VIF of a subset S depend only on the
correlation matrix C of the standardized screened columns and on c, their
inner products with the standardized response: R^2 = c_S' C_SS^-1 c_S and
VIF_j = diag(C_SS^-1)_j.  Both searches standardize once per search, form C
(by rows, as the subsets need them) and c, and score candidates of one size
in fixed-size chunks with batched Cholesky factorizations of the k x k
blocks, so the cost of a candidate does not grow with the row count.

Exact confirmation.  The QR scorer (pivoted QR for rank, ``vif`` for the
cap, the residual for R^2) stays the referee.  It decides every candidate
the correlation route cannot certify -- a failed factorization, a largest
VIF inside the rounding band around the cap, or a rank that the uncentered
Gram matrix does not certify -- and it rescores every certified candidate
whose objective lies within the rounding band of the best at its size.  So
each size's best, the winner, the (size, key-tuple) tie-break and every
reported number come from QR, and ``candidates_evaluated`` and
``feasible_candidates`` count exactly what the QR scorer would have counted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dictionary import (
    IDENTITY,
    Dictionary,
    Factor,
    TermExpr,
    _is_constant,
    canonical_key,
)
from .errors import (
    BudgetExceeded,
    InsufficientData,
    LengthMismatch,
    NoFeasibleSubset,
    NonFinite,
    PerfectCollinearity,
    ZeroVariance,
)
from .gram import FEASIBLE, REFEREE, GramScorer
from .linalg import DesignMatrix, _solve_from_factorization, qr_factorize
from .screening import ImportanceRule
from .stats import ModelFit, ols_fit, vif

# Candidates scored per batch.  At the default cap of 8 terms a chunk's
# (m, k, k) arrays take 128 kB each and its whole working set stays near
# 1 MB, small next to the dictionary the search runs beside.
_CHUNK = 256


@dataclass(frozen=True)
class SelectionConfig:
    """Pipeline knobs with their defaults.

    ``search_budget`` caps the number of candidate fits the exhaustive
    search may attempt; exceeding it is an error, not a silent downgrade.
    ``seed`` is only echoed into run reports; nothing random consumes it.
    """

    alpha: int = 2
    mixture_m: int = 2
    importance: ImportanceRule = field(default_factory=ImportanceRule)
    varsigma: float = 0.8
    vif_cap: float = 10.0
    max_subset_size: int = 8
    search_budget: int = 2**22
    search_mode: str = "exhaustive"
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.mixture_m < 1:
            raise ValueError(f"mixture_m must be >= 1, got {self.mixture_m}")
        if not (0.0 < self.varsigma < 1.0):
            raise ValueError(f"varsigma must lie in (0, 1), got {self.varsigma}")
        if not (math.isfinite(self.vif_cap) and self.vif_cap > 1.0):
            raise ValueError(f"vif_cap must be a finite number above 1, got {self.vif_cap}")
        if self.max_subset_size < 1:
            raise ValueError(f"max_subset_size must be >= 1, got {self.max_subset_size}")
        if self.search_budget < 1:
            raise ValueError(f"search_budget must be >= 1, got {self.search_budget}")
        if self.search_mode not in ("exhaustive", "greedy_forward"):
            raise ValueError(
                f"search_mode must be 'exhaustive' or 'greedy_forward', got {self.search_mode!r}"
            )


@dataclass(frozen=True)
class SelectedModel:
    terms: tuple
    fit: ModelFit
    objective: float
    candidates_evaluated: int
    feasible_candidates: int
    best_by_size: dict


def _check_y(y, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise LengthMismatch(f"response shape {y.shape} does not match {n} rows")
    if not np.all(np.isfinite(y)):
        raise NonFinite("response contains NaN or infinite entries")
    return y


def _make_scorer(columns: np.ndarray, y: np.ndarray, vif_cap: float, tss: float):
    """Return ``score(combo)``: the adjusted R^2, or None when infeasible.

    A candidate is infeasible when its design is rank deficient (pivoted QR)
    or perfectly collinear, or when its largest VIF is not strictly below
    ``vif_cap``.  A single predictor is always VIF-feasible.
    """
    n = columns.shape[0]

    def score(combo):
        design = DesignMatrix.with_intercept(columns[:, combo])
        fact = qr_factorize(design)
        if fact.rank < design.k:
            return None
        if len(combo) > 1:
            try:
                if not np.max(vif(design.predictors())) < vif_cap:
                    return None
            except (PerfectCollinearity, ZeroVariance):
                return None
        solution = _solve_from_factorization(fact, design, y)
        k = len(combo)
        r2 = 1.0 - solution.residual_sum_squares / tss
        return 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)

    return score


def _best_of_size(gram: GramScorer, score, combos, k: int):
    """Score same-size candidates given in search order.

    Returns ``(evaluated, feasible, best)`` where ``best`` is ``(combo,
    objective)`` for the first candidate attaining the largest QR objective,
    or None when no candidate is feasible.
    """
    evaluated = 0
    feasible = 0
    decided = []  # (position, combo, QR objective)
    contenders = []  # (position, combo, objective + bound), certified feasible
    floor = -math.inf  # largest certified objective minus its bound
    combos = iter(combos)
    while chunk := list(itertools.islice(combos, _CHUNK)):
        status, objective, bound = gram.evaluate(np.array(chunk, dtype=np.intp).reshape(-1, k))
        for j in np.flatnonzero(status == REFEREE):
            value = score(chunk[j])
            if value is not None:
                feasible += 1
                decided.append((evaluated + j, chunk[j], value))
        certified = status == FEASIBLE
        if certified.any():
            feasible += int(np.count_nonzero(certified))
            floor = max(floor, float(np.max((objective - bound)[certified])))
            upper = objective + bound
            contenders = [c for c in contenders if c[2] >= floor]
            contenders.extend(
                (evaluated + j, chunk[j], upper[j])
                for j in np.flatnonzero(certified & (upper >= floor))
            )
        evaluated += len(chunk)
    for position, combo, upper in contenders:
        if upper < floor:
            continue
        value = score(combo)
        if value is None:  # the QR scorer decides every candidate it sees
            feasible -= 1
        else:
            decided.append((position, combo, value))
    best = None
    for _, combo, value in sorted(decided):
        if best is None or value > best[1]:
            best = (combo, value)
    return evaluated, feasible, best


def _key_order(zr: Dictionary):
    keys = zr.keys()
    return sorted(range(len(zr)), key=lambda i: keys[i]), keys


def _finish(zr: Dictionary, y, combo, keys, vif_cap, counters, best_by_size) -> SelectedModel:
    design = DesignMatrix.with_intercept(zr.columns[:, combo])
    fit = ols_fit(design, y, term_labels=[keys[i] for i in combo])
    assert np.max(fit.vifs) < vif_cap, "selected model failed its own feasibility check"
    return SelectedModel(
        terms=tuple(zr.terms[i] for i in combo),
        fit=fit,
        objective=fit.r_squared_adj,
        candidates_evaluated=counters[0],
        feasible_candidates=counters[1],
        best_by_size=dict(sorted(best_by_size.items())),
    )


def _search_bounds(zr: Dictionary, y, cfg: SelectionConfig):
    n = zr.n
    if len(zr) == 0:
        raise NoFeasibleSubset("the screened dictionary is empty")
    y = _check_y(y, n)
    k_cap = min(cfg.max_subset_size, len(zr), n - 2)
    if k_cap < 1:
        raise InsufficientData(f"cannot fit any subset with n={n} rows")
    centered = y - y.mean()
    tss = float(centered @ centered)
    if tss == 0.0:
        raise ZeroVariance("response is constant")
    return y, k_cap, tss


def best_subset_search(zr: Dictionary, y, cfg: SelectionConfig) -> SelectedModel:
    """Exhaustive feasible-subset search maximizing adjusted R^2.

    Subsets are enumerated by size, then lexicographically by canonical term
    key; the first candidate attaining the best objective wins, which
    realizes the (size, key-tuple) tie-break exactly.

    Raises
    ------
    BudgetExceeded
        If the enumeration needs more fits than ``cfg.search_budget``.
    NoFeasibleSubset
        If no candidate passes the rank and VIF checks.
    """
    y, k_cap, tss = _search_bounds(zr, y, cfg)
    order, keys = _key_order(zr)
    required = sum(math.comb(len(zr), k) for k in range(1, k_cap + 1))
    if required > cfg.search_budget:
        raise BudgetExceeded(required, cfg.search_budget)

    score = _make_scorer(zr.columns, y, cfg.vif_cap, tss)
    gram = GramScorer(zr.columns, y, cfg.vif_cap, tss)
    if k_cap > 1:
        gram.cache(order)

    evaluated = 0
    feasible = 0
    best_obj = -math.inf
    best_combo = None
    best_by_size = {}
    for k in range(1, k_cap + 1):
        count, ok, best = _best_of_size(gram, score, itertools.combinations(order, k), k)
        evaluated += count
        feasible += ok
        if best is None:
            continue
        best_by_size[k] = best[1]
        if best[1] > best_obj:
            best_combo, best_obj = best
    if best_combo is None:
        raise NoFeasibleSubset(
            f"none of the {evaluated} candidate subsets passed the rank and VIF checks"
        )
    return _finish(zr, y, best_combo, keys, cfg.vif_cap, (evaluated, feasible), best_by_size)


def greedy_forward_search(zr: Dictionary, y, cfg: SelectionConfig) -> SelectedModel:
    """Greedy forward fallback for searches that exceed the exhaustive budget.

    Adds the feasible term that most improves adjusted R^2, stopping at the
    size cap or when no addition strictly improves the objective.  The result
    is approximate and is flagged as such in run reports.
    """
    y, k_cap, tss = _search_bounds(zr, y, cfg)
    order, keys = _key_order(zr)
    score = _make_scorer(zr.columns, y, cfg.vif_cap, tss)
    gram = GramScorer(zr.columns, y, cfg.vif_cap, tss)

    evaluated = 0
    feasible = 0
    current: tuple = ()
    current_obj = -math.inf
    best_by_size = {}
    while len(current) < k_cap:
        gram.cache(current)
        in_current = set(current)
        # Keep the design in canonical-key order as terms are added.
        combos = [
            tuple(sorted(current + (i,), key=lambda j: keys[j]))
            for i in order
            if i not in in_current
        ]
        count, ok, best = _best_of_size(gram, score, combos, len(current) + 1)
        evaluated += count
        feasible += ok
        if best is None or best[1] <= current_obj:
            break
        current, current_obj = best
        best_by_size[len(current)] = current_obj
    if not current:
        raise NoFeasibleSubset("no single term produced a feasible design")
    return _finish(zr, y, current, keys, cfg.vif_cap, (evaluated, feasible), best_by_size)


def baseline_best_subset(dataset, y, cfg: SelectionConfig) -> SelectedModel:
    """Best-subset search over the raw input columns (no transformations).

    Constant columns are excluded up front, exactly as the dictionary builder
    would exclude them.
    """
    columns = np.asarray(dataset.columns, dtype=np.float64)
    names = tuple(dataset.variable_names)
    usable = [i for i in range(columns.shape[1]) if not _is_constant(columns[:, i])]
    if not usable:
        raise ZeroVariance("every raw input column is constant")
    terms = [TermExpr((Factor(i, IDENTITY, Fraction(1)),)) for i in usable]
    keyed = sorted(zip((canonical_key(t) for t in terms), terms, usable))
    raw = Dictionary(
        terms=tuple(t for _, t, _ in keyed),
        columns=columns[:, [i for _, _, i in keyed]],
        source_labels=names,
        census=None,
    )
    return best_subset_search(raw, y, cfg)
