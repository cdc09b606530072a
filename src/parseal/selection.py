"""Best-subset model selection under a hard VIF cap.

The exhaustive search scores every subset of the screened dictionary up to
``max_subset_size`` columns, skipping any candidate whose design is rank
deficient or whose largest VIF reaches the cap (infeasibility is a value, not
an error).  The objective is the adjusted R^2 of the least-squares fit with
intercept; ties break toward the smaller subset and then the
lexicographically smaller tuple of canonical term keys, which makes the
result independent of term order.
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
from .linalg import DesignMatrix, _solve_from_factorization, qr_factorize
from .screening import ImportanceRule
from .stats import ModelFit, ols_fit, vif


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
        if not self.vif_cap > 1.0:
            raise ValueError(f"vif_cap must exceed 1, got {self.vif_cap}")
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


def subset_feasible(design: DesignMatrix, vif_cap: float):
    """Rank check first, then the VIF cap.

    Returns ``(feasible, vifs)``; ``vifs`` is None when the design is rank
    deficient or perfectly collinear, else the VIF vector of the predictor
    columns.  Single-predictor designs are always VIF-feasible.
    """
    return _feasibility_from(qr_factorize(design), design, vif_cap)


def _feasibility_from(fact, design: DesignMatrix, vif_cap: float):
    if fact.rank < design.k:
        return False, None
    predictors = design.predictors()
    if predictors.shape[1] == 1:
        vifs = np.array([1.0])
    else:
        try:
            vifs = vif(predictors)
        except (PerfectCollinearity, ZeroVariance):
            return False, None
    return bool(np.max(vifs) < vif_cap), vifs


def _check_y(y, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise LengthMismatch(f"response shape {y.shape} does not match {n} rows")
    if not np.all(np.isfinite(y)):
        raise NonFinite("response contains NaN or infinite entries")
    return y


def _make_scorer(columns: np.ndarray, y: np.ndarray, vif_cap: float, tss: float):
    """Return ``score(combo)``: the adjusted R^2, or None when infeasible."""
    n = columns.shape[0]

    def score(combo):
        design = DesignMatrix.with_intercept(columns[:, combo])
        fact = qr_factorize(design)
        feasible, _ = _feasibility_from(fact, design, vif_cap)
        if not feasible:
            return None
        solution = _solve_from_factorization(fact, design, y)
        k = len(combo)
        r2 = 1.0 - solution.residual_sum_squares / tss
        return 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)

    return score


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

    evaluated = 0
    feasible = 0
    best_obj = -math.inf
    best_combo = None
    best_by_size = {}
    for k in range(1, k_cap + 1):
        for combo in itertools.combinations(order, k):
            evaluated += 1
            objective = score(combo)
            if objective is None:
                continue
            feasible += 1
            if k not in best_by_size or objective > best_by_size[k]:
                best_by_size[k] = objective
            if objective > best_obj:
                best_obj = objective
                best_combo = combo
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

    evaluated = 0
    feasible = 0
    current: tuple = ()
    current_obj = -math.inf
    best_by_size = {}
    while len(current) < k_cap:
        in_current = set(current)
        step_best = None
        step_obj = -math.inf
        for i in order:
            if i in in_current:
                continue
            # Keep the design in canonical-key order as terms are added.
            combo = tuple(sorted(current + (i,), key=lambda j: keys[j]))
            evaluated += 1
            objective = score(combo)
            if objective is None:
                continue
            feasible += 1
            if objective > step_obj:
                step_obj = objective
                step_best = combo
        if step_best is None or step_obj <= current_obj:
            break
        current = step_best
        current_obj = step_obj
        best_by_size[len(current)] = step_obj
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
