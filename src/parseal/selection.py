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
(by rows, as the subsets need them) and c, and score candidates in batches
of index arrays by prefix: a candidate extends the Cholesky factor of its
prefix, and the inverse of that factor, by one row (``gram``).  The
exhaustive search walks the lexicographic subset tree depth first; each
greedy step extends the current set by every remaining term.  So the cost of
a candidate grows neither with the row count nor with the cube of its size.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .dictionary import Dictionary, _raw_key
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
        object.__setattr__(self, "varsigma", float(self.varsigma))
        object.__setattr__(self, "vif_cap", float(self.vif_cap))


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


def _make_scorer(zr: Dictionary, y: np.ndarray, vif_cap: float, tss: float):
    """Return ``score(combo)``: the adjusted R^2, or None when infeasible.

    A candidate is infeasible when its design is rank deficient (pivoted QR)
    or perfectly collinear, or when its largest VIF is not strictly below
    ``vif_cap``.  A single predictor is always VIF-feasible.
    """

    def score(combo):
        design = DesignMatrix.with_intercept(zr.rows(combo).T)
        fact = qr_factorize(design)
        if fact.rank < design.k:
            return None
        if len(combo) > 1:
            try:
                if not np.max(vif(design.predictors())) < vif_cap:
                    return None
            except (PerfectCollinearity, ZeroVariance):
                return None
        _, residual = _solve_from_factorization(fact, design, y)
        k = len(combo)
        r2 = 1.0 - float(residual @ residual) / tss
        return 1.0 - (1.0 - r2) * (zr.n - 1) / (zr.n - k - 1)

    return score


class _Best:
    """The QR-confirmed best of one subset size, fed its candidates in search order."""

    def __init__(self, score):
        self.score = score
        self.evaluated = 0
        self.feasible = 0
        self.decided = []  # (position, combo, QR objective)
        self.contenders = []  # (position, combo, objective + bound), certified feasible
        self.floor = -math.inf  # largest certified objective minus its bound

    def add(self, batch, combo) -> None:
        """Take the next scored batch; ``combo(row)`` is a row's QR column tuple."""
        status, objective, bound = batch.status, batch.objective, batch.bound
        for j in np.flatnonzero(status == REFEREE):
            candidate = combo(j)
            value = self.score(candidate)
            if value is not None:
                self.feasible += 1
                self.decided.append((self.evaluated + j, candidate, value))
        certified = status == FEASIBLE
        if certified.any():
            self.feasible += int(np.count_nonzero(certified))
            self.floor = max(self.floor, float(np.max((objective - bound)[certified])))
            upper = objective + bound
            self.contenders = [c for c in self.contenders if c[2] >= self.floor]
            self.contenders.extend(
                (self.evaluated + j, combo(j), upper[j])
                for j in np.flatnonzero(certified & (upper >= self.floor))
            )
        self.evaluated += len(status)

    def result(self):
        """Return ``(evaluated, feasible, best)``.

        ``best`` is ``(combo, objective)`` for the first candidate attaining
        the largest QR objective, or None when no candidate is feasible.
        """
        for position, combo, _ in self.contenders:
            value = self.score(combo)
            if value is None:  # the QR scorer decides every candidate it sees
                self.feasible -= 1
            else:
                self.decided.append((position, combo, value))
        best = None
        for _, combo, value in sorted(self.decided):
            if best is None or value > best[1]:
                best = (combo, value)
        return self.evaluated, self.feasible, best


def _key_order(zr: Dictionary):
    keys = zr.keys()
    return sorted(range(len(zr)), key=lambda i: keys[i]), keys


def _finish(zr: Dictionary, y, combo, vif_cap, counters, best_by_size) -> SelectedModel:
    chosen = zr.subset(combo)
    fit = ols_fit(DesignMatrix.with_intercept(zr.rows(combo).T), y, term_labels=chosen.keys())
    assert np.max(fit.vifs) < vif_cap, "selected model failed its own feasibility check"
    return SelectedModel(
        terms=chosen.terms,
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
    order, _ = _key_order(zr)
    required = sum(math.comb(len(zr), k) for k in range(1, k_cap + 1))
    if required > cfg.search_budget:
        raise BudgetExceeded(required, cfg.search_budget)

    score = _make_scorer(zr, y, cfg.vif_cap, tss)
    gram = GramScorer(zr, y, cfg.vif_cap, tss)
    sizes = [_Best(score) for _ in range(k_cap)]
    for batch in gram.exhaustive(order, k_cap):
        sizes[len(batch.cols) - 1].add(batch, batch.combo)

    evaluated = 0
    feasible = 0
    best_obj = -math.inf
    best_combo = None
    best_by_size = {}
    for k, size in enumerate(sizes, start=1):
        count, ok, best = size.result()
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
    return _finish(zr, y, best_combo, cfg.vif_cap, (evaluated, feasible), best_by_size)


def greedy_forward_search(zr: Dictionary, y, cfg: SelectionConfig) -> SelectedModel:
    """Greedy forward fallback for searches that exceed the exhaustive budget.

    Adds the feasible term that most improves adjusted R^2, stopping at the
    size cap or when no addition strictly improves the objective.  The result
    is approximate and is flagged as such in run reports.
    """
    y, k_cap, tss = _search_bounds(zr, y, cfg)
    order, keys = _key_order(zr)
    score = _make_scorer(zr, y, cfg.vif_cap, tss)
    gram = GramScorer(zr, y, cfg.vif_cap, tss)

    evaluated = 0
    feasible = 0
    current: tuple = ()
    current_obj = -math.inf
    best_by_size = {}
    prefix = gram.root()  # the current terms, factored in the order they were added
    while len(current) < k_cap:
        in_current = set(current)
        step = _Best(score)
        for batch in gram.appended(prefix, [i for i in order if i not in in_current]):
            # The QR referee sees the design in canonical-key order.
            step.add(batch, lambda j: tuple(sorted(batch.combo(j), key=keys.__getitem__)))
        count, ok, best = step.result()
        evaluated += count
        feasible += ok
        if best is None or best[1] <= current_obj:
            break
        (added,) = set(best[0]) - in_current
        prefix = gram.grow(prefix, added)
        current, current_obj = best
        best_by_size[len(current)] = current_obj
    if not current:
        raise NoFeasibleSubset("no single term produced a feasible design")
    return _finish(zr, y, current, cfg.vif_cap, (evaluated, feasible), best_by_size)


def baseline_best_subset(z: Dictionary, y, cfg: SelectionConfig) -> SelectedModel:
    """Best-subset search over the raw input columns (no transformations).

    ``z`` is ``build_dictionary``'s result: its terms ``v{i}^1/1`` are the raw
    columns its census did not find constant, with their carried statistics.
    """
    if z.census is None:
        raise ValueError("the baseline needs the whole dictionary build_dictionary returns")
    raw = {_raw_key(i) for i in range(len(z.source_labels))}
    picks = [j for j, key in enumerate(z.keys()) if key in raw]
    if not picks:
        raise ZeroVariance("every raw input column is constant")
    return best_subset_search(z.subset(picks), y, cfg)
