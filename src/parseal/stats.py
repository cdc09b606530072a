"""Ordinary-least-squares inference, VIF, and correlation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyMatrix,
    InsufficientData,
    InvalidDf,
    LengthMismatch,
    NonFinite,
    PerfectCollinearity,
    RankDeficient,
    ZeroVariance,
)
from .linalg import DesignMatrix, _call, _lapack, _solve_from_factorization, _solve_upper, qr_factorize

# An auxiliary regression with R^2 at or above this level is treated as
# perfectly collinear (VIF >= 1e12).
_COLLINEARITY_R2 = 1.0 - 1e-12

# Two-sided p-values below this are clamped to zero; the reports render them
# as the string "<1e-300" rather than pretending to more precision.
P_VALUE_FLOOR = 1e-300


@dataclass(frozen=True)
class ModelFit:
    """Full inference record for one least-squares fit.

    All coefficient-indexed vectors have length k+1 with the intercept first;
    ``vifs`` covers the k predictors only.
    """

    term_labels: tuple
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    vifs: np.ndarray
    r_squared: float
    r_squared_adj: float
    rmse: float
    residuals: np.ndarray
    n_obs: int


def _as_finite_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise LengthMismatch(f"{name} must be 1-d, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFinite(f"{name} contains NaN or infinite entries")
    return v


@dataclass(frozen=True)
class CenteredColumn:
    """A vector minus its mean, and the Euclidean norm of the result.

    Made by ``center``; ``pearson_correlation`` takes one in place of the
    raw vector, so a column correlated many times is validated and centered
    once.
    """

    values: np.ndarray
    norm: float


def center(a, name: str = "vector") -> CenteredColumn:
    """Center a finite vector with the operations ``pearson_correlation`` uses.

    Raises ``NonFinite`` for NaN or infinite entries and ``InsufficientData``
    for fewer than two of them.
    """
    v = _as_finite_vector(a, name)
    if v.shape[0] < 2:
        raise InsufficientData("correlation needs at least two observations")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = v - v.mean()
        return CenteredColumn(centered, math.sqrt(float(centered.dot(centered))))


def pearson_correlation(a, b) -> float:
    """Sample Pearson correlation of two equally long vectors.

    Either argument may be a ``CenteredColumn`` from ``center`` instead of
    the raw vector; the result is the same to the last bit, and a call on two
    centered columns costs one dot product and one divide.

    Raises ``ZeroVariance`` when either input is constant and
    ``LengthMismatch`` when the lengths differ.  Returns NaN when the product
    of the two centered norms over- or underflows, so no correlation is made
    up from an infinite or zero scale.  Otherwise the result is clipped into
    [-1, 1] to absorb last-bit rounding.
    """
    a = a if isinstance(a, CenteredColumn) else center(a, "first vector")
    b = b if isinstance(b, CenteredColumn) else center(b, "second vector")
    if a.values.shape[0] != b.values.shape[0]:
        raise LengthMismatch(
            f"vectors have lengths {a.values.shape[0]} and {b.values.shape[0]}"
        )
    if a.norm == 0.0 or b.norm == 0.0:
        raise ZeroVariance("correlation is undefined for a constant vector")
    scale = a.norm * b.norm
    if not 0.0 < scale < math.inf:
        return math.nan
    r = float(a.values.dot(b.values)) / scale
    return min(1.0, max(-1.0, r))


def vif(columns) -> np.ndarray:
    """Variance inflation factors of predictor columns.

    For column j, ``vif_j = 1 / (1 - R_j^2)`` where ``R_j^2`` comes from
    regressing column j (with an intercept) on all the other columns (also
    with an intercept).  With the intercept absorbed this is exactly the
    j-th diagonal of the inverse correlation matrix, which is how the value
    is computed here; the auxiliary-regression form is kept as the test
    oracle.

    Parameters
    ----------
    columns : ndarray, shape (n, k)
        Finite, non-constant predictor columns (no intercept).

    Returns
    -------
    ndarray, shape (k,)
        One factor per column; ``[1.0]`` when k == 1.

    Raises
    ------
    PerfectCollinearity
        If any auxiliary R_j^2 reaches 1 - 1e-12.
    """
    x = np.asarray(columns, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.size == 0:
        raise EmptyMatrix("vif needs at least one column")
    if not np.all(np.isfinite(x)):
        raise NonFinite("vif input contains NaN or infinite entries")
    n, k = x.shape
    if k == 1:
        return np.array([1.0])
    if n < 2:
        raise InsufficientData("vif needs at least two observations")
    # Scale each column by an exact power of two that brings its largest
    # magnitude into [0.5, 1).  Every later step commutes with that scale, so
    # the factors keep their bits for in-range columns, and the squares below
    # can no longer overflow or underflow at extreme units.
    _, exponents = np.frexp(np.max(np.abs(x), axis=0))
    x = np.ldexp(x, -exponents)
    centered = x - x.mean(axis=0)
    norms = np.sqrt(np.sum(centered * centered, axis=0))
    if np.any(norms == 0.0):
        raise ZeroVariance("vif is undefined for a constant column")
    scaled = centered / norms
    corr = scaled.T @ scaled
    # cho_factor and cho_solve, finiteness unchecked; info > 0 is cho_factor's LinAlgError.
    cho, info = _call(_lapack().dpotrf, corr, lower=False, clean=False)
    if info > 0:
        raise PerfectCollinearity(
            "predictor correlation matrix is singular (exactly collinear columns)"
        )
    inv = _call(_lapack().dpotrs, cho, np.eye(k), lower=False)[0]
    factors = np.diag(inv).copy()
    worst = int(np.argmax(factors))
    if factors[worst] * (1.0 - _COLLINEARITY_R2) >= 1.0:
        raise PerfectCollinearity(
            f"auxiliary regression for column {worst} has R^2 >= 1 - 1e-12 "
            f"(vif {factors[worst]:.3g})"
        )
    return factors


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    eps =  1e-15
    fpmin = 1e-300
    max_iter = 500
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    return h  # converged to working precision in practice long before this


def _betai(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) to ~1e-12 target accuracy."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def p_value_two_sided(t: float, df: int) -> float:
    """Two-sided Student-t tail probability via the incomplete beta.

    ``p = I_x(df/2, 1/2)`` with ``x = df / (df + t^2)``.  ``t == 0`` returns
    exactly 1 and an infinite ``t`` returns 0; an undefined (NaN) ``t``
    gives NaN.  Values below 1e-300 clamp to 0 (rendered "<1e-300" in
    reports).
    """
    if not isinstance(df, (int, np.integer)) or df < 1:
        raise InvalidDf(f"degrees of freedom must be a positive integer, got {df!r}")
    t = float(t)
    if not math.isfinite(t):
        return 0.0 if math.isinf(t) else math.nan
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    p = _betai(0.5 * df, 0.5, x)
    if p < P_VALUE_FLOOR:
        return 0.0
    return min(p, 1.0)


def format_p_value(p: float) -> str:
    """Render a p-value for reports, honoring the underflow clamp."""
    if math.isnan(p):
        return "undefined"
    if p == 0.0:
        return "<1e-300"
    return repr(float(p))


def ols_fit(x: DesignMatrix, y, term_labels=None) -> ModelFit:
    """Fit y on a design whose first column is the intercept.

    Parameters
    ----------
    x : DesignMatrix
        Must have ``has_intercept=True`` and at least one predictor column.
    y : ndarray, shape (n,)
        Response; needs n >= k + 2 so the residual variance is defined.
    term_labels : sequence of str, optional
        Canonical labels for the k predictor columns.  Defaults to
        ``x1..xk``.

    Returns
    -------
    ModelFit

    Raises
    ------
    InsufficientData
        If n <= k + 1.
    RankDeficient
        Propagated from the solver on collinear designs.
    """
    if not x.has_intercept:
        raise ValueError("ols_fit requires a design with an intercept column first")
    n, k_plus_1 = x.values.shape
    k = k_plus_1 - 1
    if k < 1:
        raise ValueError("ols_fit requires at least one predictor besides the intercept")
    if n <= k + 1:
        raise InsufficientData(f"need at least k + 2 = {k + 2} observations, got {n}")
    y = _as_finite_vector(y, "response")
    if y.shape[0] != n:
        raise LengthMismatch(f"response has {y.shape[0]} rows but the design has {n}")

    fact = qr_factorize(x)
    if fact.rank < k_plus_1:
        raise RankDeficient(fact.rank)
    beta, residuals = _solve_from_factorization(fact, x, y)
    rss = float(residuals @ residuals)
    centered = y - y.mean()
    tss = float(centered @ centered)
    if tss == 0.0:
        raise ZeroVariance("response is constant; R^2 is undefined")

    dof = n - k - 1
    r2 = 1.0 - rss / tss
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / dof
    sigma2 = rss / dof

    # diag((X^T X)^{-1}) from the triangular factor: X^T X = P R^T R P^T.
    r_inv = _solve_upper(fact.r[:k_plus_1, :k_plus_1], np.eye(k_plus_1), check_finite=False)
    diag_pivoted = np.sum(r_inv * r_inv, axis=1)
    diag = np.empty(k_plus_1)
    diag[fact.pivot] = diag_pivoted
    std_errors = np.sqrt(sigma2 * diag)

    # An exact fit has zero standard errors: t is infinite for a nonzero
    # coefficient and undefined (NaN) for a zero one.
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = beta / std_errors
    p_values = np.array([p_value_two_sided(float(t), dof) for t in t_stats])

    if term_labels is None:
        term_labels = tuple(f"x{i + 1}" for i in range(k))
    else:
        term_labels = tuple(str(t) for t in term_labels)
        if len(term_labels) != k:
            raise LengthMismatch(f"got {len(term_labels)} labels for {k} predictors")

    return ModelFit(
        term_labels=("intercept",) + term_labels,
        coefficients=beta,
        std_errors=std_errors,
        t_stats=t_stats,
        p_values=p_values,
        vifs=vif(x.predictors()),
        r_squared=r2,
        r_squared_adj=r2_adj,
        rmse=math.sqrt(sigma2),
        residuals=residuals,
        n_obs=n,
    )
