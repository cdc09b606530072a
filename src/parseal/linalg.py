"""Dense least squares on top of a column-pivoted QR factorization.

The solver never forms normal equations: conditioning stays at kappa(X)
instead of kappa(X)^2, and the pivoted R factor doubles as a cheap,
deterministic rank detector.

Here and in ``stats``, scipy is imported inside the functions that call it,
at the first factorization, not at import time.  Building and screening the
dictionary need only numpy; ``import scipy.linalg`` costs most of a fresh
``import parseal``, so commands that never fit (``--help``, ``synth``,
``dict``, a rejected input) do not pay for it.  Later calls find the module
in ``sys.modules``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMatrix, NonFinite

# Relative threshold on the pivoted R diagonal used for rank detection.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class DesignMatrix:
    """Immutable predictor matrix for a single fit.

    Parameters
    ----------
    values : ndarray, shape (n, k)
        One column per term.  Copied to float64 and frozen on construction.
    has_intercept : bool
        True when column 0 is the all-ones intercept column.
    """

    values: np.ndarray
    has_intercept: bool = False

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise EmptyMatrix(f"design matrix must be 2-d and non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFinite("design matrix contains NaN or infinite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    @classmethod
    def with_intercept(cls, columns: np.ndarray) -> "DesignMatrix":
        """Prepend an intercept column to ``columns`` (shape (n, k))."""
        columns = np.asarray(columns, dtype=np.float64)
        if columns.ndim == 1:
            columns = columns[:, None]
        ones = np.ones((columns.shape[0], 1))
        return cls(np.hstack([ones, columns]), has_intercept=True)

    def predictors(self) -> np.ndarray:
        """The non-intercept columns."""
        return self.values[:, 1:] if self.has_intercept else self.values


@dataclass(frozen=True)
class QRFactorization:
    """Economic column-pivoted QR of a design matrix.

    ``x.values[:, pivot] == q @ r`` up to floating-point roundoff, and
    ``rank`` counts the diagonal entries of R above ``RANK_TOL`` relative to
    the leading one.
    """

    q: np.ndarray
    r: np.ndarray
    pivot: np.ndarray
    rank: int


def qr_factorize(x: DesignMatrix) -> QRFactorization:
    """Column-pivoted economic QR with a relative-diagonal rank estimate."""
    import scipy.linalg

    q, r, pivot = scipy.linalg.qr(x.values, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(diag > RANK_TOL * diag[0]))
    return QRFactorization(q=q, r=r, pivot=pivot, rank=rank)


def _solve_from_factorization(fact: QRFactorization, x: DesignMatrix, y: np.ndarray):
    """Back-substitute a full-rank factorization; caller has checked the rank.

    Returns the coefficients, in the design's column order, and the residual
    vector ``y - X b``.
    """
    import scipy.linalg

    k = x.k
    rhs = fact.q.T @ y
    beta_pivoted = scipy.linalg.solve_triangular(fact.r[:k, :k], rhs[:k])
    coefficients = np.empty(k)
    coefficients[fact.pivot] = beta_pivoted
    return coefficients, y - x.values @ coefficients
