"""Dense least squares on top of a column-pivoted QR factorization.

The solver never forms normal equations: conditioning stays at kappa(X)
instead of kappa(X)^2, and the pivoted R factor doubles as a cheap,
deterministic rank detector.

Here and in ``stats``, LAPACK comes from scipy's wrapper module
``scipy.linalg._flapack``, loaded at the first factorization with only the
bare ``scipy`` package (``_lapack``): ``import scipy.linalg`` would add about
330 modules, 28 MB of RSS and a third of a second.  Each call site makes the
calls, workspace queries and checks of the scipy.linalg function it names, so
the bits and errors are scipy's; tests/test_linalg.py holds those as oracle.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from importlib import import_module
from importlib.machinery import ExtensionFileLoader, PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .errors import EmptyMatrix, NonFinite

# Relative threshold on the pivoted R diagonal used for rank detection.
RANK_TOL = 1e-10


@functools.cache
def _lapack():
    """``scipy.linalg._flapack``, loaded with the ``scipy`` package alone.

    CPython files the extension in ``sys.modules``; taken out again, a later
    ``import scipy.linalg`` loads it as usual and gets the same routines.
    Without the file (an editable scipy, say) it is imported.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = PathFinder.find_spec(name, find_spec("scipy.linalg").submodule_search_locations)
    if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
        return import_module(name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


def _call(routine, *args, query=False, **kwargs):
    """Call a LAPACK routine; ``info < 0`` (an illegal argument) raises ValueError.

    ``query`` first asks for the optimal ``lwork``, as scipy's ``safecall``
    does: the workspace sets the blocking, and so the bits.
    """
    if query:
        kwargs["lwork"] = routine(*args, lwork=-1, **kwargs)[-2][0].real.astype(np.int_)
    out = routine(*args, **kwargs)
    if out[-1] < 0:
        raise ValueError(f"illegal value in argument {-out[-1]} of a LAPACK call")
    return out


def _solve_upper(r, b, check_finite=True):
    """``scipy.linalg.solve_triangular(r, b, check_finite=check_finite)``: dtrtrs."""
    if check_finite:
        r, b = np.asarray_chkfinite(r), np.asarray_chkfinite(b)
    r, lower, trans = (r, False, 0) if r.flags.f_contiguous else (r.T, True, 1)
    x, info = _call(_lapack().dtrtrs, r, b, lower=lower, trans=trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


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
    # scipy.linalg.qr(mode="economic", pivoting=True): dgeqp3, then dorgqr.
    a = np.asarray_chkfinite(x.values)
    qr, pivot, tau, _, _ = _call(_lapack().dgeqp3, a, query=True)
    pivot -= 1
    r = np.triu(qr[: a.shape[1]])
    q = _call(_lapack().dorgqr, qr[:, : a.shape[0]], tau, overwrite_a=1, query=True)[0]
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
    k = x.k
    rhs = fact.q.T @ y
    beta_pivoted = _solve_upper(fact.r[:k, :k], rhs[:k])
    coefficients = np.empty(k)
    coefficients[fact.pivot] = beta_pivoted
    return coefficients, y - x.values @ coefficients
